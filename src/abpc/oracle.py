"""Brute-force reference implementations of the target polynomials.

Two independent oracle families live here.  The algebraic one expands
principal minors by the Leibniz permutation sum.  The combinatorial one
enumerates partial cycle covers of the complete digraph K_n (an edge from
vertex i to vertex j carries the label x[i,j]; a loop counts as a cycle of
length 1 and sign +1, a cycle of length l has sign (-1)^(l-1)) and, for
gradient entries, cycle-cover-plus-path pairs.  Both are exhaustive
enumerations guarded to small sizes: these are test oracles, not
production paths.  ``cpc_table`` is the numeric reference for larger
sizes: Berkowitz's division-free recursion at a concrete matrix.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from typing import Dict, Iterator, Sequence, Tuple

from .poly import _ONE, Polynomial, PolyMatrix, Raw, _sum_products, flatten, monomial_code
from .rings import AbpcError, RingDescriptor, RingElement, int_embed

ORACLE_SIZE_CAP = 8

Edge = Tuple[int, int]


class OracleLimitError(AbpcError):
    pass


def _check_enumeration_size(n: int) -> None:
    """The one test of a size against the cap, for every oracle and verify call."""
    if n > ORACLE_SIZE_CAP:
        raise OracleLimitError("oracle size limit")


def _leibniz_products(a: PolyMatrix) -> Iterator[Tuple[Raw, Raw]]:
    """det(a) as raw (head, last) pairs, one per permutation whose entries
    are all nonzero: ``last`` is the entry in the last row and ``head`` is
    the permutation's sign times the other entries.  The rows are walked
    depth first, so permutations with a common prefix share its product,
    and the sign gains a factor -1 for each row whose column has odd rank
    among the columns left."""
    d = a.rows
    rows = [a.entries[r * d:(r + 1) * d] for r in range(d)]

    def walk(row: int, left: Tuple[int, ...], head: Polynomial) -> Iterator[Tuple[Raw, Raw]]:
        if row == d - 1:
            last = rows[row][left[0]]
            if not last.is_zero():
                yield head.raw, last.raw
            return
        for rank, col in enumerate(left):
            f = rows[row][col]
            if not f.is_zero():
                yield from walk(row + 1, left[:rank] + left[rank + 1:],
                                head * (-f if rank % 2 else f))

    yield from walk(0, tuple(range(d)), Polynomial.from_int(a.ring, a.ambient_n, 1))


def det_leibniz(a: PolyMatrix) -> Polynomial:
    """Exact determinant by full permutation expansion (size <= 8)."""
    if a.rows != a.cols:
        raise OracleLimitError("determinant of a non-square matrix")
    d = a.rows
    _check_enumeration_size(d)
    if d == 0:
        raise OracleLimitError("empty matrix")
    return _sum_products(a.ring, a.ambient_n, _leibniz_products(a))


def iter_cycle_covers(pool: Sequence[int], length: int) -> Iterator[Tuple[Tuple[Edge, ...], int]]:
    """Yield (edges, sign) for every partial cycle cover of exact total length.

    ``pool`` is a sorted list of available vertices.  Covers are emitted in a
    canonical order: recursion on the smallest vertex, which is either left
    uncovered or becomes the minimum of a new cycle, so each cover appears
    exactly once.  A ``length`` over the pool's size has no cover at all.
    """
    if length == 0:
        yield (), 1
        return
    if length > len(pool) or length < 0:
        return
    v = pool[0]
    rest = pool[1:]
    # v stays uncovered
    yield from iter_cycle_covers(rest, length)
    # v is the minimal vertex of a cycle of length l
    for l in range(1, length + 1):
        for middle in permutations(rest, l - 1):
            cycle_vertices = (v,) + middle
            edges = tuple(
                (cycle_vertices[t], cycle_vertices[(t + 1) % l]) for t in range(l)
            )
            sign = -1 if (l - 1) % 2 else 1
            remaining = [w for w in rest if w not in middle]
            for sub_edges, sub_sign in iter_cycle_covers(remaining, length - l):
                yield edges + sub_edges, sign * sub_sign


def iter_simple_paths(pool: Sequence[int], a: int, b: int) -> Iterator[Tuple[int, ...]]:
    """Yield every repetition-free vertex sequence from a to b inside pool.

    A path that has reached b cannot be extended, since leaving b would
    force a second visit of b at the end.  For a = b only the length-0
    path (a,) exists.
    """
    if a not in pool or b not in pool:
        return

    def extend(prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if prefix[-1] == b:
            yield prefix
            return
        for w in pool:
            if w not in prefix:
                yield from extend(prefix + (w,))

    yield from extend((a,))


def _signed_term(edges: Sequence[Edge], sign: int, n: int) -> Raw:
    """The raw monomial of ``edges``' labels with coefficient ``sign``, an
    ``int`` in every ring: the kernel reduces its sums mod m."""
    return {monomial_code(flatten(i, j, n) for i, j in edges): sign}


def cpc_minor_sum(n: int, d: int, ring: RingDescriptor) -> Polynomial:
    """Degree-d characteristic coefficient as a sum of principal minors.

    Sums det of the (S, S) submatrix of the generic n x n matrix over all
    size-d subsets S; 1 for d = 0 and 0 for d > n.
    """
    _check_enumeration_size(n)
    if d < 0:
        raise OracleLimitError("negative degree")
    if d == 0:
        return Polynomial.from_int(ring, n, 1)
    x = PolyMatrix.variables(ring, n)
    minors = (x.submatrix(subset, subset) for subset in combinations(range(1, n + 1), d))
    return _sum_products(ring, n, chain.from_iterable(map(_leibniz_products, minors)))


def cpc_cycle_cover(n: int, d: int, ring: RingDescriptor) -> Polynomial:
    """Degree-d characteristic coefficient as a signed cycle-cover sum."""
    _check_enumeration_size(n)
    covers = iter_cycle_covers(list(range(1, n + 1)), d)
    return _sum_products(ring, n, ((_signed_term(edges, sign, n), _ONE)
                                   for edges, sign in covers))


def grad_ccp_entry(n: int, d: int, a: int, b: int, ring: RingDescriptor) -> Polynomial:
    """Entry (a, b) of the transposed gradient of the degree-(d+1) coefficient.

    Computed combinatorially: sum over pairs of a partial cycle cover q and a
    vertex-disjoint simple path z from a to b with len(q) + len(z) = d, each
    pair weighted by sgn(q) beta(q) sgn(z) beta(z) where sgn(z) = (-1)^len(z).
    """
    _check_enumeration_size(n)
    if not (1 <= a <= n and 1 <= b <= n):
        raise OracleLimitError("path endpoints outside the vertex set")
    vertices = list(range(1, n + 1))
    pairs = []
    for path in iter_simple_paths(vertices, a, b):
        path_len = len(path) - 1
        if path_len > d:
            continue
        path_edges = tuple(zip(path, path[1:]))
        path_sign = -1 if path_len % 2 else 1
        remaining = [w for w in vertices if w not in path]
        for cover_edges, cover_sign in iter_cycle_covers(remaining, d - path_len):
            pairs.append((_signed_term(path_edges + cover_edges, path_sign * cover_sign, n), _ONE))
    return _sum_products(ring, n, pairs)


def cpc_table(entries: Sequence[Sequence[RingElement]],
              ring: RingDescriptor) -> Dict[Tuple[int, int], RingElement]:
    """Every cpc_{i,j}(A), 0 <= j <= i <= n, at a concrete n x n matrix.

    Division-free Samuelson-Berkowitz recursion (S. J. Berkowitz, IPL 18,
    1984), so it holds in every commutative ring, Z/m with zero divisors
    included.  It runs on B = -A, since det(tI - B_i) = det(tI + A_i) has
    the coefficients cpc_{i,j}(A), highest power of t first, for the
    leading i x i block.  With B_i = [[B_{i-1}, C], [R, b]], that vector
    is the lower triangular Toeplitz matrix with first column
    (1, -b, -R C, -R B_{i-1} C, ..., -R B_{i-1}^{i-2} C) times the vector
    of B_{i-1}.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise OracleLimitError("cpc_table needs a square matrix")
    b = [[-e for e in row] for row in entries]
    one = int_embed(ring, 1)
    zero = int_embed(ring, 0)

    def dot(xs, ys) -> RingElement:
        total = zero
        for x, y in zip(xs, ys):
            total = total + x * y
        return total

    coeffs = [one]
    table = {(0, 0): one}
    for i in range(1, n + 1):
        lead = [row[:i - 1] for row in b[:i - 1]]
        row, col = b[i - 1][:i - 1], [r[i - 1] for r in b[:i - 1]]
        column = [one, -b[i - 1][i - 1]]
        for _ in range(i - 1):
            column.append(-dot(row, col))
            col = [dot(r, col) for r in lead]
        coeffs = [dot(column[k::-1], coeffs) for k in range(i + 1)]
        for j, c in enumerate(coeffs):
            table[(i, j)] = c
    return table
