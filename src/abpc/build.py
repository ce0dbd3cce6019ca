"""Builders for the branching-program constructions and their statistics.

Three builders produce programs computing the characteristic-coefficient
family cpc_{n,d} (output names ``cpc_<n>_<d>``):

* ``build_charzero_abp``   -- trace-recursion program, needs rationals;
* ``build_bivariate_abp``  -- bottom-right-power recursion, any ring;
* ``build_gradient_abp``   -- gradient-vector program, any ring; its layer
  j holds exactly the entries of the row vectors r_{i,j} (the last rows of
  the transposed gradients of cpc_{i,j+1}), which gives the closed-form
  counts (n-j)(n+j+1)/2 per layer and width C(n+1,2)-1.  One rule builds
  it, r_{i,j+1} = ( -r_{i,j} L_i | sum_{i'=j+1..i-1} r_{i',j} C_{i'} ),
  and the last entry of r_{i+1,j} is cpc_{i,j}; vertex ``c_<i>_<j>`` is
  that entry where only it is kept (i = n or the top layer), so d = 1 is
  not a special case.  The c vertices are its only sinks, which is how
  ``stats_from_graph``, reading edges alone, counts the r-vector entries.
  ``transition_matrix`` reads its entries from the program's edges.

``width_from_determinantal`` goes the other way: it recovers a program
from a square affine matrix with homogeneous determinant over a field,
through exact row reduction and a truncated Schur complement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .graph import AbpGraph, GraphError, homogenize, sub_abp, topological_order
from .oracle import det_leibniz
from .poly import Polynomial, PolyMatrix, unflatten
from .rings import RingDescriptor, RingElement, int_embed, invert


@dataclass(frozen=True)
class ConstructionStats:
    """Vertex accounting for a program, read from its edges alone.

    A sink is a vertex without out-edges.  ``per_layer_counts`` counts the
    non-sinks of layers 1..d-1, ``width`` is their maximum and ``size``
    counts the non-sinks other than the source.  Only when a layer 1..d-1
    holds a sink, ``rvector_total`` is ``size`` and ``extra_output_vertices``
    counts the sinks of layers 1..d; otherwise both are ``None``.
    """

    width: int
    per_layer_counts: Tuple[int, ...]
    rvector_total: Optional[int]
    extra_output_vertices: Optional[int]
    total_vertices: int
    size: int
    edge_count: int
    outputs: Tuple[Tuple[str, int], ...]


def stats_from_graph(g: AbpGraph) -> ConstructionStats:
    """The statistics of ``g``, from one out-edge set and one pass over the vertices."""
    d = g.num_layers
    has_out = {u for u, _v in g.edges}
    inner, sinks = Counter(), Counter()
    for v, lay in g.layer.items():
        (inner if v in has_out else sinks)[lay] += 1
    counts = tuple(inner[lay] for lay in range(1, d))
    size = sum(inner.values()) - (g.source in has_out)
    split = any(0 < lay < d for lay in sinks)
    return ConstructionStats(
        width=max(counts, default=0),
        per_layer_counts=counts,
        rvector_total=size if split else None,
        extra_output_vertices=sum(c for lay, c in sinks.items() if 0 < lay <= d) if split else None,
        total_vertices=len(g.layer),
        size=size,
        edge_count=len(g.edges),
        outputs=tuple(sorted((name, g.layer[v]) for name, v in g.outputs.items())),
    )


# -- closed-form counts for the gradient construction ---------------------------


def gradient_layer_count(n: int, j: int) -> int:
    return (n - j) * (n + j + 1) // 2


def gradient_width(n: int) -> int:
    return comb(n + 1, 2) - 1


def gradient_vertex_total(n: int, d: int) -> int:
    return (d - 1) * comb(n + 1, 2) - comb(d + 1, 3)


def comparison_report(n: int, d: Optional[int] = None) -> dict:
    """Compare the gradient construction against the n^3 / n^2 baseline."""
    if d is None:
        d = n
    if not 1 <= d <= n:
        raise GraphError("parameters out of range: need 1 <= d <= n")
    vertices, width = gradient_vertex_total(n, d), gradient_width(n)
    return {
        "n": n,
        "d": d,
        "vertices": vertices,
        "width": width,
        "baseline_vertices": n ** 3,
        "baseline_width": n ** 2,
        "vertex_ratio": n ** 3 / vertices if vertices else None,
        "width_ratio": n ** 2 / width if width else None,
    }


Labels = Dict[Tuple[int, int], Polynomial]


def _signed_variables(ring: RingDescriptor, n: int) -> Tuple[Labels, Labels]:
    """The labels x[i,j] and -x[i,j], keyed by (i, j): one object each,
    shared by every edge that carries it."""
    x = {
        (i, j): Polynomial.variable(ring, n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    }
    return x, {key: -var for key, var in x.items()}


# -- trace-recursion construction (needs rationals) ------------------------------


def build_charzero_abp(n: int, d_max: int, ring: RingDescriptor) -> AbpGraph:
    """Program with outputs cpc_n_0 .. cpc_n_dmax from the trace recursion.

    Vertex v_d accumulates, for i = 1..d, the contribution of v_{d-i}
    times (-1)^(i+1)/d * trace of the i-th matrix power; division by d
    requires a ring containing the rationals.  Each trace sub-program
    tracks (start, current) walk states, so its width is at most n^2.
    """
    if not ring.contains_rationals:
        raise GraphError("construction requires characteristic zero")
    if n < 1 or d_max < 0:
        raise GraphError("parameters out of range")
    g = AbpGraph("abp", ring, n, d_max)
    x, _neg_x = _signed_variables(ring, n)
    trace = Polynomial.zero(ring, n)
    for a in range(1, n + 1):
        trace = trace + x[(a, a)]
    # each vertex id is formatted once; every edge key reuses the string
    v = [g.add_vertex(f"v_{d}", d) for d in range(0, d_max + 1)]
    g.set_source(v[0])

    # add_edges reads the live vertex table, so the generator adds each
    # vertex before the first edge that needs it
    def edges() -> Iterator[Tuple[str, str, Polynomial]]:
        for d in range(1, d_max + 1):
            inv_d = invert(int_embed(ring, d))
            yield v[d - 1], v[d], trace.scale(inv_d)
            # closing[i % 2][(b, a)] is (-1)^(i+1)/d * x[b,a]
            closing = [{key: var.scale(coeff) for key, var in x.items()} for coeff in (-inv_d, inv_d)]
            for i in range(2, d + 1):
                w = {(l, a, b): g.add_vertex(f"w_{d}_{i}_{l}_{a}_{b}", d - i + l)
                     for l in range(1, i) for a in range(1, n + 1) for b in range(1, n + 1)}
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        yield v[d - i], w[1, a, b], x[(a, b)]
                for l in range(1, i - 1):
                    for a in range(1, n + 1):
                        for b in range(1, n + 1):
                            for c in range(1, n + 1):
                                yield w[l, a, b], w[l + 1, a, c], x[(b, c)]
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        yield w[i - 1, a, b], v[d], closing[i % 2][(b, a)]

    g.add_edges(edges())
    for d in range(0, d_max + 1):
        g.add_output(f"cpc_{n}_{d}", v[d])
    return g


# -- bottom-right-power construction (any ring) -----------------------------------


def build_bivariate_abp(n: int, d_max: int, ring: RingDescriptor) -> AbpGraph:
    """Program with outputs cpc_i_j for all j <= i <= n, j <= d_max.

    Vertex v_{i,j} is assembled from v_{i-1,j} (weight 1) and, for
    i' = 1..j, from v_{i,j-i'} through a sub-program computing
    (-1)^(i'+1) times the bottom-right entry of the i'-th power of the
    leading i x i block.  Works over every commutative ring.
    """
    if n < 1 or d_max < 0:
        raise GraphError("parameters out of range")
    d_max = min(d_max, n)
    g = AbpGraph("abp", ring, n, d_max)
    one = Polynomial.from_int(ring, n, 1)
    x, neg_x = _signed_variables(ring, n)
    # each vertex id is formatted once; every edge key reuses the string
    v: Dict[Tuple[int, int], str] = {}
    for i in range(0, n + 1):
        v[i, 0] = g.add_vertex(f"v_{i}_0", 0)
    g.set_source(v[0, 0])

    # the generator adds each vertex before the first edge that needs it
    def edges() -> Iterator[Tuple[str, str, Polynomial]]:
        for i in range(0, n):
            yield v[i, 0], v[i + 1, 0], one
        for j in range(1, d_max + 1):
            for i in range(j, n + 1):
                v[i, j] = g.add_vertex(f"v_{i}_{j}", j)
                if i > j:
                    yield v[i - 1, j], v[i, j], one
                for ip in range(1, j + 1):
                    signed_x = x if ip % 2 == 1 else neg_x
                    src = v[i, j - ip]
                    if ip == 1:
                        yield src, v[i, j], signed_x[(i, i)]
                        continue
                    # w[l - 1][b - 1] is vertex w_{i}_{j}_{ip}_{l}_{b}
                    w = [[g.add_vertex(f"w_{i}_{j}_{ip}_{l}_{b}", j - ip + l) for b in range(1, i + 1)]
                         for l in range(1, ip)]
                    for b, head in enumerate(w[0], 1):
                        yield src, head, x[(i, b)]
                    for tails, heads in zip(w, w[1:]):
                        for b, tail in enumerate(tails, 1):
                            for c, head in enumerate(heads, 1):
                                yield tail, head, x[(b, c)]
                    for b, tail in enumerate(w[-1], 1):
                        yield tail, v[i, j], signed_x[(b, i)]

    g.add_edges(edges())
    for i in range(0, n + 1):
        for j in range(0, min(i, d_max) + 1):
            g.add_output(f"cpc_{i}_{j}", v[i, j])
    return g


# -- gradient-vector construction (any ring) ---------------------------------------


def build_gradient_abp(n: int, d_max: int, ring: RingDescriptor) -> Tuple[AbpGraph, ConstructionStats]:
    """The gradient program of ``_build_gradient`` and its statistics."""
    g = _build_gradient(n, d_max, ring)
    return g, stats_from_graph(g)


def _build_gradient(n: int, d_max: int, ring: RingDescriptor) -> AbpGraph:
    """Program whose layer-j vertices are the entries of the vectors r_{i,j}.

    One rule builds it: r_{i,j+1} = ( -r_{i,j} L_i | sum_{i'=j+1..i-1}
    r_{i',j} C_{i'} ) for j < i <= n+1, j <= d_max, and the last entry of
    r_{i+1,j} is the output cpc_{i,j}.  Vertex r_{i}_{j}_{a} holds entry a
    of r_{i,j}.  Of r_{n+1,j} and of the top layer j = d_max only the last
    entry is kept: vertex c_{i}_{j} is the kept last entry of r_{i+1,j}, so
    d_max = 1 is not a special case.  From r_{i,0} = (0 .. 0, 1) the first
    layer is r_{i,1} = (-x[i,1] .. -x[i,i-1], tr_{i-1}), whose traces form a
    diagonal chain of x[i,i] edges joined by constant-1 edges; beyond it
    every edge label is a single signed variable.
    """
    if not 1 <= d_max <= n:
        raise GraphError("parameters out of range: need 1 <= d <= n")
    g = AbpGraph("abp", ring, n, d_max)
    g.add_vertex("s", 0)
    g.set_source("s")
    one = Polynomial.from_int(ring, n, 1)
    x, neg_x = _signed_variables(ring, n)
    # r[i, j]: the kept entries of r_{i,j}, all i of them or only the last
    r: Dict[Tuple[int, int], List[str]] = {}
    for j in range(1, d_max + 1):
        for i in range(j + 1, n + 2):
            if i <= n and j < d_max:
                r[i, j] = [g.add_vertex(f"r_{i}_{j}_{a}", j) for a in range(1, i + 1)]
            else:
                r[i, j] = [g.add_vertex(f"c_{i - 1}_{j}", j)]

    # col[a][b - 1] is x[b,a], and neg_col[a][b - 1] is -x[b,a]
    col, neg_col = ({a: [xs[(b, a)] for b in range(1, n + 1)] for a in range(1, n + 1)}
                    for xs in (x, neg_x))

    def edges() -> Iterator[Iterable[Tuple[str, str, Polynomial]]]:
        for i in range(2, n + 2):
            *head, last = r[i, 1]
            yield zip(repeat("s"), head, (neg_x[(i, a)] for a in range(1, i)))
            yield [("s", last, x[(i - 1, i - 1)])]
            if i >= 3:
                yield [(r[i - 1, 1][-1], last, one)]
        # beyond the first layer, by columns: the edges into one head, tails in order
        for j in range(1, d_max):
            for i in range(j + 2, n + 2):
                *head, last = r[i, j + 1]
                for a, v in enumerate(head, 1):
                    yield zip(r[i, j], repeat(v), neg_col[a])
                for ip in range(j + 1, i):
                    yield zip(r[ip, j], repeat(last), col[ip])

    g.add_edges(chain.from_iterable(edges()))
    for i in range(0, n + 1):
        g.add_output(f"cpc_{i}_0", "s")
    for (i, j), kept in r.items():
        g.add_output(f"cpc_{i - 1}_{j}", kept[-1])
    return g


# -- block transition matrices -------------------------------------------------------


def transition_matrix(n: int, d: int, ring: RingDescriptor) -> PolyMatrix:
    """Matrix carrying (r_{d,d-1},..,r_{n,d-1}) to (r_{d+1,d},..,r_{n,d}).

    Its entries are the edge labels between r-layers d-1 and d of the
    gradient program, 0 where there is no edge, so they follow the
    program's rule: block (i, i') is (-L_i | 0) for i = i', (0 | C_i) for
    i < i' and 0 below.  For d = n it has no columns.
    """
    if not (2 <= d <= n):
        raise GraphError("parameters out of range: need 2 <= d <= n")
    return _transition_block(_build_gradient(n, min(d + 1, n), ring), d)


def _transition_block(g: AbpGraph, d: int) -> PolyMatrix:
    """``transition_matrix``'s block at d, read from the edges of a gradient
    program ``g`` that keeps its r-layers d-1 and d whole: built with
    d_max > d, or d = n."""
    n, ring = g.ambient_n, g.ring

    def entries(j: int) -> List[str]:
        return [f"r_{i}_{j}_{a}" for i in range(j + 1, n + 1) for a in range(1, i + 1)]

    zero = Polynomial.zero(ring, n)
    return PolyMatrix.from_rows(ring, n, [[g.edges.get((u, v), zero) for v in entries(d)]
                                          for u in entries(d - 1)])


# -- recovery from a determinantal representation --------------------------------------


def _field_normal_form(m0: List[List[RingElement]], ring: RingDescriptor):
    """g, h, rank with g*m0*h = [[0,0],[0,I_rank]] and det(g)*det(h) = 1.

    Gauss-Jordan elimination on the rows of [m0 | I] gives g with g*m0 = R
    in reduced row echelon form, whose pivot columns p_1 < .. < p_rank are
    e_1 .. e_rank.  h is written down from R: first each free column f as
    e_f - sum_t R[t][f] e_{p_t}, which R sends to 0, then the e_{p_t},
    which R sends to e_t.  So R*h = [[0,I],[0,0]], and g's rows are rotated
    to put R's zero rows first.  Sign argument: h is the permutation of
    that column order times a unit triangular matrix, so det(h) is -1 to
    the order's inversions; det(g) is the product of the pivot inverses,
    times -1 per row swap and (-1)^(rank*(s-rank)) for the rotation.  The
    rank is not full, so g's first row sends m0 to 0 and is scaled by the
    inverse of det(g)*det(h).
    """
    s = len(m0)
    zero, one = int_embed(ring, 0), int_embed(ring, 1)
    rows = [row + [one if b == c else zero for c in range(s)] for b, row in enumerate(m0)]
    # the inverse of det(g)*det(h): the product of the pivots, times the sign
    scale, swaps = one, 0
    pivots: List[int] = []
    for c in range(s):
        r = len(pivots)
        pr = next((i for i in range(r, s) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        scale = scale * rows[r][c]
        inv_p = invert(rows[r][c])
        rows[r] = [inv_p * e for e in rows[r]]
        for i in range(s):
            f = rows[i][c]
            if i != r and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    rank = len(pivots)
    if rank == s:
        raise GraphError("constant part has full rank")
    free = [c for c in range(s) if c not in pivots]
    h = [None] * s  # the free and the pivot columns set every row
    for j, f in enumerate(free):
        h[f] = [one if i == j else zero for i in range(s)]
    for t, p in enumerate(pivots):
        h[p] = [-rows[t][f] for f in free] + [one if i == t else zero for i in range(rank)]
    g = [row[s:] for row in rows[rank:] + rows[:rank]]
    if (swaps + sum(p < f for f in free for p in pivots) + rank * (s - rank)) % 2:
        scale = -scale
    g[0] = [scale * e for e in g[0]]
    return g, h, rank


def _signed_variable(label: Polynomial) -> Tuple[int, int, int]:
    """(i, j, s) for a label that is exactly s * x[i,j] with s = +-1."""
    if len(label.terms) == 1:
        ((mono, c),) = label.terms.items()
        sign = 1 if c.is_one() else -1 if (-c).is_one() else 0
        if mono and sign:
            i, j = unflatten(mono[0][0], label.ambient_n)
            return i, j, sign
    raise GraphError("expected a signed single-variable edge label")


def width_from_determinantal(m: PolyMatrix, d: int, ring: RingDescriptor) -> AbpGraph:
    """Recover a layered program computing det(m) from an affine matrix.

    Requires a field and det(m) nonzero homogeneous of degree d.  After
    normalizing the constant part to [[0,0],[0,I]] by row/column
    operations (g, h), the blocks of g*m*h = [[A,B],[C,I-D]] define
    W = A - B (sum_{l<=d-2} D^l) C, whose determinant agrees with det(m)
    in degree d.  Each signed-variable edge of the base determinant
    program is replaced by an affine sub-program for the matching entry of
    W, and the result is homogenized back to degree d.  Output: ``det``.
    """
    if not ring.is_field:
        raise GraphError("recovery requires a field")
    if m.rows != m.cols or m.ring != ring:
        raise GraphError("expected a square matrix over the given ring")
    s = m.rows
    ambient = m.ambient_n
    for p in m.entries:
        if p.degree > 1:
            raise GraphError("matrix entries must be affine")
    f = det_leibniz(m)
    if f.is_zero() or f.homogeneous_component(d) != f:
        raise GraphError("determinant is not homogeneous of the stated degree")

    m0 = [[m.entry(a, b).constant_term() for b in range(1, s + 1)] for a in range(1, s + 1)]
    m1 = PolyMatrix(ring, ambient, s, s, [p.homogeneous_component(1) for p in m.entries])
    g_rows, h_rows, rank = _field_normal_form(m0, ring)
    k = s - rank
    if k > d:
        raise GraphError("zero-block larger than the degree; determinant must vanish")
    t = PolyMatrix.from_constants(ring, ambient, g_rows) * m1 * \
        PolyMatrix.from_constants(ring, ambient, h_rows)
    idx_top = list(range(1, k + 1))
    idx_bot = list(range(k + 1, s + 1))
    block_a = t.submatrix(idx_top, idx_top)
    block_b = t.submatrix(idx_top, idx_bot)
    block_c = t.submatrix(idx_bot, idx_top)
    block_d = -t.submatrix(idx_bot, idx_bot)

    base = _build_gradient(k, k, ring)
    base = sub_abp(base, f"cpc_{k}_{k}")

    verts = base.layer_order()
    chain_count = 0
    pending: List[Tuple[str, str, Polynomial]] = []
    for (u, v) in sorted(base.edges):
        lab = base.edges[(u, v)]
        if lab.degree == 0:
            # the base program's ambient size is k, which may exceed ``ambient``
            pending.append((u, v, Polynomial.constant(ring, ambient, lab.constant_term())))
            continue
        alpha, beta, sign = _signed_variable(lab)
        # direct part: the A-block entry, signed; add_edges drops a zero
        # label, here and on the chain edges below
        a_entry = block_a.entry(alpha, beta)
        pending.append((u, v, a_entry if sign > 0 else -a_entry))
        if d < 2:
            continue
        chain_count += 1
        tag = f"z{chain_count}"
        verts.extend(f"{tag}_{l}_{c}" for l in range(0, d - 1) for c in range(1, rank + 1))
        for c in range(1, rank + 1):
            start = block_b.entry(alpha, c)
            pending.append((u, f"{tag}_0_{c}", -start if sign > 0 else start))
            close = block_c.entry(c, beta)
            pending.extend((f"{tag}_{l}_{c}", v, close) for l in range(0, d - 1))
        for l in range(0, d - 2):
            for c in range(1, rank + 1):
                for cc in range(1, rank + 1):
                    pending.append((f"{tag}_{l}_{c}", f"{tag}_{l + 1}_{cc}", block_d.entry(c, cc)))
    # a vertex's position in a topological order is its aabp index
    order = topological_order(verts, [(u, v) for (u, v, _lab) in pending])
    if len(order) != len(verts):
        raise GraphError("spliced graph is not acyclic")
    spliced = AbpGraph("aabp", ring, ambient, len(order) - 1)
    for pos, vid in enumerate(order):
        spliced.add_vertex(vid, pos)
    spliced.set_source(base.source)
    spliced.add_edges(pending)
    spliced.add_output("det", base.outputs[f"cpc_{k}_{k}"])
    return homogenize(spliced, d)
