"""Independent numeric reference for the characteristic coefficients.

``cpc_table`` runs the division-free Berkowitz algorithm (S. J. Berkowitz,
"On computing the determinant in small parallel time using a small number
of processors", IPL 18, 1984) on plain Python values: ``int``, ``int``
reduced mod m, or ``Fraction``.  The characteristic polynomial of every
leading principal block A_r comes out of the recursion, and its
coefficients are, up to sign, the values cpc_{r,j}(A) for all j <= r.
Nothing here imports ``abpc`` except ``self_check``, which compares the
reference against the library's brute-force oracles before the reference
judges anything.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

# Ring families of the benchmark.  ``self_check`` covers each of them.
RING_SPECS = ("int", "mod:4", "mod:6", "mod:7", "rat")

Table = Dict[Tuple[int, int], object]


class ReferenceMismatch(Exception):
    """The reference disagrees with the library's brute-force oracles."""


def reducer(spec: str) -> Callable[[object], object]:
    """Canonical-form map for one ring spec: identity, or reduction mod m."""
    if spec.startswith("mod:"):
        m = int(spec[4:])
        return lambda x: x % m
    return lambda x: x


def random_matrix(spec: str, n: int, rnd: random.Random) -> List[List[object]]:
    """Seeded n x n matrix of canonical values; rationals get small denominators."""
    red = reducer(spec)
    if spec == "rat":
        return [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
    return [[red(rnd.randint(-9, 9)) for _ in range(n)] for _ in range(n)]


def to_text(spec: str, value: object) -> str:
    """The exact text form of a canonical value (``num/den`` for rationals)."""
    if spec == "rat":
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def cpc_table(a: List[List[object]], spec: str) -> Table:
    """Every cpc_{i,j}(A) for 0 <= j <= i <= n, by Berkowitz's recursion.

    With A_r = [[A_{r-1}, C], [R, a_rr]], the coefficient vector of
    det(t I - A_r) is T_r times that of A_{r-1}, where T_r is the lower
    triangular Toeplitz matrix with first column
    (1, -a_rr, -R C, -R A_{r-1} C, .., -R A_{r-1}^{r-2} C).
    cpc_{r,j} is (-1)^j times the coefficient of t^(r-j).
    """
    red = reducer(spec)
    n = len(a)
    table: Table = {(0, 0): red(1)}
    prev = [1]
    for r in range(1, n + 1):
        k = r - 1
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        first = [1, red(-a[k][k])]
        v = row
        for step in range(k):
            first.append(red(-sum(x * y for x, y in zip(v, col))))
            if step + 1 < k:
                v = [red(sum(v[i] * a[i][j] for i in range(k))) for j in range(k)]
        cur = [red(sum(first[i - j] * prev[j] for j in range(max(0, i - r), min(i, k) + 1)))
               for i in range(r + 1)]
        for j, c in enumerate(cur):
            table[(r, j)] = red(-c if j % 2 else c)
        prev = cur
    return table


def self_check(seed: int, n_max: int = 6) -> None:
    """Check the reference against ``det_leibniz`` and substituted minor sums.

    For every ring family and every n <= n_max, one seeded matrix: the
    determinant must equal cpc_{n,n} and ``cpc_minor_sum(n, d)`` evaluated
    at the matrix must equal cpc_{n,d} for every d.  Raises
    ReferenceMismatch on the first disagreement.
    """
    from abpc import PolyMatrix, cpc_minor_sum, descriptor_from_spec, det_leibniz
    from abpc.rings import element_from_str

    rnd = random.Random(f"reference-self-check/{seed}")
    for spec in RING_SPECS:
        ring = descriptor_from_spec(spec)
        for n in range(1, n_max + 1):
            a = random_matrix(spec, n, rnd)
            entries = [[element_from_str(ring, to_text(spec, x)) for x in row] for row in a]
            table = cpc_table(a, spec)
            det = det_leibniz(PolyMatrix.from_constants(ring, n, entries)).constant_term()
            if det.value != table[(n, n)]:
                raise ReferenceMismatch(f"Berkowitz det disagrees with det_leibniz: {spec} n={n}")
            for d in range(n + 1):
                got = cpc_minor_sum(n, d, ring).substitute(entries).value
                if got != table[(n, d)]:
                    raise ReferenceMismatch(
                        f"Berkowitz cpc_{n}_{d} disagrees with cpc_minor_sum over {spec}")
