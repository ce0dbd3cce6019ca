"""Symbolic verification of the characteristic-coefficient identities.

Every check builds both sides of an exact polynomial (matrix) equality
from independent ingredients and compares entrywise.  The central one is

    bivariate_ch:   transpose(grad cpc_{n,d+1}) = sum_{i=0}^{d} (-1)^i cpc_{n,d-i} X^i

whose left side comes from the gradient of the minor-sum oracle (or from
the cycle-cover-and-path oracle in combinatorial mode).  Cayley-Hamilton
and the adjugate formula are this identity at d = n, where that side is
zero, and at d = n-1, where it is adj(X).  Its right side is the last of the
Horner sums ``T_0 .. T_d`` (``horner_sequence``); the right sides of the
trace identity, the Samuelson entry and the cpc recursion are that sum,
its trace or its (n,n) entry.  The Girard-Newton identities are the trace
identity at diagonal matrices, where cpc_{n,k} is the elementary symmetric
e_k and tr(X^i) the power sum p_i.  Every left side is an independent
oracle (minor sums, cycle covers), and no identity's truth is used to
build another's side.  Alternating signs are reduced in the ring like
every other coefficient, so the checks remain valid in characteristic 2.

``_SIDES`` declares each identity once, its sides and its degree rule;
``verify_identity`` and the ``verify_all`` grid both read it.  One verify
call, a single check or the whole grid, has one context (``_Ingredients``):
its ring, its mode and every ingredient its sides read, each built at most
once.  Those are each minor sum cpc_{n,k}, its partial derivatives (or
cycle-cover-and-path entries) and each Horner sum T_k at size n, built
once per (n, k) from T_{k-1} with one kernel call per entry.  Past k = n
the Horner sums are zero, so no side forms a monomial of degree above n,
whatever d is.  A transition_product check reads its first layer r_{i,1}
as partials of cpc_{i,2} and det_d as cpc_{d,d}, builds one gradient
program and reads every transition block from it.  ``verify`` and ``verify_all`` refuse a matrix size over the
oracle cap before they build any side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .build import _build_gradient, _transition_block
from .oracle import _check_enumeration_size, cpc_minor_sum, grad_ccp_entry
from .poly import _ONE, Polynomial, PolyMatrix, Raw, _sum_products, flatten, monomial_code
from .rings import AbpcError, RingDescriptor, descriptor_to_spec, int_embed


class IdentityError(AbpcError):
    pass


@dataclass(frozen=True)
class Witness:
    """First mismatching position (lexicographic) with both sides spelled out."""

    position: Optional[Tuple[int, int]]
    lhs: str
    rhs: str
    difference: str


@dataclass(frozen=True)
class CheckReport:
    identity: str
    n: int
    d: int
    ring: RingDescriptor
    passed: bool
    witness: Optional[Witness]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        spec = descriptor_to_spec(self.ring)
        return f"{self.identity} n={self.n} d={self.d} ring={spec} {status}"


def side_entries(side) -> Iterator[Tuple[Optional[Tuple[int, int]], Polynomial]]:
    """A side's (position, entry) pairs in row-major order; the position of
    a scalar side is None."""
    if isinstance(side, Polynomial):
        yield None, side
        return
    for a in range(1, side.rows + 1):
        for b in range(1, side.cols + 1):
            yield (a, b), side.entry(a, b)


def _first_mismatch(lhs, rhs) -> Optional[Witness]:
    for (position, le), (_position, re) in zip(side_entries(lhs), side_entries(rhs)):
        if le != re:
            return Witness(position, le.text(), re.text(), (le - re).text())
    return None


# -- ingredient builders ---------------------------------------------------------


class _Ingredients:
    """The context of one verify call: its ``ring``, its ``combinatorial``
    mode and the ingredients its sides read, each built on first use and
    kept for the life of the object.  ``cpc(n, k)`` is the minor sum
    cpc_{n,k}; ``partial`` gives its partial derivative by x[a,b], and
    ``horner(n, k)`` the Horner sum T_k = sum_{i=0}^{k} (-1)^i cpc_{n,k-i} X^i."""

    def __init__(self, ring: RingDescriptor, combinatorial: bool = False):
        self.ring = ring
        self.combinatorial = combinatorial
        self._built: Dict[tuple, object] = {}

    def _once(self, key: tuple, build: Callable[[], object]):
        p = self._built.get(key)
        if p is None:
            p = self._built[key] = build()
        return p

    def cpc(self, n: int, k: int) -> Polynomial:
        return self._once(("cpc", n, k), lambda: cpc_minor_sum(n, k, self.ring))

    def partial(self, n: int, k: int, a: int, b: int) -> Polynomial:
        return self._once(("partial", n, k, a, b), lambda: self.cpc(n, k).partial(a, b))

    def horner(self, n: int, k: int) -> PolyMatrix:
        """T_k, each T_j built once from T_{j-1}: a loop, so no k is too deep.
        Past j = n, cpc_{n,j} = 0 and T_j = -X T_{j-1}, so once such a step
        would start from the zero matrix, that matrix is T_k for every later
        k, and the loop stops: O(n) steps for any k."""
        t = None  # T_{-1} = 0; each build runs at once, while t is T_{j-1}
        for j in range(k + 1):
            if j > n and all(p.is_zero() for p in t.entries):
                return t
            t = self._once(("horner", n, j), lambda: _horner_step(self, n, j, t))
        return t


def _horner_step(ing: _Ingredients, n: int, k: int, prev: Optional[PolyMatrix]) -> PolyMatrix:
    """Horner's rule in X: T_k = cpc_{n,k} I - X T_{k-1}, with ``prev`` = T_{k-1}
    (None for 0).  Each entry T_k[a,b] is one kernel call over the pairs
    (T_{k-1}[l,b], -x[a,l]) and, on the diagonal, (cpc_{n,k}, 1)."""
    c = ing.cpc(n, k).raw
    raws: List[Raw] = [{}] * (n * n) if prev is None else [p.raw for p in prev.entries]
    entries = []
    for a in range(1, n + 1):
        neg_x = [{monomial_code((flatten(a, l, n),)): -1} for l in range(1, n + 1)]
        for b in range(n):
            pairs = [(raws[l * n + b], x_al) for l, x_al in enumerate(neg_x)]
            if a == b + 1:
                pairs.append((c, _ONE))
            entries.append(_sum_products(ing.ring, n, pairs))
    return PolyMatrix(ing.ring, n, n, n, entries)


def horner_sequence(n: int, k_max: int, ring: RingDescriptor) -> List[PolyMatrix]:
    """T_0 .. T_{k_max}, where T_k = sum_{i=0}^{k} (-1)^i cpc_{n,k-i} X^i."""
    ing = _Ingredients(ring)
    return [ing.horner(n, k) for k in range(k_max + 1)]


# -- the two sides of each identity ---------------------------------------------
# d has passed the identity's degree rule, and ``ing`` is the call's
# ``_Ingredients``: every side reads its ring, its mode and its ingredients there.


def _sides_bivariate_ch(n: int, d: int, ing: _Ingredients):
    # at d = n the left side is 0 (Cayley-Hamilton), at d = n-1 the adjugate
    if ing.combinatorial:
        ents = [ing._once(("ccp", n, d, a, b), lambda: grad_ccp_entry(n, d, a, b, ing.ring))
                for a in range(1, n + 1) for b in range(1, n + 1)]
    else:
        ents = [ing.partial(n, d + 1, b, a) for a in range(1, n + 1) for b in range(1, n + 1)]
    return PolyMatrix(ing.ring, n, n, n, ents), ing.horner(n, d)


def _sides_trace_ch(n: int, d: int, ing: _Ingredients):
    # the i = 0 term of the sum's trace is n cpc_{n,d}
    c = ing.cpc(n, d)
    rhs = ing.horner(n, d).trace() - c.scale(int_embed(ing.ring, n))
    return c.scale(int_embed(ing.ring, -d)), rhs


def _sides_girard_newton(n: int, d: int, ing: _Ingredients):
    # trace_ch at diagonal matrices: cpc_{n,k} restricts to e_k and tr(X^i) to
    # the power sum p_i, so -d e_d = sum_{i=1}^{d} (-1)^i e_{d-i} p_i
    lhs, rhs = _sides_trace_ch(n, d, ing)
    return lhs.restrict_to_diagonal(), rhs.restrict_to_diagonal()


def _sides_samuelson_entry(n: int, d: int, ing: _Ingredients):
    # bottom-right entry of the bivariate identity
    return ing.cpc(n - 1, d).promote(n), ing.horner(n, d).entry(n, n)


def _sides_cpc_recursion(n: int, d: int, ing: _Ingredients):
    # the Samuelson entry with its i = 0 term, cpc_{n,d}, moved across
    c = ing.cpc(n, d)
    return c, ing.cpc(n - 1, d).promote(n) - ing.horner(n, d).entry(n, n) + c


def _sides_rnd_block(n: int, d: int, ing: _Ingredients):
    # r_{n,d} = ( -r_{n,d-1} L_n | sum_{i=d}^{n-1} r_{i,d-1} C_i ), where r_{i,k-1}
    # is the last row of transpose(grad cpc_{i,k}); each right entry is one kernel call
    lhs = [ing.partial(n, d + 1, a, n) for a in range(1, n + 1)]
    prev = [ing.partial(n, d, l, n).raw for l in range(1, n + 1)]
    rhs = [_sum_products(ing.ring, n, [(prev[l - 1], {monomial_code((flatten(l, b, n),)): -1})
                                    for l in range(1, n + 1)])
           for b in range(1, n)]
    rhs.append(_sum_products(ing.ring, n, [(ing.partial(i, d, a, i).promote(n).raw,
                                            {monomial_code((flatten(a, i, n),)): 1})
                                           for i in range(d, n) for a in range(1, i + 1)]))
    return PolyMatrix(ing.ring, n, 1, n, lhs), PolyMatrix(ing.ring, n, 1, n, rhs)


def _sides_transition_product(n: int, d: int, ing: _Ingredients):
    # (r_{2,1},..,r_{d,1}) M_{d,2} .. M_{d,d-1} C_d = det_d = cpc_{d,d}, where
    # r_{i,1} is the last row of transpose(grad cpc_{i,2})
    ring = ing.ring
    vec_entries = [ing.partial(i, 2, a, i).promote(d) for i in range(2, d + 1) for a in range(1, i + 1)]
    vec = PolyMatrix(ring, d, 1, len(vec_entries), vec_entries)
    program = _build_gradient(d, d, ring)  # keeps every r-layer below d whole
    for j in range(2, d):
        vec = vec * _transition_block(program, j)
    column = PolyMatrix.variables(ring, d).submatrix(range(1, d + 1), [d])
    return (vec * column).entry(1, 1), ing.cpc(d, d)


class Identity(NamedTuple):
    """One identity: its sides and its degree rule."""

    sides: Callable
    d_min: int = 0
    d_from_n: Optional[int] = None  # d = n + d_from_n, whatever d is given
    # d is the matrix size: verify_all sets n = d, and a negative d fails d_min
    d_is_size: bool = False


_SIDES: Dict[str, Identity] = {
    "bivariate_ch": Identity(_sides_bivariate_ch),
    "cayley_hamilton": Identity(_sides_bivariate_ch, d_from_n=0),
    "adjugate": Identity(_sides_bivariate_ch, d_from_n=-1),
    "trace_ch": Identity(_sides_trace_ch),
    "girard_newton": Identity(_sides_girard_newton),
    "samuelson_entry": Identity(_sides_samuelson_entry),
    "cpc_recursion": Identity(_sides_cpc_recursion),
    "rnd_block": Identity(_sides_rnd_block, d_min=1),
    "transition_product": Identity(_sides_transition_product, d_min=2, d_is_size=True),
}

IDENTITY_NAMES = tuple(_SIDES)


def _normalize(identity: str, n: int, d: int) -> Tuple[int, int]:
    if identity not in _SIDES:
        raise IdentityError(f"unknown identity {identity!r}")
    if n < 1:
        raise IdentityError("n must be positive")
    rule = _SIDES[identity]
    if rule.d_from_n is not None:
        d = n + rule.d_from_n
    if d < 0 and not rule.d_is_size:
        raise IdentityError("d must be non-negative")
    if d < rule.d_min:
        raise IdentityError(f"{identity} needs d >= {rule.d_min}")
    # every side of a larger matrix reads an enumeration oracle that refuses it
    _check_enumeration_size(d if rule.d_is_size else n)
    return n, d


def _degrees(rule: Identity, n: int, d_max: int) -> range:
    """The degrees the ``verify_all`` grid checks at size n."""
    if rule.d_from_n is not None:
        return range(n + rule.d_from_n, n + rule.d_from_n + 1)
    if rule.d_is_size:
        return range(max(n, rule.d_min), n + 1)
    return range(rule.d_min, d_max + 1)


def _check(identity: str, n: int, d: int, ing: _Ingredients):
    lhs, rhs = _SIDES[identity].sides(n, d, ing)
    witness = _first_mismatch(lhs, rhs)
    return CheckReport(identity, n, d, ing.ring, witness is None, witness), lhs, rhs


def verify_with_sides(identity: str, n: int, d: int, ring: RingDescriptor, combinatorial: bool = False):
    """``verify_identity``'s report together with the two sides it compared,
    as polynomials or polynomial matrices."""
    n, d = _normalize(identity, n, d)
    return _check(identity, n, d, _Ingredients(ring, combinatorial))


def verify_identity(identity: str, n: int, d: int, ring: RingDescriptor,
                    combinatorial: bool = False) -> CheckReport:
    """Check one identity at the given parameters; exact, no tolerance.  Its
    entry in ``_SIDES`` says how it reads d (cayley_hamilton and adjugate fix
    it from n; transition_product takes it as the matrix size)."""
    return verify_with_sides(identity, n, d, ring, combinatorial)[0]


def verify_all(n_max: int, d_max: int, ring: RingDescriptor,
               combinatorial: bool = False) -> List[CheckReport]:
    """Run the whole identity grid, size by size, in one ``_Ingredients``
    context; reports are grouped by identity, then ordered by n and d."""
    _check_enumeration_size(n_max)
    if n_max < 1 or d_max < 0:
        raise IdentityError("grid parameters out of range")
    reports: Dict[str, List[CheckReport]] = {name: [] for name in _SIDES}
    ing = _Ingredients(ring, combinatorial)
    for n in range(1, n_max + 1):
        for name, rule in _SIDES.items():
            for d in _degrees(rule, n, d_max):
                reports[name].append(_check(name, n, d, ing)[0])
    return [rep for group in reports.values() for rep in group]
