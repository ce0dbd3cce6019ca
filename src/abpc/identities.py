"""Symbolic verification of the characteristic-coefficient identities.

Every check builds both sides of an exact polynomial (matrix) equality
from independent ingredients and compares entrywise.  The central one is

    bivariate_ch:   transpose(grad cpc_{n,d+1}) = sum_{i=0}^{d} (-1)^i cpc_{n,d-i} X^i

whose left side comes from the gradient of the minor-sum oracle (or from
the cycle-cover-and-path oracle in combinatorial mode).  Its right side is
built once, by Horner's rule in X, in ``alternating_power_sum``; the right
sides of Cayley-Hamilton, the adjugate formula, the trace identity, the
Samuelson entry and the cpc recursion are that sum, its trace or its
(n,n) entry.  Every left side is an independent oracle (minor sums, cycle
covers, zero, the Leibniz adjugate), and no identity's truth is used to
build another's side.  Alternating signs are ring elements, so the checks
remain valid in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .build import transition_matrix
from .oracle import cpc_minor_sum, det_leibniz, grad_ccp_entry
from .poly import Polynomial, PolyMatrix, gradient
from .rings import AbpcError, RingDescriptor, descriptor_to_spec, int_embed

VERIFY_ALL_N_CAP = 5


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


def _sign(ring: RingDescriptor, i: int):
    return int_embed(ring, -1) ** i


def _compare_matrices(lhs: PolyMatrix, rhs: PolyMatrix) -> Optional[Witness]:
    for a in range(1, lhs.rows + 1):
        for b in range(1, lhs.cols + 1):
            le, re = lhs.entry(a, b), rhs.entry(a, b)
            if le != re:
                return Witness((a, b), le.text(), re.text(), (le - re).text())
    return None


def _compare_scalars(lhs: Polynomial, rhs: Polynomial) -> Optional[Witness]:
    if lhs != rhs:
        return Witness(None, lhs.text(), rhs.text(), (lhs - rhs).text())
    return None


# -- ingredient builders ---------------------------------------------------------


def alternating_power_sum(n: int, d: int, ring: RingDescriptor) -> PolyMatrix:
    """sum_{i=0}^{d} (-1)^i cpc_{n,d-i} X^i by Horner's rule in X.

    T_{-1} = 0 and T_k = cpc_{n,k} I - X T_{k-1}; T_d is the sum.
    """
    x = PolyMatrix.variables(ring, n)
    one = PolyMatrix.identity(ring, n, n)
    total = PolyMatrix.zeros(ring, n, n, n)
    for k in range(d + 1):
        total = one.scale(cpc_minor_sum(n, k, ring)) - x * total
    return total


def gradient_transpose(n: int, d_plus_1: int, ring: RingDescriptor,
                       combinatorial: bool = False) -> PolyMatrix:
    """transpose(grad cpc_{n,d+1}), algebraically or by CCP enumeration."""
    if combinatorial:
        ents = [
            grad_ccp_entry(n, d_plus_1 - 1, a, b, ring)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
        ]
        return PolyMatrix(ring, n, n, n, ents)
    return gradient(cpc_minor_sum(n, d_plus_1, ring), n).transpose()


def r_vector(n: int, d: int, ring: RingDescriptor) -> List[Polynomial]:
    """Last row of transpose(grad cpc_{n,d+1}): entry a is d cpc_{n,d+1} / d x[a,n]."""
    grad = gradient(cpc_minor_sum(n, d + 1, ring), n)
    return [grad.entry(a, n) for a in range(1, n + 1)]


def r_vector_first_layer(i: int, ambient: int, ring: RingDescriptor) -> List[Polynomial]:
    """Closed form of r_{i,1}: (-x[i,1], .., -x[i,i-1], x[1,1]+..+x[i-1,i-1])."""
    entries = [-Polynomial.variable(ring, ambient, i, b) for b in range(1, i)]
    tr = Polynomial.zero(ring, ambient)
    for a in range(1, i):
        tr = tr + Polynomial.variable(ring, ambient, a, a)
    entries.append(tr)
    return entries


def elementary_symmetric(n: int, d: int, ring: RingDescriptor) -> Polynomial:
    """cpc_{n,d} restricted to diagonal matrices (variables x[a,a])."""
    return cpc_minor_sum(n, d, ring).restrict_to_diagonal()


def power_sum(n: int, i: int, ring: RingDescriptor) -> Polynomial:
    """x[1,1]^i + .. + x[n,n]^i, with the convention that the 0-th sum is n."""
    if i == 0:
        return Polynomial.from_int(ring, n, n)
    total = Polynomial.zero(ring, n)
    for a in range(1, n + 1):
        v = Polynomial.variable(ring, n, a, a)
        p = Polynomial.from_int(ring, n, 1)
        for _ in range(i):
            p = p * v
        total = total + p
    return total


# -- the two sides of each identity ---------------------------------------------


def _sides_bivariate_ch(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    lhs = gradient_transpose(n, d + 1, ring, combinatorial)
    rhs = alternating_power_sum(n, d, ring)
    return lhs, rhs


def _sides_cayley_hamilton(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # the alternating sum at d = n annihilates itself
    return PolyMatrix.zeros(ring, n, n, n), alternating_power_sum(n, n, ring)


def _sides_adjugate(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    det = det_leibniz(PolyMatrix.variables(ring, n))
    return gradient(det, n).transpose(), alternating_power_sum(n, n - 1, ring)


def _sides_trace_ch(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # the i = 0 term of the sum's trace is n cpc_{n,d}
    cpc = cpc_minor_sum(n, d, ring)
    rhs = alternating_power_sum(n, d, ring).trace() - cpc.scale(int_embed(ring, n))
    return cpc.scale(int_embed(ring, -d)), rhs


def _sides_girard_newton(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    lhs = elementary_symmetric(n, d, ring).scale(int_embed(ring, -d))
    rhs = Polynomial.zero(ring, n)
    for i in range(1, d + 1):
        term = elementary_symmetric(n, d - i, ring) * power_sum(n, i, ring)
        rhs = rhs + term.scale(_sign(ring, i))
    return lhs, rhs


def _sides_samuelson_entry(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # bottom-right entry of the bivariate identity
    lhs = cpc_minor_sum(n - 1, d, ring).promote(n)
    return lhs, alternating_power_sum(n, d, ring).entry(n, n)


def _sides_cpc_recursion(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # the Samuelson entry with its i = 0 term, cpc_{n,d}, moved across
    cpc = cpc_minor_sum(n, d, ring)
    entry = alternating_power_sum(n, d, ring).entry(n, n)
    return cpc, cpc_minor_sum(n - 1, d, ring).promote(n) - entry + cpc


def _sides_rnd_block(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # r_{n,d} = ( -r_{n,d-1} L_n | sum_{i=d}^{n-1} r_{i,d-1} C_i )
    if d < 1:
        raise IdentityError("rnd_block needs d >= 1")
    lhs = PolyMatrix(ring, n, 1, n, r_vector(n, d, ring))
    x = PolyMatrix.variables(ring, n)
    prev = PolyMatrix(ring, n, 1, n, r_vector(n, d - 1, ring))
    rhs_entries: List[Polynomial] = []
    if n > 1:
        left = -(prev * x.submatrix(range(1, n + 1), range(1, n)))
        rhs_entries.extend(left.entries)
    last = Polynomial.zero(ring, n)
    for i in range(d, n):
        ri = [p.promote(n) for p in r_vector(i, d - 1, ring)]
        for a in range(1, i + 1):
            last = last + ri[a - 1] * Polynomial.variable(ring, n, a, i)
    rhs_entries.append(last)
    return lhs, PolyMatrix(ring, n, 1, n, rhs_entries)


def _sides_transition_product(n: int, d: int, ring: RingDescriptor, combinatorial: bool):
    # (r_{2,1},..,r_{d,1}) M_{d,2} .. M_{d,d-1} C_d = det_d
    vec_entries: List[Polynomial] = []
    for i in range(2, d + 1):
        vec_entries.extend(r_vector_first_layer(i, d, ring))
    vec = PolyMatrix(ring, d, 1, len(vec_entries), vec_entries)
    for j in range(2, d):
        vec = vec * transition_matrix(d, j, ring)
    column = PolyMatrix.variables(ring, d).submatrix(range(1, d + 1), [d])
    lhs = (vec * column).entry(1, 1)
    rhs = det_leibniz(PolyMatrix.variables(ring, d))
    return lhs, rhs


_SIDES: dict = {
    "bivariate_ch": _sides_bivariate_ch,
    "cayley_hamilton": _sides_cayley_hamilton,
    "adjugate": _sides_adjugate,
    "trace_ch": _sides_trace_ch,
    "girard_newton": _sides_girard_newton,
    "samuelson_entry": _sides_samuelson_entry,
    "cpc_recursion": _sides_cpc_recursion,
    "rnd_block": _sides_rnd_block,
    "transition_product": _sides_transition_product,
}

IDENTITY_NAMES = tuple(_SIDES)


def _normalize(identity: str, n: int, d: int) -> Tuple[int, int]:
    if identity not in _SIDES:
        raise IdentityError(f"unknown identity {identity!r}")
    if n < 1:
        raise IdentityError("n must be positive")
    if identity == "cayley_hamilton":
        d = n
    elif identity == "adjugate":
        d = n - 1
    elif identity == "transition_product" and d < 2:
        raise IdentityError("transition_product needs d >= 2")
    if d < 0:
        raise IdentityError("d must be non-negative")
    return n, d


def verify_with_sides(identity: str, n: int, d: int, ring: RingDescriptor,
                      combinatorial: bool = False):
    """``verify_identity``'s report together with the two sides it compared,
    as polynomials or polynomial matrices."""
    n, d = _normalize(identity, n, d)
    lhs, rhs = _SIDES[identity](n, d, ring, combinatorial)
    if isinstance(lhs, PolyMatrix):
        witness = _compare_matrices(lhs, rhs)
    else:
        witness = _compare_scalars(lhs, rhs)
    return CheckReport(identity, n, d, ring, witness is None, witness), lhs, rhs


def verify_identity(identity: str, n: int, d: int, ring: RingDescriptor,
                    combinatorial: bool = False) -> CheckReport:
    """Check one identity at the given parameters; exact, no tolerance.

    ``cayley_hamilton`` and ``adjugate`` ignore d (they are the d = n and
    d = n - 1 specializations); ``transition_product`` uses d as the
    matrix size and ignores n.
    """
    return verify_with_sides(identity, n, d, ring, combinatorial)[0]


def verify_all(n_max: int, d_max: int, ring: RingDescriptor,
               combinatorial: bool = False) -> List[CheckReport]:
    """Run the whole identity grid; deterministic report order."""
    if n_max > VERIFY_ALL_N_CAP:
        raise IdentityError(f"n_max capped at {VERIFY_ALL_N_CAP}")
    if n_max < 1 or d_max < 0:
        raise IdentityError("grid parameters out of range")
    reports: List[CheckReport] = []
    for identity in IDENTITY_NAMES:
        if identity in ("cayley_hamilton", "adjugate"):
            for n in range(1, n_max + 1):
                reports.append(verify_identity(identity, n, 0, ring, combinatorial))
        elif identity == "transition_product":
            for d in range(2, n_max + 1):
                reports.append(verify_identity(identity, d, d, ring, combinatorial))
        elif identity == "rnd_block":
            for n in range(1, n_max + 1):
                for d in range(1, d_max + 1):
                    reports.append(verify_identity(identity, n, d, ring, combinatorial))
        else:
            for n in range(1, n_max + 1):
                for d in range(0, d_max + 1):
                    reports.append(verify_identity(identity, n, d, ring, combinatorial))
    return reports
