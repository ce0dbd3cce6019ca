"""Exact arithmetic in the supported commutative coefficient rings.

Four families are available: the integers, the modular rings Z/m (m >= 2,
not necessarily prime, so zero divisors are allowed), the rationals, and
polynomial rings in matrix variables over one of the scalar families.
Every value is kept in a canonical form at all times, so equality of
values is plain equality of representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union


class AbpcError(Exception):
    """Base class for all semantic errors raised by this package."""


class RingError(AbpcError):
    pass


INT = "int"
MOD = "mod"
RAT = "rat"
POLY = "poly"

_SCALAR_KINDS = (INT, MOD, RAT)

# Witness set for deterministic Miller-Rabin, valid for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one concrete commutative ring.

    ``kind`` is one of ``int``, ``mod``, ``rat``, ``poly``.  ``modulus`` is
    used for ``mod`` only; ``base``/``num_vars`` for ``poly`` only.  A
    polynomial ring cannot be based on another polynomial ring (variables
    are flattened into a single matrix-indexed family instead).
    """

    kind: str
    modulus: int = 0
    base: Optional["RingDescriptor"] = None
    num_vars: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (INT, MOD, RAT, POLY):
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == MOD and self.modulus < 2:
            raise RingError("modulus must be at least 2")
        if self.kind == POLY:
            if self.base is None or self.base.kind not in _SCALAR_KINDS:
                raise RingError("polynomial rings require a scalar base ring")
            if self.num_vars < 0 or isqrt(self.num_vars) ** 2 != self.num_vars:
                # variables are the entries of an n x n matrix
                raise RingError("num_vars must be a perfect square")

    @staticmethod
    def integers() -> "RingDescriptor":
        return RingDescriptor(INT)

    @staticmethod
    def modular(m: int) -> "RingDescriptor":
        return RingDescriptor(MOD, modulus=m)

    @staticmethod
    def rationals() -> "RingDescriptor":
        return RingDescriptor(RAT)

    @staticmethod
    def polynomial(base: "RingDescriptor", num_vars: int) -> "RingDescriptor":
        return RingDescriptor(POLY, base=base, num_vars=num_vars)

    @property
    def is_field(self) -> bool:
        if self.kind == RAT:
            return True
        if self.kind == MOD:
            return _is_prime(self.modulus)
        return False

    @property
    def contains_rationals(self) -> bool:
        return self.kind == RAT

    def zero(self) -> "RingElement":
        return int_embed(self, 0)

    def one(self) -> "RingElement":
        return int_embed(self, 1)

    def __repr__(self) -> str:
        return f"RingDescriptor({descriptor_to_spec(self)!r})"


Value = Union[int, Fraction, object]


@dataclass(frozen=True, repr=False)
class RingElement:
    """A ring value in canonical form.

    Canonical means: plain int for the integers; residue in [0, m) for
    Z/m; reduced ``Fraction`` with positive denominator for the rationals;
    normalized sparse polynomial for polynomial rings.
    """

    descriptor: RingDescriptor
    value: Value

    def __add__(self, other: "RingElement") -> "RingElement":
        return _reduced(_common_ring(self, other), self.value + other.value)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return _reduced(_common_ring(self, other), self.value - other.value)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return _reduced(_common_ring(self, other), self.value * other.value)

    def __neg__(self) -> "RingElement":
        return _reduced(self.descriptor, -self.value)

    def __pow__(self, k: int) -> "RingElement":
        if k < 0:
            raise RingError("negative powers are not defined; use invert")
        out = int_embed(self.descriptor, 1)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        if self.descriptor.kind == POLY:
            return self.value.is_zero()
        return self.value == 0

    def is_one(self) -> bool:
        return self == int_embed(self.descriptor, 1)

    def __repr__(self) -> str:
        return element_to_str(self)


def _common_ring(a: RingElement, b: RingElement) -> RingDescriptor:
    r = a.descriptor
    if b.descriptor is not r and b.descriptor != r:
        raise RingError("ring mismatch")
    return r


def _reduced(r: RingDescriptor, raw: Value) -> RingElement:
    """Box an exact result: int, Fraction and polynomial results are
    already canonical, so only Z/m reduces."""
    return RingElement(r, raw % r.modulus if r.kind == MOD else raw)


def int_embed(r: RingDescriptor, k: int) -> RingElement:
    """Image of the integer ``k`` under the unique ring map Z -> R."""
    if r.kind == POLY:
        from .poly import Polynomial

        n = isqrt(r.num_vars)
        return RingElement(r, Polynomial.from_int(r.base, n, k))
    if r.kind == RAT:
        return RingElement(r, Fraction(k))
    return _reduced(r, k)


def invert(a: RingElement) -> RingElement:
    """Multiplicative inverse; defined in fields and for units of Z/m."""
    r = a.descriptor
    if a.is_zero():
        raise RingError("division by zero")
    if r.kind == RAT:
        return RingElement(r, Fraction(1) / a.value)
    if r.kind == MOD:
        if gcd(a.value, r.modulus) != 1:
            raise RingError("not a unit")
        return RingElement(r, pow(a.value, -1, r.modulus))
    raise RingError("not a unit")


_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def element_to_str(a: RingElement) -> str:
    """Serialize to the exact decimal text form used for all I/O."""
    r = a.descriptor
    if r.kind in (INT, MOD):
        return str(a.value)
    if r.kind == RAT:
        return f"{a.value.numerator}/{a.value.denominator}"
    return a.value.text()


def element_from_str(r: RingDescriptor, s: str) -> RingElement:
    s = s.strip()
    if r.kind in (INT, MOD):
        if not _INT_RE.match(s):
            raise RingError(f"cannot parse {s!r} as an integer")
        return _reduced(r, int(s))
    if r.kind == RAT:
        if not _RAT_RE.match(s):
            raise RingError(f"cannot parse {s!r} as a rational")
        try:
            return RingElement(r, Fraction(s))
        except ZeroDivisionError:
            raise RingError(f"cannot parse {s!r} as a rational") from None
    raise RingError("polynomial ring elements cannot be parsed from text")


def descriptor_from_spec(spec: str) -> RingDescriptor:
    """Parse a CLI ring specification: ``int``, ``mod:<m>`` or ``rat``."""
    if spec == "int":
        return RingDescriptor.integers()
    if spec == "rat":
        return RingDescriptor.rationals()
    if spec.startswith("mod:"):
        body = spec[4:]
        if not body.isdigit():
            raise RingError(f"bad modulus in ring spec {spec!r}")
        return RingDescriptor.modular(int(body))
    raise RingError(f"unknown ring spec {spec!r}")


def descriptor_to_spec(r: RingDescriptor) -> str:
    if r.kind == INT:
        return "int"
    if r.kind == RAT:
        return "rat"
    if r.kind == MOD:
        return f"mod:{r.modulus}"
    return f"poly({descriptor_to_spec(r.base)},{r.num_vars})"
