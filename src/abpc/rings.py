"""Exact arithmetic in the supported commutative coefficient rings.

Three families are available: the integers, the modular rings Z/m
(m >= 2, not necessarily prime, so zero divisors are allowed) and the
rationals.  Every value is kept in a canonical form at all times, so
equality of values is plain equality of representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union


class AbpcError(Exception):
    """Base class for all semantic errors raised by this package."""


class RingError(AbpcError):
    pass


INT = "int"
MOD = "mod"
RAT = "rat"

# Deterministic Miller-Rabin: the first 13 primes as bases decide every
# n < psi_13, the least strong pseudoprime to all of them (OEIS A014233);
# psi_13 itself passes, so the bound is exclusive.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_BOUND:
        raise RingError(f"cannot decide primality of a modulus at or above {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
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

    ``kind`` is one of ``int``, ``mod``, ``rat``.  ``modulus`` is used for
    ``mod`` only.
    """

    kind: str
    modulus: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (INT, MOD, RAT):
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == MOD and self.modulus < 2:
            raise RingError("modulus must be at least 2")

    @staticmethod
    def integers() -> "RingDescriptor":
        return RingDescriptor(INT)

    @staticmethod
    def modular(m: int) -> "RingDescriptor":
        return RingDescriptor(MOD, modulus=m)

    @staticmethod
    def rationals() -> "RingDescriptor":
        return RingDescriptor(RAT)

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

    def __repr__(self) -> str:
        return f"RingDescriptor({descriptor_to_spec(self)!r})"


Value = Union[int, Fraction]


@dataclass(frozen=True, repr=False)
class RingElement:
    """A ring value in canonical form.

    Canonical means: plain int for the integers; residue in [0, m) for
    Z/m; reduced ``Fraction`` with positive denominator for the rationals.
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

    def is_zero(self) -> bool:
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
    """Box an exact result: int and Fraction results are already
    canonical, so only Z/m reduces."""
    return RingElement(r, raw % r.modulus if r.kind == MOD else raw)


def int_embed(r: RingDescriptor, k: int) -> RingElement:
    """Image of the integer ``k`` under the unique ring map Z -> R."""
    if r.kind == RAT:
        return RingElement(r, Fraction(k))
    return _reduced(r, k)


def invert(a: RingElement) -> RingElement:
    """Multiplicative inverse; defined in fields and for the units of Z/m and Z."""
    r = a.descriptor
    if a.is_zero():
        raise RingError("division by zero")
    if r.kind == RAT:
        return RingElement(r, Fraction(1) / a.value)
    if r.kind == MOD:
        if gcd(a.value, r.modulus) != 1:
            raise RingError("not a unit")
        return RingElement(r, pow(a.value, -1, r.modulus))
    if a.value in (1, -1):  # the units of Z
        return a
    raise RingError("not a unit")


_INT_RE = re.compile(r"^[+-]?\d+$")
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def element_to_str(a: RingElement) -> str:
    """Serialize to the exact decimal text form used for all I/O."""
    if a.descriptor.kind == RAT:
        return f"{a.value.numerator}/{a.value.denominator}"
    return str(a.value)


def element_from_str(r: RingDescriptor, s: str) -> RingElement:
    s = s.strip()
    rat = r.kind == RAT
    if (_RAT_RE if rat else _INT_RE).match(s):
        try:
            if not rat:
                return _reduced(r, int(s))
            p, _slash, q = s.partition("/")  # the match has checked both parts
            return RingElement(r, Fraction(int(p), int(q or 1)))
        except (ValueError, ZeroDivisionError):  # past the int/str digit limit, or n/0
            pass
    raise RingError(f"cannot parse {s!r} as {'a rational' if rat else 'an integer'}")


def descriptor_from_spec(spec: str) -> RingDescriptor:
    """Parse a CLI ring specification: ``int``, ``mod:<m>`` or ``rat``."""
    if spec == "int":
        return RingDescriptor.integers()
    if spec == "rat":
        return RingDescriptor.rationals()
    if spec.startswith("mod:"):
        body = spec[4:]
        if body.isdigit():
            try:
                return RingDescriptor.modular(int(body))
            except ValueError:  # a digit int() refuses, such as "²", or past the int/str digit limit
                pass
        raise RingError(f"bad modulus in ring spec {spec!r}")
    raise RingError(f"unknown ring spec {spec!r}")


def descriptor_to_spec(r: RingDescriptor) -> str:
    if r.kind == INT:
        return "int"
    if r.kind == RAT:
        return "rat"
    return f"mod:{r.modulus}"
