"""Sparse multivariate polynomials in matrix variables x[i,j].

A polynomial is tied to an ambient matrix size n and a coefficient ring;
its variables are the n*n entries of a generic matrix, flattened as
(i-1)*n + (j-1).  ``Polynomial.raw`` maps each monomial's code to its raw
coefficient, never zero: an ``int``, a residue in [0, m), or over ``rat``
an ``int`` when the coefficient is integral and a reduced ``Fraction``
with denominator > 1 otherwise, so a product of integral rational factors
never runs in ``fractions`` code.  The representation is canonical, so
equality is exact.  ``terms`` is the boxed view of the same data,
((v, e), ...) monomials to ring elements; it, ``constant_term`` and
``text`` box every rational coefficient as a ``Fraction``.  Mixing
different ambient sizes requires an explicit ``promote``.

A monomial's code is the product of one prime per variable factor, with
repeats, and 1 for the empty monomial: if x[1,1] has the prime 2 and
x[1,2] the prime 3, x[1,1]^2 x[1,2] is 12.  Each flat index gets its prime
on first use, the least prime not yet taken, from two intern tables, flat
index to prime and prime to flat index; they are this module's only
state, they only grow, and a miss appends under a lock.  Primes go by
first use, not by flat index, because a graph file may declare
n = 10**5000 and name only a handful of its variables.  Unique
factorisation keeps a code canonical at any exponent, and a product of
two monomials is one product of two ints, with no sort, no fresh tuple
and no carry between exponents; at n = 7 a degree-7 code stays below
2**55.  Packed exponent vectors are the other single-int form, but at
n = 7 they need 49 fields, a 392-bit int at 8 bits a field, and a
prototype of them expanded the bivariate n = 7 program no faster than
sorted tuples did.  ``monomial_code`` and ``monomial_indices`` are the
only way from flat indices to a code and back, for this module and
every other.

Only views decode a code: ``terms``, ``text``, ``degree``, ``promote``,
``homogeneous_component`` and ``substitute`` here, the graph writer and,
once per label, the graph's sweep plan.  A decode divides by the
interned primes in ascending order until one prime or none is left, so
it costs as many trial divisions as the rank of the code's second
largest prime, and a single variable one table lookup.  ``partial`` is
a divmod by the variable's prime, and ``restrict_to_diagonal`` divides
only by the n diagonal primes.

Every sum and product goes through one kernel, ``_sum_products``: it
accumulates products of raw dicts into one dict, then reduces mod m (over
``rat``: holds integral sums as ``int``) and drops zeros once.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import takewhile
from math import prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rings import (
    MOD,
    RAT,
    AbpcError,
    RingDescriptor,
    RingElement,
    Value,
    element_to_str,
    int_embed,
)


class PolyError(AbpcError):
    pass


Raw = Dict[int, Value]

# the raw polynomial 1, a factor that turns a product into a plain sum
_ONE: Raw = {1: 1}

# the intern tables: flat index -> prime, prime -> flat index, and the
# primes handed out, ascending; an entry is never changed or removed
_PRIME: Dict[int, int] = {}
_INDEX: Dict[int, int] = {}
_PRIMES: List[int] = []
_INTERN = threading.Lock()


def _prime(v: int) -> int:
    """The prime of flat index ``v``, interned on first use."""
    p = _PRIME.get(v)
    if p is None:
        with _INTERN:
            p = _PRIME.get(v)
            if p is None:
                p = _next_prime()
                _PRIMES.append(p)
                _INDEX[p] = v
                _PRIME[v] = p  # last: whoever finds p here finds its index too
    return p


def _next_prime() -> int:
    """The least prime above every interned one.  The interned primes are
    all the primes below it, so trial division by them, up to the square
    root of the candidate, decides."""
    c = _PRIMES[-1] + 1 if _PRIMES else 2
    while any(not c % p for p in takewhile(lambda p: p * p <= c, _PRIMES)):
        c += 1
    return c


def _factors(code: int) -> Tuple[Tuple[int, int], ...]:
    """The (flat index, exponent) pairs of a monomial code, sorted by flat
    index.  The code is divided by the interned primes in ascending order
    until what is left is 1 or one prime."""
    v = _INDEX.get(code)
    if v is not None:
        return ((v, 1),)
    if code == 1:
        return ()
    found = []
    for p in _PRIMES:
        if code % p:
            continue
        code //= p
        e = 1
        while not code % p:
            code //= p
            e += 1
        found.append((_INDEX[p], e))
        if code == 1:
            break
        v = _INDEX.get(code)
        if v is not None:
            found.append((v, 1))
            break
    found.sort()
    return tuple(found)


def _degree(code: int) -> int:
    return sum(e for _v, e in _factors(code))


def monomial_code(flats: Iterable[int]) -> int:
    """The code of the monomial with the given flat indices, with repeats:
    the raw key of that monomial."""
    return prod(map(_prime, flats))


def monomial_indices(code: int) -> Tuple[int, ...]:
    """The sorted flat indices, with repeats, of the monomial with raw key
    ``code``: () for the constant monomial 1."""
    return tuple(v for v, e in _factors(code) for _ in range(e))


def flatten(i: int, j: int, n: int) -> int:
    """Flat index of the variable x[i,j] (1-indexed) of an n x n matrix."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise PolyError(f"variable x[{i},{j}] outside ambient {n}")
    return (i - 1) * n + (j - 1)


def unflatten(v: int, n: int) -> Tuple[int, int]:
    i, j = divmod(v, n)
    return i + 1, j + 1


def _held(c: Value) -> Value:
    """The raw form of a ring value: an integral ``Fraction`` is held as its
    ``int`` numerator, and every other value as it is."""
    return c.numerator if c.denominator == 1 else c


def _boxed(ring: RingDescriptor, c: Value) -> RingElement:
    """The ring element of a raw coefficient; over ``rat`` always a ``Fraction``."""
    return RingElement(ring, Fraction(c) if ring.kind == RAT else c)


def _sum_products(ring: RingDescriptor, n: int, pairs: Iterable[Tuple[Raw, Raw]]) -> "Polynomial":
    """The polynomial sum of a*b over the raw (a, b) pairs.

    Every product is accumulated unreduced into one dict, which is reduced
    mod m, or over ``rat`` brought to the raw form, and cleared of zeros
    once at the end.  The product of two monomials is the product of
    their codes.
    """
    acc: Raw = {}
    get = acc.get
    for a, b in pairs:
        if len(a) < len(b):  # the inner loop runs over the larger factor
            a, b = b, a
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = ma * mb
                acc[m] = get(m, 0) + ca * cb
    if ring.kind == MOD:
        modulus = ring.modulus
        return Polynomial._of(ring, n, {m: r for m, c in acc.items() if (r := c % modulus)})
    if ring.kind == RAT:  # ``_held``, inlined: it runs on every coefficient of every result
        return Polynomial._of(ring, n, {m: c.numerator if c.denominator == 1 else c
                                        for m, c in acc.items() if c})
    return Polynomial._of(ring, n, {m: c for m, c in acc.items() if c})


class Polynomial:
    """A polynomial over ``ring`` in the n*n variables of an n x n matrix.

    ``raw`` maps monomial codes to nonzero raw coefficients; over ``rat``
    an integral coefficient is an ``int`` and any other a ``Fraction``
    with denominator > 1.  Treat it as read-only.
    """

    __slots__ = ("ring", "ambient_n", "raw")

    def __init__(self, ring: RingDescriptor, ambient_n: int, terms: Optional[dict] = None):
        """``terms`` is a boxed view: ((v, e), ...) monomials, sorted by the
        flat index v with every e >= 1, to ring elements; zeros are dropped."""
        self.ring = ring
        self.ambient_n = ambient_n
        self.raw: Raw = {
            prod(_prime(v) ** e for v, e in mono): _held(c.value)
            for mono, c in (terms or {}).items() if not c.is_zero()
        }

    @classmethod
    def _of(cls, ring: RingDescriptor, n: int, raw: Raw) -> "Polynomial":
        """Wrap a canonical raw dict without copying it."""
        p = cls.__new__(cls)
        p.ring, p.ambient_n, p.raw = ring, n, raw
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor, n: int) -> "Polynomial":
        return cls._of(ring, n, {})

    @classmethod
    def constant(cls, ring: RingDescriptor, n: int, value: RingElement) -> "Polynomial":
        if value.descriptor != ring:
            raise PolyError("coefficient from a different ring")
        return cls._of(ring, n, {} if value.is_zero() else {1: _held(value.value)})

    @classmethod
    def from_int(cls, ring: RingDescriptor, n: int, k: int) -> "Polynomial":
        return cls.constant(ring, n, int_embed(ring, k))

    @classmethod
    def variable(cls, ring: RingDescriptor, n: int, i: int, j: int) -> "Polynomial":
        return cls._of(ring, n, {_prime(flatten(i, j, n)): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The boxed view: ((v, e), ...) monomials, sorted by v, to ring
        elements.  A fresh dict on every access."""
        ring = self.ring
        return {_factors(m): _boxed(ring, c) for m, c in self.raw.items()}

    def is_zero(self) -> bool:
        return not self.raw

    @property
    def degree(self) -> int:
        # deg(0) = 0 by convention
        return max(map(_degree, self.raw), default=0)

    def constant_term(self) -> RingElement:
        c = self.raw.get(1)
        return int_embed(self.ring, 0) if c is None else _boxed(self.ring, c)

    def _check_compat(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise PolyError("ring mismatch")
        if self.ambient_n != other.ambient_n:
            raise PolyError("ambient size mismatch; promote explicitly")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        return _sum_products(self.ring, self.ambient_n, ((self.raw, _ONE), (other.raw, _ONE)))

    def __neg__(self) -> "Polynomial":
        return _sum_products(self.ring, self.ambient_n, ((self.raw, {1: -1}),))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        return _sum_products(self.ring, self.ambient_n, ((self.raw, _ONE), (other.raw, {1: -1})))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        return _sum_products(self.ring, self.ambient_n, ((self.raw, other.raw),))

    def scale(self, c: RingElement) -> "Polynomial":
        if c.descriptor != self.ring:
            raise PolyError("scalar from a different ring")
        return _sum_products(self.ring, self.ambient_n, ((self.raw, {1: _held(c.value)}),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self.ambient_n == other.ambient_n
            and self.raw == other.raw
        )

    __hash__ = None  # mutable dict inside

    def __reduce__(self):
        # codes depend on this process's interning order, so a pickle
        # carries the boxed view and the reading process encodes it anew
        return Polynomial, (self.ring, self.ambient_n, self.terms)

    # -- calculus and structure -------------------------------------------

    def partial(self, i: int, j: int) -> "Polynomial":
        """Formal partial derivative with respect to x[i,j]."""
        # a variable that was never interned occurs in no monomial
        p = _PRIME.get(flatten(i, j, self.ambient_n))
        # dropping one x[i,j] maps distinct monomials to distinct monomials
        derived: Raw = {}
        if p is not None:
            for m, c in self.raw.items():
                q, r = divmod(m, p)
                if not r:
                    e, rest = 1, q
                    while not rest % p:
                        rest //= p
                        e += 1
                    derived[q] = c * e
        return _sum_products(self.ring, self.ambient_n, ((derived, _ONE),))

    def homogeneous_component(self, k: int) -> "Polynomial":
        return Polynomial._of(self.ring, self.ambient_n,
                              {m: c for m, c in self.raw.items() if _degree(m) == k})

    def substitute(self, entries: Sequence[Sequence[RingElement]]) -> RingElement:
        """Evaluate at a concrete matrix, x[i,j] -> entries[i][j]."""
        n, ring = self.ambient_n, self.ring
        if len(entries) != n or any(len(row) != n for row in entries):
            raise PolyError("matrix dimension mismatch")
        for row in entries:
            for e in row:
                if e.descriptor != ring:
                    raise PolyError("matrix entries from a different ring")
        flat = [e.value for row in entries for e in row]
        total = Fraction(0) if ring.kind == RAT else 0
        for m, c in self.raw.items():
            for v, e in _factors(m):
                c = c * flat[v] ** e
            total += c
        return RingElement(ring, total % ring.modulus if ring.kind == MOD else total)

    def promote(self, n: int) -> "Polynomial":
        """Re-embed into a larger ambient matrix; identity on terms."""
        if n == self.ambient_n:
            return self
        if n < self.ambient_n:
            raise PolyError("cannot shrink the ambient matrix")
        old = self.ambient_n
        raw = {prod(_prime(flatten(*unflatten(v, old), n)) ** e for v, e in _factors(m)): c
               for m, c in self.raw.items()}
        return Polynomial._of(self.ring, n, raw)

    def restrict_to_diagonal(self) -> "Polynomial":
        """Set every off-diagonal variable to zero: keep the terms whose code
        is 1 once divided by every diagonal variable's prime."""
        n = self.ambient_n
        # a variable that was never interned occurs in no monomial
        primes = [p for p in map(_PRIME.get, range(0, n * n, n + 1)) if p is not None]
        raw = {}
        for m, c in self.raw.items():
            rest = m
            for p in primes:
                while not rest % p:
                    rest //= p
            if rest == 1:
                raw[m] = c
        return Polynomial._of(self.ring, n, raw)

    # -- canonical text ----------------------------------------------------

    def text(self) -> str:
        """Terms in descending graded-lexicographic order on flat indices."""
        if not self.raw:
            return "0"
        rows = []
        for m, c in self.raw.items():
            factors = _factors(m)
            indices = tuple(v for v, e in factors for _ in range(e))
            rows.append((-len(indices), indices, factors, c))
        # among equal degrees, ascending index tuples are descending exponent
        # vectors; no two rows share their indices, so no sort compares further
        rows.sort()
        parts = []
        for _deg, _indices, factors, c in rows:
            words = [element_to_str(_boxed(self.ring, c))]
            for v, e in factors:
                i, j = unflatten(v, self.ambient_n)
                words.append(f"x[{i},{j}]" + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(words))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.text()


class PolyMatrix:
    """Dense matrix of polynomials sharing one ring and ambient size."""

    __slots__ = ("ring", "ambient_n", "rows", "cols", "entries")

    def __init__(self, ring: RingDescriptor, ambient_n: int, rows: int, cols: int,
                 entries: List[Polynomial]):
        if len(entries) != rows * cols:
            raise PolyError("entry count does not match the shape")
        for p in entries:
            if (p.ring is not ring and p.ring != ring) or p.ambient_n != ambient_n:
                raise PolyError("all entries must share ring and ambient size")
        self.ring = ring
        self.ambient_n = ambient_n
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def variables(cls, ring: RingDescriptor, n: int) -> "PolyMatrix":
        """The generic n x n matrix with entry x[i,j] at position (i, j)."""
        ents = [Polynomial.variable(ring, n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        return cls(ring, n, n, n, ents)

    @classmethod
    def identity(cls, ring: RingDescriptor, ambient_n: int, size: int) -> "PolyMatrix":
        ents = [
            Polynomial.from_int(ring, ambient_n, 1 if a == b else 0)
            for a in range(size)
            for b in range(size)
        ]
        return cls(ring, ambient_n, size, size, ents)

    @classmethod
    def zeros(cls, ring: RingDescriptor, ambient_n: int, rows: int, cols: int) -> "PolyMatrix":
        ents = [Polynomial.zero(ring, ambient_n) for _ in range(rows * cols)]
        return cls(ring, ambient_n, rows, cols, ents)

    @classmethod
    def from_rows(cls, ring: RingDescriptor, ambient_n: int,
                  rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = [p for row in rows for p in row]
        return cls(ring, ambient_n, r, c, ents)

    @classmethod
    def from_constants(cls, ring: RingDescriptor, ambient_n: int,
                       rows: Sequence[Sequence[RingElement]]) -> "PolyMatrix":
        polys = [[Polynomial.constant(ring, ambient_n, e) for e in row] for row in rows]
        return cls.from_rows(ring, ambient_n, polys)

    def entry(self, a: int, b: int) -> Polynomial:
        """1-indexed entry access."""
        if not (1 <= a <= self.rows and 1 <= b <= self.cols):
            raise PolyError(f"entry ({a},{b}) outside {self.rows}x{self.cols}")
        return self.entries[(a - 1) * self.cols + (b - 1)]

    def _check_shape(self, other: "PolyMatrix", same: bool) -> None:
        if (self.ring is not other.ring and self.ring != other.ring) or self.ambient_n != other.ambient_n:
            raise PolyError("matrix ring/ambient mismatch")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise PolyError("matrix shape mismatch")

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other, same=True)
        ents = [a - b for a, b in zip(self.entries, other.entries)]
        return PolyMatrix(self.ring, self.ambient_n, self.rows, self.cols, ents)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.ambient_n, self.rows, self.cols,
                          [-p for p in self.entries])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other, same=False)
        if self.cols != other.rows:
            raise PolyError("inner dimensions do not match")
        ring, n, inner, cols = self.ring, self.ambient_n, self.cols, other.cols
        left, right = self.entries, other.entries
        out = [_sum_products(ring, n, ((left[a * inner + k].raw, right[k * cols + b].raw)
                                       for k in range(inner)))
               for a in range(self.rows) for b in range(cols)]
        return PolyMatrix(self.ring, self.ambient_n, self.rows, other.cols, out)

    def scale(self, f: Polynomial) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.ambient_n, self.rows, self.cols,
                          [f * p for p in self.entries])

    def transpose(self) -> "PolyMatrix":
        ents = [self.entry(a, b) for b in range(1, self.cols + 1) for a in range(1, self.rows + 1)]
        return PolyMatrix(self.ring, self.ambient_n, self.cols, self.rows, ents)

    def trace(self) -> Polynomial:
        if self.rows != self.cols:
            raise PolyError("trace of a non-square matrix")
        return _sum_products(self.ring, self.ambient_n,
                             ((self.entry(a, a).raw, _ONE) for a in range(1, self.rows + 1)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        """Submatrix selected by 1-indexed row/column lists."""
        ents = [self.entry(a, b) for a in row_idx for b in col_idx]
        return PolyMatrix(self.ring, self.ambient_n, len(row_idx), len(col_idx), ents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ambient_n == other.ambient_n
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self) -> str:
        rows = []
        for a in range(self.rows):
            row = self.entries[a * self.cols:(a + 1) * self.cols]
            rows.append("[" + ", ".join(p.text() for p in row) + "]")
        return "[" + "; ".join(rows) + "]"


def gradient(f: Polynomial, n: int) -> PolyMatrix:
    """n x n matrix of first partial derivatives, entry (i,j) = d f / d x[i,j]."""
    if f.ambient_n != n:
        raise PolyError("gradient requested for a different ambient size")
    ents = [f.partial(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return PolyMatrix(f.ring, n, n, n, ents)
