"""Sparse multivariate polynomials in matrix variables x[i,j].

A polynomial is tied to an ambient matrix size n and a coefficient ring;
its variables are the n*n entries of a generic matrix, flattened as
(i-1)*n + (j-1).  ``Polynomial.raw`` maps each monomial, written as the
sorted tuple of its variables' flat indices with repeats (x[1,1]^2 x[1,2]
is (0, 0, 1)), to its raw coefficient, never zero: an ``int``, a residue
in [0, m), or over ``rat`` an ``int`` when the coefficient is integral and
a reduced ``Fraction`` with denominator > 1 otherwise, so a product of
integral rational factors never runs in ``fractions`` code.  The
representation is canonical, so equality is exact.  ``terms`` is the boxed
view of the same data, ((v, e), ...) monomials to ring elements; it,
``constant_term`` and ``text`` box every rational coefficient as a
``Fraction``.  Mixing different ambient sizes requires an explicit
``promote``.

Every sum and product goes through one kernel, ``_sum_products``: it
accumulates products of raw dicts into one dict, then reduces mod m (over
``rat``: holds integral sums as ``int``) and drops zeros once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
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


Raw = Dict[Tuple[int, ...], Value]

# the raw polynomial 1, a factor that turns a product into a plain sum
_ONE: Raw = {(): 1}


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
    once at the end.
    """
    acc: Raw = {}
    get = acc.get
    for a, b in pairs:
        if len(a) < len(b):  # the inner loop runs over the larger factor
            a, b = b, a
        for mb, cb in b.items():
            if mb:
                for ma, ca in a.items():
                    m = tuple(sorted(ma + mb))
                    acc[m] = get(m, 0) + ca * cb
            else:
                for ma, ca in a.items():
                    acc[ma] = get(ma, 0) + ca * cb
    if ring.kind == MOD:
        modulus = ring.modulus
        return Polynomial._of(ring, n, {m: r for m, c in acc.items() if (r := c % modulus)})
    if ring.kind == RAT:  # ``_held``, inlined: it runs on every coefficient of every result
        return Polynomial._of(ring, n, {m: c.numerator if c.denominator == 1 else c
                                        for m, c in acc.items() if c})
    return Polynomial._of(ring, n, {m: c for m, c in acc.items() if c})


def _raw_value(p: "Polynomial", flat: Sequence[Value]) -> Value:
    """The raw value of ``p`` at a matrix given by the raw values of its
    entries in row-major order."""
    total = Fraction(0) if p.ring.kind == RAT else 0
    for mono, c in p.raw.items():
        for v in mono:
            c = c * flat[v]
        total += c
    return total % p.ring.modulus if p.ring.kind == MOD else total


class Polynomial:
    """A polynomial over ``ring`` in the n*n variables of an n x n matrix.

    ``raw`` maps sorted flat-index tuples to nonzero raw coefficients; over
    ``rat`` an integral coefficient is an ``int`` and any other a
    ``Fraction`` with denominator > 1.  Treat it as read-only.
    """

    __slots__ = ("ring", "ambient_n", "raw")

    def __init__(self, ring: RingDescriptor, ambient_n: int, terms: Optional[dict] = None):
        """``terms`` is a boxed view: ((v, e), ...) monomials, sorted by the
        flat index v with every e >= 1, to ring elements; zeros are dropped."""
        self.ring = ring
        self.ambient_n = ambient_n
        self.raw: Raw = {
            tuple(v for v, e in mono for _ in range(e)): _held(c.value)
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
        return cls._of(ring, n, {} if value.is_zero() else {(): _held(value.value)})

    @classmethod
    def from_int(cls, ring: RingDescriptor, n: int, k: int) -> "Polynomial":
        return cls.constant(ring, n, int_embed(ring, k))

    @classmethod
    def variable(cls, ring: RingDescriptor, n: int, i: int, j: int) -> "Polynomial":
        return cls._of(ring, n, {(flatten(i, j, n),): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The boxed view: ((v, e), ...) monomials, sorted by v, to ring
        elements.  A fresh dict on every access."""
        ring = self.ring
        # a sorted monomial's Counter lists its (v, e) pairs in order of v
        return {tuple(Counter(mono).items()): _boxed(ring, c) for mono, c in self.raw.items()}

    def is_zero(self) -> bool:
        return not self.raw

    @property
    def degree(self) -> int:
        # deg(0) = 0 by convention
        return max(map(len, self.raw), default=0)

    def constant_term(self) -> RingElement:
        return _boxed(self.ring, self.raw[()]) if () in self.raw else int_embed(self.ring, 0)

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
        return _sum_products(self.ring, self.ambient_n, ((self.raw, {(): -1}),))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        return _sum_products(self.ring, self.ambient_n, ((self.raw, _ONE), (other.raw, {(): -1})))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        return _sum_products(self.ring, self.ambient_n, ((self.raw, other.raw),))

    def scale(self, c: RingElement) -> "Polynomial":
        if c.descriptor != self.ring:
            raise PolyError("scalar from a different ring")
        return _sum_products(self.ring, self.ambient_n, ((self.raw, {(): _held(c.value)}),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self.ambient_n == other.ambient_n
            and self.raw == other.raw
        )

    __hash__ = None  # mutable dict inside

    # -- calculus and structure -------------------------------------------

    def partial(self, i: int, j: int) -> "Polynomial":
        """Formal partial derivative with respect to x[i,j]."""
        flat = flatten(i, j, self.ambient_n)
        # dropping one x[i,j] maps distinct monomials to distinct monomials
        derived: Raw = {}
        for mono, c in self.raw.items():
            e = mono.count(flat)
            if e:
                pos = mono.index(flat)
                derived[mono[:pos] + mono[pos + 1:]] = c * e
        return _sum_products(self.ring, self.ambient_n, ((derived, _ONE),))

    def homogeneous_component(self, k: int) -> "Polynomial":
        return Polynomial._of(self.ring, self.ambient_n,
                              {m: c for m, c in self.raw.items() if len(m) == k})

    def substitute(self, entries: Sequence[Sequence[RingElement]]) -> RingElement:
        """Evaluate at a concrete matrix, x[i,j] -> entries[i][j]."""
        n = self.ambient_n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise PolyError("matrix dimension mismatch")
        for row in entries:
            for e in row:
                if e.descriptor != self.ring:
                    raise PolyError("matrix entries from a different ring")
        return RingElement(self.ring, _raw_value(self, [e.value for row in entries for e in row]))

    def promote(self, n: int) -> "Polynomial":
        """Re-embed into a larger ambient matrix; identity on terms."""
        if n == self.ambient_n:
            return self
        if n < self.ambient_n:
            raise PolyError("cannot shrink the ambient matrix")
        # flat indices keep their row-major order, so monomials stay sorted
        old = self.ambient_n
        raw = {tuple(flatten(*unflatten(v, old), n) for v in mono): c
               for mono, c in self.raw.items()}
        return Polynomial._of(self.ring, n, raw)

    def restrict_to_diagonal(self) -> "Polynomial":
        """Set every off-diagonal variable to zero."""
        n = self.ambient_n
        raw = {mono: c for mono, c in self.raw.items()
               if all(i == j for i, j in (unflatten(v, n) for v in mono))}
        return Polynomial._of(self.ring, n, raw)

    # -- canonical text ----------------------------------------------------

    def text(self) -> str:
        """Terms in descending graded-lexicographic order on flat indices."""
        if not self.raw:
            return "0"
        parts = []
        # among equal degrees, ascending index tuples are descending exponent vectors
        for mono in sorted(self.raw, key=lambda m: (-len(m), m)):
            factors = [element_to_str(_boxed(self.ring, self.raw[mono]))]
            for v, e in Counter(mono).items():
                i, j = unflatten(v, self.ambient_n)
                factors.append(f"x[{i},{j}]" + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(factors))
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
