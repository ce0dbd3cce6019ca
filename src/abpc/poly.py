"""Sparse multivariate polynomials in matrix variables x[i,j].

A polynomial is tied to an ambient matrix size n and a coefficient ring;
its variables are the n*n entries of a generic matrix, flattened as
(i-1)*n + (j-1).  Monomials map sorted exponent vectors to nonzero
coefficients, so the representation is canonical and equality is exact.
Mixing different ambient sizes requires an explicit ``promote``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .rings import (
    AbpcError,
    RingDescriptor,
    RingElement,
    element_to_str,
    int_embed,
)


class PolyError(AbpcError):
    pass


# A monomial is a tuple of (flat_variable_index, exponent), sorted by index,
# with all exponents >= 1.  The empty tuple is the constant monomial.
Mono = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class VarIndex:
    """1-indexed matrix position (i, j) of a variable."""

    i: int
    j: int

    def flat(self, n: int) -> int:
        if not (1 <= self.i <= n and 1 <= self.j <= n):
            raise PolyError(f"variable x[{self.i},{self.j}] outside ambient {n}")
        return (self.i - 1) * n + (self.j - 1)


def unflatten(v: int, n: int) -> Tuple[int, int]:
    i, j = divmod(v, n)
    return i + 1, j + 1


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class Polynomial:
    __slots__ = ("ring", "ambient_n", "terms")

    def __init__(self, ring: RingDescriptor, ambient_n: int, terms: Optional[dict] = None):
        self.ring = ring
        self.ambient_n = ambient_n
        self.terms: dict = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor, n: int) -> "Polynomial":
        return cls(ring, n)

    @classmethod
    def constant(cls, ring: RingDescriptor, n: int, value: RingElement) -> "Polynomial":
        if value.descriptor != ring:
            raise PolyError("coefficient from a different ring")
        if value.is_zero():
            return cls(ring, n)
        return cls(ring, n, {(): value})

    @classmethod
    def from_int(cls, ring: RingDescriptor, n: int, k: int) -> "Polynomial":
        return cls.constant(ring, n, int_embed(ring, k))

    @classmethod
    def variable(cls, ring: RingDescriptor, n: int, i: int, j: int) -> "Polynomial":
        flat = VarIndex(i, j).flat(n)
        return cls(ring, n, {((flat, 1),): int_embed(ring, 1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        # deg(0) = 0 by convention
        if not self.terms:
            return 0
        return max(_mono_degree(m) for m in self.terms)

    def constant_term(self) -> RingElement:
        return self.terms.get((), int_embed(self.ring, 0))

    def coefficient(self, mono: Mono) -> RingElement:
        return self.terms.get(mono, int_embed(self.ring, 0))

    def _check_compat(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise PolyError("ring mismatch")
        if self.ambient_n != other.ambient_n:
            raise PolyError("ambient size mismatch; promote explicitly")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            s = c if acc is None else acc + c
            if s.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(self.ring, self.ambient_n, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, self.ambient_n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                acc = terms.get(mono)
                s = c if acc is None else acc + c
                if s.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        return Polynomial(self.ring, self.ambient_n, terms)

    def scale(self, c: RingElement) -> "Polynomial":
        if c.descriptor != self.ring:
            raise PolyError("scalar from a different ring")
        terms = {}
        for m, coeff in self.terms.items():
            s = c * coeff
            if not s.is_zero():
                terms[m] = s
        return Polynomial(self.ring, self.ambient_n, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ambient_n == other.ambient_n
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside

    # -- calculus and structure -------------------------------------------

    def partial(self, i: int, j: int) -> "Polynomial":
        """Formal partial derivative with respect to x[i,j]."""
        flat = VarIndex(i, j).flat(self.ambient_n)
        terms: dict = {}
        for mono, c in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v != flat:
                    continue
                coeff = c * int_embed(self.ring, e)
                if coeff.is_zero():
                    break
                if e == 1:
                    new = mono[:pos] + mono[pos + 1 :]
                else:
                    new = mono[:pos] + ((v, e - 1),) + mono[pos + 1 :]
                acc = terms.get(new)
                s = coeff if acc is None else acc + coeff
                if s.is_zero():
                    terms.pop(new, None)
                else:
                    terms[new] = s
                break
        return Polynomial(self.ring, self.ambient_n, terms)

    def homogeneous_component(self, k: int) -> "Polynomial":
        terms = {m: c for m, c in self.terms.items() if _mono_degree(m) == k}
        return Polynomial(self.ring, self.ambient_n, terms)

    def substitute(self, entries: Union["PolyMatrix", Sequence[Sequence[RingElement]]]) -> RingElement:
        """Evaluate at a concrete matrix, x[i,j] -> entries[i][j]."""
        if isinstance(entries, PolyMatrix):
            entries = entries.constant_entries()
        n = self.ambient_n
        if len(entries) != n or any(len(row) != n for row in entries):
            raise PolyError("matrix dimension mismatch")
        for row in entries:
            for e in row:
                if e.descriptor != self.ring:
                    raise PolyError("matrix entries from a different ring")
        total = int_embed(self.ring, 0)
        for mono, c in self.terms.items():
            prod = c
            for v, e in mono:
                i, j = unflatten(v, n)
                prod = prod * entries[i - 1][j - 1] ** e
            total = total + prod
        return total

    def promote(self, n: int) -> "Polynomial":
        """Re-embed into a larger ambient matrix; identity on terms."""
        if n == self.ambient_n:
            return self
        if n < self.ambient_n:
            raise PolyError("cannot shrink the ambient matrix")
        terms = {}
        for mono, c in self.terms.items():
            new = tuple(
                sorted((VarIndex(*unflatten(v, self.ambient_n)).flat(n), e) for v, e in mono)
            )
            terms[new] = c
        return Polynomial(self.ring, n, terms)

    def restrict_to_diagonal(self) -> "Polynomial":
        """Set every off-diagonal variable to zero."""
        terms = {}
        for mono, c in self.terms.items():
            if all(i == j for i, j in (unflatten(v, self.ambient_n) for v, _ in mono)):
                terms[mono] = c
        return Polynomial(self.ring, self.ambient_n, terms)

    # -- canonical text ----------------------------------------------------

    def _dense(self, mono: Mono) -> Tuple[int, ...]:
        dense = [0] * (self.ambient_n * self.ambient_n)
        for v, e in mono:
            dense[v] = e
        return tuple(dense)

    def sorted_terms(self) -> List[Tuple[Mono, RingElement]]:
        """Terms in descending graded-lexicographic order on flat indices."""
        return sorted(
            self.terms.items(),
            key=lambda item: (_mono_degree(item[0]), self._dense(item[0])),
            reverse=True,
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            factors = [element_to_str(c)]
            for v, e in mono:
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
            if p.ring != ring or p.ambient_n != ambient_n:
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

    def row(self, a: int) -> List[Polynomial]:
        return [self.entry(a, b) for b in range(1, self.cols + 1)]

    def _check_shape(self, other: "PolyMatrix", same: bool) -> None:
        if self.ring != other.ring or self.ambient_n != other.ambient_n:
            raise PolyError("matrix ring/ambient mismatch")
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise PolyError("matrix shape mismatch")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other, same=True)
        ents = [a + b for a, b in zip(self.entries, other.entries)]
        return PolyMatrix(self.ring, self.ambient_n, self.rows, self.cols, ents)

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
        out = []
        for a in range(1, self.rows + 1):
            for b in range(1, other.cols + 1):
                acc = Polynomial.zero(self.ring, self.ambient_n)
                for k in range(1, self.cols + 1):
                    acc = acc + self.entry(a, k) * other.entry(k, b)
                out.append(acc)
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
        acc = Polynomial.zero(self.ring, self.ambient_n)
        for a in range(1, self.rows + 1):
            acc = acc + self.entry(a, a)
        return acc

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        """Submatrix selected by 1-indexed row/column lists."""
        ents = [self.entry(a, b) for a in row_idx for b in col_idx]
        return PolyMatrix(self.ring, self.ambient_n, len(row_idx), len(col_idx), ents)

    def constant_entries(self) -> List[List[RingElement]]:
        out = []
        for a in range(1, self.rows + 1):
            row = []
            for b in range(1, self.cols + 1):
                p = self.entry(a, b)
                if p.degree > 0:
                    raise PolyError("matrix entry is not constant")
                row.append(p.constant_term())
            out.append(row)
        return out

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
        for a in range(1, self.rows + 1):
            rows.append("[" + ", ".join(p.text() for p in self.row(a)) + "]")
        return "[" + "; ".join(rows) + "]"


def gradient(f: Polynomial, n: int) -> PolyMatrix:
    """n x n matrix of first partial derivatives, entry (i,j) = d f / d x[i,j]."""
    if f.ambient_n != n:
        raise PolyError("gradient requested for a different ambient size")
    ents = [f.partial(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return PolyMatrix(f.ring, n, n, n, ents)


def matrix_power(x: PolyMatrix, i: int) -> PolyMatrix:
    if x.rows != x.cols:
        raise PolyError("power of a non-square matrix")
    if i < 0:
        raise PolyError("negative matrix power")
    out = PolyMatrix.identity(x.ring, x.ambient_n, x.rows)
    for _ in range(i):
        out = out * x
    return out
