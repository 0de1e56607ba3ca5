"""Exact sparse matrices over the rationals.

Minimal square-matrix type for representation matrices, and the ranks behind
Jordan types: rank and the row-space chain of power_ranks share one
fraction-free elimination, _echelon, with one pivot row per leading column.
Entries are Python ints or Fractions; nothing here ever touches a float, and
an integral matrix stays on ints.  A SparseMatrix holds no zero entry and no
Fraction with denominator 1: from_entries, the arithmetic and the commutator
drop zeros and normalise as they build.  Elimination rows hold no zero
either: _echelon and the power_ranks product drop each zero as it arises,
and _echelon divides a row by its content only when the content is not 1.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .errors import UsageError

Entry = int | Fraction
Entries = dict[tuple[int, int], Entry]


def _norm(x: Entry) -> Entry:
    # type(), not isinstance(): Fraction's numbers.Rational ABC makes that slow
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


class SparseMatrix:
    """Square dim x dim matrix; entries holds the nonzero ones by (row, col)."""

    def __init__(self, dim: int, entries: Entries):
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseMatrix(dim={self.dim})"

    @classmethod
    def zero(cls, dim: int) -> "SparseMatrix":
        return cls(dim, {})

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseMatrix":
        clean = {}
        for (r, c), v in dict(entries).items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise UsageError(f"entry ({r},{c}) outside a {dim}x{dim} matrix")
            if v != 0:
                clean[(r, c)] = _norm(v)
        return cls(dim, clean)

    @classmethod
    def diagonal(cls, values) -> "SparseMatrix":
        values = list(values)
        return cls.from_entries(len(values), {(i, i): v for i, v in enumerate(values)})

    def get(self, r: int, c: int) -> Entry:
        return self.entries.get((r, c), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = _norm(s)
        return SparseMatrix(self.dim, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-1)

    def scale(self, c: Entry) -> "SparseMatrix":
        if c == 0:
            return SparseMatrix.zero(self.dim)
        return SparseMatrix(self.dim, {k: _norm(v * c) for k, v in self.entries.items()})

    @functools.cached_property
    def rows(self) -> dict[int, list[tuple[int, Entry]]]:
        """Row index {row: [(col, value), ...]}, built once per matrix."""
        rows: dict[int, list[tuple[int, Entry]]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, []).append((c, v))
        return rows

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")
        rows_b = other.rows
        out: Entries = {}
        for (r, k), va in self.entries.items():
            row = rows_b.get(k)
            if row is None:
                continue
            for c, vb in row:
                key = (r, c)
                s = out.get(key, 0) + va * vb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return SparseMatrix(self.dim, {k: _norm(v) for k, v in out.items()})

    def commutator(self, other: "SparseMatrix") -> "SparseMatrix":
        """AB - BA in one accumulator over both row indexes, normalised once."""
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")
        out: Entries = defaultdict(int)
        for a, b, sign in ((self, other, 1), (other, self, -1)):
            rows_b = b.rows
            for (r, k), va in a.entries.items():
                for c, vb in rows_b.get(k, ()):
                    out[(r, c)] += sign * va * vb
        return SparseMatrix(self.dim, {k: _norm(v) for k, v in out.items() if v})


def _int_rows(matrix: SparseMatrix) -> dict[int, dict[int, int]]:
    """The nonzero rows of den * matrix as {col: int}, den the lcm of all denominators."""
    den = lcm(*(v.denominator for v in matrix.entries.values()))
    return {r: {c: v.numerator * (den // v.denominator) for c, v in row}
            for r, row in matrix.rows.items()}


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Echelon basis {leading column: primitive row} of the span of integer rows.

    Rows hold no zero entry, and a row may be reduced in place.  One pivot per
    leading column: an incoming row is reduced by the pivot at its leading
    column, (pv/g) row - (v/g) pivot with g = gcd(pv, v), dropping each entry
    that cancels, and divided by its content when that is not 1, until it is
    zero or leads a free column (Bareiss, Math. Comp. 22, 1968).
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while content := gcd(*row.values()):
            if content != 1:
                row = {c: x // content for c, x in row.items()}
            col = min(row)
            piv = pivots.setdefault(col, row)
            if piv is row:
                break
            g = gcd(piv[col], row[col])
            a, b = piv[col] // g, row[col] // g
            if a != 1:
                row = {c: x * a for c, x in row.items()}
            for c, x in piv.items():
                if v := row.get(c, 0) - b * x:
                    row[c] = v
                else:
                    del row[c]
    return pivots


def rank(matrix: SparseMatrix) -> int:
    """Rank over Q: the number of leading columns that get a pivot when
    _echelon eliminates the rows of matrix, whose denominators are cleared
    once so that int and Fraction entries run on ints."""
    return len(_echelon(_int_rows(matrix).values()))


def power_ranks(matrix: SparseMatrix) -> list[int]:
    """[rank M, rank M^2, ..., 0] for a nilpotent M, without forming any power.

    rowspace(M^(k+1)) = rowspace(M^k) M, so an echelon basis of rowspace(M^k)
    times M, re-echelonized, gives rank M^(k+1); the chain starts from the
    identity.  Raises UsageError as soon as a rank fails to fall: M is then
    not nilpotent.
    """
    rows = _int_rows(matrix)
    ranks = [matrix.dim]
    basis = {r: {r: 1} for r in range(matrix.dim)}
    while ranks[-1]:
        nxt = []
        for row in basis.values():
            out: dict[int, int] = {}
            for k, x in row.items():
                for c, y in rows.get(k, {}).items():
                    if v := out.get(c, 0) + x * y:
                        out[c] = v
                    else:
                        del out[c]
            nxt.append(out)
        basis = _echelon(nxt)
        if len(basis) >= ranks[-1]:
            raise UsageError("matrix is not nilpotent")
        ranks.append(len(basis))
    return ranks[1:]
