"""Exact sparse matrices over the rationals.

Minimal square-matrix type for representation matrices, and the Jordan
types of graded nilpotent ones: rank and graded_blocks share one
fraction-free elimination step, _insert, with one pivot row per leading
column.  The package forms every matrix product here, in two routines: the
commutator, its one product of two matrices, and _row_times, its one
product of a matrix and a vector, which the Jordan sweep and chevalley's
x_theta tree call.  The commutator tests no operand for proportionality: the
flatness residual, the one caller that commutes multiples, sums their
scalars by bilinearity first (connection), and [X, cX] = 0 still comes out
of the product.  Its product branch walks the entries of the sparser operand
only, against the other's row and column indexes (rows, cols), which each
matrix builds once and keeps; the Jordan sweep reads the same two indexes
for its levels and, on an int matrix, takes its rows as they are.  An index
is a dict of dicts, {row: {col: value}} and {col: {row: value}}, so it holds
no list or tuple per entry, and an inner dict of ints is never tracked by
the cyclic garbage collector.  The commutator normalises only the sums that
are not ints.  The sum and the commutator refuse operands of different
dimensions with UsageError.  Entries are Python ints or Fractions, and
from_entries and scale refuse any other value with UsageError; nothing here
ever touches a float, and an integral matrix stays on ints.  A SparseMatrix
holds no zero entry and no Fraction with denominator 1: from_entries, the
sum, the scaling and the commutator drop zeros and normalise as they build.
Elimination rows hold no zero either: _insert and the row product _row_times
drop each zero as it arises, and _insert divides a row by its content only
when it is not 1.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm

from .errors import UsageError

Entry = int | Fraction
Entries = dict[tuple[int, int], Entry]


def _entry(x) -> Entry:
    """x as an int or a Fraction (an int subclass such as bool as an int)."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, int):
        return int(x)
    raise UsageError(f"matrix entry {x!r} is not an int or a Fraction")


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
            if v := _entry(v):
                clean[(r, c)] = _norm(v)
        return cls(dim, clean)

    def get(self, r: int, c: int) -> Entry:
        return self.entries.get((r, c), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merge(other, operator.add)

    def _merge(self, other: "SparseMatrix", op) -> "SparseMatrix":
        """op(self, other) entry by entry, op being operator.add or
        operator.sub: a difference forms no negated copy of other."""
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = op(out.get(k, 0), v)
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = _norm(s)
        return SparseMatrix(self.dim, out)

    def scale(self, c: Entry) -> "SparseMatrix":
        """c times the matrix, which is its own 1-multiple (no matrix is mutated)."""
        c = _entry(c)
        if c == 1:
            return self
        if c == 0:
            return SparseMatrix.zero(self.dim)
        return SparseMatrix(self.dim, {k: _norm(v * c) for k, v in self.entries.items()})

    @functools.cached_property
    def rows(self) -> dict[int, dict[int, Entry]]:
        """Row index {row: {col: value}}, built once per matrix."""
        rows: dict[int, dict[int, Entry]] = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return rows

    @functools.cached_property
    def cols(self) -> dict[int, dict[int, Entry]]:
        """Column index {col: {row: value}}, built once per matrix."""
        cols: dict[int, dict[int, Entry]] = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, {})[r] = v
        return cols

    def commutator(self, other: "SparseMatrix") -> "SparseMatrix":
        """XY - YX, X = self and Y = other, by one exact identity or by one
        accumulator over the entries of the sparser operand, normalised once.

        Y = diag(d) gives (XY)[r, c] = X[r, c] d_c and (YX)[r, c] = d_r
        X[r, c], so [X, Y][r, c] = X[r, c] (d_c - d_r), one pass over X.
        Otherwise, if Y has fewer entries than X, [X, Y] = -[Y, X]: the two
        swap and the sum is negated, so that X is the sparser.  An entry
        X[r, k] = v takes part in (XY)[r, c] = sum_k X[r, k] Y[k, c] once for
        each Y[k, c] in row k of Y, in (YX)[i, k] = sum_r Y[i, r] X[r, k]
        once for each Y[i, r] in column r of Y, and in no other term.  So one
        walk over the entries of X, reading Y's cached rows and cols, forms
        every product term once: on E8 [e_i, N] walks the ~60 entries of e_i
        and not the 478 of N.
        """
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")
        x, y = self.entries, other.entries
        if all(r == c for r, c in y):
            d = {r: v for (r, _), v in y.items()}
            return SparseMatrix(self.dim, {key: _norm(v * s) for key, v in x.items()
                                           if (s := d.get(key[1], 0) - d.get(key[0], 0))})
        x, other, sign = (y, self, -1) if len(y) < len(x) else (x, other, 1)
        rows, cols = other.rows, other.cols
        acc: Entries = {}
        get = acc.get
        for (r, k), v in x.items():
            if (row := rows.get(k)) is not None:
                for c in row:
                    key = (r, c)
                    acc[key] = get(key, 0) + v * row[c]
            if (col := cols.get(r)) is not None:
                for i in col:
                    key = (i, k)
                    acc[key] = get(key, 0) - col[i] * v
        return SparseMatrix(self.dim, {key: s if type(s := sign * v) is int else _norm(s)
                                       for key, v in acc.items() if v})


def _int_rows(matrix: SparseMatrix) -> dict[int, dict[int, int]]:
    """The nonzero rows of den * matrix as {col: int}, den the lcm of all
    denominators: the cached rows themselves when every entry is an int."""
    if all(type(v) is int for v in matrix.entries.values()):
        return matrix.rows
    den = lcm(*(v.denominator for v in matrix.entries.values()))
    return {r: {c: v.numerator * (den // v.denominator) for c, v in row.items()}
            for r, row in matrix.rows.items()}


def _insert(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> int | None:
    """Reduce an integer row (no zero entry; reduced in place) by an echelon
    basis {leading column: primitive row}: by the pivot at its leading column
    to (pv/g) row - (v/g) pivot, g = gcd(pv, v), and by its content when that
    is not 1 (Bareiss, Math. Comp. 22, 1968).  Store it under the free column
    it comes to lead and return that column, or None if it reduces to zero.
    """
    while content := gcd(*row.values()):
        if content != 1:
            row = {c: x // content for c, x in row.items()}
        col = min(row)
        piv = pivots.setdefault(col, row)
        if piv is row:
            return col
        g = gcd(piv[col], row[col])
        a, b = piv[col] // g, row[col] // g
        if a != 1:
            row = {c: x * a for c, x in row.items()}
        for c, x in piv.items():
            if v := row.get(c, 0) - b * x:
                row[c] = v
            else:
                del row[c]
    return None


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Echelon basis {leading column: primitive row} of the span of integer rows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def _row_times(row: dict[int, Entry], rows: dict[int, dict[int, Entry]]) -> dict[int, Entry]:
    """The row times the matrix whose nonzero rows are rows ({k: {c: y}}, as
    _int_rows gives them); passed a column index (cols) instead, it is the
    matrix times the row as a column."""
    out: dict[int, Entry] = {}
    for k, x in row.items():
        if (targets := rows.get(k)) is None:
            continue
        for c in targets:
            if v := out.get(c, 0) + x * targets[c]:
                out[c] = v
            else:
                del out[c]
    return out


def rank(matrix: SparseMatrix) -> int:
    """Rank over Q: the number of leading columns that get a pivot when
    _echelon eliminates the rows of matrix, whose denominators are cleared
    once so that int and Fraction entries run on ints."""
    return len(_echelon(map(dict, _int_rows(matrix).values())))


def graded_blocks(matrix: SparseMatrix) -> list[int] | None:
    """Jordan blocks of a matrix all of whose nonzero (r, c) raise a level by
    one, in one sweep over the levels; None if its support has no such levels.

    A BFS over the cached rows and cols finds the levels: an entry (r, c)
    puts c one level above r.  Each edge costs one lookup per direction: an
    index without a level gets the one the edge asks for, and one with a
    different level refuses the matrix.  Each level carries an echelon
    basis, each row tagged with its birth level, completed by unit rows born
    there.  The images of the rows born by b span the image of level b; one
    that reduces to zero, inserted oldest first, closes a block of size
    level - birth + 1 (the elder rule for the bars of the graded
    k[x]-module, Zomorodian-Carlsson, DCG 33, 2005); the rest are carried
    up.
    """
    level: dict[int, int] = {}
    above, below = matrix.rows, matrix.cols  # row u lists the c above u, column u the r below
    for start in range(matrix.dim):
        if start in level:
            continue
        level[start] = 0
        queue = [start]
        for u in queue:
            k = level[u]
            for index, want in ((above, k + 1), (below, k - 1)):
                for v in index.get(u, ()):
                    got = level.get(v)
                    if got is None:
                        level[v] = want
                        queue.append(v)
                    elif got != want:
                        return None
    rows, blocks, carried, pivots = _int_rows(matrix), [], [], {}
    for k, born in groupby(sorted(level, key=level.get), level.get):
        # groupby skips empty levels: below one every image is zero, so nothing is carried
        carried += [(k, {i: 1}) for i in born if i not in pivots]
        pivots, survivors = {}, []
        for birth, row in carried:
            if (col := _insert(pivots, _row_times(row, rows))) is None:
                blocks.append(k - birth + 1)
            else:
                survivors.append((birth, pivots[col]))
        carried = survivors
    return blocks
