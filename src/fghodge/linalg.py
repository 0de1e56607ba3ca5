"""Exact sparse matrices over the rationals.

Minimal square-matrix type used for representation matrices and for the
rank computations behind Jordan types.  Entries are Python ints or
Fractions; nothing here ever touches a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SparseMatrix:
    dim: int
    entries: Entries = field(repr=False)

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

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dim != other.dim:
            raise UsageError("matrix dimensions differ")
        rows_b: dict[int, list[tuple[int, Entry]]] = {}
        for (r, c), v in other.entries.items():
            rows_b.setdefault(r, []).append((c, v))
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
        return (self @ other) - (other @ self)

    def to_dense(self) -> list[list[Entry]]:
        m = [[0] * self.dim for _ in range(self.dim)]
        for (r, c), v in self.entries.items():
            m[r][c] = v
        return m

    def dump_triplets(self) -> str:
        """Sparse triplet text: one "row col numerator/denominator" per line."""
        lines = ["# sparse matrix, dim %d, entries %d" % (self.dim, self.nnz),
                 "# row col numerator/denominator"]
        for (r, c) in sorted(self.entries):
            v = Fraction(self.entries[(r, c)])
            lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"


def rank(matrix: SparseMatrix) -> int:
    """Rank over Q by fraction-free sparse elimination, the sparsest row as pivot.

    Denominators are cleared once per row, so int and Fraction entries share
    one path on Python ints.  A row with v in the pivot's column becomes
    (pv/g) row - (v/g) pivot, g = gcd(pv, v), divided by its content
    (Bareiss, Math. Comp. 22, 1968)."""
    by_row: dict[int, dict[int, Entry]] = {}
    for (r, c), v in matrix.entries.items():
        by_row.setdefault(r, {})[c] = v
    rows = []
    for row in by_row.values():
        den = lcm(*(v.denominator for v in row.values()))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    rk = 0
    while rows:
        piv = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col = min(piv)
        pv = piv[col]
        rk += 1
        nxt = []
        for row in rows:
            v = row.get(col)
            if v is not None:
                g = gcd(pv, v)
                a, b = pv // g, v // g
                if a != 1:
                    row = {c: x * a for c, x in row.items()}
                for c2, pv2 in piv.items():
                    s = row.get(c2, 0) - b * pv2
                    if s == 0:
                        row.pop(c2, None)
                    else:
                        row[c2] = s
                content = gcd(*row.values())
                if content > 1:
                    row = {c: x // content for c, x in row.items()}
            if row:
                nxt.append(row)
        rows = nxt
    return rk
