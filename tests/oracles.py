"""Test-side routes that the package does not need at run time.

Each one recomputes something the package ships by a second, slower road
(a weightwise product of characters, a dense matrix for Gauss-Jordan) or
writes a matrix out for a human reader.
"""

from __future__ import annotations

from fractions import Fraction

from fghodge.character import Character
from fghodge.grading import HodgeTable
from fghodge.linalg import Entry, SparseMatrix


def product_character_grading(c1: Character, c2: Character) -> HodgeTable:
    """Grading of the product character, convolving weightwise."""
    trc = c1.datum.two_rho_covector
    dims: dict[int, int] = {}
    for mu1, m1 in c1.mult.items():
        k1 = sum(a * b for a, b in zip(mu1, trc))
        for mu2, m2 in c2.mult.items():
            k = k1 + sum(a * b for a, b in zip(mu2, trc))
            dims[k] = dims.get(k, 0) + m1 * m2
    return HodgeTable(dims)


def to_dense(m: SparseMatrix) -> list[list[Entry]]:
    dense = [[0] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries.items():
        dense[r][c] = v
    return dense


def dump_triplets(m: SparseMatrix) -> str:
    """Sparse triplet text: one "row col numerator/denominator" per line."""
    lines = ["# sparse matrix, dim %d, entries %d" % (m.dim, m.nnz),
             "# row col numerator/denominator"]
    for (r, c) in sorted(m.entries):
        v = Fraction(m.entries[(r, c)])
        lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"
