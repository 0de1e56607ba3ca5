"""Test-side routes that the package does not need at run time.

Each one recomputes something the package ships by a second, slower road
(a weightwise product of characters, a dense matrix for Gauss-Jordan),
writes a matrix out for a human reader, or is a small formula only the
tests read (the tensor-product grading, the connection's dt/t coefficient,
the root coordinates of a weight, a coroot pairing).
"""

from __future__ import annotations

from fractions import Fraction

from fghodge.character import Character
from fghodge.chevalley import PrincipalTriple
from fghodge.connection import LaurentMatrix
from fghodge.grading import HodgeTable
from fghodge.linalg import Entry, SparseMatrix
from fghodge.rootdatum import Coords, RootDatum


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


def tensor_grading(g1: HodgeTable, g2: HodgeTable) -> HodgeTable:
    """Convolution; the grading of a tensor product because 2rho acts by weight sums."""
    dims: dict[int, int] = {}
    for k1, v1 in g1.dims.items():
        for k2, v2 in g2.dims.items():
            dims[k1 + k2] = dims.get(k1 + k2, 0) + v1 * v2
    return HodgeTable(dims)


def fg_matrix(triple: PrincipalTriple) -> LaurentMatrix:
    """dt-coefficient A(t) = N/t + E of the connection d + (N + Et) dt/t."""
    return (LaurentMatrix.from_scalar_matrix(triple.N, dt=-1)
            + LaurentMatrix.from_scalar_matrix(triple.E))


def root_coordinates(datum: RootDatum, mu) -> tuple[Fraction, ...]:
    """Simple-root coordinates of a weight (rational in general)."""
    n = datum.rank
    return tuple(
        sum(Fraction(mu[k]) * datum.fundamental_weights[k][i] for k in range(n))
        for i in range(n)
    )


def root_pairing(datum: RootDatum, mu: Coords, root: Coords) -> int:
    """<mu, root^vee> for mu in weight coordinates."""
    return sum(m * c for m, c in zip(mu, datum.coroot_of[root]))
