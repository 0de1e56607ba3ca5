from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge.linalg import SparseMatrix, rank


def gauss_jordan_rank(dense) -> int:
    """Rank over Q of a list of rows, by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in dense]
    rk = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        lead = rows[rk][col]
        rows[rk] = [v / lead for v in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 8x8 with zero rows and rows that repeat or combine earlier ones."""
    dim = draw(st.integers(1, 8))
    dense: list[list] = []
    for _ in range(dim):
        kind = draw(st.sampled_from(["sparse", "zero", "multiple", "sum"] if dense else ["sparse", "zero"]))
        if kind == "zero":
            row = [0] * dim
        elif kind == "multiple":
            c = draw(entries.filter(lambda v: v != 0))
            row = [c * v for v in draw(st.sampled_from(dense))]
        elif kind == "sum":
            a, b = draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
            row = [x - y for x, y in zip(a, b)]
        else:
            row = [draw(entries) if draw(st.booleans()) else 0 for _ in range(dim)]
        dense.append(row)
    return dense


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dense=sparse_matrices())
def test_rank_matches_gauss_jordan(dense):
    dim = len(dense)
    m = SparseMatrix.from_entries(dim, {(r, c): v for r, row in enumerate(dense)
                                        for c, v in enumerate(row) if v != 0})
    expect = gauss_jordan_rank(dense)
    assert rank(m) == expect
    transpose = SparseMatrix(dim, {(c, r): v for (r, c), v in m.entries.items()})
    assert rank(transpose) == expect


def test_rank_examples():
    assert rank(SparseMatrix.zero(4)) == 0
    assert rank(SparseMatrix.diagonal([1, Fraction(1, 3), -2, 0])) == 3
    # rows proportional over Q but not over Z-with-unit-pivots
    m = SparseMatrix.from_entries(2, {(0, 0): 2, (0, 1): 3, (1, 0): Fraction(2, 3), (1, 1): 1})
    assert rank(m) == 1
    big = SparseMatrix.from_entries(2, {(0, 0): 10**30, (0, 1): 1, (1, 0): 1, (1, 1): Fraction(1, 10**30)})
    assert rank(big) == 1
