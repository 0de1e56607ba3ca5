from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge import linalg
from fghodge.chevalley import adjoint_rep, jordan_type, principal_triple
from fghodge.errors import UsageError
from fghodge.grading import JordanPartition
from fghodge.linalg import SparseMatrix, graded_blocks, rank
from conftest import datum
from oracles import diagonal, graded_blocks_by_setdefault, matrix_product, rank_chain_blocks, to_dense


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
    assert rank(diagonal([1, Fraction(1, 3), -2, 0])) == 3
    # rows proportional over Q but not over Z-with-unit-pivots
    m = SparseMatrix.from_entries(2, {(0, 0): 2, (0, 1): 3, (1, 0): Fraction(2, 3), (1, 1): 1})
    assert rank(m) == 1
    big = SparseMatrix.from_entries(2, {(0, 0): 10**30, (0, 1): 1, (1, 0): 1, (1, 1): Fraction(1, 10**30)})
    assert rank(big) == 1


@st.composite
def commuting_or_not(draw):
    """(A, B, commute) of equal size for each path of commutator: B
    unrelated to A or on the support of A; B = c A with c an int, a negative
    int or a Fraction, and A^2 plus a scalar, so that the product's AB - BA
    cancels entry by entry; B diagonal (general, zero, or half-integral like RHO on C_n std);
    A diagonal; an empty matrix on either side or of dimension 0; and B with
    more, fewer or as many entries as A, so that the product walks A, B, or
    A on a tie."""
    dense = draw(sparse_matrices())
    dim = len(dense)
    a = SparseMatrix.from_entries(dim, {(r, c): v for r, row in enumerate(dense)
                                        for c, v in enumerate(row) if v != 0})
    index = st.integers(0, dim - 1)
    other = st.dictionaries(st.tuples(index, index), entries, max_size=3 * dim).map(
        lambda e: SparseMatrix.from_entries(dim, e))
    diagonals = st.lists(entries, min_size=dim, max_size=dim).map(diagonal)
    kind = draw(st.sampled_from(["other", "same support", "int multiple", "negative multiple",
                                 "fraction multiple", "polynomial", "diagonal", "zero diagonal",
                                 "half diagonal", "diagonal A", "empty A", "empty B", "dimension 0",
                                 "sparser A", "sparser B", "equal nnz"]))
    if kind in ("sparser A", "sparser B", "equal nnz"):  # B's entry count against A's
        size = draw({"sparser A": st.integers(min(a.nnz + 1, dim * dim), dim * dim),
                     "sparser B": st.integers(0, max(a.nnz - 1, 0)),
                     "equal nnz": st.just(a.nnz)}[kind])
        keys = draw(st.permutations([(r, c) for r in range(dim) for c in range(dim)]))[:size]
        nonzero = entries.filter(lambda v: v != 0)
        return a, SparseMatrix.from_entries(dim, {k: draw(nonzero) for k in keys}), False
    if kind == "same support":  # mostly not a multiple
        nonzero = entries.filter(lambda v: v != 0)
        return a, SparseMatrix.from_entries(dim, {k: draw(nonzero) for k in a.entries}), False
    if kind == "int multiple":
        return a, a.scale(draw(st.integers(0, 6))), True
    if kind == "negative multiple":
        return a, a.scale(draw(st.integers(-6, -1))), True
    if kind == "fraction multiple":
        return a, a.scale(draw(st.fractions(-6, 6, max_denominator=7).filter(lambda c: c.denominator > 1))), True
    if kind == "polynomial":
        return a, matrix_product(a, a) + diagonal([draw(entries)] * dim), True
    if kind == "diagonal":
        return a, draw(diagonals), False
    if kind == "zero diagonal":
        return a, diagonal([0] * dim), True
    if kind == "half diagonal":
        halves = draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))
        return a, diagonal([Fraction(k, 2) for k in halves]), False
    if kind == "diagonal A":
        return draw(diagonals), draw(other), False
    if kind == "empty A":
        return SparseMatrix.zero(dim), draw(other), True
    if kind == "empty B":
        return a, SparseMatrix.zero(dim), True
    if kind == "dimension 0":
        return SparseMatrix.zero(0), SparseMatrix.zero(0), True
    return a, draw(other), False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=commuting_or_not())
def test_commutator_is_ab_minus_ba(pair):
    a, b, commute = pair
    got = a.commutator(b)
    expect = matrix_product(a, b) + matrix_product(b, a).scale(-1)
    assert got == expect
    assert {k: type(v) for k, v in got.entries.items()} == {k: type(v) for k, v in expect.entries.items()}
    assert all(v != 0 and not (type(v) is Fraction and v.denominator == 1) for v in got.entries.values())
    if commute:
        assert got.is_zero()


def test_matrices_refuse_values_that_are_not_ints_or_fractions():
    # a float used to be stored, and the Jordan sweep then failed on its missing denominator
    for value in (0.5, 1.0, 0.0, "1", None, 1 + 0j):
        with pytest.raises(UsageError, match="is not an int or a Fraction"):
            SparseMatrix.from_entries(2, {(0, 1): value})
        with pytest.raises(UsageError, match="is not an int or a Fraction"):
            SparseMatrix.from_entries(2, {(0, 1): 1}).scale(value)
    m = SparseMatrix.from_entries(2, {(0, 1): True, (1, 0): Fraction(4, 2), (1, 1): 0})
    assert m.entries == {(0, 1): 1, (1, 0): 2} and {type(v) for v in m.entries.values()} == {int}
    assert m.scale(1) is m and m.scale(Fraction(-1, 2)).entries == {(0, 1): Fraction(-1, 2), (1, 0): -1}
    assert m.scale(False).is_zero() and m.scale(True) is m
    assert jordan_type(SparseMatrix.from_entries(2, {(0, 1): Fraction(1, 2)})) == JordanPartition((2,))


def test_commutator_refuses_different_dimensions():
    with pytest.raises(UsageError, match="dimensions differ"):
        diagonal([1, 2]).commutator(diagonal([1, 2, 3]))


def test_the_product_walks_the_sparser_operand(monkeypatch):
    # [X, Y] reads the row and column indexes of the denser operand only,
    # and of Y on a tie
    x = SparseMatrix.from_entries(3, {(0, 1): 2})
    y = SparseMatrix.from_entries(3, {(1, 2): 1, (2, 0): Fraction(1, 3), (0, 1): 5, (1, 0): -1})
    tie = SparseMatrix.from_entries(3, {(1, 0): 7})
    reads = []
    for name in ("rows", "cols"):
        build = SparseMatrix.__dict__[name].func
        monkeypatch.setattr(SparseMatrix, name,
                            property(lambda m, build=build, name=name: reads.append((name, m)) or build(m)))
    for a, b, walked in ((x, y, y), (y, x, y), (x, tie, tie)):
        reads.clear()
        got = a.commutator(b)
        assert [(name, id(m)) for name, m in reads] == [("rows", id(walked)), ("cols", id(walked))]
        assert got == matrix_product(a, b) + matrix_product(b, a).scale(-1)


def test_the_sum_refuses_different_dimensions():
    # a 2x2 plus a 3x3 used to be a "2x2" holding entry (2, 2), whose level
    # sweep answered [2]
    small = SparseMatrix.from_entries(2, {(0, 1): 1})
    big = SparseMatrix.from_entries(3, {(2, 2): 5})
    for x, y in ((small, big), (big, small)):
        with pytest.raises(UsageError, match="matrix dimensions differ"):
            x + y


def jordan_blocks_from_powers(m: SparseMatrix) -> tuple[int, ...]:
    """Jordan blocks of a nilpotent m from the Gauss-Jordan ranks of its explicit powers."""
    ranks = [m.dim]
    power = m
    while ranks[-1]:
        ranks.append(gauss_jordan_rank(to_dense(power)))
        power = matrix_product(power, m)
    ranks.append(0)
    blocks = []
    for s in range(len(ranks) - 2, 0, -1):
        blocks += [s] * (ranks[s - 1] - 2 * ranks[s] + ranks[s + 1])
    return tuple(blocks)


@st.composite
def conjugated_nilpotents(draw):
    """A sparse strictly upper-triangular matrix up to 12x12, its rows and columns permuted."""
    dim = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(dim)))
    upper = [(r, c) for r in range(dim) for c in range(r + 1, dim)]
    picked = draw(st.lists(st.sampled_from(upper), max_size=2 * dim, unique=True)) if upper else []
    return SparseMatrix.from_entries(dim, {(perm[r], perm[c]): draw(entries.filter(lambda v: v != 0))
                                           for r, c in picked})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=conjugated_nilpotents())
def test_jordan_type_matches_ranks_of_explicit_powers(m):
    # the rank chain on every case; the level sweep where a grading exists
    expect = jordan_blocks_from_powers(m)
    assert rank_chain_blocks(m) == expect
    assert graded_blocks(m) == graded_blocks_by_setdefault(m)
    if graded_blocks(m) is None:
        with pytest.raises(UsageError, match="no grading"):
            jordan_type(m)
    else:
        assert jordan_type(m).blocks == expect


def refuse_elimination(monkeypatch):
    def refuse(pivots, row):
        raise AssertionError("jordan_type eliminated a row")

    monkeypatch.setattr(linalg, "_insert", refuse)


def test_a_non_nilpotent_matrix_is_refused_before_any_echelon_pass(monkeypatch):
    refuse_elimination(monkeypatch)
    with pytest.raises(UsageError, match="no grading"):
        jordan_type(SparseMatrix.from_entries(300, {(7, 7): Fraction(1, 3)}))


def test_jordan_type_forms_no_matrix_product():
    n = principal_triple(adjoint_rep(datum("E6"))).N
    assert not hasattr(SparseMatrix, "__matmul__") and not hasattr(SparseMatrix, "__sub__")
    assert jordan_type(n).blocks == (23, 17, 15, 11, 9, 3)


@st.composite
def graded_nilpotents(draw):
    """A matrix of degree +1 in a grading, up to 17x17: up to three groups of
    indices with their own level offsets, isolated indices, int and Fraction
    entries joining level l to level l + 1 within a group, indices permuted."""
    cells = []
    for group in range(draw(st.integers(1, 3))):
        offset = draw(st.integers(-3, 3))
        cells += [(group, offset + draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 5)))]
    dim = len(cells) + draw(st.integers(0, 2))  # the extra indices get no entry
    perm = draw(st.permutations(range(dim)))
    steps = [(r, c) for r, (g, k) in enumerate(cells) for c, cell in enumerate(cells) if cell == (g, k + 1)]
    picked = draw(st.lists(st.sampled_from(steps), max_size=2 * dim, unique=True)) if steps else []
    return SparseMatrix.from_entries(dim, {(perm[r], perm[c]): draw(entries.filter(lambda v: v != 0))
                                           for r, c in picked})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=graded_nilpotents())
def test_the_level_sweep_matches_ranks_of_explicit_powers(m):
    assert graded_blocks(m) is not None
    assert graded_blocks(m) == graded_blocks_by_setdefault(m)
    assert jordan_type(m).blocks == jordan_blocks_from_powers(m)


def test_the_level_sweep_of_dimension_zero_is_empty():
    assert graded_blocks(SparseMatrix.zero(0)) == []
    assert jordan_type(SparseMatrix.zero(0)) == JordanPartition(())


def test_a_support_without_levels_is_refused(monkeypatch):
    # (0,1) and (1,2) put index 2 two levels above index 0, (0,2) one level;
    # the matrix is nilpotent, and the rank chain still reads its one block
    m = SparseMatrix.from_entries(3, {(0, 1): 1, (1, 2): 2, (0, 2): Fraction(1, 3)})
    assert rank_chain_blocks(m) == jordan_blocks_from_powers(m) == (3,)
    refuse_elimination(monkeypatch)
    assert graded_blocks(m) is None
    with pytest.raises(UsageError, match="no grading"):
        jordan_type(m)


@pytest.mark.parametrize("entries", [
    {(1, 1): 1},  # a diagonal entry asks for level(1) = level(1) + 1
    {(0, 1): 1, (1, 2): 1, (0, 2): 1},  # the triangle: 2 is one and two levels above 0
    # index 0 has no row entry, so every level comes from a cols step, and
    # (2, 1) puts 2 at level -2 against the -1 that (2, 0) gave it
    {(1, 0): 1, (2, 1): 1, (2, 0): 1},
])
def test_the_level_pass_refuses_a_support_without_levels(entries, monkeypatch):
    m = SparseMatrix.from_entries(3, entries)
    assert graded_blocks_by_setdefault(m) is None
    refuse_elimination(monkeypatch)
    assert graded_blocks(m) is None
    with pytest.raises(UsageError, match="no grading"):
        jordan_type(m)


def test_the_level_pass_handles_two_components():
    # 0 -> 1 -> 2 and 4 -> 3 start at level 0 each, so their levels overlap
    # (0..2 and -1..0); index 5 has no entry
    m = SparseMatrix.from_entries(6, {(0, 1): 1, (1, 2): Fraction(1, 2), (4, 3): 3})
    assert graded_blocks(m) == graded_blocks_by_setdefault(m) is not None
    assert jordan_type(m).blocks == jordan_blocks_from_powers(m) == (3, 2, 1)


def test_the_level_sweep_reads_the_cached_rows_of_an_int_matrix_unchanged():
    # an int matrix gives its cached rows to the sweep as they are, with no
    # lcm pass; the sweep must leave them as built
    n = principal_triple(adjoint_rep(datum("E6"))).N
    before = {r: list(row) for r, row in n.rows.items()}
    assert linalg._int_rows(n) is n.rows
    assert jordan_type(n).blocks == (23, 17, 15, 11, 9, 3)
    assert n.rows == before == SparseMatrix(n.dim, dict(n.entries)).rows
    half = n.scale(Fraction(1, 2))
    assert linalg._int_rows(half) == n.rows and jordan_type(half) == jordan_type(n)


def test_jordan_type_sweeps_e8_adjoint_in_dim_row_products(monkeypatch):
    n = principal_triple(adjoint_rep(datum("E8"))).N
    products = []
    row_times = linalg._row_times

    def counted(row, rows):
        products.append(1)
        return row_times(row, rows)

    monkeypatch.setattr(linalg, "_row_times", counted)
    assert jordan_type(n).blocks == (59, 47, 39, 35, 27, 23, 15, 3)
    assert len(products) == n.dim == 248
