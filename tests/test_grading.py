from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge import character, grading
from fghodge.character import adjoint_weight, irrep_character, weyl_dimension
from fghodge.cli import _dominant_weights_up_to
from fghodge.errors import IntegrityError, UsageError
from fghodge.kkp import BettiTable
from fghodge.rootdatum import pair, weyl_orbit
from fghodge.grading import (
    HodgeTable,
    JordanPartition,
    exponents,
    functoriality_check,
    hodge_numbers,
    partition_from_grading,
    rho_grading,
)

from conftest import ALL_TYPES_RANK8, datum, fw
from oracles import hodge_from_partition, product_character_grading, tensor_grading

# Exponents per Bourbaki; D_{2k} genuinely repeats the exponent n-1.
BOURBAKI_EXPONENTS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(1, 2 * n, 2)),
    "C": lambda n: list(range(1, 2 * n, 2)),
    "D": lambda n: sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]),
    "E": {6: [1, 4, 5, 7, 8, 11], 7: [1, 5, 7, 9, 11, 13, 17],
          8: [1, 7, 11, 13, 17, 19, 23, 29]}.get,
    "F": {4: [1, 5, 7, 11]}.get,
    "G": {2: [1, 5]}.get,
}


def expected_exponents(name: str) -> list[int]:
    fam, n = name[0], int(name[1:])
    return BOURBAKI_EXPONENTS[fam](n)


# The 27-dimensional E6 table: 3 at the center, 2 for 0 < |2a| <= 8,
# 1 for 8 < |2a| <= 16, even doubled levels.
E6_W1_TABLE = {0: 3, **{k: 2 for a in (2, 4, 6, 8) for k in (a, -a)},
               **{k: 1 for a in (10, 12, 14, 16) for k in (a, -a)}}
# The 26-dimensional F4 table: same but 2 at the center.
F4_W4_TABLE = {0: 2, **{k: 2 for a in (2, 4, 6, 8) for k in (a, -a)},
               **{k: 1 for a in (10, 12, 14, 16) for k in (a, -a)}}
# The 56-dimensional E7 table lives at odd doubled levels (alpha half-integer):
# 3 for |2a| <= 9, 2 for 11 <= |2a| <= 17, 1 for 19 <= |2a| <= 27.
E7_W7_TABLE = {k * s: h for s in (1, -1) for k, h in
               [(a, 3) for a in (1, 3, 5, 7, 9)]
               + [(a, 2) for a in (11, 13, 15, 17)]
               + [(a, 1) for a in (19, 21, 23, 25, 27)]}


def e8_adjoint_table() -> dict[int, int]:
    # 8 strings of lengths 2m+1; level 2a collects the strings with m >= |a|.
    exps = [1, 7, 11, 13, 17, 19, 23, 29]
    table: dict[int, int] = {}
    for m in exps:
        for k in range(-2 * m, 2 * m + 1, 2):
            table[k] = table.get(k, 0) + 1
    return table


RANK4_TYPES = [t for t in ALL_TYPES_RANK8 if int(t[1:]) <= 4]


def principal_string_levels(d, lam) -> list[int]:
    # The principal sl2 string through the highest-weight vector has length
    # L + 1, L = <lam, 2 rho^vee>, so every level -L, -L+2, ..., L is nonzero
    # and the table length L + 1 is at most dim V.
    top = pair(lam, d.two_rho_covector)
    return list(range(-top, top + 1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(RANK4_TYPES), data=st.data())
def test_principal_grading_matches_freudenthal(name, data):
    d = datum(name)
    lam = data.draw(st.sampled_from(_dominant_weights_up_to(d, 300)[0]))
    g = hodge_numbers(d, lam)
    assert g.dims == rho_grading(irrep_character(d, lam)).dims
    assert sorted(g.dims) == principal_string_levels(d, lam)


@pytest.mark.parametrize("name,lam", [
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),  # adjoint
    ("E8", (0, 1, 0, 0, 0, 0, 0, 0)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("E6", (1, 0, 0, 0, 0, 0)),
    ("B4", (1, 2, 0, 1)),
    ("G2", (3, 1)),
    ("A5", (2, 0, 1, 0, 3)),
])
def test_principal_grading_anchors(name, lam):
    d = datum(name)
    g = hodge_numbers(d, lam)
    assert g.dims == rho_grading(irrep_character(d, lam)).dims
    assert g.total == weyl_dimension(d, lam)
    assert sorted(g.dims) == principal_string_levels(d, lam)


def test_principal_grading_checks_the_weyl_dimension(monkeypatch):
    # the dimension hodge_numbers checks its table against is the quotient
    # of the factors it reads, made one too large
    real = grading._weyl_quotient
    monkeypatch.setattr(grading, "_weyl_quotient", lambda num, den: real(num, den) + 1)
    with pytest.raises(IntegrityError, match=r"of \(0, 1, 1\) sums to 112, not dim 113"):
        hodge_numbers(datum("B3"), (0, 1, 1))


def test_principal_grading_does_not_call_the_weyl_dimension(monkeypatch):
    # one pass over the positive roots gives both the table and its dimension
    def refuse(d, lam):
        raise AssertionError("hodge_numbers called weyl_dimension")

    monkeypatch.setattr(character, "weyl_dimension", refuse)
    monkeypatch.setattr(grading, "weyl_dimension", refuse, raising=False)
    assert hodge_numbers(datum("B3"), (0, 1, 1)).dims == {
        -16: 1, -14: 2, -12: 3, -10: 5, -8: 7, -6: 9, -4: 11, -2: 12, 0: 12,
        2: 12, 4: 11, 6: 9, 8: 7, 10: 5, 12: 3, 14: 2, 16: 1}


def test_rho_grading_basics():
    a1 = datum("A1")
    assert rho_grading(irrep_character(a1, (1,))).dims == {1: 1, -1: 1}
    assert rho_grading(irrep_character(a1, (0,))).dims == {0: 1}
    e6 = datum("E6")
    assert rho_grading(irrep_character(e6, fw(e6, 1))).dims == E6_W1_TABLE


def test_hodge_numbers_e7_e8_f4():
    e7 = datum("E7")
    t = hodge_numbers(e7, fw(e7, 7))
    assert t.dims == E7_W7_TABLE and t.dim == 56
    f4 = datum("F4")
    t = hodge_numbers(f4, fw(f4, 4))
    assert t.dims == F4_W4_TABLE and t.dim == 26
    e8 = datum("E8")
    t = hodge_numbers(e8, adjoint_weight(e8))
    assert t.dims == e8_adjoint_table() and t.dim == 248
    assert t.level(0) == 8 and t.level(2) == 8 and t.level(4) == 7


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_hodge_numbers_a_n_standard(n):
    # <eps_i, 2 rho^vee> runs over n, n-2, ..., -n: n+1 levels, all ones.
    d = datum(f"A{n}")
    t = hodge_numbers(d, fw(d, 1))
    assert t.dims == {k: 1 for k in range(-n, n + 1, 2)}
    assert t.dim == n + 1


def test_partition_extraction():
    e7 = datum("E7")
    part = partition_from_grading(rho_grading(irrep_character(e7, fw(e7, 7))))
    assert part.blocks == (28, 18, 10)
    # single string: all-ones at one parity
    g = HodgeTable({k: 1 for k in range(-6, 7, 2)})
    assert partition_from_grading(g).blocks == (7,)
    # The 27-dimensional E6 table forces {17, 9, 1}; sizes {19, 7, 1} that
    # circulate in the literature are inconsistent with the level table
    # above (a 19-block would need nonzero h at |2a| = 18).
    e6 = datum("E6")
    part6 = partition_from_grading(rho_grading(irrep_character(e6, fw(e6, 1))))
    assert part6.blocks == (17, 9, 1)
    assert part6.total == 27


def test_partition_rejects_non_sl2_tables():
    with pytest.raises(IntegrityError):
        partition_from_grading(HodgeTable({0: 1, 2: 2, -2: 2}))


def test_hodge_from_partition():
    assert hodge_from_partition(JordanPartition((5,))).dims == {k: 1 for k in (-4, -2, 0, 2, 4)}
    assert hodge_from_partition(JordanPartition((1,))).dims == {0: 1}
    assert hodge_from_partition(JordanPartition((28, 18, 10))).dims == E7_W7_TABLE


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_exponents_fixture_table(name):
    d = datum(name)
    exps = exponents(d)
    assert exps == expected_exponents(name)
    assert max(exps) == d.coxeter - 1
    assert sum(2 * m + 1 for m in exps) == 2 * len(d.positive_roots) + d.rank
    fam, n = name[0], int(name[1:])
    if not (fam == "D" and n % 2 == 0):
        assert len(set(exps)) == len(exps)  # distinct away from D_even


def test_tensor_grading_examples():
    g = HodgeTable({-1: 1, 1: 1})
    assert tensor_grading(g, g).dims == {-2: 1, 0: 2, 2: 1}
    unit = HodgeTable({0: 1})
    assert tensor_grading(g, unit).dims == g.dims
    # 3 (x) 3bar = 8 (+) 1 at grading level
    a2 = datum("A2")
    g1 = rho_grading(irrep_character(a2, (1, 0)))
    g2 = rho_grading(irrep_character(a2, (0, 1)))
    adj = rho_grading(irrep_character(a2, (1, 1)))
    expect = dict(adj.dims)
    expect[0] += 1
    assert tensor_grading(g1, g2).dims == expect


@settings(max_examples=30, deadline=None, derandomize=True)
@given(name=st.sampled_from(["A1", "A2", "B2", "C3", "G2"]), data=st.data())
def test_tensor_grading_matches_product_character(name, data):
    d = datum(name)
    draw = lambda: tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(d.rank))
    lam1, lam2 = draw(), draw()
    if weyl_dimension(d, lam1) > 300 or weyl_dimension(d, lam2) > 300:
        return
    c1, c2 = irrep_character(d, lam1), irrep_character(d, lam2)
    assert tensor_grading(rho_grading(c1), rho_grading(c2)).dims == \
        product_character_grading(c1, c2).dims


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]), data=st.data())
def test_grading_invariants_and_roundtrip(name, data):
    d = datum(name)
    lam = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(d.rank))
    if weyl_dimension(d, lam) > 500:
        return
    g = rho_grading(irrep_character(d, lam))
    assert g.total == weyl_dimension(d, lam)
    assert len({k & 1 for k in g.dims}) == 1  # one parity: V is irreducible
    part = partition_from_grading(g)  # raises unless the table is sl2-consistent
    assert hodge_from_partition(part).dims == g.dims  # exact roundtrip


def test_roundtrip_on_random_partitions():
    rng = random.Random(20250811)
    for _ in range(50):
        blocks = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 8)))
        table = hodge_from_partition(JordanPartition(blocks))
        # mixed parity tables are allowed for reducible inputs
        back = partition_from_grading(table)
        assert back.blocks == JordanPartition(blocks).blocks


def test_sum_rule_helper():
    # the sum rule the package checks inside hodge_numbers, from outside
    for d, lam in ((datum("F4"), fw(datum("F4"), 4)), (datum("A3"), (1, 1, 1))):
        assert hodge_numbers(d, lam).dim == weyl_dimension(d, lam)


def test_functoriality_so_pairs_and_f4_e6():
    for n in range(2, 9):
        assert functoriality_check("so_pair", n), n
    assert functoriality_check("f4_e6")


def test_seven_dim_g2_so7_coincidence():
    # the 7-dim G2 representation restricts from the SO7 vector representation
    # with identical level tables (single Jordan block of size 7)
    g2 = rho_grading(irrep_character(datum("G2"), (1, 0)))
    b3 = rho_grading(irrep_character(datum("B3"), (1, 0, 0)))
    assert g2.dims == b3.dims == {k: 1 for k in range(-6, 7, 2)}


def test_functoriality_detects_injected_fault(request):
    assert functoriality_check("so_pair", 3)
    request.getfixturevalue("extra_trivial_on_b")
    assert not functoriality_check("so_pair", 3)


def test_table_rejects_an_asymmetric_level():
    with pytest.raises(IntegrityError, match="not symmetric at level"):
        HodgeTable({-2: 1, 0: 1, 2: 2})


@pytest.mark.parametrize("dims", [{0: 0}, {-1: -1, 1: -1}])
def test_table_rejects_a_non_positive_level(dims):
    with pytest.raises(IntegrityError, match="non-positive dimension"):
        HodgeTable(dims)


def test_jordan_partition_rejects_a_non_positive_block_and_sorts():
    with pytest.raises(UsageError, match="Jordan blocks must be positive"):
        JordanPartition((3, 0, 1))
    with pytest.raises(UsageError):
        JordanPartition((-2,))
    assert JordanPartition((1, 3, 2)).blocks == (3, 2, 1)
    assert JordanPartition((1, 3)) == JordanPartition((3, 1))
    assert hash(JordanPartition((1, 3))) == hash(JordanPartition((3, 1)))
    assert repr(JordanPartition((1, 3))) == "JordanPartition(blocks=(3, 1))"


@pytest.mark.parametrize("record,field", [(HodgeTable({-1: 1, 1: 1}), "dims"),
                                          (JordanPartition((1, 3)), "blocks"),
                                          (BettiTable((1, 1, 1)), "b")])
def test_records_refuse_field_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


@pytest.mark.parametrize("record,field,bad,error", [
    (HodgeTable({-1: 1, 1: 1}), "dims", {0: -3}, IntegrityError),
    (JordanPartition((1, 3)), "blocks", (0, -1), UsageError),
    (BettiTable((1, 1, 1)), "b", (2,), IntegrityError),
], ids=["HodgeTable", "JordanPartition", "BettiTable"])
def test_records_validate_through_make_and_replace(record, field, bad, error):
    # namedtuple's own _make and _replace would build these without a check
    with pytest.raises(error):
        type(record)._make([bad])
    with pytest.raises(error):
        record._replace(**{field: bad})
    assert record._replace(**{field: getattr(record, field)}) == record


def test_tables_compare_by_value():
    assert HodgeTable({-1: 1, 1: 1}) == HodgeTable({1: 1, -1: 1})
    assert HodgeTable({0: 1}) != HodgeTable({0: 2})
    assert repr(HodgeTable({0: 1})) == "HodgeTable(dims={0: 1})"
    with pytest.raises(TypeError):  # it holds a dict
        hash(HodgeTable({0: 1}))
    d = datum("B3")
    assert hodge_numbers(d, (1, 0, 0)) == hodge_numbers(d, (1, 0, 0))


@pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), (1, 0), "x", "1", None, float("nan"), float("inf")])
def test_a_non_integral_weight_entry_is_refused(entry):
    # int() used to truncate 1.5 and 3/2 to 1 and answer for (1, 0)
    d = datum("B2")
    for call in (grading.hodge_numbers, weyl_dimension, weyl_orbit):
        with pytest.raises(UsageError, match=r"has an entry that is not an integer"):
            call(d, (entry, 0))


def test_integral_weight_entries_keep_their_answers():
    d = datum("B2")
    for call in (grading.hodge_numbers, weyl_dimension, weyl_orbit):
        expect = call(d, (1, 0))
        for mu in ([1, 0], (Fraction(2, 2), 0), (1.0, 0), (True, False), iter((1, 0))):
            assert call(d, mu) == expect, (call, mu)
    assert {type(m) for mu in weyl_orbit(d, (1.0, 0)) for m in mu} == {int}
