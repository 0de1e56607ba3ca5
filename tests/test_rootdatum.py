from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge import rootdatum
from fghodge.character import irrep_character
from fghodge.chevalley import structure_constants
from fghodge.cli import main as cli_main
from fghodge.errors import IntegrityError, ResourceLimitError, UsageError
from fghodge.rootdatum import (
    SimpleType,
    _symmetrizer,
    build_root_datum,
    check_size,
    pair,
    simple_types,
    weyl_orbit,
)

from conftest import ALL_TYPES, ALL_TYPES_RANK8, SMALL_TYPES, datum, fw
from oracles import (
    fraction_symmetrizer,
    gram_matrix,
    gram_norm2,
    invert_rational,
    root_pairing,
    two_sided_root_datum,
    weight_of_root,
)

# Classical values, independent of the reflection-closure implementation.
POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}
ADJOINT_DIMS = {
    "A": lambda n: (n + 1) ** 2 - 1,
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": {6: 78, 7: 133, 8: 248}.get,
    "F": {4: 52}.get,
    "G": {2: 14}.get,
}
# every type under the positive-root guard: A1-A31, B2-B22, C2-C22, D3-D22, E, F, G
GUARDED_TYPES = ([f"A{n}" for n in range(1, 32)] + [f"B{n}" for n in range(2, 23)]
                 + [f"C{n}" for n in range(2, 23)] + [f"D{n}" for n in range(3, 23)]
                 + ["E6", "E7", "E8", "F4", "G2"])
COXETER_NUMBERS = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30}.get,
    "F": {4: 12}.get,
    "G": {2: 6}.get,
}


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_root_counts_and_coxeter(name):
    d = datum(name)
    fam, n = d.stype.family, d.rank
    assert len(d.positive_roots) == POSITIVE_COUNTS[fam](n)
    assert 2 * len(d.positive_roots) + n == ADJOINT_DIMS[fam](n)
    assert d.coxeter == COXETER_NUMBERS[fam](n)
    assert sum(d.theta) + 1 == d.coxeter


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_rho_pairings(name):
    d = datum(name)
    # <alpha, 2 rho^vee> = 2 height(alpha) for every positive root
    for root in d.positive_roots:
        assert pair(weight_of_root(d, root), d.two_rho_covector) == 2 * sum(root)
    # theta pairs to h - 1
    assert pair(weight_of_root(d, d.theta), d.two_rho_covector) == 2 * (d.coxeter - 1)
    # rho is the all-ones weight = sum of fundamental weights: the positive
    # roots sum to 2 rho = (2, ..., 2) in weight coordinates
    root_sum = [sum(col) for col in zip(*(weight_of_root(d, r) for r in d.positive_roots))]
    assert root_sum == [2] * d.rank
    # 2 rho^vee = twice the sum of fundamental coweights: <alpha_i, 2 rho^vee> = 2
    for i in range(d.rank):
        alpha_i_wt = weight_of_root(d, d.simple_roots[i])
        assert pair(alpha_i_wt, d.two_rho_covector) == 2


def test_cartan_matrices_spot():
    assert datum("G2").cartan == ((2, -1), (-3, 2))
    assert datum("B2").cartan == ((2, -2), (-1, 2))
    assert datum("C2").cartan == ((2, -1), (-2, 2))
    f4 = datum("F4").cartan
    assert f4[1][2] == -2 and f4[2][1] == -1
    e8 = datum("E8").cartan
    assert e8[1][3] == -1 and e8[1][0] == 0  # node 2 hangs off node 4


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_cartan_matrix_validity(name):
    d = datum(name)
    n = d.rank
    for i in range(n):
        assert d.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert d.cartan[i][j] <= 0
                assert (d.cartan[i][j] == 0) == (d.cartan[j][i] == 0)
    # connected Dynkin graph
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j not in seen and d.cartan[i][j] != 0:
                seen.add(j)
                todo.append(j)
    assert seen == set(range(n))


def test_form_is_gram_matrix():
    # G2 simple roots: short norm^2 2, long norm^2 6, inner product -3
    assert gram_matrix(datum("G2")) == ((2, -3), (-3, 6))
    b2 = gram_matrix(datum("B2"))
    assert b2 == ((4, -2), (-2, 2))


def test_type_parsing_and_constraints():
    assert str(SimpleType.parse("e8")) == "E8"
    assert SimpleType("C", 1) == SimpleType("A", 1)  # C1 normalized
    for bad in ["B1", "D2", "E5", "E9", "F3", "G3", "H4"]:
        with pytest.raises(UsageError):
            SimpleType.parse(bad)
    with pytest.raises(UsageError):
        SimpleType.parse("A")
    with pytest.raises(UsageError):
        SimpleType.parse("8A")


def test_size_guard_bound():
    # B22 (484 positive roots) is the largest B type under the guard; the
    # largest types the tests and the benchmark build are A15 and D12.
    for name in ("B22", "A31", "A15", "D12", "E8"):
        check_size(SimpleType.parse(name))
    for name in ("B23", "A32", "D100000"):
        with pytest.raises(ResourceLimitError):
            check_size(SimpleType.parse(name))
    with pytest.raises(ResourceLimitError):
        build_root_datum(SimpleType("A", 10**6))


def test_simple_types_lists_every_family_by_rank_under_the_root_guard():
    def by_hand(r):  # families A-D from their lowest rank, then the exceptional types
        names = [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for n in range(lo, r + 1)]
        return names + [name for name in ("E6", "E7", "E8", "F4", "G2") if int(name[1]) <= r]

    for r in range(-2, 23):
        assert list(map(str, simple_types(r))) == by_hand(r)
    # E7 (63) and E8 (120) outnumber B7 (49) and B8 (64), but only classical
    # types pass the guard, and B_r = C_r = r^2 is their maximum
    for r in (23, 24, 39, 10**5):
        with pytest.raises(ResourceLimitError, match=f"^B{r} has {r * r} positive roots"):
            simple_types(r)


def test_pair_examples():
    e6 = datum("E6")
    assert pair(fw(e6, 1), e6.two_rho_covector) == 16
    # cross-check: positive roots supported on node 1 (Levi complement count)
    assert sum(1 for r in e6.positive_roots if r[0] != 0) == 16
    e7 = datum("E7")
    assert pair(fw(e7, 7), e7.two_rho_covector) == 27
    assert pair((0,) * 6, e6.two_rho_covector) == 0
    a1 = datum("A1")
    # <omega_1, rho^vee> = 1/2 on A1, doubled
    assert pair((1,), a1.two_rho_covector) == 1
    assert type(pair((1,), a1.two_rho_covector)) is int
    with pytest.raises(UsageError):
        pair((1, 0), a1.two_rho_covector)


def test_a1_highest_root_is_the_simple_root():
    a1 = datum("A1")
    assert len(a1.positive_roots) == 1
    assert a1.theta == (1,) and a1.coxeter == 2


def test_weyl_orbit_examples():
    a1 = datum("A1")
    assert weyl_orbit(a1, (1,)) == ((1,), (-1,))
    e6 = datum("E6")
    assert len(weyl_orbit(e6, fw(e6, 1))) == 27
    b3 = datum("B3")
    assert len(weyl_orbit(b3, fw(b3, 3))) == 8  # spin


def test_positive_roots_deterministic_order():
    d = datum("B3")
    heights = [sum(r) for r in d.positive_roots]
    assert heights == sorted(heights)
    assert d.positive_roots[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(SMALL_TYPES),
    data=st.data(),
)
def test_weyl_orbit_closed_under_reflections(name, data):
    d = datum(name)
    mu = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(d.rank))
    orbit = set(weyl_orbit(d, mu))
    for w in orbit:
        for i in range(d.rank):
            assert d.reflect(w, i) in orbit


def test_coroot_integrality_and_norms():
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        for root in d.positive_roots:
            co = d.coroot_of[root]
            assert all(isinstance(c, int) for c in co)
            # <alpha, alpha^vee> = 2
            assert root_pairing(d, weight_of_root(d, root), root) == 2


def fraction_gauss_jordan_inverse(mat) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan elimination on Fractions with row swaps."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("name", ALL_TYPES_RANK8 + ["A20", "B20", "C20", "D20"])
def test_cartan_inverse_matches_fraction_gauss_jordan(name):
    cartan = datum(name).cartan
    inverse = invert_rational(cartan)
    assert inverse == fraction_gauss_jordan_inverse(cartan)
    assert all(type(x) is Fraction for row in inverse for x in row)


def test_closure_keeps_each_roots_pairings_and_norm():
    assert len(GUARDED_TYPES) == 98
    for name in GUARDED_TYPES:
        d = datum(name)
        assert list(d.root_weights) == list(d.root_norm2) == list(d.positive_roots)
        for root in d.positive_roots:
            assert d.root_weights[root] == weight_of_root(d, root)
            assert d.root_norm2[root] == gram_norm2(d, root)


def test_the_root_data_make_no_fraction(fractions_made):
    # every root-datum quantity is an int: 98 fresh builds, past the per-type cache
    for name in GUARDED_TYPES:
        build_root_datum.__wrapped__(SimpleType.parse(name))
    assert fractions_made == []
    Fraction(1, 3) + 1  # the counter sees Fractions
    assert fractions_made


def test_the_int_symmetrizer_equals_the_fraction_route():
    for name in GUARDED_TYPES:
        d = datum(name)
        assert _symmetrizer(d.cartan) == fraction_symmetrizer(d.cartan) == d.halfnorms
        assert all(type(x) is int for x in d.halfnorms)
    for cartan in (((2, 0), (0, 2)), ((2, -1, 0), (-1, 2, 0), (0, 0, 2))):
        for route in (_symmetrizer, fraction_symmetrizer):
            with pytest.raises(IntegrityError, match="Dynkin graph must be connected"):
                route(cartan)
    # a ratio of 5 is in no simple type: 6/5 is not an int, though Fractions scale it
    assert fraction_symmetrizer(((2, -5), (-1, 2))) == (5, 1)
    with pytest.raises(IntegrityError, match="symmetrizer ratio does not divide 6"):
        _symmetrizer(((2, -5), (-1, 2)))


def test_an_unsymmetrizable_cartan_matrix_is_refused(monkeypatch):
    # A3 closed into a triangle with a double bond 1-3: the spanning tree gives
    # d = (6, 6, 3), and the edge 2-3 is then not symmetric
    triangle = ((2, -1, -2), (-1, 2, -1), (-1, -1, 2))
    monkeypatch.setattr(rootdatum, "_cartan_matrix", lambda stype: triangle)
    with pytest.raises(IntegrityError, match="symmetrizer failed"):
        build_root_datum.__wrapped__(SimpleType("A", 3))
    # the one walk refuses it itself: it sets d = (6, 6, 3) from node 1, then
    # meets the set node 2 from node 3 and tests the edge 2-3
    with pytest.raises(IntegrityError, match="symmetrizer failed"):
        _symmetrizer(triangle)


def _build_on_roots(monkeypatch, name, removed, added):
    """build_root_datum with the closure's root list rewritten: removed out,
    added in, then sorted again so the highest root stays last."""
    def rewritten(roots, key):
        roots = [r for r in roots if r not in removed] + list(added)
        return sorted(roots, key=key)

    monkeypatch.setattr(rootdatum, "sorted", rewritten, raising=False)
    return build_root_datum.__wrapped__(SimpleType.parse(name))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_the_raising_only_closure_gives_every_field_of_the_two_sided_one(name):
    # every field equal, in the same field order, and every dict field in the same order
    got = build_root_datum.__wrapped__(SimpleType.parse(name))._asdict()
    want = two_sided_root_datum(SimpleType.parse(name))
    assert list(got.items()) == list(want.items())
    for key, value in want.items():
        if isinstance(value, dict):
            assert list(got[key].items()) == list(value.items()), key


@pytest.mark.parametrize("name", ALL_TYPES)
def test_every_non_simple_root_is_one_raising_step_above_a_lower_root(name):
    # the lemma of the raising-only closure: some <beta, alpha_j^vee> = k > 0,
    # and s_j beta = beta - k alpha_j is a positive root that s_j raises back
    d = datum(name)
    positive = set(d.positive_roots)
    for beta in d.positive_roots[d.rank:]:
        j, k = next((j, k) for j, k in enumerate(d.root_weights[beta]) if k > 0)
        lower = tuple(c - k * (i == j) for i, c in enumerate(beta))
        assert lower in positive and d.root_weights[lower][j] == -k


def test_a_corrupt_root_set_fails_the_two_rho_covector_check(monkeypatch):
    # B3 with (0, 1, 1) twice and no (1, 1, 0): the count and theta survive
    with pytest.raises(IntegrityError, match="2 rho covector must pair to 2 with every simple root"):
        _build_on_roots(monkeypatch, "B3", [(1, 1, 0)], [(0, 1, 1)])


@pytest.mark.parametrize("name,removed,added", [
    ("G2", [(1, 0), (1, 1)], [(3, 1), (3, 2)]),
    ("B3", [(1, 0, 0), (0, 1, 1)], [(0, 1, 0), (1, 1, 2)]),
    ("C3", [(1, 0, 0), (0, 1, 1)], [(0, 0, 1), (2, 2, 1)]),
    ("F4", [(1, 0, 0, 0), (0, 1, 1, 0)], [(0, 1, 0, 0), (1, 1, 2, 0)]),
])
def test_a_corrupt_root_set_with_the_right_coroot_sum_fails_the_root_sum_check(
        monkeypatch, name, removed, added):
    # the swap keeps the sum of coroots, so 2 rho^vee still pairs to 2 with every
    # simple root; only the sum of the roots themselves sees it
    d = datum(name)
    coroot_sum = [sum(col) for col in zip(*(d.coroot_of[r] for r in removed))]
    assert coroot_sum == [sum(col) for col in zip(*(d.coroot_of[r] for r in added))]
    with pytest.raises(IntegrityError, match="the positive roots must sum to 2 rho"):
        _build_on_roots(monkeypatch, name, removed, added)


def test_simple_type_is_equal_hashed_and_ordered_by_value():
    c1, a1 = SimpleType("c", 1), SimpleType("A", 1)
    assert c1 == a1 and hash(c1) == hash(a1)
    assert len({c1, a1, SimpleType.parse("a1")}) == 1
    assert SimpleType("B", 3) != SimpleType("B", 4)
    types = [SimpleType.parse(t) for t in ["E8", "B3", "A10", "B2", "a2", "G2", "A1"]]
    assert [str(t) for t in sorted(types)] == ["A1", "A2", "A10", "B2", "B3", "E8", "G2"]
    assert SimpleType("B", 2) < SimpleType("B", 3) <= SimpleType("C", 2)
    with pytest.raises(AttributeError):
        c1.rank = 2
    assert copy.deepcopy(c1) == pickle.loads(pickle.dumps(c1)) == a1


def test_equal_types_share_one_root_datum():
    assert build_root_datum(SimpleType("c", 1)) is build_root_datum(SimpleType("A", 1))
    assert build_root_datum(SimpleType.parse("e8")) is build_root_datum(SimpleType("E", 8))
    # the shared datum refuses assignment, so no caller can change a later caller's answer
    d = build_root_datum(SimpleType("E", 8))
    theta = d.theta
    with pytest.raises(AttributeError):
        d.theta = (0,) * 8
    assert build_root_datum(SimpleType("E", 8)) is d and d.theta == theta
    # _replace gives a changed copy and leaves the cached datum as it was
    moved = d._replace(theta=(0,) * 8)
    assert moved.theta == (0,) * 8 and moved != d
    assert build_root_datum(SimpleType("E", 8)) is d and d.theta == theta
    # the records built on a datum refuse assignment too
    char = irrep_character(datum("B3"), (1, 0, 0))
    mult = dict(char.mult)
    with pytest.raises(AttributeError):
        char.mult = {}
    assert char.mult == mult and char.dim == 7
    sc = structure_constants(datum("B3"))
    n_pos = dict(sc.n_pos)
    with pytest.raises(AttributeError):
        sc.n_pos = {}
    assert sc.n_pos == n_pos and len(n_pos) == 20


def test_simple_type_validates_through_make_and_replace():
    # namedtuple's own _make built the rank-True type that the constructor refuses
    with pytest.raises(UsageError, match="the rank an int"):
        SimpleType._make(("A", True))
    with pytest.raises(UsageError, match=r"E9: rank for family E"):
        SimpleType("E", 8)._replace(rank=9)
    assert SimpleType._make(("c", 1)) == SimpleType("A", 1)
    assert SimpleType("E", 8)._replace(rank=7) == SimpleType("E", 7)


def test_simple_type_constructor_validates():
    assert (SimpleType("d", 4).family, SimpleType("d", 4).rank) == ("D", 4)
    with pytest.raises(UsageError, match="unknown family 'H'"):
        SimpleType("h", 3)
    with pytest.raises(UsageError, match=r"E9: rank for family E must be in \[6, 8\]"):
        SimpleType("E", 9)
    with pytest.raises(UsageError, match="D2: rank for family D must be >= 3"):
        SimpleType("D", 2)


def test_simple_type_refuses_a_rank_that_is_not_an_int_or_a_family_that_is_not_a_str(capsys):
    for family, rank in [("A", True), ("A", False), ("A", 2.0), ("A", "3"), (None, 3), (b"A", 3)]:
        with pytest.raises(UsageError, match="the family must be a str and the rank an int"):
            SimpleType(family, rank)
    # True equals and hashes like 1, so a datum built for ("A", True) would
    # be the cached answer to every later A1 caller
    with pytest.raises(UsageError):
        build_root_datum(SimpleType("A", True))
    assert cli_main(["hodge", "--type", "A1", "--weight", "1"]) == 0
    assert capsys.readouterr().out.startswith("type A1  weight 1  dim 2\n")
