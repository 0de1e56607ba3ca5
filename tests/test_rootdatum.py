from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge.errors import ConfigurationError, ResourceLimitError, UsageError
from fghodge.rootdatum import (
    SimpleType,
    build_root_datum,
    check_size,
    pair,
    weyl_orbit,
)

from conftest import ALL_TYPES_RANK8, SMALL_TYPES, datum, fw

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
    # <alpha, rho^vee> = height(alpha) for every positive root
    for root in d.positive_roots:
        assert pair(d.weight_of_root(root), d.rho_covector) == sum(root)
    # theta pairs to h - 1
    assert pair(d.weight_of_root(d.theta), d.rho_covector) == d.coxeter - 1
    # rho is the all-ones weight = sum of fundamental weights
    assert d.rho == (1,) * d.rank
    # rho_covector = sum of fundamental coweights: <alpha_i, rho^vee> = 1
    for i in range(d.rank):
        alpha_i_wt = d.weight_of_root(d.simple_roots[i])
        assert pair(alpha_i_wt, d.rho_covector) == 1


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
    assert datum("G2").form == ((2, -3), (-3, 6))
    b2 = datum("B2").form
    assert b2 == ((4, -2), (-2, 2))


def test_type_parsing_and_constraints():
    assert str(SimpleType.parse("e8")) == "E8"
    assert SimpleType("C", 1) == SimpleType("A", 1)  # C1 normalized
    for bad in ["B1", "D2", "E5", "E9", "F3", "G3", "H4"]:
        with pytest.raises(ConfigurationError):
            SimpleType.parse(bad)
    with pytest.raises(ConfigurationError):
        SimpleType.parse("A")
    with pytest.raises(ConfigurationError):
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


def test_pair_examples():
    e6 = datum("E6")
    assert pair(fw(e6, 1), e6.two_rho_covector) == 16
    # cross-check: positive roots supported on node 1 (Levi complement count)
    assert sum(1 for r in e6.positive_roots if r[0] != 0) == 16
    e7 = datum("E7")
    assert pair(fw(e7, 7), e7.two_rho_covector) == 27
    assert pair((0,) * 6, e6.two_rho_covector) == 0
    a1 = datum("A1")
    assert pair((1,), a1.rho_covector) == Fraction(1, 2)
    with pytest.raises(UsageError):
        pair((1, 0), a1.rho_covector)


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
            assert d.root_pairing(d.weight_of_root(root), root) == 2
