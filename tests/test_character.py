from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge.character import adjoint_weight, irrep_character, weyl_dimension
from fghodge.errors import UsageError
from fghodge.rootdatum import weyl_orbit

from conftest import ALL_TYPES_RANK8, SMALL_TYPES, datum, fw
from oracles import root_coordinates, weight_of_root


def test_weyl_dimension_values():
    assert weyl_dimension(datum("E6"), fw(datum("E6"), 1)) == 27
    assert weyl_dimension(datum("F4"), fw(datum("F4"), 4)) == 26
    e8 = datum("E8")
    assert weyl_dimension(e8, adjoint_weight(e8)) == 248
    a1 = datum("A1")
    for m in range(0, 12):
        assert weyl_dimension(a1, (m,)) == m + 1
    e7 = datum("E7")
    assert weyl_dimension(e7, fw(e7, 7)) == 56


FUNDAMENTAL_DIMS = {
    # classical tables; A_n entries are the binomials C(n+1, k)
    "G2": [7, 14],
    "F4": [52, 1274, 273, 26],
    "E6": [27, 78, 351, 2925, 351, 27],
    "E7": [133, 912, 8645, 365750, 27664, 1539, 56],
    "E8": [3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248],
    "B4": [9, 36, 84, 16],
    "D5": [10, 45, 120, 16, 16],
    "C3": [6, 14, 14],
    "A5": [6, 15, 20, 15, 6],
}


@pytest.mark.parametrize("name", sorted(FUNDAMENTAL_DIMS))
def test_fundamental_dimensions_fixture(name):
    d = datum(name)
    got = [weyl_dimension(d, fw(d, k)) for k in range(1, d.rank + 1)]
    assert got == FUNDAMENTAL_DIMS[name]


def test_weyl_dimension_adjoint_matches_closed_form():
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        assert weyl_dimension(d, adjoint_weight(d)) == 2 * len(d.positive_roots) + d.rank


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(UsageError):
        weyl_dimension(datum("A2"), (1, -1))
    with pytest.raises(UsageError):
        irrep_character(datum("A2"), (-1, 0))


def test_sl2_strings():
    a1 = datum("A1")
    c = irrep_character(a1, (2,))
    assert c.mult == {(2,): 1, (0,): 1, (-2,): 1}


def _a2_adjoint_oracle():
    """Brute force: weights of (3) tensor (3-bar) minus one trivial summand.

    epsilon weights of the 3-dimensional representation in fundamental
    coordinates: (1,0), (-1,1), (0,-1); the dual negates them.  The adjoint
    is the tensor product minus a single zero weight.
    """
    std = [(1, 0), (-1, 1), (0, -1)]
    mult: dict[tuple[int, int], int] = {}
    for u in std:
        for v in std:
            w = (u[0] - v[0], u[1] - v[1])
            mult[w] = mult.get(w, 0) + 1
    mult[(0, 0)] -= 1
    return mult


def test_a2_adjoint_against_tensor_square_oracle():
    expected = _a2_adjoint_oracle()
    got = irrep_character(datum("A2"), (1, 1)).mult
    assert got == expected
    assert got[(0, 0)] == 2
    assert sum(got.values()) == 8


def test_minuscule_is_multiplicity_free():
    e6 = datum("E6")
    c = irrep_character(e6, fw(e6, 1))
    assert set(c.mult.values()) == {1}
    assert set(c.mult) == set(weyl_orbit(e6, fw(e6, 1)))
    assert c.dim == 27


@pytest.mark.parametrize("name", [t for t in ALL_TYPES_RANK8 if int(t[1:]) <= 6])
def test_adjoint_character_structure(name):
    # multiplicity rank at zero, 1 at every root
    d = datum(name)
    c = irrep_character(d, adjoint_weight(d))
    assert c.mult[(0,) * d.rank] == d.rank
    for root in d.positive_roots:
        w = weight_of_root(d, root)
        assert c.mult[w] == 1
        assert c.mult[tuple(-x for x in w)] == 1
    assert c.dim == 2 * len(d.positive_roots) + d.rank


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(SMALL_TYPES), data=st.data())
def test_character_invariants(name, data):
    d = datum(name)
    lam = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(d.rank))
    if weyl_dimension(d, lam) > 400:
        return
    c = irrep_character(d, lam)
    # total dimension
    assert c.dim == weyl_dimension(d, lam)
    # W-invariance under every simple reflection
    for mu, m in c.mult.items():
        for i in range(d.rank):
            assert c.mult[d.reflect(mu, i)] == m
    # lambda - mu lies in the non-negative integer span of the simple roots
    for mu in c.mult:
        diff = tuple(a - b for a, b in zip(lam, mu))
        coords = root_coordinates(d, diff)
        assert all(x.denominator == 1 and x >= 0 for x in coords)


def test_e7_fundamental_56():
    e7 = datum("E7")
    c = irrep_character(e7, fw(e7, 7))
    assert c.dim == 56
    assert set(c.mult.values()) == {1}


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_every_minuscule_weight_is_multiplicity_free(name):
    from fghodge.kkp import minuscule_nodes

    d = datum(name)
    for node in minuscule_nodes(d):
        lam = fw(d, node)
        c = irrep_character(d, lam)
        assert set(c.mult.values()) == {1}
        assert set(c.mult) == set(weyl_orbit(d, lam))
