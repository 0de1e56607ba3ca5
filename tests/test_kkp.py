from __future__ import annotations

import pytest

from fghodge import character, kkp, rootdatum
from fghodge.character import weyl_dimension
from fghodge.cli import DEFAULT_MAX_DIM
from fghodge.errors import IntegrityError, UsageError
from fghodge.kkp import (
    MinusculeCase,
    all_minuscule_cases,
    kkp_check,
    minuscule_case,
    minuscule_nodes,
    weight_graph_betti,
)
from fghodge.rootdatum import pair

from conftest import ALL_TYPES_RANK8, datum, fw

EXPECTED_NODES = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: [n],
    "C": lambda n: [1],
    "D": lambda n: [1, n - 1, n],
    "E": {6: [1, 6], 7: [7], 8: []}.get,
    "F": {4: []}.get,
    "G": {2: []}.get,
}


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_minuscule_nodes(name):
    fam, n = name[0], int(name[1:])
    assert minuscule_nodes(datum(name)) == EXPECTED_NODES[fam](n)


def test_minuscule_case_rejects_bad_nodes():
    with pytest.raises(UsageError):
        minuscule_case(datum("E8"), 1)
    with pytest.raises(UsageError):
        minuscule_case(datum("B3"), 1)  # only the spin node is minuscule
    with pytest.raises(UsageError):
        minuscule_case(datum("A2"), 5)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_int(m):
    return [1] * m  # [m]_q = 1 + q + ... + q^{m-1}


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the q-binomial [n choose k]_q, by polynomial division."""

    num = [1]
    for m in range(n - k + 1, n + 1):
        num = poly_mul(num, q_int(m))
    den = [1]
    for m in range(1, k + 1):
        den = poly_mul(den, q_int(m))
    # exact division num / den
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(den) - 1] // den[-1]
        for j, d in enumerate(den):
            rem[i + j] -= quot[i] * d
    assert all(r == 0 for r in rem)
    return quot


def test_betti_projective_space():
    for n in (1, 2, 5, 8):
        d = datum(f"A{n}")
        table = weight_graph_betti(minuscule_case(d, 1))
        assert table.b == (1,) * (n + 1)


def test_betti_grassmannian_vs_gaussian_binomial():
    d = datum("A4")
    table = weight_graph_betti(minuscule_case(d, 2))
    assert list(table.b) == gaussian_binomial(5, 2)
    assert table.b == (1, 1, 2, 2, 2, 1, 1)
    # and a bigger one
    d = datum("A7")
    table = weight_graph_betti(minuscule_case(d, 3))
    assert list(table.b) == gaussian_binomial(8, 3)


def test_betti_exceptional_lists_verbatim():
    e6 = weight_graph_betti(minuscule_case(datum("E6"), 1))
    assert e6.b == E6_BETTI
    e6b = weight_graph_betti(minuscule_case(datum("E6"), 6))
    assert e6b.b == e6.b  # the dual minuscule node gives the same variety
    e7 = weight_graph_betti(minuscule_case(datum("E7"), 7))
    assert e7.b == E7_BETTI


E6_BETTI = (1, 1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1)
E7_BETTI = (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3,
            3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1)


def spinor_poincare(m: int) -> list[int]:
    """prod_{i=1}^{m} (1 + q^i)."""
    out = [1]
    for i in range(1, m + 1):
        out = poly_mul(out, [1] + [0] * (i - 1) + [1])
    return out


def closed_form_betti(family: str, n: int, node: int) -> list[int]:
    """Poincare polynomial of the minuscule G/P, by the classical formulas."""
    if family == "A":
        return gaussian_binomial(n + 1, node)  # Grassmannian Gr(node, n + 1)
    if family == "C":
        return q_int(2 * n)  # P^{2n-1}
    if family == "B":
        return spinor_poincare(n)  # OG(n, 2n + 1)
    if family == "D" and node == 1:
        quadric = q_int(2 * n - 1)  # the quadric of dimension 2n - 2
        quadric[n - 1] += 1
        return quadric
    if family == "D":
        return spinor_poincare(n - 1)  # OG(n, 2n), either spinor node
    return list({6: E6_BETTI, 7: E7_BETTI}[n])


MINUSCULE_UP_TO_RANK_12 = (
    [(f"A{n}", k) for n in range(1, 13) for k in range(1, n + 1)]
    + [(f"B{n}", n) for n in range(2, 13)]
    + [(f"C{n}", 1) for n in range(2, 13)]
    + [(f"D{n}", k) for n in range(3, 13) for k in (1, n - 1, n)]
    + [("E6", 1), ("E6", 6), ("E7", 7)]
)


def test_the_rank_12_list_is_every_minuscule_pair():
    for name in {name for name, _ in MINUSCULE_UP_TO_RANK_12}:
        listed = [k for t, k in MINUSCULE_UP_TO_RANK_12 if t == name]
        assert minuscule_nodes(datum(name)) == listed, name
    assert minuscule_nodes(datum("E8")) == []


@pytest.mark.parametrize("name,node", MINUSCULE_UP_TO_RANK_12)
def test_betti_numbers_are_the_closed_forms_up_to_rank_12(name, node):
    d = datum(name)
    case = minuscule_case(d, node)
    assert weyl_dimension(d, case.lam) <= DEFAULT_MAX_DIM  # under the kkp guard
    assert list(weight_graph_betti(case).b) == closed_form_betti(name[0], d.rank, node)


def test_kkp_walks_no_weyl_orbit(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked a Weyl orbit")

    for module in (rootdatum, character, kkp):
        monkeypatch.setattr(module, "weyl_orbit", refuse, raising=False)
    for name, node in [("A7", 4), ("B6", 6), ("C5", 1), ("D7", 7), ("D7", 1), ("E6", 1), ("E7", 7)]:
        assert kkp_check(minuscule_case(datum(name), node)).passed, name


@pytest.mark.parametrize("name,node", [("B2", 1), ("B5", 1), ("C2", 2), ("C3", 3), ("G2", 1),
                                       ("A3", 0), ("F4", 4)])
def test_a_hand_built_case_that_is_not_minuscule_is_refused(name, node):
    # B_n omega_1, C_3 omega_3 and G_2 omega_1 are multiplicity-free, so the
    # weight count alone would pass them; node 0 of A3 stands for 2 omega_1
    d = datum(name)
    lam = fw(d, node) if node else (2, 0, 0)
    case = MinusculeCase(datum=d, node=node, lam=lam, dim_x=pair(lam, d.two_rho_covector))
    with pytest.raises(IntegrityError, match="is not minuscule"):
        weight_graph_betti(case)


def test_betti_quadrics_and_spinors():
    # B3 spin variety is the 6-dimensional quadric
    b3 = weight_graph_betti(minuscule_case(datum("B3"), 3))
    assert b3.b == (1, 1, 1, 2, 1, 1, 1)
    # D4 node 1 is the 6-quadric as well (triality)
    d4 = weight_graph_betti(minuscule_case(datum("D4"), 1))
    assert d4.b == b3.b


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_kkp_all_minuscule_cases(name):
    d = datum(name)
    for case in all_minuscule_cases(d):
        verdict = kkp_check(case)
        assert verdict.passed, (name, case.node, verdict.betti.b, verdict.hodge_shifted)
        table = verdict.betti
        # palindromic, starts at 1, sums to dim V, unimodal up to the middle
        assert table.b[0] == 1
        assert table.b == tuple(reversed(table.b))
        assert table.total == weyl_dimension(d, case.lam)
        mid = len(table.b) // 2
        assert all(table.b[i] <= table.b[i + 1] for i in range(mid))
        # dim X from the pairing equals the node-support count (checked in
        # minuscule_case already; recompute here as the test-side oracle)
        assert case.dim_x == sum(1 for r in d.positive_roots if r[case.node - 1] != 0)


def test_kkp_detects_perturbation():
    case = minuscule_case(datum("E6"), 1)
    verdict = kkp_check(case)
    assert verdict.passed
    betti = list(verdict.betti.b)
    betti[4] += 1  # inject a fault, then compare the raw sequences
    shifted = list(verdict.hodge_shifted)
    first_bad = next(p for p in range(len(betti)) if betti[p] != shifted[p])
    assert first_bad == 4


def test_dim_x_values():
    assert minuscule_case(datum("E6"), 1).dim_x == 16  # Cayley plane
    assert minuscule_case(datum("E7"), 7).dim_x == 27  # Freudenthal variety
    assert minuscule_case(datum("A4"), 2).dim_x == 6   # Gr(2,5)
    assert minuscule_case(datum("B3"), 3).dim_x == 6
    assert minuscule_case(datum("C3"), 1).dim_x == 5   # P^5


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_minuscule_case_accepts_exactly_the_minuscule_nodes(name):
    d = datum(name)
    nodes = minuscule_nodes(d)
    for node in range(1, d.rank + 1):
        if node in nodes:
            assert minuscule_case(d, node).node == node
        else:
            with pytest.raises(UsageError, match="is not minuscule"):
                minuscule_case(d, node)
