from __future__ import annotations

import pytest

from fghodge.character import weyl_dimension
from fghodge.errors import UsageError
from fghodge.kkp import (
    all_minuscule_cases,
    kkp_check,
    minuscule_case,
    minuscule_nodes,
    weight_graph_betti,
)

from conftest import ALL_TYPES_RANK8, datum

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


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the q-binomial [n choose k]_q, by polynomial division."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def q_int(m):
        return [1] * m  # 1 + q + ... + q^{m-1}

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
    assert e6.b == (1, 1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1)
    e6b = weight_graph_betti(minuscule_case(datum("E6"), 6))
    assert e6b.b == e6.b  # the dual minuscule node gives the same variety
    e7 = weight_graph_betti(minuscule_case(datum("E7"), 7))
    assert e7.b == (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3,
                    3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1)


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
        assert verdict.passed, (name, case.node, verdict.first_mismatch)
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
