"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every comparison is bit-exact (integer/rational
equality); the wall-clock budgets are asserted where stated.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from fghodge.character import adjoint_weight, irrep_character, weyl_dimension
from fghodge.chevalley import (
    adjoint_rep,
    classical_std_rep,
    jordan_type,
    principal_triple,
)
from fghodge.cli import _dominant_weights_up_to
from fghodge.connection import (
    LaurentMatrix,
    integrability_residual,
    rmodule_pair,
)
from fghodge.grading import (
    RhoGrading,
    exponents,
    functoriality_check,
    hodge_from_partition,
    partition_from_grading,
    product_character_grading,
    rho_grading,
    tensor_grading,
)
from fghodge.kkp import all_minuscule_cases, kkp_check, minuscule_case, weight_graph_betti
from conftest import ALL_TYPES_RANK8, datum, fw
from test_grading import expected_exponents

ADJOINT_FAMILY_REPS = ["A1", "A2", "B3", "C3", "D4", "E6", "E7", "F4", "G2"]
CLASSICAL_STD = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)])

# gradings produced while running criteria 1-4, reused by criterion 11
_COLLECTED_GRADINGS: list[RhoGrading] = []


def _collect(g: RhoGrading) -> RhoGrading:
    _COLLECTED_GRADINGS.append(g)
    return g


def _report(num: int, name: str, t0: float) -> None:
    print(f"criterion {num:2d} ({name}): PASS [{time.monotonic() - t0:.2f}s]")


def _grading_of(name: str, lam) -> RhoGrading:
    d = datum(name)
    return _collect(rho_grading(irrep_character(d, lam)))


def test_criterion_01_hodge_tables():
    t0 = time.monotonic()
    # E7, omega_7: 3 for |p| <= 5, 2 for 5 < |p| <= 9, 1 for 9 < |p| <= 14,
    # at half-integers p (doubled index odd).
    g = _grading_of("E7", fw(datum("E7"), 7))
    expect = {}
    for k in range(-27, 28, 2):
        a = abs(k)
        expect[k] = 3 if a <= 9 else 2 if a <= 17 else 1
    assert g.dims == expect and g.total == 56

    # E8 adjoint through its exponents: 8 for |p| <= 1, 9-i between consecutive
    # exponents N_{i-1} < |p| <= N_i.
    exps = [1, 7, 11, 13, 17, 19, 23, 29]
    g8 = _grading_of("E8", adjoint_weight(datum("E8")))
    expect8 = {}
    for k in range(-58, 59, 2):
        p = Fraction(abs(k), 2)
        if p <= 1:
            expect8[k] = 8
        else:
            i = next(i for i in range(1, 8) if exps[i - 1] < p <= exps[i])
            expect8[k] = 9 - (i + 1)
    assert g8.dims == expect8 and g8.total == 248

    # E6 omega_1 and F4 omega_4 tables, and the F4-plus-trivial decomposition.
    g6 = _grading_of("E6", fw(datum("E6"), 1))
    expect6 = {k: (3 if k == 0 else 2 if abs(k) <= 8 else 1) for k in range(-16, 17, 2)}
    assert g6.dims == expect6 and g6.total == 27
    gf = _grading_of("F4", fw(datum("F4"), 4))
    expectf = {k: (2 if abs(k) <= 8 else 1) for k in range(-16, 17, 2)}
    assert gf.dims == expectf and gf.total == 26
    plus_trivial = dict(gf.dims)
    plus_trivial[0] += 1
    assert g6.dims == plus_trivial
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, "hodge tables", t0)


def test_criterion_02_jordan_partitions():
    t0 = time.monotonic()
    e7 = partition_from_grading(_grading_of("E7", fw(datum("E7"), 7)))
    assert e7.blocks == (28, 18, 10)
    g6 = _grading_of("E6", fw(datum("E6"), 1))
    e6 = partition_from_grading(g6)
    assert e6.blocks == (17, 9, 1)
    # (17,9,1) is the unique partition consistent with the level table; the
    # (19,7,1) value seen in the literature fails against it.
    assert hodge_from_partition(e6).dims == g6.dims
    from fghodge.grading import JordanPartition
    assert hodge_from_partition(JordanPartition((19, 7, 1))).dims != g6.dims
    _report(2, "jordan partitions", t0)


def test_criterion_03_exponents():
    t0 = time.monotonic()
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        exps = exponents(d)
        assert exps == expected_exponents(name), name
        assert max(exps) == d.coxeter - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, "exponents", t0)


def _rank6_types():
    return [t for t in ALL_TYPES_RANK8 if int(t[1:]) <= 6]


def test_criterion_04_sum_rule_sweep():
    # Property over dominant weights of dim <= 5000, rank <= 6: exhaustive up
    # to dim 300, seeded random samples beyond, plus the stated spot cases.
    t0 = time.monotonic()
    checked = 0
    for name in _rank6_types():
        d = datum(name)
        for lam in _dominant_weights_up_to(d, 300):
            g = _collect(rho_grading(irrep_character(d, lam)))
            assert g.total == weyl_dimension(d, lam), (name, lam)
            checked += 1
    rng = random.Random(0xFE11)
    sampled = 0
    while sampled < 40:
        name = rng.choice(_rank6_types())
        d = datum(name)
        lam = tuple(rng.choice([0, 0, 1, 2, 3, 5, 9]) for _ in range(d.rank))
        dim = weyl_dimension(d, lam)
        if not 300 < dim <= 5000:
            continue
        g = _collect(rho_grading(irrep_character(d, lam)))
        assert g.total == dim, (name, lam)
        sampled += 1
    for name, lam in [("E7", fw(datum("E7"), 7)), ("E8", adjoint_weight(datum("E8")))]:
        d = datum(name)
        g = _collect(rho_grading(irrep_character(d, lam)))
        assert g.total == weyl_dimension(d, lam)
    assert checked > 400
    _report(4, f"sum rule sweep ({checked} exhaustive + {sampled} sampled)", t0)


def _agreement_cases():
    for name in ADJOINT_FAMILY_REPS:
        yield name, "adjoint"
    for name in CLASSICAL_STD:
        yield name, "std"


def test_criterion_05_matrix_character_agreement():
    t0 = time.monotonic()
    for name, which in _agreement_cases():
        d = datum(name)
        rep = adjoint_rep(d) if which == "adjoint" else classical_std_rep(d)
        tr = principal_triple(rep)
        lam = adjoint_weight(d) if which == "adjoint" else fw(d, 1)
        expected = partition_from_grading(rho_grading(irrep_character(d, lam)))
        assert jordan_type(tr.N).blocks == expected.blocks, (name, which)
    # E8 adjoint, 248 x 248, exact sparse elimination
    t8 = time.monotonic()
    d8 = datum("E8")
    tr8 = principal_triple(adjoint_rep(d8))
    expected8 = partition_from_grading(rho_grading(irrep_character(d8, adjoint_weight(d8))))
    assert jordan_type(tr8.N).blocks == expected8.blocks == (59, 47, 39, 35, 27, 23, 15, 3)
    assert time.monotonic() - t8 < 60.0
    _report(5, "matrix/character agreement", t0)


def _integrability_cases():
    for name in ALL_TYPES_RANK8:
        yield name, "adjoint"
    for name in CLASSICAL_STD:
        yield name, "std"


def test_criterion_06_integrability():
    t0 = time.monotonic()
    for name, which in _integrability_cases():
        d = datum(name)
        rep = adjoint_rep(d) if which == "adjoint" else classical_std_rep(d)
        tr = principal_triple(rep)
        a, b = rmodule_pair(tr, d.coxeter)
        assert integrability_residual(a, b).is_zero(), (name, which)
    # fault injections on one adjoint case
    d = datum("F4")
    tr = principal_triple(adjoint_rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    assert not integrability_residual(a, b - LaurentMatrix.from_scalar_matrix(tr.RHO, dz=-1)).is_zero()
    h_bad = d.coxeter + 1
    b_bad = (LaurentMatrix.from_scalar_matrix(tr.N, dz=-2, factor=-h_bad)
             + LaurentMatrix.from_scalar_matrix(tr.E, dt=1, dz=-2, factor=-h_bad)
             + LaurentMatrix.from_scalar_matrix(tr.RHO, dz=-1))
    assert not integrability_residual(a, b_bad).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, "integrability", t0)


def test_criterion_07_lie_identities():
    t0 = time.monotonic()
    for name, which in _integrability_cases():
        d = datum(name)
        rep = adjoint_rep(d) if which == "adjoint" else classical_std_rep(d)
        tr = principal_triple(rep)
        assert tr.N.commutator(tr.RHO) == tr.N.scale(-1), (name, which)
        assert tr.E.commutator(tr.RHO) == tr.E.scale(d.coxeter - 1), (name, which)
    _report(7, "Lie identities", t0)


def test_criterion_08_kkp():
    t0 = time.monotonic()
    for name in ALL_TYPES_RANK8:
        for case in all_minuscule_cases(datum(name)):
            assert kkp_check(case).passed, (name, case.node)
    assert weight_graph_betti(minuscule_case(datum("E6"), 1)).b == \
        (1, 1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1)
    assert weight_graph_betti(minuscule_case(datum("E7"), 7)).b == \
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(8, "KKP mirror equality", t0)


def test_criterion_09_functoriality():
    t0 = time.monotonic()
    for n in range(2, 9):
        assert functoriality_check("so_pair", n).passed, n
    assert functoriality_check("f4_e6").passed
    _report(9, "functoriality", t0)


def test_criterion_10_tensor_property():
    t0 = time.monotonic()
    rank4 = [t for t in ALL_TYPES_RANK8 if int(t[1:]) <= 4]
    rng = random.Random(0x7E45)
    done = 0
    while done < 50:
        name = rng.choice(rank4)
        d = datum(name)
        lam1 = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(d.rank))
        lam2 = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(d.rank))
        if weyl_dimension(d, lam1) > 500 or weyl_dimension(d, lam2) > 500:
            continue
        c1, c2 = irrep_character(d, lam1), irrep_character(d, lam2)
        lhs = tensor_grading(rho_grading(c1), rho_grading(c2))
        assert lhs.dims == product_character_grading(c1, c2).dims, (name, lam1, lam2)
        done += 1
    _report(10, "tensor grading property", t0)


def test_criterion_11_roundtrip():
    t0 = time.monotonic()
    pool = list(_COLLECTED_GRADINGS)
    if not pool:  # standalone run of this test: regenerate the criterion 1-2 set
        pool = [rho_grading(irrep_character(datum(n), lam)) for n, lam in
                [("E7", fw(datum("E7"), 7)), ("E8", adjoint_weight(datum("E8"))),
                 ("E6", fw(datum("E6"), 1)), ("F4", fw(datum("F4"), 4))]]
    for g in pool:
        assert hodge_from_partition(partition_from_grading(g)).dims == g.dims
    _report(11, f"roundtrip on {len(pool)} gradings", t0)
