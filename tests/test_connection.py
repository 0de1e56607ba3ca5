from __future__ import annotations

from fractions import Fraction as Q

import pytest

from fghodge import connection
from fghodge.chevalley import (
    PrincipalTriple,
    adjoint_rep,
    classical_std_rep,
    jordan_type,
    principal_triple,
)
from fghodge.connection import (
    LaurentMatrix,
    _ratio,
    integrability_residual,
    rmodule_pair,
)
from fghodge.errors import UsageError
from fghodge.linalg import SparseMatrix

from conftest import datum
from oracles import diagonal, fg_matrix, laurent_product


CERTIFY_CASES = [("E6", "adjoint"), ("E7", "adjoint"), ("E8", "adjoint"),
                 ("B8", "std"), ("C8", "std"), ("D8", "std")]


def scalar(dim, entries, dt=0, dz=0):
    return LaurentMatrix.from_scalar_matrix(SparseMatrix.from_entries(dim, entries), dt, dz)


def test_laurent_matrix_arithmetic_acts_on_coefficients():
    # p = 2t + (1/2) z^-1 as a 1x1 matrix
    p = scalar(1, {(0, 0): 2}, dt=1) + scalar(1, {(0, 0): Q(1, 2)}, dz=-1)
    one = SparseMatrix.from_entries(1, {(0, 0): 1})
    assert (p + scalar(1, {(0, 0): -2}, dt=1)).coeffs == {(0, -1): one.scale(Q(1, 2))}
    assert (p - p).is_zero()
    assert laurent_product(p, p).coeffs == {(2, 0): one.scale(4), (1, -1): one.scale(2),
                              (0, -2): one.scale(Q(1, 4))}
    assert p.d_t().coeffs == {(0, 0): one.scale(2)}
    assert p.d_z().coeffs == {(0, -2): one.scale(Q(-1, 2))}
    assert p.scale(0).is_zero() and p.scale(2) == p + p
    assert scalar(1, {(0, 0): Q(3, 2)}, dt=-1, dz=2).first_nonzero() == (0, 0, "3/2*t^-1*z^2")
    assert p.first_nonzero() == (0, 0, "1/2*z^-1 + 2*t")
    assert LaurentMatrix.zero(1).first_nonzero() is None


def _typed(m: LaurentMatrix) -> dict:
    return {mono: {k: (type(v), v) for k, v in c.entries.items()} for mono, c in m.coeffs.items()}


@pytest.mark.parametrize("name,rep", [("C3", classical_std_rep), ("B3", classical_std_rep),
                                      ("G2", adjoint_rep)])
def test_a_difference_is_the_sum_with_the_negation(name, rep):
    # x - y merges y with a sign, in place of adding the copy y.scale(-1): the
    # same coefficients, entries and value types, with Fraction RHO levels
    # (C3), a Fraction x_theta (B3), monomials on one side only and full
    # cancellation
    d = datum(name)
    tr = principal_triple(rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    rho = LaurentMatrix.from_scalar_matrix(tr.RHO, dz=-1, factor=Q(1, 3))
    for x, y in [(a, b), (b, a), (b, rho), (rho, b), (b, b), (a.d_z(), b.d_t())]:
        assert _typed(x - y) == _typed(x + y.scale(-1))
    assert (b - b).is_zero()


def test_laurent_matrix_never_stores_zero_coefficients():
    assert scalar(2, {}, dt=3, dz=3).coeffs == {}
    assert LaurentMatrix.from_scalar_matrix(diagonal([1, 2]), factor=0).is_zero()
    a = scalar(2, {(0, 0): 1}) + scalar(2, {(1, 1): 1}, dt=3, dz=3)
    assert (a - scalar(2, {(1, 1): 1}, dt=3, dz=3)).coeffs == {(0, 0): diagonal([1, 0])}
    assert (a.d_t() + a.d_z()).coeffs.keys() == {(2, 3), (3, 2)}


@pytest.mark.parametrize("value", [0.1, 0.0, 0.5, 1.0, "1/2", None])
def test_laurent_matrices_refuse_a_factor_that_is_not_an_int_or_a_fraction(value):
    # as SparseMatrix.scale does: 0.1 is no exact 1/10, and a zero matrix or
    # a zero float is no excuse to accept the value
    one = SparseMatrix.from_entries(1, {(0, 0): 1})
    for build in (lambda: LaurentMatrix.from_scalar_matrix(one, factor=value),
                  lambda: LaurentMatrix.from_scalar_matrix(SparseMatrix.zero(1), factor=value),
                  lambda: scalar(1, {(0, 0): 1}).scale(value),
                  lambda: LaurentMatrix.zero(1).scale(value),
                  lambda: one.scale(value)):
        with pytest.raises(UsageError, match="is not an int or a Fraction"):
            build()


def test_laurent_matrix_ops():
    a = scalar(2, {(0, 1): 1})
    b = scalar(2, {(1, 0): 1})
    assert laurent_product(a, b).coeffs == {(0, 0): SparseMatrix.from_entries(2, {(0, 0): 1})}
    assert laurent_product(a, a).is_zero()
    assert a.commutator(a).is_zero()
    assert not hasattr(LaurentMatrix, "__matmul__")
    with pytest.raises(UsageError):
        a.commutator(LaurentMatrix.zero(3))
    with pytest.raises(UsageError):
        a + LaurentMatrix.zero(3)


def test_fg_matrix_is_the_bessel_matrix_for_a_n():
    # sub-diagonal 1/t entries and a bare 1 in the upper-right corner
    for n in (1, 2, 4):
        tr = principal_triple(classical_std_rep(datum(f"A{n}")))
        sub = SparseMatrix.from_entries(n + 1, {(i + 1, i): 1 for i in range(n)})
        corner = SparseMatrix.from_entries(n + 1, {(0, n): 1})
        assert fg_matrix(tr).coeffs == {(-1, 0): sub, (0, 0): corner}


def test_fg_matrix_residue_is_n():
    tr = principal_triple(adjoint_rep(datum("B2")))
    # coefficient of t^-1 is exactly N, of t^0 exactly E
    assert fg_matrix(tr).coeffs == {(-1, 0): tr.N, (0, 0): tr.E}


def test_rmodule_pair_a1_matrices():
    tr = principal_triple(classical_std_rep(datum("A1")))
    a, b = rmodule_pair(tr, 2)
    assert a.coeffs == {(-1, -1): SparseMatrix.from_entries(2, {(1, 0): 1}),
                        (0, -1): SparseMatrix.from_entries(2, {(0, 1): 1})}
    # with RHO = diag(-1/2, 1/2), B = -2(N+tE)/z^2 + RHO/z:
    assert b.coeffs == {
        (0, -1): diagonal([Q(-1, 2), Q(1, 2)]),
        (1, -2): SparseMatrix.from_entries(2, {(0, 1): -2}),
        (0, -2): SparseMatrix.from_entries(2, {(1, 0): -2}),
    }
    assert integrability_residual(a, b).is_zero()


def test_an_integral_certify_path_makes_no_fraction(fractions_made):
    # E6 adjoint and D8 std are integral throughout: RHO, x_theta, the
    # Chevalley-Serre commutators, the Jordan level sweep and the connection
    # must all stay on ints
    cases = [(datum("E6"), adjoint_rep, (23, 17, 15, 11, 9, 3)),
             (datum("D8"), classical_std_rep, (15, 1))]
    made = fractions_made
    for d, rep, blocks in cases:
        tr = principal_triple(rep(d))
        assert jordan_type(tr.N).blocks == blocks
        a, b = rmodule_pair(tr, d.coxeter)
        assert integrability_residual(a, b).is_zero()
        assert made == [], d.stype
    Q(1, 3) + 1  # the counter sees Fractions
    assert made


def test_rmodule_pair_rejects_wrong_coxeter():
    tr = principal_triple(classical_std_rep(datum("A1")))
    with pytest.raises(UsageError):
        rmodule_pair(tr, 3)


def test_rmodule_pair_rejects_zero_dimension():
    d = datum("A1")
    degenerate = PrincipalTriple(datum=d, N=SparseMatrix.zero(0),
                                 RHO=SparseMatrix.zero(0), E=SparseMatrix.zero(0))
    with pytest.raises(UsageError):
        rmodule_pair(degenerate, 2)


def test_b_coefficient_of_z_minus_2_is_minus_h_n_plus_te():
    # the z^-2 part of B is -h(N + tE) by construction
    d = datum("B2")
    tr = principal_triple(classical_std_rep(d))
    _, b = rmodule_pair(tr, d.coxeter)
    z2_part = {mono: m for mono, m in b.coeffs.items() if mono[1] == -2}
    assert z2_part == {(0, -2): tr.N.scale(-d.coxeter), (1, -2): tr.E.scale(-d.coxeter)}


def test_residual_zero_small_sweep():
    for name, which in [("A1", "std"), ("A3", "std"), ("B3", "std"), ("C2", "std"),
                        ("D4", "std"), ("A2", "adjoint"), ("G2", "adjoint")]:
        d = datum(name)
        rep = classical_std_rep(d) if which == "std" else adjoint_rep(d)
        tr = principal_triple(rep)
        a, b = rmodule_pair(tr, d.coxeter)
        assert integrability_residual(a, b).is_zero()
    assert integrability_residual(LaurentMatrix.zero(3), LaurentMatrix.zero(3)).is_zero()


def test_drop_rho_fault_has_the_predicted_residual():
    # without RHO/z the residual is exactly (-N + (h-1) t E) / (t z^2)
    d = datum("B3")
    tr = principal_triple(adjoint_rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    b_broken = b - LaurentMatrix.from_scalar_matrix(tr.RHO, dz=-1)
    res = integrability_residual(a, b_broken)
    expect = (LaurentMatrix.from_scalar_matrix(tr.N, dt=-1, dz=-2, factor=-1)
              + LaurentMatrix.from_scalar_matrix(tr.E, dz=-2, factor=d.coxeter - 1))
    assert res == expect
    assert not res.is_zero()


def test_wrong_h_fault_is_nonzero():
    d = datum("C3")
    tr = principal_triple(classical_std_rep(d))
    a, _ = rmodule_pair(tr, d.coxeter)
    h_bad = d.coxeter + 1
    b_bad = (LaurentMatrix.from_scalar_matrix(tr.N, dz=-2, factor=-h_bad)
             + LaurentMatrix.from_scalar_matrix(tr.E, dt=1, dz=-2, factor=-h_bad)
             + LaurentMatrix.from_scalar_matrix(tr.RHO, dz=-1))
    res = integrability_residual(a, b_bad)
    assert not res.is_zero()
    row, col, text = res.first_nonzero()
    assert text  # reportable entry


def test_first_nonzero_formats_a_two_term_entry():
    # B + (3/7) t z^-1 E - (1/5) z^-2 N adds -(3/7) z^-2 [N,E] - (1/5) z^-3 [N,E]
    # to the residual; on A1 std [N,E] = diag(-1, 1).
    tr = principal_triple(classical_std_rep(datum("A1")))
    a, b = rmodule_pair(tr, 2)
    b_bad = (b + LaurentMatrix.from_scalar_matrix(tr.E, dt=1, dz=-1, factor=Q(3, 7))
             - LaurentMatrix.from_scalar_matrix(tr.N, dz=-2, factor=Q(1, 5)))
    row, col, text = integrability_residual(a, b_bad).first_nonzero()
    assert (row, col, str(text)) == (0, 0, "1/5*z^-3 + 3/7*z^-2")


def test_scaling_e_leaves_residual_zero():
    d = datum("B2")
    tr = principal_triple(classical_std_rep(d))
    for c in (Q(3, 7), -2, Q(-5, 3)):
        scaled = tr._replace(E=tr.E.scale(c))
        a, b = rmodule_pair(scaled, d.coxeter)
        assert integrability_residual(a, b).is_zero()


def test_commutator_identity_n_plus_te_with_rho():
    # [N + tE, RHO] = -N + (h-1) t E as a Laurent-matrix identity
    for name, which in [("A2", "std"), ("G2", "adjoint"), ("D4", "std")]:
        d = datum(name)
        rep = classical_std_rep(d) if which == "std" else adjoint_rep(d)
        tr = principal_triple(rep)
        nte = (LaurentMatrix.from_scalar_matrix(tr.N)
               + LaurentMatrix.from_scalar_matrix(tr.E, dt=1))
        rho = LaurentMatrix.from_scalar_matrix(tr.RHO)
        rhs = (LaurentMatrix.from_scalar_matrix(tr.N, factor=-1)
               + LaurentMatrix.from_scalar_matrix(tr.E, dt=1, factor=d.coxeter - 1))
        assert nte.commutator(rho) == rhs


@pytest.mark.parametrize("name,which", CERTIFY_CASES)
def test_commutator_is_ab_minus_ba_on_the_certify_cases(name, which):
    # one SparseMatrix commutator per monomial pair against the two oracle
    # products, value type for value type, and the residual of a broken B with them
    d = datum(name)
    tr = principal_triple(classical_std_rep(d) if which == "std" else adjoint_rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    broken = b + LaurentMatrix.from_scalar_matrix(tr.E, dt=2, dz=-1, factor=Q(3, 2))
    types = lambda lm: {mono: {k: type(v) for k, v in m.entries.items()} for mono, m in lm.coeffs.items()}
    for other in (b, broken):
        got, want = a.commutator(other), laurent_product(a, other) - laurent_product(other, a)
        assert got == want and types(got) == types(want)
    residual = integrability_residual(a, broken)
    assert not residual.is_zero()
    product = laurent_product(a, broken) - laurent_product(broken, a)
    assert residual == a.d_z() - broken.d_t() - product


def test_the_e8_residual_reads_no_row_or_column_index(monkeypatch):
    # A = N/(tz) + E/z and B = -hN/z^2 - hE t/z^2 + RHO/z: [N, -hN] and
    # [E, -hE] are multiples, -h[N, E] - h[E, N] sums to zero on t^0 z^-3,
    # and the two RHO pairs are diagonal scalings, so no SparseMatrix index
    # is read and no product is formed
    d = datum("E8")
    a, b = rmodule_pair(principal_triple(adjoint_rep(d)), d.coxeter)
    reads = []
    for name in ("rows", "cols"):
        build = SparseMatrix.__dict__[name].func
        monkeypatch.setattr(SparseMatrix, name,
                            property(lambda m, build=build, name=name: reads.append(name) or build(m)))
    assert integrability_residual(a, b).is_zero()
    assert reads == []


def commutators_formed(monkeypatch) -> list:
    """The (X, Y) of every SparseMatrix commutator [X, Y] formed from now on."""
    calls = []
    commutator = SparseMatrix.commutator
    monkeypatch.setattr(SparseMatrix, "commutator",
                        lambda x, y: calls.append((x, y)) or commutator(x, y))
    return calls


def test_a_cancelling_pair_with_ab_one_is_skipped(monkeypatch):
    # A = X t + (a Y) z and B = Y z + (b X) t with a = 2/3 and b = 3/2: on t z
    # the pairs (X, Y) and (aY, bX) give (1 - ab)[X, Y] = 0, and (X, bX) and
    # (aY, Y) are multiples, so no commutator is formed at all
    x = SparseMatrix.from_entries(3, {(0, 1): 1, (1, 2): 2, (2, 0): -1, (1, 1): 3})
    y = SparseMatrix.from_entries(3, {(0, 0): 1, (1, 0): Q(1, 2), (2, 1): 4})
    assert not x.commutator(y).is_zero()
    a = (LaurentMatrix.from_scalar_matrix(x, dt=1)
         + LaurentMatrix.from_scalar_matrix(y, dz=1, factor=Q(2, 3)))
    b = (LaurentMatrix.from_scalar_matrix(y, dz=1)
         + LaurentMatrix.from_scalar_matrix(x, dt=1, factor=Q(3, 2)))
    calls = commutators_formed(monkeypatch)
    assert a.commutator(b).is_zero()
    assert (laurent_product(a, b) - laurent_product(b, a)).is_zero()
    assert calls == []


def test_a_three_pair_dependency_on_one_monomial_forms_no_commutator_there(monkeypatch):
    # A = X t + (aY) z + (cY) t^2/z and B = Y z + (bX) t + (dX) z^2/t with
    # ab = cd = 1/2: no two of the pairs (X, Y), (aY, bX), (cY, dX) on t z
    # cancel, but the three sum to (1 - ab - cd)[X, Y] = 0 there; (aY, dX)
    # and (cY, bX) land on t^-1 z^3 and t^3 z^-1, one commutator each
    x = SparseMatrix.from_entries(3, {(0, 1): 1, (1, 2): 2, (2, 0): -1, (1, 1): 3})
    y = SparseMatrix.from_entries(3, {(0, 0): 1, (1, 0): Q(1, 2), (2, 1): 4})
    a = (LaurentMatrix.from_scalar_matrix(x, dt=1)
         + LaurentMatrix.from_scalar_matrix(y, dz=1, factor=2)
         + LaurentMatrix.from_scalar_matrix(y, dt=2, dz=-1, factor=3))
    b = (LaurentMatrix.from_scalar_matrix(y, dz=1)
         + LaurentMatrix.from_scalar_matrix(x, dt=1, factor=Q(1, 4))
         + LaurentMatrix.from_scalar_matrix(x, dt=-1, dz=2, factor=Q(1, 6)))
    calls = commutators_formed(monkeypatch)
    got = a.commutator(b)
    assert len(calls) == 2
    monkeypatch.undo()
    assert got == laurent_product(a, b) - laurent_product(b, a)
    assert got.coeffs.keys() == {(-1, 3), (3, -1)}
    assert got.coeffs[(-1, 3)] == x.commutator(y).scale(-2 * Q(1, 6))


@pytest.mark.parametrize("name,which", [("B3", "adjoint"), ("C3", "std"), ("E6", "adjoint")])
def test_a_pair_with_ab_not_one_is_formed(monkeypatch, name, which):
    # B's E coefficient -hE scaled by 1 - h: the pairs (N, (1 - h)(-hE)) and
    # (E, -hN) on t^0 z^-3 sum to (h^2 - h + h)[N, E] = h^2 [N, E], so [N, E]
    # is formed once and scaled, and the residual carries -h^2 [N, E]; the
    # multiples (N, -hN) and (E, (1 - h)(-hE)) are not formed
    d = datum(name)
    tr = principal_triple(classical_std_rep(d) if which == "std" else adjoint_rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    b = LaurentMatrix(b.dim, {**b.coeffs, (1, -2): b.coeffs[(1, -2)].scale(1 - d.coxeter)})
    calls = commutators_formed(monkeypatch)
    got = a.commutator(b)
    n, e, rho = a.coeffs[(-1, -1)], a.coeffs[(0, -1)], b.coeffs[(0, -1)]
    assert [(id(x), id(y)) for x, y in calls] == [(id(n), id(e)), (id(n), id(rho)), (id(e), id(rho))]
    monkeypatch.undo()
    assert got == laurent_product(a, b) - laurent_product(b, a)
    residual = integrability_residual(a, b)
    assert not residual.is_zero()
    nte = LaurentMatrix.from_scalar_matrix(tr.N).commutator(LaurentMatrix.from_scalar_matrix(tr.E))
    assert residual.coeffs[(0, -3)] == nte.coeffs[(0, 0)].scale(-d.coxeter ** 2)


@pytest.mark.parametrize("name,which", CERTIFY_CASES)
def test_the_residual_forms_two_commutators_against_rho_in_either_order(monkeypatch, name, which):
    # [A, B] and [B, A] both form [N, RHO] and [E, RHO] (up to a scalar) and
    # no other commutator, each with the diagonal RHO second, so that no row
    # or column index is read: a coefficient is written as a multiple of the
    # first one proportional to it, and RHO comes last in either order
    d = datum(name)
    tr = principal_triple(classical_std_rep(d) if which == "std" else adjoint_rep(d))
    a, b = rmodule_pair(tr, d.coxeter)
    calls = commutators_formed(monkeypatch)
    residual, swapped = integrability_residual(a, b), b.commutator(a)
    assert [id(rhs) for _, rhs in calls] == [id(tr.RHO)] * 4
    assert all(_ratio(m.entries, lhs.entries) for m, (lhs, _) in zip((tr.N, tr.E) * 2, calls))
    monkeypatch.undo()
    assert residual.is_zero() and swapped == a.commutator(b).scale(-1)


def test_the_e8_residual_forms_each_proportionality_pass_once(monkeypatch):
    # A's N and E are the first two coefficients; -hN is tested against N,
    # -hE against N and E, RHO against both: six tests, no pair twice, the
    # two that find a multiple walk N and E once each, and the one over N's
    # 478 entries against -hN's runs once
    d = datum("E8")
    a, b = rmodule_pair(principal_triple(adjoint_rep(d)), d.coxeter)
    seen = []
    real = connection._ratio

    def counted(x, y):
        found = real(x, y)
        seen.append((id(x), id(y), len(x), len(y), found is not None))
        return found

    monkeypatch.setattr(connection, "_ratio", counted)
    assert integrability_residual(a, b).is_zero()
    assert len(seen) == 6 and len({(x, y) for x, y, _, _, _ in seen}) == 6
    n, e = a.coeffs[(-1, -1)].entries, a.coeffs[(0, -1)].entries
    assert [(x, y) for x, y, _, _, found in seen if found] == [
        (id(n), id(b.coeffs[(0, -2)].entries)), (id(e), id(b.coeffs[(1, -2)].entries))]
    assert [(nx, ny) for _, _, nx, ny, _ in seen].count((478, 478)) == 1


@pytest.mark.parametrize("name,which", [("A2", "std"), ("C3", "std"), ("G2", "adjoint"), ("E7", "adjoint")])
def test_a_corrupted_rho_is_caught_as_by_the_oracle_products(name, which):
    # one RHO entry moved by 1/3: the residual is nonzero and names the same
    # first entry, with the same text, as the residual from laurent_product
    d = datum(name)
    tr = principal_triple(classical_std_rep(d) if which == "std" else adjoint_rep(d))
    rho = dict(tr.RHO.entries)
    rho[(1, 1)] = rho.get((1, 1), 0) + Q(1, 3)
    bad = tr._replace(RHO=SparseMatrix.from_entries(tr.N.dim, rho))
    a, b = rmodule_pair(bad, d.coxeter)
    residual = integrability_residual(a, b)
    oracle = a.d_z() - b.d_t() - (laurent_product(a, b) - laurent_product(b, a))
    assert not residual.is_zero()
    assert residual == oracle
    assert residual.first_nonzero() == oracle.first_nonzero()
