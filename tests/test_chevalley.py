from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from fghodge.character import adjoint_weight, irrep_character
from fghodge.chevalley import (
    _check_rep,
    _weight_rep,
    adjoint_rep,
    classical_std_rep,
    jordan_type,
    StructureConstants,
    principal_triple,
    structure_constants,
    verify_jacobi,
)
from fghodge.errors import (
    IntegrityError,
    ResourceLimitError,
    UnsupportedRepresentationError,
    UsageError,
)
from fghodge.grading import partition_from_grading, principal_grading, rho_grading
from fghodge.kkp import minuscule_nodes
from fghodge.linalg import SparseMatrix
from fghodge.rootdatum import pair
from conftest import ALL_TYPES_RANK8, datum, fw


def test_structure_constant_magnitudes():
    # A2: the single special pair has |N| = 1
    a2 = datum("A2")
    sc = structure_constants(a2)
    assert sorted(abs(v) for v in set(sc.n_pos.values())) == [1, 1]
    # G2 realizes |N| = 2 and 3 (root strings of length up to 4)
    g2vals = {abs(v) for v in structure_constants(datum("G2")).n_pos.values()}
    assert {2, 3} <= g2vals
    # B2 (alpha_1 long, alpha_2 short): N_{a1,a2} = +-1, N_{a2,a1+a2} = +-2
    b2 = datum("B2")
    sc = structure_constants(b2)
    a1, a2_ = (1, 0), (0, 1)
    assert abs(sc.constant(a1, a2_)) == 1
    assert abs(sc.constant(a2_, (1, 1))) == 2


def test_structure_constants_antisymmetry_and_string_rule():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        d = datum(name)
        sc = structure_constants(d)
        root_set = sc.root_set
        for (a, b), v in sc.n_pos.items():
            assert sc.n_pos[(b, a)] == -v
            # |N| = p + 1 with p the length of the string b, b-a, b-2a, ...
            p = 0
            cur = tuple(x - y for x, y in zip(b, a))
            while cur in root_set:
                p += 1
                cur = tuple(x - y for x, y in zip(cur, a))
            assert abs(v) == p + 1


def test_structure_constants_mixed_signs_consistent():
    # [x_a, x_{-b}] constants agree with the Jacobi-verified adjoint action.
    d = datum("G2")
    sc = structure_constants(d)
    neg = lambda r: tuple(-x for x in r)
    for a in d.positive_roots:
        for b in d.positive_roots:
            diff = tuple(x - y for x, y in zip(a, b))
            if a != b and diff in sc.root_set:
                val = sc.constant(a, neg(b))
                assert isinstance(val, int) and val != 0


def _flipped(sc, pick):
    """A copy of sc with N_{a,b} (and N_{b,a}) negated for the first pair pick accepts.

    Only pairs whose sum has at least two decompositions are eligible: a
    root with a single decomposition can absorb the flip as a change of
    basis vector, which is not a fault.
    """
    def root_sum(ab):
        return tuple(x + y for x, y in zip(*ab))

    # n_pos holds both orders of each pair, so two decompositions count 4.
    decompositions = Counter(map(root_sum, sc.n_pos))
    a, b = next(ab for ab in sorted(sc.n_pos) if decompositions[root_sum(ab)] >= 4 and pick(*ab))
    n_pos = dict(sc.n_pos)
    n_pos[(a, b)] = -n_pos[(a, b)]
    n_pos[(b, a)] = -n_pos[(b, a)]
    return StructureConstants(datum=sc.datum, n_pos=n_pos,
                              root_set=sc.root_set, norm2=sc.norm2)


@pytest.mark.parametrize("name", ["G2", "B4", "F4", "E6"])
@pytest.mark.parametrize("slot", ["derived", "simple"])
def test_jacobi_check_catches_a_flipped_constant(name, slot):
    sc = structure_constants(datum(name))
    if slot == "derived":
        pick = lambda a, b: sum(a) > 1 and sum(b) > 1
    else:
        pick = lambda a, b: sum(a) == 1
    with pytest.raises(IntegrityError):
        verify_jacobi(_flipped(sc, pick))


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        structure_constants(datum("A9"))


def test_adjoint_rep_a1():
    rep = adjoint_rep(datum("A1"))
    assert rep.dim == 3
    # basis order: x_alpha, h, x_{-alpha}; e acts as a single 3-cell up to scalars
    e = rep.e[0]
    assert set(e.entries) == {(0, 1), (1, 2)}
    assert rep.basis_weights == ((2,), (0,), (-2,))


def test_adjoint_rep_dimensions():
    assert adjoint_rep(datum("G2")).dim == 14
    assert adjoint_rep(datum("F4")).dim == 52
    assert adjoint_rep(datum("E6")).dim == 78


def test_classical_std_reps():
    for name, dim in [("A3", 4), ("B3", 7), ("C3", 6), ("D4", 8)]:
        rep = classical_std_rep(datum(name))
        assert rep.dim == dim
    for name in ["E6", "F4", "G2"]:
        with pytest.raises(UnsupportedRepresentationError):
            classical_std_rep(datum(name))


def test_a_n_std_nilpotent_is_subdiagonal():
    rep = classical_std_rep(datum("A3"))
    n_mat = rep.f[0] + rep.f[1] + rep.f[2]
    assert n_mat.entries == {(1, 0): 1, (2, 1): 1, (3, 2): 1}
    assert rep.e_theta.entries == {(0, 3): 1}


def test_principal_triple_a1_std():
    tr = principal_triple(classical_std_rep(datum("A1")))
    assert tr.N.to_dense() == [[0, 0], [1, 0]]
    assert tr.E.to_dense() == [[0, 1], [0, 0]]
    assert tr.RHO.to_dense() == [[Fraction(-1, 2), 0], [0, Fraction(1, 2)]]
    assert tr.H == tr.RHO.scale(2)


@pytest.mark.parametrize("name,which", [
    ("A2", "std"), ("B2", "std"), ("C3", "std"), ("D4", "std"),
    ("A2", "adjoint"), ("B3", "adjoint"), ("G2", "adjoint"),
])
def test_principal_triple_identities(name, which):
    d = datum(name)
    rep = classical_std_rep(d) if which == "std" else adjoint_rep(d)
    tr = principal_triple(rep)
    assert tr.N.commutator(tr.RHO) == tr.N.scale(-1)
    assert tr.E.commutator(tr.RHO) == tr.E.scale(d.coxeter - 1)
    # H spectrum = rho-grading level multiset
    lam = fw(d, 1) if which == "std" else adjoint_weight(d)
    g = rho_grading(irrep_character(d, lam))
    spectrum = Counter(int(tr.H.get(i, i)) for i in range(tr.dim))
    assert spectrum == Counter(g.dims)


def test_e_theta_is_highest():
    for name in ["A3", "B3", "C3", "D4", "G2"]:
        d = datum(name)
        for rep in ([classical_std_rep(d)] if d.stype.family in "ABCD" else []) + [adjoint_rep(d)]:
            for e_i in rep.e:
                assert rep.e_theta.commutator(e_i).is_zero()
            # e_theta raises by theta in the weight grading
            theta_wt = d.weight_of_root(d.theta)
            for (r, c) in rep.e_theta.entries:
                shifted = tuple(a + b for a, b in zip(rep.basis_weights[c], theta_wt))
                assert rep.basis_weights[r] == shifted


def test_jordan_type_basics():
    assert jordan_type(SparseMatrix.zero(3)).blocks == (1, 1, 1)
    cell = SparseMatrix.from_entries(4, {(1, 0): 1, (2, 1): 1, (3, 2): 1})
    assert jordan_type(cell).blocks == (4,)
    with pytest.raises(UsageError):
        jordan_type(SparseMatrix.from_entries(2, {(0, 0): 1}))
    # rational entries are fine
    half = SparseMatrix.from_entries(3, {(1, 0): Fraction(1, 2)})
    assert jordan_type(half).blocks == (2, 1)


def test_jordan_matches_grading_g2():
    d = datum("G2")
    tr = principal_triple(adjoint_rep(d))
    part = partition_from_grading(rho_grading(irrep_character(d, adjoint_weight(d))))
    assert jordan_type(tr.N).blocks == part.blocks == (11, 3)


def test_classical_std_jordan_types():
    # B_n: one block of size 2n+1; C_n: one of size 2n; D_n: {2n-1, 1}
    for n in range(2, 6):
        assert jordan_type(principal_triple(classical_std_rep(datum(f"B{n}"))).N).blocks == (2 * n + 1,)
        assert jordan_type(principal_triple(classical_std_rep(datum(f"C{n}"))).N).blocks == (2 * n,)
    for n in range(3, 6):
        assert jordan_type(principal_triple(classical_std_rep(datum(f"D{n}"))).N).blocks == (2 * n - 1, 1)


CLASSICAL_RANK8 = [name for name in ALL_TYPES_RANK8 if name[0] in "ABCD"]
MINUSCULE_RANK8 = [(name, node) for name in ALL_TYPES_RANK8 for node in minuscule_nodes(datum(name))]


@pytest.mark.parametrize("name", CLASSICAL_RANK8)
def test_std_rep_from_weights_matches_kostant(name):
    d = datum(name)
    rep = classical_std_rep(d)
    levels = [pair(mu, d.two_rho_covector) for mu in rep.basis_weights]
    assert levels == sorted(levels, reverse=True)
    kostant = partition_from_grading(principal_grading(d, fw(d, 1)))
    assert jordan_type(principal_triple(rep).N) == kostant


def test_minuscule_cases_of_rank_at_most_8():
    assert len(MINUSCULE_RANK8) == 71
    assert {("E6", 1), ("E6", 6), ("E7", 7)} <= set(MINUSCULE_RANK8)


@pytest.mark.parametrize("name,node", MINUSCULE_RANK8)
def test_weight_rule_builds_every_minuscule_representation(name, node):
    d = datum(name)
    rep = _weight_rep(d, fw(d, node))
    _check_rep(rep)
    kostant = partition_from_grading(principal_grading(d, fw(d, node)))
    assert jordan_type(principal_triple(rep).N) == kostant


def test_weight_rule_refuses_a_weight_with_multiplicities():
    with pytest.raises(IntegrityError, match="multiplicity-free"):
        _weight_rep(datum("A2"), (1, 1))  # the zero weight of the adjoint has multiplicity 2


def _with_generator(rep, which, i, entries):
    mats = list(getattr(rep, which))
    mats[i] = SparseMatrix.from_entries(rep.dim, entries)
    return dataclasses.replace(rep, **{which: tuple(mats)})


def test_check_rep_catches_a_wrong_coefficient_on_the_short_string():
    # B3 std: f_3 is 2, 2 on the string through the zero weight; make one of them 1.
    rep = classical_std_rep(datum("B3"))
    entries = dict(rep.f[2].entries)
    key = next(k for k, v in sorted(entries.items()) if v == 2)
    entries[key] = 1
    with pytest.raises(IntegrityError, match=r"\[e_3, f_3\]"):
        _check_rep(_with_generator(rep, "f", 2, entries))


def test_check_rep_catches_a_sign_flip_around_the_weight_diamond():
    # D4 std: negating one e_4 entry and its f_4 transpose keeps [e_4, f_4] = h_4,
    # but the two paths around the diamond eps_3 -> +-eps_4 -> -eps_3 then disagree.
    rep = classical_std_rep(datum("D4"))
    (r, c), v = min(rep.e[3].entries.items())
    e4 = dict(rep.e[3].entries) | {(r, c): -v}
    f4 = dict(rep.f[3].entries) | {(c, r): -rep.f[3].entries[(c, r)]}
    broken = _with_generator(_with_generator(rep, "e", 3, e4), "f", 3, f4)
    assert broken.e[3].commutator(broken.f[3]) == broken.h[3]
    with pytest.raises(IntegrityError):
        _check_rep(broken)


def test_rep_relations_hold_exactly():
    # zero residual matrices, not approximately
    d = datum("B3")
    rep = classical_std_rep(d)
    for i in range(d.rank):
        for j in range(d.rank):
            left = rep.e[i].commutator(rep.f[j])
            expect = rep.h[i] if i == j else SparseMatrix.zero(rep.dim)
            assert left == expect
            assert rep.h[i].commutator(rep.e[j]) == rep.e[j].scale(d.cartan[j][i])
            assert rep.h[i].commutator(rep.f[j]) == rep.f[j].scale(-d.cartan[j][i])


def test_triple_dump_format():
    tr = principal_triple(classical_std_rep(datum("A1")))
    text = tr.N.dump_triplets()
    assert "1 0 1/1" in text.splitlines()[-1]


# sha256 of the E6/E7/E8 adjoint matrices below; a rebuilt bracket table must keep it.
GOLDEN_ADJOINT_SHA256 = "9e2c9cdbb8d7ed5bbf5de2b467115f1a5987768c82f5ba95fbb72d2b06e99e50"


# -- an exhaustive Jacobi oracle, independent of the package's adjoint matrices --

def _basis(d):
    """The adjoint basis as ("root", r) for every root and ("cartan", i)."""
    neg = lambda r: tuple(-x for x in r)
    return ([("root", r) for r in d.positive_roots] + [("cartan", i) for i in range(d.rank)]
            + [("root", neg(r)) for r in d.positive_roots])


def _bracket_table(sc):
    """[x, y] for every ordered pair of basis elements, as {basis element: coefficient}."""
    d = sc.datum
    basis = _basis(d)

    def br(x, y):
        (kx, px), (ky, py) = x, y
        if kx == "cartan" and ky == "cartan":
            return {}
        if kx == "cartan":  # [h_i, x_b] = <b, alpha_i^vee> x_b
            c = d.weight_of_root(py)[px]
            return {y: c} if c else {}
        if ky == "cartan":
            c = -d.weight_of_root(px)[py]
            return {x: c} if c else {}
        s = tuple(a + b for a, b in zip(px, py))
        if not any(s):  # [x_a, x_{-a}] = h_a, the coroot on the simple coroots
            sign = 1 if sum(px) > 0 else -1
            co = d.coroot_of[px if sign > 0 else py]
            return {("cartan", j): sign * c for j, c in enumerate(co) if c}
        if s in sc.root_set:
            return {("root", s): sc.constant(px, py)}
        return {}

    return basis, {(x, y): br(x, y) for x in basis for y in basis}


def _jacobi_holds_everywhere(sc) -> bool:
    """Antisymmetry, and the Jacobi identity on every triple of basis elements."""
    basis, table = _bracket_table(sc)

    def br(x, combo):
        out: dict = {}
        for y, c in combo.items():
            for k, v in table[(x, y)].items():
                out[k] = out.get(k, 0) + c * v
        return out

    for x in basis:
        for y in basis:
            mirror = {k: -v for k, v in table[(y, x)].items()}
            if table[(x, y)] != mirror:
                return False
    for i, x in enumerate(basis):
        for j in range(i + 1, len(basis)):
            y = basis[j]
            for z in basis[j + 1:]:
                total: dict = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    for k, v in br(a, table[(b, c)]).items():
                        total[k] = total.get(k, 0) + v
                if any(total.values()):
                    return False
    return True


def _sign_flips(sc):
    """Every copy of sc with one N_{a,b} (and N_{b,a}) negated."""
    for a, b in sorted(sc.n_pos):
        if a < b:
            n_pos = dict(sc.n_pos)
            n_pos[(a, b)] = -n_pos[(a, b)]
            n_pos[(b, a)] = -n_pos[(b, a)]
            yield StructureConstants(datum=sc.datum, n_pos=n_pos,
                                     root_set=sc.root_set, norm2=sc.norm2)


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "C3", "D4", "G2"])
def test_jacobi_check_agrees_with_the_exhaustive_oracle_on_every_sign_flip(name):
    sc = structure_constants(datum(name))
    assert _jacobi_holds_everywhere(sc)
    flips = list(_sign_flips(sc))
    assert flips
    for flipped in flips:
        try:
            verify_jacobi(flipped)
            verdict = True
        except IntegrityError:
            verdict = False
        assert verdict == _jacobi_holds_everywhere(flipped)


def _table_with_negated_entries(sc, brackets):
    """A fresh copy of sc whose ad has [x_x, x_y] negated for each (x, y) in brackets."""
    ad = dict(sc.ad)
    index = {b: i for i, b in enumerate(ad)}
    for x, y in brackets:
        row = index[("root", tuple(p + q for p, q in zip(x, y)))]
        entries = dict(ad[("root", x)].entries)
        entries[(row, index[("root", y)])] *= -1
        ad[("root", x)] = SparseMatrix.from_entries(len(ad), entries)
    fresh = StructureConstants(datum=sc.datum, n_pos=sc.n_pos, root_set=sc.root_set, norm2=sc.norm2)
    fresh.__dict__["ad"] = ad
    return fresh


def _mixed_sign_pair(sc):
    return next((a, b) for a in sc.datum.positive_roots for b in sc.root_set
                if sum(b) < 0 and tuple(x + y for x, y in zip(a, b)) in sc.root_set)


@pytest.mark.parametrize("name", ["B3", "G2", "F4"])
def test_a_mixed_sign_constant_that_breaks_the_chevalley_involution_is_caught(name):
    # Break N_{-a,-b} = -N_{a,b} for one pair a > 0 > b by negating [x_a, x_b]
    # in the table; the omega check sees that [x_{-a}, x_{-b}] no longer mirrors it.
    sc = structure_constants(datum(name))
    a, b = _mixed_sign_pair(sc)
    with pytest.raises(IntegrityError, match="involution does not preserve"):
        verify_jacobi(_table_with_negated_entries(sc, [(a, b)]))


@pytest.mark.parametrize("name", ["B3", "G2", "F4", "E6"])
def test_a_mixed_sign_constant_negated_with_its_omega_image_breaks_jacobi(name):
    # Negating [x_{-a}, x_{-b}] too keeps the table omega-equivariant, so only
    # the derivation check can see the fault.
    sc = structure_constants(datum(name))
    a, b = _mixed_sign_pair(sc)
    neg = lambda r: tuple(-x for x in r)
    with pytest.raises(IntegrityError, match="Jacobi identity fails"):
        verify_jacobi(_table_with_negated_entries(sc, [(a, b), (neg(a), neg(b))]))


def test_a_non_integral_norm_ratio_in_the_bracket_table_is_caught():
    # G2 with the long root (3, 1) given norm 4 instead of 6: the norm
    # relation then gives non-integral constants, |N_{(3,1),(-1,0)}| = 3 * 2 / 4.
    sc = structure_constants(datum("G2"))
    assert sc.norm2[(3, 1)] == sc.norm2[(-3, -1)] == 6
    norm2 = dict(sc.norm2)
    norm2[(3, 1)] = norm2[(-3, -1)] = 4
    broken = StructureConstants(datum=sc.datum, n_pos=sc.n_pos, root_set=sc.root_set, norm2=norm2)
    with pytest.raises(IntegrityError, match="is not a nonzero integer"):
        broken.ad


def test_exceptional_adjoint_matrices_match_their_recorded_digest():
    # Every entry of e_i, f_i, h_i and e_theta on the adjoint basis; a change
    # of sign convention or basis order changes the digest.
    digest = hashlib.sha256()
    for name in ["E6", "E7", "E8"]:
        rep = adjoint_rep(datum(name))
        for mat in rep.e + rep.f + rep.h + (rep.e_theta,):
            for (r, c) in sorted(mat.entries):
                digest.update(f"{name} {r} {c} {mat.entries[(r, c)]};".encode())
            digest.update(b"|")
    assert digest.hexdigest() == GOLDEN_ADJOINT_SHA256


def _ad_from_every_basis_pair(sc):
    """ad(b) for every adjoint basis element, scanning all dim^2 ordered basis pairs.

    Same basis order as StructureConstants.ad; column z of ad(b_y) holds
    [b_y, b_z], every root pair with a root sum through constant()."""
    d = sc.datum
    neg = lambda r: tuple(-x for x in r)
    ordered = sorted(d.positive_roots, key=lambda r: (-sum(r), r))
    basis = ([("root", r) for r in ordered] + [("cartan", i) for i in range(d.rank)]
             + [("root", neg(r)) for r in ordered])
    index = {b: i for i, b in enumerate(basis)}
    table = {}
    for kind, xi in basis:
        entries = {}
        for col, (bkind, eta) in enumerate(basis):
            if kind == "cartan":
                if bkind == "root":
                    entries[(col, col)] = d.weight_of_root(eta)[xi]
            elif bkind == "cartan":
                entries[(index[(kind, xi)], col)] = -d.weight_of_root(xi)[eta]
            elif not any(s := tuple(a + b for a, b in zip(xi, eta))):
                sign = 1 if sum(xi) > 0 else -1
                for j, c in enumerate(d.coroot_of[xi if sign > 0 else eta]):
                    entries[(index[("cartan", j)], col)] = sign * c
            elif s in sc.root_set:
                entries[(index[("root", s)], col)] = sc.constant(xi, eta)
        table[(kind, xi)] = SparseMatrix.from_entries(len(basis), entries)
    return table


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_bracket_table_matches_the_scan_over_every_basis_pair(name):
    sc = structure_constants(datum(name))
    oracle = _ad_from_every_basis_pair(sc)
    assert list(sc.ad) == list(oracle)
    assert sc.ad == oracle


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_n_pos_holds_exactly_the_positive_pairs_with_a_root_sum(name):
    d = datum(name)
    sc = structure_constants(d)
    expect = {(a, b) for a in d.positive_roots for b in d.positive_roots
              if tuple(x + y for x, y in zip(a, b)) in sc.root_set}
    assert set(sc.n_pos) == expect
