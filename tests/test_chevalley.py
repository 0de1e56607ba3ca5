from __future__ import annotations

import functools
import hashlib
import itertools
import operator
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from fghodge.character import adjoint_weight, irrep_character, weyl_dimension
from fghodge import chevalley
from fghodge.chevalley import (
    RepMatrices,
    _check_rep,
    _string_length,
    _weight_rep,
    adjoint_rep,
    classical_std_rep,
    jordan_type,
    StructureConstants,
    principal_triple,
    structure_constants,
    verify_jacobi,
)
from fghodge.errors import IntegrityError, ResourceLimitError, UsageError
from fghodge.cli import main
from fghodge.connection import integrability_residual, rmodule_pair
from fghodge.grading import JordanPartition, hodge_numbers, partition_from_grading, rho_grading
from fghodge.kkp import minuscule_nodes
from fghodge.linalg import SparseMatrix, graded_blocks
from fghodge.rootdatum import pair, std_weight
from conftest import ALL_TYPES, ALL_TYPES_RANK8, datum, fw
from oracles import (
    carter_structure_constants,
    diagonal,
    dump_triplets,
    graded_blocks_by_setdefault,
    rank_chain_blocks,
    serre_relations_hold,
    string_length,
    theta_chain_by_steps,
    to_dense,
    weight_of_root,
)


def constant(sc, x, y):
    """N_{x,y} for any roots x, y with x + y a root, by recursion from sc.n_pos.

    The oracle for every mixed-sign constant: the package writes them in
    closed form (StructureConstants.ad); this reaches them through the
    antisymmetry and the norm relation one step at a time.
    """
    neg = lambda r: tuple(-c for c in r)
    s = tuple(a + b for a, b in zip(x, y))
    if s not in sc.root_set:
        raise UsageError(f"{x} + {y} is not a root")
    xpos = sum(x) > 0
    ypos = sum(y) > 0
    if xpos and ypos:
        return sc.n_pos[(x, y)]
    if not xpos and not ypos:
        return -constant(sc, neg(x), neg(y))
    if not xpos:
        return -constant(sc, y, x)
    # x positive, y negative; gamma = x + y.
    mu = neg(y)
    gamma = s
    if sum(gamma) > 0:
        # triple (x, -mu, -gamma): N_{x,-mu} = (g,g)/(x,x) * N_{-mu,-g} = -(g,g)/(x,x) N_{mu,g}
        num, den = sc.norm2[gamma] * -constant(sc, mu, gamma), sc.norm2[x]
    else:
        # reduce to the previous case through N_{x,-mu} = N_{mu,-x}
        gp = neg(gamma)
        num, den = sc.norm2[gp] * -constant(sc, x, gp), sc.norm2[mu]
    val, rem = divmod(num, den)
    if rem or val == 0:
        raise IntegrityError(f"N_{x},{y} = {Fraction(num, den)} is not a nonzero integer")
    return val


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
    assert abs(constant(sc, a1, a2_)) == 1
    assert abs(constant(sc, a2_, (1, 1))) == 2


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
                val = constant(sc, a, neg(b))
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
        assert rep.basis_weights[0] == std_weight(datum(name)) == (1,) + (0,) * (int(name[1]) - 1)
    for name in ["E6", "F4", "G2"]:
        for build in (std_weight, classical_std_rep):
            with pytest.raises(UsageError, match=f"^no standard matrix model for {name}; "
                                                 "only A/B/C/D are built$"):
                build(datum(name))


def test_a_n_std_nilpotent_is_subdiagonal():
    rep = classical_std_rep(datum("A3"))
    n_mat = rep.f[0] + rep.f[1] + rep.f[2]
    assert n_mat.entries == {(1, 0): 1, (2, 1): 1, (3, 2): 1}
    assert rep.e_theta.entries == {(0, 3): 1}


def test_principal_triple_a1_std():
    tr = principal_triple(classical_std_rep(datum("A1")))
    assert to_dense(tr.N) == [[0, 0], [1, 0]]
    assert to_dense(tr.E) == [[0, 1], [0, 0]]
    assert to_dense(tr.RHO) == [[Fraction(-1, 2), 0], [0, Fraction(1, 2)]]
    assert tr._fields == ("datum", "N", "RHO", "E")


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
    # 2 RHO spectrum = rho-grading level multiset
    lam = fw(d, 1) if which == "std" else adjoint_weight(d)
    g = rho_grading(irrep_character(d, lam))
    spectrum = Counter(int(2 * tr.RHO.get(i, i)) for i in range(tr.N.dim))
    assert spectrum == Counter(g.dims)


def test_e_theta_is_highest():
    for name in ["A3", "B3", "C3", "D4", "G2"]:
        d = datum(name)
        for rep in ([classical_std_rep(d)] if d.stype.family in "ABCD" else []) + [adjoint_rep(d)]:
            for e_i in rep.e:
                assert rep.e_theta.commutator(e_i).is_zero()
            # e_theta raises by theta in the weight grading
            theta_wt = weight_of_root(d, d.theta)
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
    kostant = partition_from_grading(hodge_numbers(d, fw(d, 1)))
    assert jordan_type(principal_triple(rep).N) == kostant


def test_minuscule_cases_of_rank_at_most_8():
    assert len(MINUSCULE_RANK8) == 71
    assert {("E6", 1), ("E6", 6), ("E7", 7)} <= set(MINUSCULE_RANK8)


@pytest.mark.parametrize("name,node", MINUSCULE_RANK8)
def test_weight_rule_builds_every_minuscule_representation(name, node):
    d = datum(name)
    rep = _weight_rep(d, fw(d, node))
    _check_rep(rep)
    kostant = partition_from_grading(hodge_numbers(d, fw(d, node)))
    assert jordan_type(principal_triple(rep).N) == kostant


@pytest.mark.parametrize("name,node", [("A9", 5), ("B9", 9), ("B10", 10), ("D9", 8), ("D9", 9),
                                       ("D10", 9), ("D10", 10)])
def test_weight_rule_matches_kostant_at_rank_9_and_10(name, node):
    d = datum(name)
    rep = _weight_rep(d, fw(d, node))
    kostant = partition_from_grading(hodge_numbers(d, fw(d, node)))
    assert jordan_type(principal_triple(rep).N) == kostant


def test_weight_rule_refuses_a_weight_with_multiplicities():
    with pytest.raises(IntegrityError, match="multiplicity-free"):
        _weight_rep(datum("A2"), (1, 1))  # the zero weight of the adjoint has multiplicity 2


def test_weight_rule_builds_g2_first_fundamental():
    d = datum("G2")
    rep = _weight_rep(d, fw(d, 1))
    assert rep.dim == 7
    assert jordan_type(principal_triple(rep).N) == partition_from_grading(hodge_numbers(d, fw(d, 1)))


@pytest.mark.parametrize("name,lam", [("A2", (2, 0)), ("A3", (2, 0, 0)), ("C3", (0, 0, 1))])
def test_weight_rule_refuses_multiplicity_free_weights_it_cannot_build(name, lam):
    # every weight has multiplicity 1, yet e_i = 1 on every edge leaves f_2
    # path-dependent; the Chevalley-Serre check refuses instead of answering
    d = datum(name)
    assert len(irrep_character(d, lam).mult) == weyl_dimension(d, lam)
    with pytest.raises(IntegrityError, match=r"\[e_1, N\] != h_1"):
        _weight_rep(d, lam)


def _rho_by_fractions(d, weights) -> SparseMatrix:
    """RHO = diag(-<mu, rho^vee>) through the Fraction covector rho^vee =
    two_rho_covector / 2; an integral pairing is an int."""
    rho_cov = [Fraction(c, 2) for c in d.two_rho_covector]
    values = [-sum(m * c for m, c in zip(mu, rho_cov)) for mu in weights]
    return diagonal([int(v) if v.denominator == 1 else v for v in values])


def _value_types(m: SparseMatrix) -> dict:
    return {k: type(v) for k, v in m.entries.items()}


ALL_REPS_RANK8 = ([(name, None, "adjoint") for name in ALL_TYPES_RANK8]
                  + [(name, None, "std") for name in CLASSICAL_RANK8]
                  + [(name, node, "minuscule") for name, node in MINUSCULE_RANK8])


def _rep(name, node, which):
    d = datum(name)
    if which == "minuscule":
        return _weight_rep(d, fw(d, node))
    return adjoint_rep(d) if which == "adjoint" else classical_std_rep(d)


@pytest.mark.parametrize("name,node,which", ALL_REPS_RANK8)
def test_rho_on_ints_matches_the_fraction_covector(name, node, which):
    d = datum(name)
    rep = _rep(name, node, which)
    tr = principal_triple(rep)
    expect = _rho_by_fractions(d, rep.basis_weights)
    assert tr.RHO == expect and _value_types(tr.RHO) == _value_types(expect)


@pytest.mark.parametrize("name,node,which", ALL_REPS_RANK8)
def test_the_level_sweep_gives_the_rank_chain_blocks(name, node, which):
    n = principal_triple(_rep(name, node, which)).N
    blocks = graded_blocks(n)
    assert blocks is not None and blocks == graded_blocks_by_setdefault(n)
    assert jordan_type(n) == JordanPartition(tuple(blocks)) == JordanPartition(rank_chain_blocks(n))


# -- x_theta: the root-string chain against the bracket table --

def _theta_through_the_bracket_table(d, e):
    """x_theta on the representation with simple generators e, every root
    vector x_gamma = [e_i, x_{gamma-alpha_i}] / N_{alpha_i, gamma-alpha_i}
    with N read through constant() off the certified bracket table; every
    decomposition of gamma must give the same matrix."""
    sc = structure_constants(d)
    x = dict(zip(d.simple_roots, e))
    for gamma in d.positive_roots:  # by height, so every x_delta is built first
        if gamma in x:
            continue
        built = []
        for i, a in enumerate(d.simple_roots):
            delta = tuple(p - q for p, q in zip(gamma, a))
            if delta in x:
                built.append(e[i].commutator(x[delta]).scale(Fraction(1, constant(sc, a, delta))))
        assert built and all(m == built[0] for m in built[1:]), gamma
        x[gamma] = built[0]
    return x[d.theta]


@pytest.mark.parametrize("name,node", [(name, None) for name in CLASSICAL_RANK8] + MINUSCULE_RANK8)
def test_e_theta_matches_the_bracket_table(name, node):
    d = datum(name)
    rep = classical_std_rep(d) if node is None else _weight_rep(d, fw(d, node))
    assert rep.e_theta == _theta_through_the_bracket_table(d, rep.e)


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_every_theta_chain_step_is_an_extraspecial_pair(name, monkeypatch):
    # On the adjoint module the chain must rebuild ad x_theta itself, and each
    # step (alpha_i, delta) it takes must carry N = +(p+1) in the bracket table.
    d = datum(name)
    sc = structure_constants(d)
    rep = adjoint_rep(d)  # built before the steps are recorded
    root_of = chevalley._root_codes(d)  # the chain walks positive root codes
    steps = []

    def recorded(codes, a, b):
        p = _string_length(codes, a, b)
        steps.append((root_of[a], root_of[b], p))
        return p

    monkeypatch.setattr(chevalley, "_string_length", recorded)
    assert chevalley._theta_matrix(d, rep.e) == sc.ad[("root", d.theta)]
    assert len(steps) == d.coxeter - 2  # one step per height from 2 up to h - 1
    for a, delta, p in steps:
        assert a in d.simple_roots
        assert sc.n_pos[(a, delta)] == p + 1
        assert p == string_length(sc.root_set, a, delta)


@pytest.mark.parametrize("name", CLASSICAL_RANK8)
def test_e_theta_is_integral_except_the_halves_of_b(name):
    entries = classical_std_rep(datum(name)).e_theta.entries.values()
    if name[0] == "B":
        assert all(type(v) is Fraction and abs(v) == Fraction(1, 2) for v in entries)
    else:
        assert all(type(v) is int for v in entries)


WEIGHT_REPS = ([(name, None) for name in ALL_TYPES if name[0] in "ABCD"] + MINUSCULE_RANK8)


def _weight_path_rep(name, node):
    d = datum(name)
    return classical_std_rep(d) if node is None else _weight_rep(d, fw(d, node))


@pytest.mark.parametrize("name,node", WEIGHT_REPS)
def test_the_weight_path_writes_canonical_matrices(name, node):
    # e, f and h are written as is, without from_entries: each must still
    # hold no zero, no Fraction with denominator 1 and no index out of range
    rep = _weight_path_rep(name, node)
    for m in (*rep.e, *rep.f, *rep.h, rep.e_theta):
        assert m.dim == rep.dim
        for (r, c), v in m.entries.items():
            assert 0 <= r < m.dim and 0 <= c < m.dim
            assert v != 0 and (type(v) is int or (type(v) is Fraction and v.denominator != 1))


@pytest.mark.parametrize("name,node", WEIGHT_REPS)
def test_the_one_denominator_chain_is_the_chain_divided_at_each_step(name, node):
    rep = _weight_path_rep(name, node)
    want = theta_chain_by_steps(rep.datum, rep.e)
    got = chevalley._theta_matrix(rep.datum, rep.e)
    assert got == want == rep.e_theta and _value_types(got) == _value_types(want)


@pytest.mark.parametrize("name", [name for name in ALL_TYPES if name[0] in "CD"])
def test_the_c_and_d_chains_make_no_fraction(name, fractions_made):
    d = datum(name)
    e_theta = chevalley._theta_matrix(d, classical_std_rep(d).e)
    assert fractions_made == []
    assert all(type(v) is int for v in e_theta.entries.values())


def test_a_doubled_e_theta_passes_every_runtime_check_but_not_the_bracket_table():
    for rep in (classical_std_rep(datum("B3")), adjoint_rep(datum("B3")), adjoint_rep(datum("G2"))):
        d = rep.datum
        assert rep.e_theta == _theta_through_the_bracket_table(d, rep.e)
        doubled = rep._replace(e_theta=rep.e_theta.scale(2))
        _check_rep(doubled)
        triple = principal_triple(doubled)
        assert integrability_residual(*rmodule_pair(triple, d.coxeter)).is_zero()
        assert doubled.e_theta != _theta_through_the_bracket_table(d, doubled.e)


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_adjoint_e_theta_has_the_scale_of_the_bracket_table(name):
    # the chain's x_theta must be the table's own ad x_theta, entry for entry
    # and value type for value type: no runtime check sees its scale
    d = datum(name)
    table = structure_constants(d).ad[("root", d.theta)]
    e_theta = adjoint_rep(d).e_theta
    assert e_theta == table and _value_types(e_theta) == _value_types(table)


# -- the adjoint's x_theta: the raising tree from x_{-theta} --

@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_the_trees_x_theta_is_the_chains_and_the_tables(name):
    d = datum(name)
    rep = adjoint_rep(d)
    for other in (chevalley._theta_matrix(d, rep.e), structure_constants(d).ad[("root", d.theta)]):
        assert rep.e_theta == other and _value_types(rep.e_theta) == _value_types(other)


def test_the_adjoint_builds_x_theta_without_the_chain(monkeypatch, capsys):
    # the chain stays the route of the weight representations, which have no bracket
    def refuse(*args):
        raise AssertionError("built x_theta along the chain")

    monkeypatch.setattr(chevalley, "_theta_matrix", refuse)
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        assert adjoint_rep(d).e_theta.nnz > 0
    assert main(["verify", "--type", "E8", "--rep", "adjoint"]) == 0
    assert capsys.readouterr() == ("PASS E8 adjoint: flatness residual is the zero matrix\n", "")
    with pytest.raises(AssertionError, match="along the chain"):
        classical_std_rep(datum("B3"))
    g2 = datum("G2")
    with pytest.raises(AssertionError, match="along the chain"):
        _weight_rep(g2, fw(g2, 1))


def test_the_e8_adjoint_forms_only_the_commutators_of_its_certificate(monkeypatch):
    # _check_rep's 8 + 8; the tree, the Cartan-column check and the
    # principal triple form none
    calls = []
    commutator = SparseMatrix.commutator

    def counted(self, other):
        calls.append(other)
        return commutator(self, other)

    monkeypatch.setattr(SparseMatrix, "commutator", counted)
    rep = adjoint_rep(datum("E8"))
    assert len(calls) == 16
    calls.clear()
    principal_triple(rep)
    assert calls == []


def _adjoint_with_seed(name, seed):
    """A copy of the datum with theta^vee replaced by seed, and the adjoint
    that adjoint_rep builds on it before its checks: x_theta from
    [x_theta, x_{-theta}] = seed (in the h_j)."""
    d = datum(name)
    bad = d._replace(coroot_of={**d.coroot_of, d.theta: seed})
    columns = chevalley._ad_columns(bad, *chevalley._carter_constants(bad, full=False), full=False)
    return bad, chevalley._adjoint_generators(bad, *columns)


@pytest.mark.parametrize("name,seed", [("B3", (1, 1, 1)), ("G2", (1, 1)), ("G2", (0, 1)),
                                       ("E6", (1, 2, 2, 3, 2, 0))])
def test_a_seed_off_the_coroot_line_is_refused(name, seed):
    # off the line of theta^vee, X is no highest-weight vector of End V
    d, _ = _adjoint_with_seed(name, seed)
    with pytest.raises(IntegrityError, match=r"\[e_theta, e_\d\] != 0"):
        adjoint_rep(d)


def test_only_the_cartan_columns_refuse_the_symmetric_part_on_a3():
    # On A_n, n >= 2, End g holds a second weight-theta highest-weight vector,
    # the symmetric product: the seed (-1, 0, 1) gives one that commutes with
    # every e_i, and only the Cartan-column check sees that it is not ad x_theta
    d, rep = _adjoint_with_seed("A3", (-1, 0, 1))
    _check_rep(rep)
    assert all(rep.e_theta.commutator(e_i).is_zero() for e_i in rep.e)
    with pytest.raises(IntegrityError, match=r"adjoint\(A3\): e_theta h_3 is not"):
        adjoint_rep(d)
    d, _ = _adjoint_with_seed("A3", (1, 1, 1))  # theta^vee itself
    assert adjoint_rep(d).e_theta == structure_constants(d).ad[("root", d.theta)]


@pytest.mark.parametrize("name", ["A1", "B3", "G2", "E6"])
def test_the_tree_refuses_generators_that_do_not_reach_every_basis_vector(name):
    # [e_1, f_1] = h_1 is the only edge into h_1: without it x_theta has no
    # column h_1, and on A1 none at e_1 either, which only h_1 reaches
    d = datum(name)
    basis, weights, gens = chevalley._ad_columns(d, *chevalley._carter_constants(d, full=False),
                                                 full=False)
    a = d.simple_roots[0]
    e1 = ("root", a)
    entries = dict(gens[e1].entries)
    del entries[(basis.index(("cartan", 0)), basis.index(("root", tuple(-x for x in a))))]
    gens = {**gens, e1: SparseMatrix.from_entries(len(basis), entries)}
    reached = 1 if name == "A1" else len(basis) - 1
    with pytest.raises(IntegrityError, match=f"reach {reached} of {len(basis)} basis elements"):
        chevalley._adjoint_generators(d, basis, weights, gens)


@pytest.mark.parametrize("name,which", [("A3", "std"), ("B3", "std"), ("B3", "adjoint"),
                                        ("G2", "adjoint")])
def test_principal_triple_refuses_an_entry_off_its_level(name, which):
    # principal_triple runs no check: _check_rep's grading of f_j and e_theta
    # implies its two identities, so _check_rep refuses such an entry, and
    # the flatness residual sees it again
    d = datum(name)
    rep = classical_std_rep(d) if which == "std" else adjoint_rep(d)
    principal_triple(rep)
    for matrix, message in (("f", "f_1 breaks the weight grading"),
                            ("e_theta", "e_theta breaks the weight grading")):
        old = rep.f[0] if matrix == "f" else rep.e_theta
        (r, c), v = sorted(old.entries.items())[0]
        moved = dict(old.entries)
        del moved[(r, c)]
        moved[(c, r)] = v  # the level difference changes sign
        if matrix == "f":
            broken = _with_generator(rep, "f", 0, moved)
        else:
            broken = rep._replace(e_theta=SparseMatrix.from_entries(rep.dim, moved))
        with pytest.raises(IntegrityError, match=message):
            _check_rep(broken)
        triple = principal_triple(broken)
        assert not integrability_residual(*rmodule_pair(triple, d.coxeter)).is_zero()


# -- the adjoint's certificate: Chevalley-Serre on the generators, no Jacobi tree --

def _sign_conjugation(rep, ref):
    """The signs s_k = +-1 with s_r s_c x[r, c] = x'[r, c] on every generator and
    on x_theta of rep and ref, or None when no such diagonal conjugation exists."""
    pairs = list(zip(rep.e + rep.f + rep.h + (rep.e_theta,), ref.e + ref.f + ref.h + (ref.e_theta,)))
    edges = defaultdict(list)
    for m, m_ref in pairs:
        for (r, c), v in m.entries.items():
            sign = 1 if (v > 0) == (m_ref.get(r, c) > 0) else -1
            edges[r].append((c, sign))
            edges[c].append((r, sign))
    s: dict[int, int] = {}
    for start in range(rep.dim):
        if start not in s:
            s[start] = 1
            stack = [start]
            while stack:
                r = stack.pop()
                for c, sign in edges[r]:
                    if c not in s:
                        s[c] = s[r] * sign
                        stack.append(c)
    for m, m_ref in pairs:
        if m.dim != m_ref.dim or SparseMatrix.from_entries(
                m.dim, {(r, c): s[r] * s[c] * v for (r, c), v in m.entries.items()}) != m_ref:
            return None
    return s


# (corruptions of the N_{alpha_i,beta} that pass adjoint_rep's certificate, corruptions tried)
SIGN_REBASINGS = {"A3": (0, 12), "B3": (1, 20), "C3": (1, 20), "G2": (5, 10),
                  "D4": (1, 32), "F4": (3, 68), "E6": (2, 120)}


@pytest.mark.parametrize("name", list(SIGN_REBASINGS))
def test_a_corrupted_generator_constant_is_refused_or_only_rebases_signs(name, monkeypatch):
    # Scale N_{alpha_i,beta} and N_{beta,alpha_i} by -1 or 2 in the
    # generator-only constants and certify the adjoint from them as the verify
    # path does.  A corruption that passes must be the true adjoint in a basis
    # with some x_gamma negated.  x_theta is built from [x_theta, x_{-theta}]
    # = theta^vee, not as a Lie polynomial in the e_i, so it is the conjugate
    # of the true one times s[x_{-theta}] s[h].
    d = datum(name)
    positive, n_code, norm = chevalley._carter_constants(d, full=False)
    simple = set(list(positive)[:d.rank])  # the simple roots lead the codes
    true = adjoint_rep(d)
    assert set(_sign_conjugation(true, true).values()) == {1}
    assert _sign_conjugation(true._replace(e_theta=true.e_theta.scale(2)), true) is None
    blocks = jordan_type(principal_triple(true).N)
    cartan = len(d.positive_roots)
    lowest = cartan + d.rank  # x_{-theta}: theta leads the positive roots
    zero = SparseMatrix.zero(true.dim)
    keys = [(a, b) for a, b in n_code if a in simple]
    passed = 0
    for a, b in keys:
        for factor in (-1, 2):
            broken = dict(n_code)
            broken[(a, b)] *= factor
            broken[(b, a)] *= factor
            monkeypatch.setattr(chevalley, "_carter_constants",
                                lambda datum_, full: (positive, broken, norm))
            try:
                rep = adjoint_rep(d)
            except IntegrityError:
                continue
            passed += 1
            assert factor == -1, (a, b)
            assert rep.e != true.e or rep.f != true.f
            s = _sign_conjugation(rep._replace(e_theta=zero), true._replace(e_theta=zero))
            assert s is not None, (a, b)
            sign = s[lowest] * s[cartan]
            expect = SparseMatrix(true.dim, {(r, c): sign * s[r] * s[c] * v
                                             for (r, c), v in true.e_theta.entries.items()})
            assert rep.e_theta == expect and _value_types(rep.e_theta) == _value_types(expect), (a, b)
            triple = principal_triple(rep)
            assert jordan_type(triple.N) == blocks
            assert integrability_residual(*rmodule_pair(triple, d.coxeter)).is_zero()
    assert (passed, 2 * len(keys)) == SIGN_REBASINGS[name]


def test_the_verify_path_runs_no_jacobi_check(monkeypatch, capsys):
    # nor does it build the bracket table or derive the whole table of
    # constants: the adjoint writes its generators alone, from their constants
    def refuse(*args):
        raise AssertionError("the verify path ran a Jacobi check or built a whole table")

    monkeypatch.setattr(chevalley, "verify_jacobi", refuse)
    monkeypatch.setattr(chevalley, "_check_derivation", refuse)
    monkeypatch.setattr(StructureConstants, "ad", property(refuse))
    monkeypatch.setattr(chevalley, "structure_constants", refuse)
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        assert adjoint_rep(d).dim == 2 * len(d.positive_roots) + d.rank
    built = []
    real = chevalley.adjoint_rep
    monkeypatch.setattr(chevalley, "adjoint_rep", lambda d: built.append(str(d.stype)) or real(d))
    assert main(["verify", "--type", "E8", "--rep", "adjoint"]) == 0
    assert capsys.readouterr() == ("PASS E8 adjoint: flatness residual is the zero matrix\n", "")
    assert built == ["E8"]
    # no rank guard on the adjoint: A9 builds and passes, still with no table
    assert main(["verify", "--type", "A9", "--rep", "adjoint"]) == 0
    assert capsys.readouterr() == ("PASS A9 adjoint: flatness residual is the zero matrix\n", "")


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_the_generator_only_constants_are_the_table_on_pairs_with_a_simple_root(name):
    # The Carter recursion over the special pairs with a simple first root
    # derives exactly the table's constants on the pairs with a simple root:
    # same keys in the same order, same values, all ints; on root codes, with
    # the same codes and norms as the whole recursion and the decoded table
    d = datum(name)
    positive, gen, norm = chevalley._carter_constants(d, full=False)
    whole = chevalley._carter_constants(d, full=True)
    simple = set(list(positive)[:d.rank])
    expect = [(k, v) for k, v in whole[1].items() if simple & set(k)]
    assert list(gen.items()) == expect
    assert {type(v) for v in gen.values()} <= {int}
    assert (list(positive.items()), list(norm.items())) == (list(whole[0].items()), list(whole[2].items()))
    assert list(positive.values()) == list(d.positive_roots)
    sc = structure_constants(d)
    code = {r: c for c, r in positive.items()}
    code |= {tuple(-x for x in r): -c for r, c in code.items()}
    assert list(whole[1].items()) == [((code[a], code[b]), v) for (a, b), v in sc.n_pos.items()]
    assert list(norm.items()) == [(code[r], v) for r, v in sc.norm2.items()]
    assert set(norm) == {code[r] for r in sc.root_set}
    if name == "E8":
        assert (len(gen), len(whole[1])) == (434, 2240)


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_the_generator_build_writes_the_bracket_tables_generator_columns(name):
    # adjoint_rep writes ad e_i and ad f_i from the generator-only constants
    # without the rest of the table; each must be the table's own column,
    # entry for entry and value type for value type.  ad h_i is not written:
    # the table's Cartan columns must be the h_i derived from the weights
    d = datum(name)
    sc = structure_constants(d)
    basis, weights, gens = chevalley._ad_columns(d, *chevalley._carter_constants(d, full=False),
                                                 full=False)
    assert basis == list(sc.ad)
    assert list(gens) == [b for b in sc.ad if b in gens] and len(gens) == 2 * d.rank
    assert {kind for kind, _ in gens} == {"root"}
    for b, m in gens.items():
        assert m == sc.ad[b] and _value_types(m) == _value_types(sc.ad[b]), b
    rep, table = (chevalley._adjoint_generators(d, basis, weights, gens),
                  chevalley._adjoint_generators(d, basis, weights, sc.ad))
    assert rep._replace(e_theta=None) == table._replace(e_theta=None)
    cartan = tuple(sc.ad[("cartan", i)] for i in range(d.rank))
    assert rep.h == cartan and list(map(_value_types, rep.h)) == list(map(_value_types, cartan))
    assert rep == adjoint_rep(d)


@pytest.mark.parametrize("name,node,which", ALL_REPS_RANK8)
def test_every_certified_representation_satisfies_the_serre_relations(name, node, which):
    # _check_rep forms no Serre commutator; the oracle forms them all
    assert serre_relations_hold(_rep(name, node, which))


def _single_entry_faults(rep, rng, count):
    """count seeded faults of rep, each in one entry of one e_j or f_j: the
    entry scaled by 2, negated, or moved to another place of the same weights
    (another row or column of equal weight, else another row)."""
    weights = rep.basis_weights
    for _ in range(count):
        which, j = rng.choice("ef"), rng.randrange(rep.datum.rank)
        mat = (rep.e if which == "e" else rep.f)[j]
        (r, c), v = rng.choice(sorted(mat.entries.items()))
        kind = rng.choice(("scale", "negate", "move"))
        entries = dict(mat.entries)
        if kind == "move":
            del entries[(r, c)]
            places = ([(k, c) for k in range(rep.dim) if k != r and weights[k] == weights[r]]
                      + [(r, k) for k in range(rep.dim) if k != c and weights[k] == weights[c]])
            entries[rng.choice(places or [(k, c) for k in range(rep.dim) if k != r])] = v
        else:
            entries[(r, c)] = v * (2 if kind == "scale" else -1)
        yield _with_generator(rep, which, j, entries)


# (refused and breaking Serre, refused with Serre intact, passed) of 150 faults each
SERRE_FAULTS = {"A2": (150, 0, 0), "B3": (144, 6, 0), "G2": (112, 38, 0), "D4": (150, 0, 0),
                "F4": (140, 10, 0), "E6 V(omega_1)": (129, 21, 0)}


@pytest.mark.parametrize("name", list(SERRE_FAULTS))
def test_every_fault_the_check_passes_satisfies_the_serre_relations(name):
    # The Serre loop is gone from _check_rep because its other checks imply
    # the relations: a fault that passes may not break them.  None passes
    # here, and most of those refused break the relations, which the
    # [e_i, f_j], grading and h checks caught without them.
    d = datum(name[:2])
    rep = _weight_rep(d, fw(d, 1)) if "V" in name else adjoint_rep(d)
    tally = Counter()
    for broken in _single_entry_faults(rep, random.Random(1709), 150):
        holds = serre_relations_hold(broken)
        try:
            _check_rep(broken)
        except IntegrityError:
            tally[holds] += 1
            continue
        assert holds
        tally["passed"] += 1
    assert (tally[False], tally[True], tally["passed"]) == SERRE_FAULTS[name], tally


def _moved(m, old, new):
    """m with its entry at old moved to new."""
    entries = dict(m.entries)
    entries[new] = entries.pop(old)
    return SparseMatrix(m.dim, entries)


@pytest.mark.parametrize("name,which", [("B3", "std"), ("G2", "weight"), ("E8", "adjoint")])
def test_the_weight_codes_refuse_an_entry_moved_to_a_wrong_weight_row(name, which):
    # G2's Cartan entry -3 is the largest in absolute value; for every j one
    # entry of e_j and one of f_j goes to the first row of another weight,
    # and so does one entry of e_theta, graded by theta
    d = datum(name)
    rep = {"std": classical_std_rep, "adjoint": adjoint_rep}.get(which, lambda d: _weight_rep(d, fw(d, 1)))(d)
    weights = rep.basis_weights
    _check_rep(rep)
    for j in range(d.rank):
        for kind in ("e", "f"):
            mats = list(getattr(rep, kind))
            (r, c) = min(mats[j].entries)
            to = next(k for k in range(rep.dim) if weights[k] != weights[r] and (k, c) not in mats[j].entries)
            mats[j] = _moved(mats[j], (r, c), (to, c))
            with pytest.raises(IntegrityError, match=rf"{kind}_{j + 1} breaks the weight grading"):
                _check_rep(rep._replace(**{kind: tuple(mats)}))
    (r, c) = min(rep.e_theta.entries)
    to = next(k for k in range(rep.dim) if weights[k] != weights[r] and (k, c) not in rep.e_theta.entries)
    with pytest.raises(IntegrityError, match="e_theta breaks the weight grading"):
        _check_rep(rep._replace(e_theta=_moved(rep.e_theta, (r, c), (to, c))))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_theta_has_weight_entries_in_0_to_2(name):
    # the premise of _check_rep's proof that base 2M + 7 grades e_theta:
    # the digits of w_c + theta stay within M + 3
    d = datum(name)
    assert all(0 <= x <= 2 for x in d.root_weights[d.theta])


def test_the_weight_codes_separate_digits_that_collide_in_base_2m_plus_1():
    # Declared weights (0, 0) and (-1, 0) on A2, M = 1: an e_1 entry from the
    # first to the second leaves w_r - w_c - alpha_1 = (-3, 1), which codes to
    # -3 + 3 = 0 in base 2M + 1 = 3 and to -3 + 9 in base 2M + 7 = 9
    d = datum("A2")
    weights = ((0, 0), (-1, 0))
    zero = SparseMatrix.zero(2)
    rep = RepMatrices(datum=d, basis_weights=weights, e=(zero, zero), f=(zero, zero),
                      e_theta=zero, name="toy")
    moved_up = SparseMatrix.from_entries(2, {(1, 0): 1})
    with pytest.raises(IntegrityError, match="toy: e_1 breaks the weight grading"):
        _check_rep(rep._replace(e=(moved_up, zero)))
    with pytest.raises(IntegrityError, match="toy: f_1 breaks the weight grading"):
        _check_rep(rep._replace(f=(SparseMatrix.from_entries(2, {(0, 1): 1}), zero)))


def test_check_rep_forms_n_squared_plus_n_commutators(monkeypatch):
    # [e_i, N] and [e_theta, e_i] for every i: 16 on E8, where the n^2
    # commutators [e_i, f_j] made 72; no Serre commutator
    rep = adjoint_rep(datum("E8"))
    calls = []
    commutator = SparseMatrix.commutator

    def counted(self, other):
        calls.append(other)
        return commutator(self, other)

    monkeypatch.setattr(SparseMatrix, "commutator", counted)
    _check_rep(rep)
    assert len(calls) == 8 + 8 == 16


def test_standard_and_minuscule_reps_build_no_lie_algebra(monkeypatch):
    def refuse(datum_):
        raise AssertionError(f"built the bracket table of {datum_.stype}")

    def carter(datum_, full):
        if full:
            raise AssertionError(f"derived the whole table of {datum_.stype}")
        return real_carter(datum_, full)

    real_carter = chevalley._carter_constants
    monkeypatch.setattr(chevalley, "structure_constants", refuse)
    monkeypatch.setattr(chevalley, "_carter_constants", carter)
    for name in ["B8", "C8", "D8"]:
        d = datum(name)
        kostant = partition_from_grading(hodge_numbers(d, fw(d, 1)))
        assert jordan_type(principal_triple(classical_std_rep(d)).N) == kostant
    e7 = datum("E7")
    kostant = partition_from_grading(hodge_numbers(e7, fw(e7, 7)))
    assert jordan_type(principal_triple(_weight_rep(e7, fw(e7, 7))).N) == kostant


def _with_generator(rep, which, i, entries):
    generators = {"e": rep.e, "f": rep.f}
    mats = list(generators[which])
    mats[i] = SparseMatrix.from_entries(rep.dim, entries)
    generators[which] = tuple(mats)
    return RepMatrices(datum=rep.datum, basis_weights=rep.basis_weights,
                       e_theta=rep.e_theta, name=rep.name, **generators)


def test_check_rep_catches_a_wrong_coefficient_on_the_short_string():
    # B3 std: f_3 is 2, 2 on the string through the zero weight; make one of them 1.
    rep = classical_std_rep(datum("B3"))
    entries = dict(rep.f[2].entries)
    key = next(k for k, v in sorted(entries.items()) if v == 2)
    entries[key] = 1
    with pytest.raises(IntegrityError, match=r"\[e_3, N\] != h_3"):
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


def test_verify_jacobi_catches_an_off_diagonal_cartan_entry(monkeypatch):
    # h_i is derived from the weights, so an off-diagonal entry can live only
    # in a bracket table: [h_1, b_1] gains a term in b_0 = x_theta.  Alone it
    # breaks the involution; with its omega image the derivation check sees
    # it, and without the derivation checks step 4 names it.
    sc = structure_constants(datum("B3"))
    index = {b: i for i, b in enumerate(sc.ad)}
    omega = tuple(index[("root", tuple(-x for x in r))] for _, r in list(sc.ad)[:2])
    h1 = ("cartan", 0)
    fault, mirror = {(0, 1): 1}, {omega: -1}
    for entries, message in ((fault, "involution does not preserve"),
                             (fault | mirror, "Jacobi identity fails")):
        ad = dict(sc.ad)
        ad[h1] = SparseMatrix.from_entries(len(ad), dict(ad[h1].entries) | entries)
        with pytest.raises(IntegrityError, match=message):
            verify_jacobi(_with_table(sc, ad))
    monkeypatch.setattr(chevalley, "_check_derivation", lambda *args: None)
    with pytest.raises(IntegrityError, match=r"adjoint\(B3\): h_1 disagrees with basis weights"):
        verify_jacobi(_with_table(sc, ad))


def test_check_rep_catches_an_f_entry_at_a_wrong_weight():
    # A3 std: move the one entry of f_2 to another row of its column.
    rep = classical_std_rep(datum("A3"))
    ((r, c), v), = rep.f[1].entries.items()
    moved = next(k for k in range(rep.dim) if k not in (r, c))
    with pytest.raises(IntegrityError, match="f_2 breaks the weight grading"):
        _check_rep(_with_generator(rep, "f", 1, {(moved, c): v}))


@pytest.mark.parametrize("which", ["e", "f", "e_theta"])
@pytest.mark.parametrize("step", [1, -1])
def test_check_rep_refuses_a_generator_of_the_wrong_size(which, step):
    # A2 std: one generator a row and column larger or smaller than the 3
    # basis weights, its entries kept where they fit; a larger one also gets
    # an entry in its extra row, which has no weight
    rep = classical_std_rep(datum("A2"))
    old = rep.e_theta if which == "e_theta" else getattr(rep, which)[0]
    dim = rep.dim + step
    entries = {k: v for k, v in old.entries.items() if max(k) < dim}
    resized = SparseMatrix.from_entries(dim, entries | ({(rep.dim, 0): 1} if step > 0 else {}))
    if which == "e_theta":
        broken, label = rep._replace(e_theta=resized), "e_theta"
    else:
        broken, label = rep._replace(**{which: (resized, *getattr(rep, which)[1:])}), f"{which}_1"
    with pytest.raises(IntegrityError, match=rf"V\(1,0\) of A2: {label} is {dim}x{dim} on 3 basis weights"):
        _check_rep(broken)


def test_check_rep_refuses_an_e_i_n_that_misses_the_diagonal():
    # f_1 = 0 passes the grading, and [e_1, N] = [e_1, f_2] = 0 has no entry
    # to compare: only the count of entries against the nonzero pairings sees it
    rep = classical_std_rep(datum("A2"))
    with pytest.raises(IntegrityError, match=r"\[e_1, N\] != h_1"):
        _check_rep(rep._replace(f=(SparseMatrix.zero(rep.dim), rep.f[1])))


@pytest.mark.parametrize("fault", ["moved", "dropped", "scaled"])
def test_check_rep_reads_each_entry_of_e_i_n_against_the_weights(fault, monkeypatch):
    # B3 std with one entry (k, k) of [e_1, N] moved to (k, k + 1) with its
    # value (the count and every value still match the pairings), dropped,
    # or doubled; the commutator is patched so that no other check sees it
    rep = classical_std_rep(datum("B3"))
    commutator = SparseMatrix.commutator

    def faulty(self, other):
        out = commutator(self, other)
        if self is rep.e[0] and other is rep.N:
            entries = dict(out.entries)
            (k, _), v = min(entries.items())
            del entries[(k, k)]
            if fault == "moved":
                entries[(k, k + 1)] = v
            elif fault == "scaled":
                entries[(k, k)] = 2 * v
            out = SparseMatrix(out.dim, entries)
        return out

    monkeypatch.setattr(SparseMatrix, "commutator", faulty)
    with pytest.raises(IntegrityError, match=r"\[e_1, N\] != h_1"):
        _check_rep(rep)


def test_check_rep_refuses_a_wrong_generator_count_or_dimension():
    rep = classical_std_rep(datum("A2"))
    for broken in (rep._replace(e=rep.e[:1]), rep._replace(f=rep.f + rep.f[:1])):
        with pytest.raises(IntegrityError, match="on 3 basis weights of rank 2"):
            _check_rep(broken)
    # dim is the number of basis weights, not a field a rep could get wrong
    assert "dim" not in RepMatrices._fields and rep.dim == len(rep.basis_weights) == 3
    with pytest.raises(ValueError, match="'dim'"):
        rep._replace(dim=4)


def test_rep_matrices_refuse_an_h_argument():
    # h is derived from the basis weights: there is no field to pass it in
    rep = classical_std_rep(datum("A2"))
    assert "h" not in RepMatrices._fields
    with pytest.raises(TypeError, match="'h'"):
        RepMatrices(datum=rep.datum, basis_weights=rep.basis_weights, e=rep.e, f=rep.f,
                    h=rep.h, e_theta=rep.e_theta)


@pytest.mark.parametrize("name,node,which", ALL_REPS_RANK8)
def test_h_is_the_diagonal_of_the_basis_weights(name, node, which):
    rep = _rep(name, node, which)
    expect = tuple(diagonal([w[i] for w in rep.basis_weights]) for i in range(rep.datum.rank))
    assert rep.h == expect and list(map(_value_types, rep.h)) == list(map(_value_types, expect))
    assert all(m.dim == rep.dim for m in rep.h)


def test_a_certify_op_reads_no_h(monkeypatch, capsys):
    # the certificate checks [e_i, N] against the weights themselves
    def refuse(self):
        raise AssertionError("read RepMatrices.h")

    monkeypatch.setattr(RepMatrices, "h", property(refuse))
    for name, build in (("E8", adjoint_rep), ("B8", classical_std_rep)):
        d = datum(name)
        triple = principal_triple(build(d))
        assert jordan_type(triple.N).blocks
        assert integrability_residual(*rmodule_pair(triple, d.coxeter)).is_zero()
    assert main(["verify", "--type", "E8", "--rep", "adjoint"]) == 0
    assert capsys.readouterr() == ("PASS E8 adjoint: flatness residual is the zero matrix\n", "")
    with pytest.raises(AssertionError, match="read RepMatrices.h"):
        classical_std_rep(datum("B8")).h


def _summed(f):
    """rep.N of a representation whose f_j are f (N reads nothing else)."""
    return RepMatrices(datum=None, basis_weights=(), e=(), f=tuple(f), e_theta=None).N


@pytest.mark.parametrize("f", [
    [{(1, 0): 1, (2, 1): 2}, {(2, 1): -2, (3, 2): 5}],  # (2, 1) cancels
    [{(1, 0): 1}, {(1, 0): -1}],  # the whole sum cancels to zero
    [{(1, 0): Fraction(1, 2)}, {(1, 0): Fraction(1, 2), (2, 1): Fraction(1, 3)}],  # denominator 1
    [{(1, 0): 1}, {(1, 0): Fraction(1, 3)}, {(1, 0): Fraction(-1, 3), (2, 0): Fraction(2, 3)}],
    [{(3, 2): Fraction(-7, 4)}],
])
def test_the_one_pass_n_is_the_sum_of_the_f_j(f):
    mats = [SparseMatrix.from_entries(4, entries) for entries in f]
    got, want = _summed(mats), functools.reduce(operator.add, mats)
    assert got == want and _value_types(got) == _value_types(want)


def test_the_one_pass_n_matches_the_sum_on_random_int_and_fraction_mixes():
    rng = random.Random(2027)
    values = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)]
    for _ in range(300):
        mats = [SparseMatrix.from_entries(3, {(rng.randrange(3), rng.randrange(3)): rng.choice(values)
                                              for _ in range(rng.randrange(5))})
                for _ in range(rng.randrange(1, 5))]
        got, want = _summed(mats), functools.reduce(operator.add, mats)
        assert got == want and _value_types(got) == _value_types(want)


def test_the_one_pass_n_refuses_different_dimensions():
    for dims in ((3, 4), (3, 3, 2)):
        mats = [SparseMatrix.from_entries(d, {(1, 0): 1}) for d in dims]
        for total in (_summed, lambda f: functools.reduce(operator.add, f)):
            with pytest.raises(UsageError, match="matrix dimensions differ"):
                total(mats)


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
    text = dump_triplets(tr.N)
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
            c = weight_of_root(d, py)[px]
            return {y: c} if c else {}
        if ky == "cartan":
            c = -weight_of_root(d, px)[py]
            return {x: c} if c else {}
        s = tuple(a + b for a, b in zip(px, py))
        if not any(s):  # [x_a, x_{-a}] = h_a, the coroot on the simple coroots
            sign = 1 if sum(px) > 0 else -1
            co = d.coroot_of[px if sign > 0 else py]
            return {("cartan", j): sign * c for j, c in enumerate(co) if c}
        if s in sc.root_set:
            return {("root", s): constant(sc, px, py)}
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
    positive, n_code, norm = chevalley._carter_constants(sc.datum, full=False)
    long_root = next(c for c, r in positive.items() if r == (3, 1))
    assert norm[long_root] == norm[-long_root] == 6
    norm = {**norm, long_root: 4, -long_root: 4}
    with pytest.raises(IntegrityError, match="is not a nonzero integer"):
        # (1, 0) + (2, 1) = (3, 1): a generator entry divides by that norm too
        chevalley._ad_columns(sc.datum, positive, n_code, norm, full=False)


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
                    entries[(col, col)] = weight_of_root(d, eta)[xi]
            elif bkind == "cartan":
                entries[(index[(kind, xi)], col)] = -weight_of_root(d, xi)[eta]
            elif not any(s := tuple(a + b for a, b in zip(xi, eta))):
                sign = 1 if sum(xi) > 0 else -1
                for j, c in enumerate(d.coroot_of[xi if sign > 0 else eta]):
                    entries[(index[("cartan", j)], col)] = sign * c
            elif s in sc.root_set:
                entries[(index[("root", s)], col)] = constant(sc, xi, eta)
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


def _entries(sc):
    """Every bracket-table entry with the type of its value, basis in order."""
    return [(b, m.dim, sorted((k, type(v), v) for k, v in m.entries.items()))
            for b, m in sc.ad.items()]


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_root_coded_table_is_bit_identical_to_the_tuple_recursion(name):
    sc = structure_constants(datum(name))
    ref = carter_structure_constants(sc.datum)
    assert [(k, type(v), v) for k, v in sc.n_pos.items()] == \
        [(k, type(v), v) for k, v in ref.n_pos.items()]
    assert sc.root_set == ref.root_set
    assert list(sc.norm2.items()) == list(ref.norm2.items())
    assert _entries(sc) == _entries(ref)


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_root_codes_separate_every_sum_and_difference_of_two_roots(name):
    # the Carter recursion, _ad_columns and the theta chain compare codes of
    # sums and differences of two roots (b - (p+1) a = (b - p a) - a) where
    # they mean the vectors: distinct vectors must keep distinct codes
    d = datum(name)
    code = {r: c for c, r in chevalley._root_codes(d).items()}
    code |= {tuple(-x for x in r): -c for r, c in code.items()}
    seen = {}
    for (a, ca), (b, cb) in itertools.product(code.items(), repeat=2):
        for sign in (1, -1):
            vector = tuple(x + sign * y for x, y in zip(a, b))
            assert seen.setdefault(ca + sign * cb, vector) == vector, (a, b, sign)


def _with_norm(d, root, value):
    return d._replace(root_norm2={**d.root_norm2, root: value})


def test_a_corrupted_norm_is_named_by_coordinate_tuples():
    # B2 with |(1, 2)|^2 = 3: N_{-a2,(1,2)} = |(1,1)|^2 * 2 / 3 is not an integer.
    with pytest.raises(IntegrityError) as err:
        structure_constants(_with_norm(datum("B2"), (1, 2), 3))
    assert str(err.value) == "N_(0, -1),(1, 2) = 4/3 is not an integer"


@pytest.mark.parametrize("name", ["B3", "G2"])
def test_every_corrupted_norm_gets_the_message_of_the_tuple_recursion(name):
    d = datum(name)
    for root in d.positive_roots:
        for value in (1, 3, 5):
            bad = _with_norm(d, root, value)
            with pytest.raises(IntegrityError) as want:
                carter_structure_constants(bad)
            with pytest.raises(IntegrityError) as got:
                structure_constants(bad)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ALL_TYPES_RANK8)
def test_bracket_table_is_canonical_and_integral_as_built(name):
    # ad builds each SparseMatrix directly, so it must already be what
    # from_entries would make: no zero entry, every value an int
    for m in structure_constants(datum(name)).ad.values():
        assert m == SparseMatrix.from_entries(m.dim, m.entries)
        assert all(type(v) is int and v != 0 for v in m.entries.values())


# -- the bracket table itself: an exhaustive oracle on sc.ad, and the certificate's shape --

def _lie_bracket_holds_on_the_table(sc) -> bool:
    """Antisymmetry, and the Jacobi identity on every triple of basis elements,
    with every bracket read off sc.ad: [b_y, b_z] is column z of ad b_y."""
    ad = list(sc.ad.values())
    dim = len(ad)
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for y, mat in enumerate(ad):
        for (k, z), v in mat.entries.items():
            table[y][z][k] = v
    for y in range(dim):
        for z in range(y, dim):
            if table[y][z] != {k: -v for k, v in table[z][y].items()}:
                return False
    for x in range(dim):
        for y in range(x + 1, dim):
            for z in range(y + 1, dim):
                total: dict = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    row = table[a]
                    for k, v in table[b][c].items():
                        for m, u in row[k].items():
                            total[m] = total.get(m, 0) + v * u
                if any(total.values()):
                    return False
    return True


def _with_table(sc, ad):
    fresh = StructureConstants(datum=sc.datum, n_pos=sc.n_pos, root_set=sc.root_set, norm2=sc.norm2)
    fresh.__dict__["ad"] = ad
    return fresh


def _scaled_brackets(sc, pairs, factor):
    """A copy of sc whose table has [x_a, x_b] and [x_b, x_a] times factor for each (a, b)."""
    ad = dict(sc.ad)
    index = {b: i for i, b in enumerate(ad)}
    for a, b in pairs:
        row = index[("root", tuple(p + q for p, q in zip(a, b)))]
        for x, y in ((a, b), (b, a)):
            entries = dict(ad[("root", x)].entries)
            entries[(row, index[("root", y)])] *= factor
            ad[("root", x)] = SparseMatrix.from_entries(len(ad), entries)
    return _with_table(sc, ad)


def _rebased(sc, gamma):
    """sc on the basis with x_gamma, x_{-gamma} replaced by -x_gamma, -x_{-gamma}."""
    basis = list(sc.ad)
    flipped = {("root", gamma), ("root", tuple(-x for x in gamma))}
    s = [-1 if b in flipped else 1 for b in basis]
    ad = {b: SparseMatrix.from_entries(len(basis), {(k, z): s[y] * s[k] * s[z] * v
                                                   for (k, z), v in sc.ad[b].entries.items()})
          for y, b in enumerate(basis)}
    return _with_table(sc, ad)


def _verdict(sc) -> bool:
    try:
        verify_jacobi(sc)
    except IntegrityError:
        return False
    return True


@pytest.mark.parametrize("name", ["G2", "A3", "B3", "C3"])
def test_jacobi_check_agrees_with_the_table_oracle_on_every_corrupted_bracket(name):
    sc = structure_constants(datum(name))
    assert _lie_bracket_holds_on_the_table(sc)
    neg = lambda r: tuple(-x for x in r)
    roots = sorted(sc.root_set)
    pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
             if tuple(x + y for x, y in zip(a, b)) in sc.root_set]
    expect = {"G2": 30, "A3": 24, "B3": 60, "C3": 60}[name]
    assert len(pairs) == expect
    for a, b in pairs:
        for factor in (-1, 2):
            for brackets in ([(a, b)], [(a, b), (neg(a), neg(b))]):
                broken = _scaled_brackets(sc, brackets, factor)
                assert not _lie_bracket_holds_on_the_table(broken)
                assert not _verdict(broken)


@pytest.mark.parametrize("name", ["G2", "A3", "B3", "C3"])
def test_a_sign_rebasing_passes_the_jacobi_check_and_the_table_oracle(name):
    sc = structure_constants(datum(name))
    rebasings = [_rebased(sc, g) for g in sc.datum.positive_roots if sum(g) > 1]
    assert len(rebasings) == {"G2": 4, "A3": 3, "B3": 6, "C3": 6}[name]
    for rebased in rebasings:
        assert rebased.ad != sc.ad
        assert _lie_bracket_holds_on_the_table(rebased)
        assert _verdict(rebased)


def test_jacobi_check_runs_dim_minus_one_plus_2n_derivation_checks(monkeypatch):
    calls = []
    check = chevalley._check_derivation

    def counted(*args):
        calls.append(args[3:])
        return check(*args)

    monkeypatch.setattr(chevalley, "_check_derivation", counted)
    counts = {}
    for name in ALL_TYPES_RANK8:
        d = datum(name)
        calls.clear()
        verify_jacobi(structure_constants(d))
        assert len(calls) == len(set(calls)) == (2 * len(d.positive_roots) + d.rank) - 1 + 2 * d.rank
        counts[name] = len(calls)
    assert counts["E8"] == 263
    assert counts["B8"] == 151


@pytest.mark.parametrize("name", ["A1", "B3", "G2", "E6"])
def test_a_deleted_tree_edge_leaves_the_table_uncertified(name):
    # [e_1, f_1] = h_1 is the only edge into h_1: delete it from ad e_1 and
    # its omega image [f_1, e_1] = -h_1 from ad f_1.
    sc = structure_constants(datum(name))
    ad = dict(sc.ad)
    index = {b: i for i, b in enumerate(ad)}
    a = sc.datum.simple_roots[0]
    e1, f1 = ("root", a), ("root", tuple(-x for x in a))
    h1 = index[("cartan", 0)]
    for g, other in ((e1, f1), (f1, e1)):
        entries = dict(ad[g].entries)
        del entries[(h1, index[other])]
        ad[g] = SparseMatrix.from_entries(len(ad), entries)
    with pytest.raises(IntegrityError) as info:
        verify_jacobi(_with_table(sc, ad))
    if name == "A1":  # every other check passes: only the walk sees the gap
        assert "reach 1 of 3 basis elements" in str(info.value)


def test_a_lowest_root_vector_not_killed_by_f_is_caught():
    # [f_1, x_{-theta}] = h_1 and its omega image [e_1, x_theta] = -h_1: the
    # table stays omega-equivariant, but x_{-theta} is no lowest-weight vector.
    sc = structure_constants(datum("B3"))
    ad = dict(sc.ad)
    index = {b: i for i, b in enumerate(ad)}
    a, theta = sc.datum.simple_roots[0], sc.datum.theta
    neg = lambda r: tuple(-x for x in r)
    h1 = index[("cartan", 0)]
    for g, col, v in ((neg(a), neg(theta), 1), (a, theta, -1)):
        ad[("root", g)] = SparseMatrix.from_entries(
            len(ad), dict(ad[("root", g)].entries) | {(h1, index[("root", col)]): v})
    with pytest.raises(IntegrityError, match="does not kill the lowest root vector"):
        verify_jacobi(_with_table(sc, ad))


def test_a_doubled_table_is_a_lie_bracket_but_not_the_chevalley_one():
    # 2 [x, y] satisfies the Jacobi identity and every derivation check, so
    # only the Chevalley-Serre step sees that h_i = 2 diag(weights).
    sc = structure_constants(datum("G2"))
    doubled = _with_table(sc, {b: m.scale(2) for b, m in sc.ad.items()})
    assert _lie_bracket_holds_on_the_table(doubled)
    with pytest.raises(IntegrityError, match=r"adjoint\(G2\): h_1 disagrees with basis weights"):
        verify_jacobi(doubled)
