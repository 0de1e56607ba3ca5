"""Chevalley bases, explicit representation matrices, principal triples.

Structure constants N_{a,b} ([x_a, x_b] = N_{a,b} x_{a+b}) are fixed by
Carter's extraspecial-pair scheme: order the positive roots by (height,
reverse-lex); for each non-simple positive gamma the special pairs are the
ordered decompositions gamma = a + b with a < b, and the extraspecial pair
is the one with minimal a.  Extraspecial pairs get N = +(p+1) with
p = max{k : b - k a is a root}; every other constant follows from the
antisymmetry, the norm relation for zero-sum triples

    N_{x,y}/(z,z) = N_{y,z}/(x,x) = N_{z,x}/(y,y)      (x + y + z = 0),

and one Jacobi identity against the extraspecial pair, each term an exact
integer division.  |N_{a,b}| = p+1 is enforced for every special pair, and
at build time the Chevalley involution (x_a -> -x_{-a}, h -> -h) is checked
to preserve the bracket and each ad e_i to be a derivation, which implies
the full Jacobi identity (see verify_jacobi).

Representation matrices: the adjoint representation is read off the
bracket table, whose six root-pair entries per positive pair (a, b) follow
from N_{a,b} by antisymmetry and the norm relation (StructureConstants.ad).
The standard representation V(omega_1) of A-D is built from its weights
alone (_weight_rep): they have multiplicity 1, so the alpha_i-strings fix
e_i and f_i without any structure constant or sign.  Both pass the
Chevalley-Serre check _check_rep before they are returned.

Matrix conventions for the principal triple (N, RHO, E):

    N = sum_i f_i,  E = x_theta,  RHO = diag(-<basis weight, rho^vee>).

With these, [N, RHO] = -N and [E, RHO] = (h-1) E hold as honest matrix
commutators (the minus sign in RHO is forced: with +<mu, rho^vee> the two
brackets and the flatness of the two-variable connection all flip sign).
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .character import _weight_support, weyl_dimension
from .errors import (
    IntegrityError,
    ResourceLimitError,
    UnsupportedRepresentationError,
    UsageError,
)
from .grading import JordanPartition
from .linalg import SparseMatrix, power_ranks
from .rootdatum import Coords, RootDatum, pair

MAX_RANK = 8

_sc_memo: dict = {}
_adjoint_memo: dict = {}
_std_memo: dict = {}


def _vadd(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.add, a, b))


def _vsub(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.sub, a, b))


def _vneg(a: Coords) -> Coords:
    return tuple(map(operator.neg, a))


@dataclass(frozen=True)
class StructureConstants:
    datum: RootDatum
    n_pos: dict[tuple[Coords, Coords], int] = field(repr=False)
    root_set: frozenset[Coords] = field(repr=False)
    norm2: dict[Coords, int] = field(repr=False)

    def constant(self, x: Coords, y: Coords) -> int:
        """N_{x,y} for any roots x, y with x + y a root."""
        s = _vadd(x, y)
        if s not in self.root_set:
            raise UsageError(f"{x} + {y} is not a root")
        xpos = sum(x) > 0
        ypos = sum(y) > 0
        if xpos and ypos:
            return self.n_pos[(x, y)]
        if not xpos and not ypos:
            return -self.constant(_vneg(x), _vneg(y))
        if not xpos:
            return -self.constant(y, x)
        # x positive, y negative; gamma = x + y.
        mu = _vneg(y)
        gamma = s
        if sum(gamma) > 0:
            # triple (x, -mu, -gamma): N_{x,-mu} = (g,g)/(x,x) * N_{-mu,-g} = -(g,g)/(x,x) N_{mu,g}
            num, den = self.norm2[gamma] * -self.constant(mu, gamma), self.norm2[x]
        else:
            # reduce to the previous case through N_{x,-mu} = N_{mu,-x}
            gp = _vneg(gamma)
            num, den = self.norm2[gp] * -self.constant(x, gp), self.norm2[mu]
        val, rem = divmod(num, den)
        if rem or val == 0:
            raise IntegrityError(f"N_{x},{y} = {Fraction(num, den)} is not a nonzero integer")
        return val

    @functools.cached_property
    def ad(self) -> dict[tuple, SparseMatrix]:
        """ad(b) for every adjoint basis element b, in basis order.

        The basis is ("root", r) for the positive roots by descending height,
        then ("cartan", i), then the negative roots in the same order.  Column
        z of ad(b_y) holds [b_y, b_z].  The Cartan and x_{+-a} entries are
        written directly; each ordered positive pair (a, b) of n_pos with
        g = a + b and n = N_{a,b} gives the six root pairs with a root sum
        (a, b), (-a, -b), (g, -a), (-g, a), (-a, g) and (a, -g).  With
        m = n |b|^2 / |g|^2 (the norm relation on the zero-sum triple
        (g, -a, -b)) their constants are n, -n, -m, m, m and -m, the values
        constant() reaches through its recursion, so the root-root entries
        are omega-equivariant by construction.
        """
        datum = self.datum
        norm2 = self.norm2
        ordered = sorted(datum.positive_roots, key=lambda r: (-sum(r), r))
        basis = ([("root", r) for r in ordered] + [("cartan", i) for i in range(datum.rank)]
                 + [("root", _vneg(r)) for r in ordered])
        col = {p: i for i, (kind, p) in enumerate(basis)}  # roots and Cartan indices
        entries: list[dict[tuple[int, int], int]] = [{} for _ in basis]
        for x, (kind, root) in enumerate(basis):
            if kind == "root":
                sign = 1 if sum(root) > 0 else -1
                for j, w in enumerate(datum.weight_of_root(root)):
                    entries[col[j]][(x, x)] = w  # [h_j, x_r] = <r, alpha_j^vee> x_r
                    entries[x][(x, col[j])] = -w
                for j, c in enumerate(datum.coroot_of[root if sign > 0 else _vneg(root)]):
                    entries[x][(col[j], col[_vneg(root)])] = sign * c  # [x_r, x_{-r}] = r^vee
        for (a, b), n in self.n_pos.items():
            g = _vadd(a, b)
            m, rem = divmod(n * norm2[b], norm2[g])
            if rem or m == 0:
                raise IntegrityError(
                    f"N_{g},{_vneg(a)} = {Fraction(-n * norm2[b], norm2[g])} is not a nonzero integer")
            ia, ib, ig = col[a], col[b], col[g]
            ina, inb, ing = col[_vneg(a)], col[_vneg(b)], col[_vneg(g)]
            entries[ia][(ig, ib)] = n  # [x_a, x_b] = n x_g
            entries[ina][(ing, inb)] = -n
            entries[ig][(ib, ina)] = -m  # [x_g, x_{-a}] = -m x_b
            entries[ing][(inb, ia)] = m
            entries[ina][(ib, ig)] = m
            entries[ia][(inb, ing)] = -m
        return {b: SparseMatrix.from_entries(len(basis), e) for b, e in zip(basis, entries)}


def _string_length(root_set, a: Coords, b: Coords) -> int:
    """p = max{k >= 0 : b - k a is a root}.  The zero vector is not a root."""
    p = 0
    cur = b
    while True:
        cur = _vsub(cur, a)
        if cur not in root_set:
            return p
        p += 1


def _exact(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer: IntegrityError names the value otherwise."""
    val, rem = divmod(num, den)
    if rem:
        raise IntegrityError(f"{what} = {Fraction(num, den)} is not an integer")
    return val


def structure_constants(datum: RootDatum) -> StructureConstants:
    """Consistent Chevalley structure constants for one simple type."""
    if datum.rank > MAX_RANK:
        raise ResourceLimitError(
            f"rank {datum.rank} exceeds the structure-constant guard {MAX_RANK}"
        )
    cached = _sc_memo.get(datum.stype)
    if cached is not None:
        return cached

    positive = datum.positive_roots
    root_set = frozenset(positive) | frozenset(_vneg(r) for r in positive)
    norm2 = {r: datum.norm2_root(r) for r in positive}
    norm2.update({_vneg(r): norm2[r] for r in positive})

    # Special pairs of every gamma, in the order of their first root, so the
    # extraspecial pair comes first.
    special: dict[Coords, list[tuple[Coords, Coords]]] = defaultdict(list)
    for i, a in enumerate(positive):
        for b in positive[i + 1:]:
            gamma = _vadd(a, b)
            if gamma in root_set:
                special[gamma].append((a, b))

    n_pos: dict[tuple[Coords, Coords], int] = {}

    def put(a, b, val):
        n_pos[(a, b)] = val
        n_pos[(b, a)] = -val

    sc = StructureConstants(datum=datum, n_pos=n_pos, root_set=root_set, norm2=norm2)

    for gamma in positive:
        if sum(gamma) == 1:
            continue
        pairs = special.get(gamma)
        if not pairs:
            raise IntegrityError(f"no decomposition found for positive root {gamma}")
        ex_a, ex_b = pairs[0]
        p = _string_length(root_set, ex_a, ex_b)
        put(ex_a, ex_b, p + 1)
        # N_{-ex_a,gamma} from the norm relation on (-ex_a, gamma, -ex_b).
        n_minus_gamma = _exact(norm2[ex_b] * (p + 1), norm2[gamma], f"N_{_vneg(ex_a)},{gamma}")
        for a, b in pairs[1:]:
            # Jacobi on (x_{-ex_a}, x_a, x_b), all terms proportional to x_{ex_b}:
            #   N_{a,b} N_{-ex_a,gamma} + N_{b,-ex_a} N_{a,b-ex_a} + N_{-ex_a,a} N_{b,a-ex_a} = 0
            acc = 0
            delta = _vsub(b, ex_a)
            if delta in root_set:
                t1 = _exact(-norm2[delta] * n_pos[(ex_a, delta)], norm2[b], f"N_{b},{_vneg(ex_a)}")
                acc += t1 * n_pos[(a, delta)]
            eps = _vsub(a, ex_a)
            if eps in root_set:
                t2 = _exact(norm2[eps] * n_pos[(ex_a, eps)], norm2[a], f"N_{_vneg(ex_a)},{a}")
                acc += t2 * n_pos[(b, eps)]
            val = _exact(-acc, n_minus_gamma, f"derived constant N_{a},{b}")
            expect = _string_length(root_set, a, b) + 1
            if abs(val) != expect:
                raise IntegrityError(
                    f"derived constant N_{a},{b} = {val}, |N| should be {expect}"
                )
            put(a, b, val)

    # Chevalley integrality for every special pair (redundant for derived
    # ones, a genuine check for extraspecial bookkeeping).
    for (a, b), v in n_pos.items():
        if _vadd(a, b) in root_set and abs(v) != _string_length(root_set, a, b) + 1:
            raise IntegrityError(f"|N_{a},{b}| = {abs(v)} breaks the root-string rule")

    verify_jacobi(sc)
    _sc_memo[datum.stype] = sc
    return sc


# -- Jacobi check ------------------------------------------------------------

def verify_jacobi(sc: StructureConstants) -> None:
    """Jacobi check: the Chevalley involution, then ad e_i as derivations.

    omega(x_a) = -x_{-a}, omega(h) = -h.  First, each entry (k, z) = v of
    ad(b_y) needs (omega k, omega z) = -v in ad(b_{omega y}), with as many
    entries: omega is an automorphism of the bracket.  The table writes its
    root-root entries omega-equivariantly by construction; the check stays
    because the derivation argument below rests on it and it catches a
    corrupted table.  Then [ad e_i, ad y] = ad([e_i, y]) for the n raising
    generators and every basis element y, [e_i, y] = sum_k v_k b_k read off
    column y of ad e_i: ad e_i ad y - ad y ad e_i - sum_k v_k ad b_k goes into
    one int dict through the row and column index of ad e_i, and every value
    must be 0.  So each ad e_i is a derivation.

    So are all 3n generators: ad f_i = -omega ad(e_i) omega^-1 is a
    derivation conjugated by an automorphism, and ad h_i = [ad e_i, ad f_i]
    (the y = f_i case).  The x with ad x a derivation form a subspace closed
    under the bracket (ad [x, y] = [ad x, ad y]) and the generators generate
    (each x_gamma is [e_i, x_{gamma-alpha_i}] / N or [f_i, x_{gamma+alpha_i}]
    / N, |N| = p+1 != 0), so the full Jacobi identity holds.  The bracket is
    antisymmetric by construction; all arithmetic is on Python ints.
    """
    basis = list(sc.ad)
    ad = list(sc.ad.values())
    index = {b: i for i, b in enumerate(basis)}
    omega = [index[("root", _vneg(p))] if kind == "root" else i
             for i, (kind, p) in enumerate(basis)]
    for y, ad_y in enumerate(ad):
        mirror = ad[omega[y]].entries
        if len(mirror) != ad_y.nnz or any(
                mirror.get((omega[k], omega[z])) != -v for (k, z), v in ad_y.entries.items()):
            raise IntegrityError(f"the Chevalley involution does not preserve ad {basis[y]}")
    for a in sc.datum.simple_roots:
        ad_g = sc.ad[("root", a)]
        rows = ad_g.rows
        column: dict[int, list[tuple[int, int]]] = {}
        for (k, y), v in ad_g.entries.items():
            column.setdefault(y, []).append((k, v))
        for y, ad_y in enumerate(ad):
            acc = defaultdict(int)
            for (r, k), v in ad_y.entries.items():
                for i, u in column.get(r, ()):  # ad e_i ad y
                    acc[(i, k)] += u * v
                for c, u in rows.get(k, ()):  # - ad y ad e_i
                    acc[(r, c)] -= v * u
            for k, v in column.get(y, ()):  # - ad [e_i, y]
                for key, u in ad[k].entries.items():
                    acc[key] -= v * u
            if any(acc.values()):
                raise IntegrityError(f"Jacobi identity fails for {('root', a)}, {basis[y]}")


# -- representation matrices --------------------------------------------------

@dataclass(frozen=True)
class RepMatrices:
    datum: RootDatum
    dim: int
    basis_weights: tuple[Coords, ...]
    e: tuple[SparseMatrix, ...]
    f: tuple[SparseMatrix, ...]
    h: tuple[SparseMatrix, ...]
    e_theta: SparseMatrix
    name: str = "rep"


def _check_rep(rep: RepMatrices) -> None:
    """Enforce the Chevalley-Serre relations and weight compatibility.

    The relation set ([h,e], [h,f], [e_i,f_j] = delta h_i, Serre) presents
    the Lie algebra, so passing it certifies the matrices really define a
    representation; the remaining checks pin the weight bookkeeping and the
    highest-root vector.
    """
    datum = rep.datum
    n = datum.rank
    cartan = datum.cartan
    for i in range(n):
        for j in range(n):
            if rep.h[i].commutator(rep.e[j]) != rep.e[j].scale(cartan[j][i]):
                raise IntegrityError(f"{rep.name}: [h_{i+1}, e_{j+1}] relation fails")
            if rep.h[i].commutator(rep.f[j]) != rep.f[j].scale(-cartan[j][i]):
                raise IntegrityError(f"{rep.name}: [h_{i+1}, f_{j+1}] relation fails")
            expect = rep.h[i] if i == j else SparseMatrix.zero(rep.dim)
            if rep.e[i].commutator(rep.f[j]) != expect:
                raise IntegrityError(f"{rep.name}: [e_{i+1}, f_{j+1}] relation fails")
    # Serre relations (ad e_i)^{1-cartan[j][i]} e_j = 0, same with f.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            power = 1 - cartan[j][i]
            for gens in (rep.e, rep.f):
                acc = gens[j]
                for _ in range(power):
                    acc = gens[i].commutator(acc)
                if not acc.is_zero():
                    raise IntegrityError(f"{rep.name}: Serre relation ({i+1},{j+1}) fails")
    # h_i diagonal with the declared weights; e_i moves mu to mu + alpha_i.
    for i in range(n):
        if rep.h[i] != SparseMatrix.diagonal([w[i] for w in rep.basis_weights]):
            raise IntegrityError(f"{rep.name}: h_{i+1} disagrees with basis weights")
        alpha_w = datum.weight_of_root(datum.simple_roots[i])
        for (r, c) in rep.e[i].entries:
            if rep.basis_weights[r] != _vadd(rep.basis_weights[c], alpha_w):
                raise IntegrityError(f"{rep.name}: e_{i+1} breaks the weight grading")
    for i in range(n):
        if not rep.e_theta.commutator(rep.e[i]).is_zero():
            raise IntegrityError(f"{rep.name}: [e_theta, e_{i+1}] != 0")


def _theta_matrix(sc: StructureConstants, e: tuple[SparseMatrix, ...], dim: int) -> SparseMatrix:
    """x_theta on a representation, via x_gamma = [e_i, x_{gamma-alpha_i}] / N."""
    datum = sc.datum
    simple = datum.simple_roots
    mats: dict[Coords, SparseMatrix] = {simple[i]: e[i] for i in range(datum.rank)}

    def build(gamma: Coords) -> SparseMatrix:
        got = mats.get(gamma)
        if got is not None:
            return got
        for i, alpha in enumerate(simple):
            delta = _vsub(gamma, alpha)
            if delta in sc.root_set and sum(delta) > 0:
                m = e[i].commutator(build(delta)).scale(Fraction(1, sc.constant(alpha, delta)))
                mats[gamma] = m
                return m
        raise IntegrityError(f"no simple-root decomposition for {gamma}")

    return build(datum.theta)


def adjoint_rep(datum: RootDatum) -> RepMatrices:
    """Adjoint representation on the basis (roots by descending height, Cartan)."""
    cached = _adjoint_memo.get(datum.stype)
    if cached is not None:
        return cached
    ad = structure_constants(datum).ad
    zero = (0,) * datum.rank
    weights = tuple(
        datum.weight_of_root(payload) if kind == "root" else zero
        for kind, payload in ad
    )
    e = tuple(ad[("root", a)] for a in datum.simple_roots)
    f = tuple(ad[("root", _vneg(a))] for a in datum.simple_roots)
    h = tuple(ad[("cartan", i)] for i in range(datum.rank))
    e_theta = ad[("root", datum.theta)]
    rep = RepMatrices(datum=datum, dim=len(ad), basis_weights=weights,
                      e=e, f=f, h=h, e_theta=e_theta, name=f"adjoint({datum.stype})")
    _check_rep(rep)
    _adjoint_memo[datum.stype] = rep
    return rep


def _weight_rep(datum: RootDatum, lam: Coords) -> RepMatrices:
    """V(lam) on its weights, for lam whose weights all have multiplicity 1.

    The basis is the weights by (-<mu, 2 rho^vee>, mu).  Each weight space
    is a line, so every alpha_i-string of weights carries one irreducible
    sl2-module and the weights fix e_i and f_i: e_i v_mu = v_{mu+alpha_i}
    and f_i v_{mu+alpha_i} = q (q + <mu, alpha_i^vee> + 1) v_mu, with q >= 1
    the steps from mu to the top of its string, which is [e_i, f_i] = h_i
    along the string.  That is 1 on every minuscule string and 2, 2 on the
    string through the zero weight of B_n's V(omega_1).  _check_rep
    certifies that the strings fit together.
    """
    sc = structure_constants(datum)
    two_rho = datum.two_rho_covector
    weights = tuple(sorted(_weight_support(datum, lam), key=lambda mu: (-pair(mu, two_rho), mu)))
    dim = len(weights)
    if dim != weyl_dimension(datum, lam):
        raise IntegrityError(f"V({lam}) of {datum.stype} is not multiplicity-free")
    index = {mu: k for k, mu in enumerate(weights)}
    e_entries: list[dict] = [{} for _ in range(datum.rank)]
    f_entries: list[dict] = [{} for _ in range(datum.rank)]
    for i, alpha in enumerate(datum.cartan):  # row i is alpha_i in weight coordinates
        for col, mu in enumerate(weights):
            up = _vadd(mu, alpha)
            row = index.get(up)
            if row is None:
                continue
            q = 1
            while (up := _vadd(up, alpha)) in index:
                q += 1
            e_entries[i][(row, col)] = 1
            f_entries[i][(col, row)] = q * (q + mu[i] + 1)
    e = tuple(SparseMatrix.from_entries(dim, ent) for ent in e_entries)
    f = tuple(SparseMatrix.from_entries(dim, ent) for ent in f_entries)
    h = tuple(SparseMatrix.diagonal([w[i] for w in weights]) for i in range(datum.rank))
    rep = RepMatrices(datum=datum, dim=dim, basis_weights=weights, e=e, f=f, h=h,
                      e_theta=_theta_matrix(sc, e, dim),
                      name=f"V({','.join(map(str, lam))}) of {datum.stype}")
    _check_rep(rep)
    return rep


def classical_std_rep(datum: RootDatum) -> RepMatrices:
    """Standard representation V(omega_1) of a classical type, from its weights.

    V(omega_1) has dimension n+1 on A_n, 2n+1 on B_n, 2n on C_n and D_n;
    its weights have multiplicity 1, so _weight_rep builds it.  Exceptional
    types have no standard representation here by design.
    """
    if datum.stype.family not in "ABCD":
        raise UnsupportedRepresentationError(
            f"no standard matrix model for {datum.stype}; only A/B/C/D are built"
        )
    cached = _std_memo.get(datum.stype)
    if cached is None:
        cached = _std_memo[datum.stype] = _weight_rep(datum, (1,) + (0,) * (datum.rank - 1))
    return cached


# -- principal triple ---------------------------------------------------------

@dataclass(frozen=True)
class PrincipalTriple:
    datum: RootDatum
    dim: int
    N: SparseMatrix
    RHO: SparseMatrix
    E: SparseMatrix
    H: SparseMatrix
    basis_weights: tuple[Coords, ...]

    @property
    def coxeter(self) -> int:
        return self.datum.coxeter


def principal_triple(rep: RepMatrices) -> PrincipalTriple:
    """N = sum f_i, E = x_theta, RHO = diag(-<basis weight, rho^vee>).

    [N, RHO] = -N and [E, RHO] = (h-1) E are verified entrywise before
    returning; they force N to shift the RHO-grading by +1 and hence to be
    nilpotent, and H = 2 RHO carries the rho-grading spectrum.
    """
    datum = rep.datum
    N = functools.reduce(lambda a, b: a + b, rep.f, SparseMatrix.zero(rep.dim))
    rho_cov = datum.rho_covector
    diag = [-pair(w, rho_cov) for w in rep.basis_weights]
    RHO = SparseMatrix.diagonal(diag)
    H = RHO.scale(2)
    E = rep.e_theta
    if N.commutator(RHO) != N.scale(-1):
        raise IntegrityError("[N, RHO] != -N")
    if E.commutator(RHO) != E.scale(datum.coxeter - 1):
        raise IntegrityError("[E, RHO] != (h-1) E")
    return PrincipalTriple(datum=datum, dim=rep.dim, N=N, RHO=RHO, E=E, H=H,
                           basis_weights=rep.basis_weights)


def jordan_type(matrix: SparseMatrix) -> JordanPartition:
    """Jordan partition of a nilpotent matrix from its exact rank sequence.

    blocks of size s number r_{s-1} - 2 r_s + r_{s+1} with r_k = rank(M^k),
    read off the row-space chain of power_ranks, which never forms M^k and
    raises UsageError on non-nilpotent input.
    """
    ranks = [matrix.dim] + power_ranks(matrix) + [0]
    blocks = []
    for s in range(1, len(ranks) - 1):
        count = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        if count < 0:
            raise IntegrityError("rank sequence is not convex")
        blocks.extend([s] * count)
    part = JordanPartition(tuple(blocks))
    if part.total != matrix.dim:
        raise IntegrityError("Jordan blocks do not sum to the dimension")
    return part
