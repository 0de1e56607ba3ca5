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
integer division, and |N_{a,b}| = p+1 must hold.

The adjoint's generators read only the N_{alpha_i,b}, so adjoint_rep runs
the same recursion over the special pairs whose first root is simple alone
(_carter_constants(full=False): 434 of the 2,240 constants of the table
on E8).  Those pairs are closed under it.  The simple roots lead the order, so
every gamma's extraspecial pair (ex_a, ex_b) has a simple first root.  For a
pair (alpha_i, b) of gamma the recursion reads N_{ex_a,b-ex_a} and
N_{alpha_i,b-ex_a}: pairs with a simple root, of b and of ex_b, which are
lower roots and so come earlier in the loop.  The eps = alpha_i - ex_a term
never fires, since a difference of two simple roots is not a root.  So each
restricted constant comes from the same steps and checks as in the full
table (structure_constants), and has the same value.

Integer codes: an int vector v is coded as sum_i v_i B^i (_code_powers),
which is linear.  Two vectors whose digits all lie in [-D, D] have equal
codes in base B = 2D + 1 only if they are equal: their difference has
digits |d_i| <= 2D < B, and a nonzero vector of such digits codes to
B^k (d_k + B q), d_k its lowest nonzero digit and q an int, which is not 0
since 0 < |d_k| < B.  So a loop that compares only vectors with digits in
[-D, D] may compare their codes instead.  The special pairs, the recursion,
the writer _ad_columns and the theta chain compare sums and differences of
two roots (b - (p+1) a = (b - p a) - a), so D is twice the largest root
coefficient (12 on E8); _check_rep compares basis weights, each shifted by
at most a simple root or theta (its own D).

Representation matrices: every representation takes one path.  It lives on
a basis of weight vectors, so rho(h_i) := diag(<mu, alpha_i^vee>) over its
basis weights mu is a definition, read off the weights when asked for
(RepMatrices.h) and never written.  Its generators e_i, f_i come from one
source, and _check_rep (Chevalley-Serre, the Serre relations implied) is
the one certificate.  The adjoint writes only its 2n generators e_i, f_i
from the generator-only N_{alpha_i,b}, with the writer of the whole table
(_ad_columns), and builds ad x_theta column by column from [x_theta,
x_{-theta}] = theta^vee along the raising tree from x_{-theta}
(_theta_by_tree, the walk verify_jacobi takes).  V(omega_1) of A-D and the
minuscule representations come from their weights alone (_weight_rep);
they have no bracket, so their x_theta is [e_i, x_{gamma-alpha_i}] / N
along the chain of extraspecial pairs (alpha_i, gamma - alpha_i) up to
theta, with N = +(p+1) read off a root string (_theta_matrix).  Only the
tests build the table and call verify_jacobi.

Matrix conventions for the principal triple (N, RHO, E):

    N = sum_i f_i,  E = x_theta,  RHO = diag(-<basis weight, rho^vee>).

N is RepMatrices.N, summed once per representation: _check_rep's [e_i, N]
and the triple use the same matrix and its cached row and column indexes.

With these, [N, RHO] = -N and [E, RHO] = (h-1) E hold as honest matrix
commutators (the minus sign in RHO is forced: with +<mu, rho^vee> the two
brackets and the flatness of the two-variable connection all flip sign).
_check_rep's grading implies both (principal_triple).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict, namedtuple
from fractions import Fraction

from .character import _weight_support, weyl_dimension
from .errors import IntegrityError, ResourceLimitError, UsageError
from .grading import JordanPartition
from .linalg import SparseMatrix, _norm, _row_times, graded_blocks
from .rootdatum import Coords, RootDatum, pair, std_weight

MAX_RANK = 8


def _vadd(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.add, a, b))


def _vneg(a: Coords) -> Coords:
    return tuple(map(operator.neg, a))


class StructureConstants(namedtuple("StructureConstants", "datum n_pos root_set norm2")):
    """N_{a,b} for the ordered positive pairs (a, b) with a + b a root, the
    root set (both signs) and every root's squared norm, by root tuples."""

    @functools.cached_property
    def ad(self) -> dict[tuple, SparseMatrix]:
        """ad(b) for every adjoint basis element b in basis order (_ad_columns)."""
        positive = _root_codes(self.datum)
        code = {r: c for c, r in positive.items()}
        n_code = {(code[a], code[b]): v for (a, b), v in self.n_pos.items()}
        norm = {c: self.norm2[r] for c, r in positive.items()}
        return _ad_columns(self.datum, positive, n_code, norm, full=True)[2]


def _ad_columns(datum: RootDatum, positive: dict[int, Coords], n_code: dict[tuple[int, int], int],
                norm: dict[int, int], full: bool) -> tuple[list, tuple, dict[tuple, SparseMatrix]]:
    """The adjoint basis and its weights (_adjoint_basis), and ad(b) for every
    b in the basis when full, else for the 2n generators e_i = x_{alpha_i}
    and f_i = x_{-alpha_i} only, from N and norms by root code.  ad h_i is
    diag(<r, alpha_i^vee>) over the basis weights, RepMatrices.h of the
    generators, so only the whole table writes it.

    x_{-r} sits |Phi+| + n places after x_r.  Column z of ad(b_y) holds
    [b_y, b_z].  Only nonzero int entries are written, so each matrix is
    built as is, without from_entries.  The Cartan and x_{+-a} entries are
    written directly; each ordered positive pair (a, b) of n_code with
    g = a + b and n = N_{a,b} gives the six root pairs with a root sum
    (a, b), (-a, -b), (g, -a), (-g, a), (-a, g) and (a, -g).  With
    m = n |b|^2 / |g|^2 (the norm relation on the zero-sum triple
    (g, -a, -b)) their constants are n, -n, -m, m, m and -m, the values
    antisymmetry and the norm relation give, so the root-root entries
    are omega-equivariant by construction.  g = a + b is never simple, so
    the generators take four of the six from each pair (alpha_i, b) and
    nothing from the other pairs: 956 of the 16,694 entries on E8, on the
    2n rows that are all the writer visits.
    """
    ordered = datum.positive_roots[::-1]
    npos = len(ordered)
    basis, weights = _adjoint_basis(datum)
    index = {r: i for i, r in enumerate(ordered)}
    at = {c: index[r] for c, r in positive.items()}  # g = a + b located by its code
    shift = npos + datum.rank  # h_j sits at npos + j, x_{-r} shift places after x_r
    rows = range(len(basis)) if full else sorted(  # e_i and f_i
        index[a] + s for a in datum.simple_roots for s in (0, shift))
    entries: dict[int, dict[tuple[int, int], int]] = {x: {} for x in rows}
    if full:
        for x, weight in enumerate(weights):
            for j, w in enumerate(weight):
                if w:  # [h_j, x_r] = <r, alpha_j^vee> x_r
                    entries[npos + j][(x, x)] = w
    for x in rows:
        if npos <= x < shift:
            continue
        sign = 1 if x < shift else -1
        for j, w in enumerate(weights[x]):
            if w:
                entries[x][(x, npos + j)] = -w
        for j, c in enumerate(datum.coroot_of[ordered[x % shift]]):
            if c:  # [x_r, x_{-r}] = r^vee
                entries[x][(npos + j, x + sign * shift)] = sign * c
    for (ca, cb), n in n_code.items():
        ia = at[ca]
        if ia not in entries:
            continue
        ib, ig = at[cb], at[ca + cb]
        m, rem = divmod(n * norm[cb], norm[ca + cb])
        if rem or m == 0:
            raise IntegrityError(f"N_{ordered[ig]},{_vneg(ordered[ia])} = "
                                 f"{Fraction(-n * norm[cb], norm[ca + cb])} is not a nonzero integer")
        ina, inb, ing = ia + shift, ib + shift, ig + shift
        entries[ia][(ig, ib)] = n  # [x_a, x_b] = n x_g
        entries[ina][(ing, inb)] = -n
        entries[ina][(ib, ig)] = m
        entries[ia][(inb, ing)] = -m
        if full:
            entries[ig][(ib, ina)] = -m  # [x_g, x_{-a}] = -m x_b
            entries[ing][(inb, ia)] = m
    return basis, weights, {basis[x]: SparseMatrix(len(basis), ent) for x, ent in entries.items()}


def _adjoint_basis(datum: RootDatum) -> tuple[list, tuple[Coords, ...]]:
    """The adjoint basis, ("root", r) for the positive roots by descending
    height (the reverse of their order in the datum, so lex within a
    height), then ("cartan", i), then the negative roots in the same order;
    and its weights, each root's read once from the datum and negated."""
    ordered = datum.positive_roots[::-1]
    rank = datum.rank
    up = [datum.root_weights[r] for r in ordered]
    return ([("root", r) for r in ordered] + [("cartan", i) for i in range(rank)]
            + [("root", _vneg(r)) for r in ordered],
            (*up, *((0,) * rank,) * rank, *map(_vneg, up)))


def _code_powers(rank: int, digit: int) -> list[int]:
    """B^i for i < rank, B = 2 digit + 1: codes in base B tell apart any two
    int vectors whose digits lie in [-digit, digit] (module docstring)."""
    base = 2 * digit + 1
    return [base ** i for i in range(rank)]


def _root_codes(datum: RootDatum) -> dict[int, Coords]:
    """Every positive root by its code, in datum order, so the simple roots
    lead; sums and differences of two roots have digits of at most twice
    the largest root coefficient, and their codes are distinct."""
    positive = datum.positive_roots
    powers = _code_powers(datum.rank, 2 * max(map(max, positive)))
    return {sum(map(operator.mul, r, powers)): r for r in positive}


def _string_length(codes, a: int, b: int) -> int:
    """p = max{k >= 0 : b - k a is a root}, on root codes.  No root codes to 0."""
    p = 0
    while (b := b - a) in codes:
        p += 1
    return p


def _exact(num: int, den: int, what: str, *roots: Coords) -> int:
    """num / den, which must be an integer: IntegrityError names the value otherwise."""
    val, rem = divmod(num, den)
    if rem:
        raise IntegrityError(f"{what.format(*roots)} = {Fraction(num, den)} is not an integer")
    return val


def structure_constants(datum: RootDatum) -> StructureConstants:
    """The whole table of Chevalley structure constants for one simple type,
    decoded once from root codes; each derived one is an exact integer with
    |N| = p + 1.  verify_jacobi(sc) certifies it."""
    if datum.rank > MAX_RANK:
        raise ResourceLimitError(
            f"rank {datum.rank} exceeds the structure-constant guard {MAX_RANK}"
        )
    positive, n_code, norm = _carter_constants(datum, full=True)
    root_of = positive | {-c: _vneg(r) for c, r in positive.items()}
    return StructureConstants(
        datum=datum, n_pos={(root_of[a], root_of[b]): v for (a, b), v in n_code.items()},
        root_set=frozenset(root_of.values()), norm2={root_of[c]: v for c, v in norm.items()})


def _carter_constants(datum: RootDatum, full: bool) -> tuple[dict[int, Coords], dict, dict[int, int]]:
    """The Carter recursion over every special pair when full, else over those
    whose first root is simple (module docstring): the positive roots by code
    (_root_codes), then N and every root's squared norm, keyed by codes."""
    positive = _root_codes(datum)
    codes = list(positive)  # the simple roots lead: codes[:rank]
    root_of = positive | {-c: _vneg(r) for c, r in positive.items()}  # names roots in messages
    norm = {c: datum.root_norm2[r] for c, r in positive.items()}
    norm |= {-c: v for c, v in norm.items()}

    # Special pairs of every gamma, in the order of their first root, so the
    # extraspecial pair comes first.
    special: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, a in enumerate(codes if full else codes[:datum.rank]):
        for b in codes[i + 1:]:
            if (gamma := a + b) in root_of:
                special[gamma].append((a, b))

    n_code: dict[tuple[int, int], int] = {}

    def put(a, b, val):
        n_code[(a, b)] = val
        n_code[(b, a)] = -val

    for gamma in codes:
        if sum(root_of[gamma]) == 1:
            continue
        pairs = special.get(gamma)
        if not pairs:
            raise IntegrityError(f"no decomposition found for positive root {root_of[gamma]}")
        ex_a, ex_b = pairs[0]
        p = _string_length(root_of, ex_a, ex_b)
        put(ex_a, ex_b, p + 1)
        # N_{-ex_a,gamma} from the norm relation on (-ex_a, gamma, -ex_b).
        n_minus_gamma = _exact(norm[ex_b] * (p + 1), norm[gamma], "N_{},{}",
                               root_of[-ex_a], root_of[gamma])
        for a, b in pairs[1:]:
            # Jacobi on (x_{-ex_a}, x_a, x_b), all terms proportional to x_{ex_b}:
            #   N_{a,b} N_{-ex_a,gamma} + N_{b,-ex_a} N_{a,b-ex_a} + N_{-ex_a,a} N_{b,a-ex_a} = 0
            acc = 0
            if (delta := b - ex_a) in root_of:
                acc += _exact(-norm[delta] * n_code[(ex_a, delta)], norm[b], "N_{},{}",
                              root_of[b], root_of[-ex_a]) * n_code[(a, delta)]
            if (eps := a - ex_a) in root_of:
                acc += _exact(norm[eps] * n_code[(ex_a, eps)], norm[a], "N_{},{}",
                              root_of[-ex_a], root_of[a]) * n_code[(b, eps)]
            val = _exact(-acc, n_minus_gamma, "derived constant N_{},{}", root_of[a], root_of[b])
            expect = _string_length(root_of, a, b) + 1
            if abs(val) != expect:
                raise IntegrityError(
                    f"derived constant N_{root_of[a]},{root_of[b]} = {val}, |N| should be {expect}"
                )
            put(a, b, val)

    return positive, n_code, norm


# -- Jacobi check ------------------------------------------------------------

def verify_jacobi(sc: StructureConstants) -> None:
    """Jacobi check of the whole table, for the tests: involution, then a tree.

    1. omega(x_a) = -x_{-a}, omega(h) = -h.  Each entry (k, z) = v of
       ad(b_y) needs (omega k, omega z) = -v in ad(b_{omega y}), with as many
       entries: omega is an automorphism of the bracket.  The table is
       omega-equivariant by construction; this names a corrupted one.
    2. Base: column x_{-theta} of every ad f_j is empty, and the derivation
       check runs for (f_j, x_{-theta}) and (h_j, x_{-theta}).
    3. Tree: each edge [e_i, w] = c b of the raising tree from x_{-theta}
       (_raising_tree, which must reach every basis element) gives the
       derivation check for (e_i, w).  Cartan elements are reached as
       [e_j, f_j] = h_j, simple roots from a Cartan element as
       [e_i, h_j] = -a_ij e_i.
    4. Chevalley-Serre: the table's ad h_j must be rho(h_j) = diag(<mu,
       alpha_j^vee>) over the basis weights (RepMatrices.h), and _check_rep
       runs on the generators e_i, f_i read off the table, with x_theta
       from them (_theta_by_tree).  It runs last so that a table fault is
       named by the step above that sees it.

    That is dim - 1 + 2n derivation checks (_check_derivation), and they
    give the full Jacobi identity.  By step 4 and Serre's theorem the
    adjoint space V is a g-module (rho(x) = ad x on the generators, the h_j
    among them by the comparison with the weights), so End V
    is one too, under T -> [rho(x), T].  By steps 2 and 4, x_{-theta} is a
    lowest-weight vector of V, and by step 3, V = U(g) x_{-theta}: a cyclic
    finite-dimensional lowest-weight module, hence irreducible.  Step 2 also
    makes ad x_{-theta} a lowest-weight vector of End V of the same weight, so
    there is a module map Phi: V -> End V with Phi(x_{-theta}) = ad x_{-theta}.
    Along each tree edge [ad e_i, ad w] = c ad b, so ad b = (1/c)[ad e_i,
    ad w] = (1/c)[rho(e_i), Phi(w)] = Phi(b): ad = Phi is a module map, that
    is ad([x, y]) = [ad x, ad y] for every generator x and every y.  The x
    with ad x a derivation form a subspace closed under the bracket
    (ad [x, y] = [ad x, ad y]) and the generators generate (each b is
    (1/c)[e_i, w] along the tree), so the full Jacobi identity holds.  The
    bracket is antisymmetric by construction; all arithmetic is on Python
    ints.
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

    datum = sc.datum
    e = [index[("root", a)] for a in datum.simple_roots]
    f = [index[("root", _vneg(a))] for a in datum.simple_roots]
    h = [index[("cartan", j)] for j in range(datum.rank)]

    base = index[("root", _vneg(datum.theta))]
    for fj, hj in zip(f, h):
        if base in ad[fj].cols:
            raise IntegrityError(f"{basis[fj]} does not kill the lowest root vector {basis[base]}")
        _check_derivation(basis, ad, ad[fj].cols, fj, base)
        _check_derivation(basis, ad, ad[hj].cols, hj, base)
    for g, w, _, _ in _raising_tree(basis, {g: ad[g].cols for g in e}, base):
        _check_derivation(basis, ad, ad[g].cols, g, w)
    rep = _adjoint_generators(datum, basis, _adjoint_basis(datum)[1], sc.ad)
    for j, hj in enumerate(h):
        if ad[hj] != rep.h[j]:
            raise IntegrityError(f"{rep.name}: h_{j+1} disagrees with basis weights")
    _check_rep(rep)


def _raising_tree(basis: list, columns: dict, base: int):
    """Yield the edges (g, w, b, c), [e_g, w] = c b, of the breadth-first tree
    from base under the raising generators (columns: {g: e_g.cols}).

    Each e_g whose column w holds exactly one entry c b, with b not yet
    reached, reaches b.  Every edge raises the height by one, so this walks
    by ascending height; every basis element must be reached."""
    reached = {base}
    order = [base]
    generators = list(columns.items())
    for w in order:
        for g, column in generators:
            if w in column and len(edge := column[w]) == 1:
                b, = edge
                if b not in reached:
                    reached.add(b)
                    order.append(b)
                    yield g, w, b, edge[b]
    if len(order) != len(basis):
        raise IntegrityError(
            f"the raising generators reach {len(order)} of {len(basis)} basis elements "
            f"from {basis[base]}")


def _check_derivation(basis, ad: list[SparseMatrix], column, g: int, y: int) -> None:
    """[ad b_g, ad b_y] = ad([b_g, b_y]), with [b_g, b_y] = sum_k v_k b_k read
    off column y of ad b_g (column: {y: {k: v_k}}).

    Both sides are SparseMatrix operations (commutator; scale and +), which
    normalise as they build, so they are compared as matrices.
    """
    bracket = sum((ad[k].scale(v) for k, v in column.get(y, {}).items()), SparseMatrix.zero(len(ad)))
    if ad[g].commutator(ad[y]) != bracket:
        raise IntegrityError(f"Jacobi identity fails for {basis[g]}, {basis[y]}")


# -- representation matrices --------------------------------------------------

class RepMatrices(namedtuple("RepMatrices", "datum basis_weights e f e_theta name",
                             defaults=("rep",))):
    """e, f: tuples of the n generator matrices on a basis of weight vectors
    whose weights are basis_weights; e_theta: x_theta; name labels
    messages.  dim and h are derived from the weights, never passed."""

    @property
    def dim(self) -> int:
        return len(self.basis_weights)

    @functools.cached_property
    def h(self) -> tuple[SparseMatrix, ...]:
        """rho(h_i) := diag(<mu, alpha_i^vee>) over basis_weights, i = 1..n.
        On a weight basis this is the definition of the Cartan generators,
        so it is built only when read; no certify step reads it (_check_rep
        checks [e_i, N] against the weights themselves)."""
        weights = self.basis_weights
        return tuple(SparseMatrix(len(weights), {(k, k): w[i] for k, w in enumerate(weights) if w[i]})
                     for i in range(self.datum.rank))

    @functools.cached_property
    def N(self) -> SparseMatrix:
        """sum_j f_j in one accumulator, normalised once: the entries of f_1
        + ... + f_n, with no sum formed per term.  Formed once per
        representation (a _replace forms it anew): _check_rep and
        principal_triple share it, and with it the row and column indexes
        that the [e_i, N] commutators build and the Jordan sweep reads
        again."""
        dim = self.f[0].dim
        acc = defaultdict(int)
        for f in self.f:
            if f.dim != dim:
                raise UsageError("matrix dimensions differ")
            for k, v in f.entries.items():
                acc[k] += v
        return SparseMatrix(dim, {k: _norm(v) for k, v in acc.items() if v})


def _check_rep(rep: RepMatrices) -> None:
    """Enforce the Chevalley-Serre relations and weight compatibility.

    The Cartan generators are rho(h_i) := diag(<mu, alpha_i^vee>) over the
    declared basis weights mu (RepMatrices.h): defined, not passed, so no
    stored h_i is compared with the weights.  Every e_j, f_j and e_theta
    must be dim x dim (RepMatrices.dim, the number of basis weights), with
    n of each e_j and f_j.  Every entry of e_j (f_j) must move a weight mu to mu +
    alpha_j (mu - alpha_j), and every entry of e_theta must move mu to mu +
    theta.  With h_i diagonal, [h_i, x] has entry (h_i[r] - h_i[c]) x[r,
    c], so this grading is exactly [h_i, e_j] = a_ji e_j and [h_i, f_j] =
    -a_ji f_j, a_ji = <alpha_j, alpha_i^vee>.

    The grading runs on int codes (_code_powers): an entry (r, c) of e_j
    passes when codes[r] = codes[c] + code(alpha_j), which is the tuple
    test w_r = w_c + alpha_j.  With M the largest |mu_i| over the basis
    weights, w_r has digits in [-M, M] and w_c + alpha_j in [-M - 3, M + 3],
    since Cartan entries lie in [-3, 2] and theta's weight entries in
    [0, 2], so the codes are in base 2M + 7.  In base 2M + 1 the digits
    (-(2M + 1), 1) of w_r - w_c - alpha_1 code to 0: w_r = (-1, 0),
    w_c = (0, 0) and alpha_1 = (2, -1) on A2.

    [e_i, N] = h_i is checked entry by entry on the commutator: each entry
    sits at some (k, k) and equals <w_k, alpha_i^vee>, and there are as many
    as basis weights with a nonzero pairing, so every (k, k) with one is
    hit.  With N = sum_j f_j (rep.N) it is [e_i, f_j] = delta_ij h_i for
    all j: by the grading every entry (r, c) of [e_i, f_j] has w_r - w_c =
    alpha_i - alpha_j, a shift that differs for each j, so the terms sit on
    disjoint entries, and h_i, at shift 0, must be the j = i term.

    Defining h_i rather than taking it as input loses no certificate: the
    only h_i that acts on a weight basis as its weights say is this
    diagonal, so the relations below are those of the triple (e_i, h_i,
    f_i) for the one admissible h_i, and [h_i, h_j] = 0 holds for any two
    diagonal matrices.  h_i acts on basis vector k by <w_k, alpha_i^vee>,
    so the character of V is the multiset of basis weights (adjoint_rep).

    The Serre relations need no commutator of their own.  By the checks
    above (e_i, h_i, f_i) is an sl_2-triple in gl(V), so End V is a
    finite-dimensional sl_2-module under ad.  For j != i, e_j is killed by
    ad f_i ([e_j, f_i] = 0) and has ad h_i-weight a = a_ji <= 0: a
    lowest-weight vector of weight a, so (ad e_i)^{1-a} e_j = 0
    (Humphreys, Introduction to Lie Algebras, 7.2, the argument of 18.1 on
    End V).  Likewise f_j is killed by ad e_i and has weight -a >= 0, so
    (ad f_i)^{1-a} f_j = 0.  These relations present the Lie algebra
    (Serre's theorem), so passing the check certifies that the matrices
    define a representation; [e_theta, e_i] = 0 pins the highest-root
    vector, n more commutators.
    """
    datum = rep.datum
    n = datum.rank
    weights = rep.basis_weights
    dim = rep.dim
    if (len(rep.e), len(rep.f)) != (n, n):
        raise IntegrityError(f"{rep.name}: {len(rep.e)} e_j and {len(rep.f)} f_j "
                             f"on {dim} basis weights of rank {n}")
    for label, mats in (("e_{}", rep.e), ("f_{}", rep.f), ("e_theta", (rep.e_theta,))):
        for j, m in enumerate(mats, 1):
            if m.dim != dim:
                raise IntegrityError(f"{rep.name}: {label.format(j)} is {m.dim}x{m.dim} "
                                     f"on {dim} basis weights")
    powers = _code_powers(n, max(map(abs, itertools.chain.from_iterable(weights)), default=0) + 3)
    codes = [sum(map(operator.mul, w, powers)) for w in weights]
    for j, alpha in enumerate(datum.cartan):  # row j is alpha_j in weight coordinates
        a = sum(map(operator.mul, alpha, powers))
        if any(codes[r] != codes[c] + a for r, c in rep.e[j].entries):
            raise IntegrityError(f"{rep.name}: e_{j+1} breaks the weight grading")
        if any(codes[c] != codes[r] + a for r, c in rep.f[j].entries):
            raise IntegrityError(f"{rep.name}: f_{j+1} breaks the weight grading")
    t = sum(map(operator.mul, datum.root_weights[datum.theta], powers))
    if any(codes[r] != codes[c] + t for r, c in rep.e_theta.entries):
        raise IntegrityError(f"{rep.name}: e_theta breaks the weight grading")
    for i, pairing in enumerate(zip(*weights)):  # pairing[k] = <w_k, alpha_i^vee>
        bracket = rep.e[i].commutator(rep.N).entries
        if len(bracket) != dim - pairing.count(0) or any(
                r != c or pairing[r] != v for (r, c), v in bracket.items()):
            raise IntegrityError(f"{rep.name}: [e_{i+1}, N] != h_{i+1}")
    for i in range(n):
        if not rep.e_theta.commutator(rep.e[i]).is_zero():
            raise IntegrityError(f"{rep.name}: [e_theta, e_{i+1}] != 0")


def _theta_matrix(datum: RootDatum, e: tuple[SparseMatrix, ...]) -> SparseMatrix:
    """x_theta on a weight representation, via x_gamma = [e_i, x_{gamma-alpha_i}] / N.

    The first i with delta = gamma - alpha_i a positive root gives the
    extraspecial pair (alpha_i, delta) of gamma: in the (height,
    reverse-lex) order alpha_1 < alpha_2 < ... come before every root of
    height 2 or more, so alpha_i is the minimal first root of any
    decomposition of gamma.  Its constant is N = +(p+1), p the length of
    the alpha_i-string down from delta, which positive roots alone fix
    (delta - k alpha_i with delta != alpha_i positive is a positive root or
    no root).  The chain carries each x_gamma as a pair (M, D) with x_gamma
    = M / D, D the product of the N along it: M_gamma = [e_i, M_delta] and
    D_gamma = N D_delta, since the commutator is linear.  On int e_i, M stays
    on ints, and the one division, by D at theta, gives the same exact
    entries as a division at each step.  No runtime check sees the scale of
    x_theta ([e_theta, e_i] = 0 and [E, RHO] = (h-1) E hold for any nonzero
    multiple): the tests pin it against the structure constants of the
    bracket table.  The adjoint takes _theta_by_tree, whose seed theta^vee
    fixes the scale.
    """
    positive = _root_codes(datum)
    simple = list(positive)[:datum.rank]  # the code of alpha_i is simple[i]
    mats: dict[int, tuple[SparseMatrix, int]] = {a: (m, 1) for a, m in zip(simple, e)}

    def build(gamma: int) -> tuple[SparseMatrix, int]:
        got = mats.get(gamma)
        if got is not None:
            return got
        for i, alpha in enumerate(simple):
            if (delta := gamma - alpha) in positive:
                m, den = build(delta)
                mats[gamma] = got = (e[i].commutator(m), den * (_string_length(positive, alpha, delta) + 1))
                return got
        raise IntegrityError(f"no simple-root decomposition for {positive[gamma]}")

    m, den = build(next(c for c, r in positive.items() if r == datum.theta))
    return SparseMatrix(m.dim, {k: v // den if not v % den else Fraction(v, den) for k, v in m.entries.items()})


def _adjoint_generators(datum: RootDatum, basis: list, weights: tuple, ad: dict) -> RepMatrices:
    """e_i, f_i read off ad (_ad_columns, the whole table or the generators
    alone), and x_theta from the e_i (_theta_by_tree); h_i is RepMatrices.h."""
    e = tuple(ad[("root", a)] for a in datum.simple_roots)
    return RepMatrices(
        datum=datum, basis_weights=weights,
        e=e, f=tuple(ad[("root", _vneg(a))] for a in datum.simple_roots),
        e_theta=_theta_by_tree(datum, basis, e),
        name=f"adjoint({datum.stype})")


def _theta_by_tree(datum: RootDatum, basis: list, e: tuple[SparseMatrix, ...]) -> SparseMatrix:
    """X = ad x_theta on the adjoint basis, one column per basis element:
    column x_{-theta} is [x_theta, x_{-theta}] = theta^vee, and along each
    edge [e_i, w] = c b of the raising tree from x_{-theta} column b is
    (1/c) e_i (column w), which is [X, e_i] = 0 on the edge; e_i (column w)
    is _row_times on the cached cols of e_i, divided exactly by c.  So a
    zero column w gives a zero column b, and that edge forms nothing; the
    tree still walks every edge, so its reach check is unchanged.  adjoint_rep
    certifies X.  theta, the one root of greatest height, leads the
    positive roots, so x_{-theta} follows the n Cartan elements."""
    cartan = len(datum.positive_roots)
    base = cartan + datum.rank
    x = {base: {cartan + j: c for j, c in enumerate(datum.coroot_of[datum.theta]) if c}}
    columns = {i: m.cols for i, m in enumerate(e)}
    for i, w, b, c in _raising_tree(basis, columns, base):
        if not x.get(w):
            continue
        x[b] = {r: v // c if not v % c else Fraction(v, c)
                for r, v in _row_times(x[w], columns[i]).items()}
    return SparseMatrix(len(basis), {(r, b): v for b, col in x.items() for r, v in col.items()})


def _check_theta_cartan_columns(rep: RepMatrices) -> None:
    """x_theta h_j = -<theta, alpha_j^vee> u for every j and one vector u, as
    on ad x_theta (u = x_theta); h_j sits after the positive roots."""
    cartan = len(rep.datum.positive_roots)
    pairing = rep.datum.root_weights[rep.datum.theta]
    k = next(j for j, w in enumerate(pairing) if w)
    cols = rep.e_theta.cols
    for j, w in enumerate(pairing):
        if ({r: pairing[k] * v for r, v in cols.get(cartan + j, {}).items()}
                != {r: w * v for r, v in cols.get(cartan + k, {}).items() if w}):
            raise IntegrityError(f"{rep.name}: e_theta h_{j+1} is not "
                                 f"-<theta, alpha_{j+1}^vee> times one vector")


def adjoint_rep(datum: RootDatum) -> RepMatrices:
    """Adjoint representation on the basis (roots by descending height, Cartan,
    negative roots): e_i, f_i written alone (_ad_columns, no bracket table)
    from the generator-only Carter constants, which are those of
    structure_constants with the same checks (module docstring), and x_theta
    from the raising tree (_theta_by_tree).  h_i is diag(<mu, alpha_i^vee>)
    over the basis weights (RepMatrices.h), which no step writes or reads.
    No rank guard applies.

    _check_rep and the Cartan-column check are the certificate.  By Serre's
    theorem the generators define a g-module V, and h_i acts by its
    pairings with the basis weights, which fixes the character of V (the
    roots, and 0 n times); that fixes a finite-dimensional
    module (Humphreys, Introduction to Lie Algebras, 18.3, 22.5), so V is
    the adjoint module, V = phi(g).  The tree's X is rho(x_theta):
    - X has weight theta: it maps x_{-theta} into the Cartan, and each edge
      raises both sides by alpha_i (the grading check).
    - X commutes with every e_i: on the tree edges by construction, on all
      of V by _check_rep's [e_theta, e_i] = 0.
    - So X is a highest-weight vector of weight theta in End V.  Those form
      the line of rho(x_theta), except on A_n, n >= 2, where the symmetric
      product S(x) y = xy + yx - (2/(n+1)) tr(xy) 1 adds S(x_theta) h_j =
      (delta_1j - delta_nj) x_theta, against ad x_theta h_j = -(delta_1j +
      delta_nj) x_theta.
      phi scales the Cartan by one factor (e_j f_j = h_j and e_j h_k =
      -a_kj e_j are written directly), so the Cartan-column check, X h_j =
      -<theta, alpha_j^vee> u for one u, refuses every X with an S part.
    - So X = rho(c x_theta), and X x_{-theta} = theta^vee = [x_theta,
      x_{-theta}] makes c the ratio of phi's scales on x_{-theta} and on the
      Cartan: 1 on the adjoint's own generators, -1 under a sign rebasing
      that flips one against the other.
    The Jordan type and the flatness identities read nothing else: no Jacobi
    check.
    """
    rep = _adjoint_generators(datum, *_ad_columns(datum, *_carter_constants(datum, full=False),
                                                   full=False))
    _check_rep(rep)
    _check_theta_cartan_columns(rep)
    return rep


def _weight_rep(datum: RootDatum, lam: Coords) -> RepMatrices:
    """V(lam) on its weights, for minuscule lam and for V(omega_1) of B_n and G2.

    The basis is the weights by (-<mu, 2 rho^vee>, mu); e_i v_mu =
    v_{mu+alpha_i} and f_i v_{mu+alpha_i} = q (q + <mu, alpha_i^vee> + 1)
    v_mu, with q >= 1 the steps from mu to the top of its string, which is
    [e_i, f_i] = h_i along the string.  That is 1 on every minuscule string
    and 2, 2 on the string through the zero weight of B_n's V(omega_1).
    The weights of V(lam) form unbroken strings that s_i reverses, so with
    p the steps from mu down to the bottom of its string, <mu, alpha_i^vee>
    = p - q and the f entry is q (p + 1) >= 1: every entry of e and f is a
    nonzero int, and each matrix is written as is, without from_entries; h
    is RepMatrices.h, diag(<mu, alpha_i^vee>), and is not built.  A
    weight with multiplicity is refused, and multiplicity-free is not
    enough: with e_i = 1 on every edge, f_j can depend on the path around a
    weight square, and _check_rep refuses A2 and A3 V(2 omega_1) and C3
    V(omega_3) ([e_1, f_2] fails).  _check_rep certifies every case it
    passes.  x_theta comes from the chain (_theta_matrix), so no bracket
    table is built and no rank guard applies.  The caller bounds the size:
    V(omega_1) is at most 45-dimensional (B22) under the root guard.
    """
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
    e = tuple(SparseMatrix(dim, ent) for ent in e_entries)
    f = tuple(SparseMatrix(dim, ent) for ent in f_entries)
    rep = RepMatrices(datum=datum, basis_weights=weights, e=e, f=f,
                      e_theta=_theta_matrix(datum, e),
                      name=f"V({','.join(map(str, lam))}) of {datum.stype}")
    _check_rep(rep)
    return rep


def classical_std_rep(datum: RootDatum) -> RepMatrices:
    """Standard representation V(omega_1) of a classical type, from its weights.

    V(omega_1) has dimension n+1 on A_n, 2n+1 on B_n, 2n on C_n and D_n;
    its weights have multiplicity 1, so _weight_rep builds it.
    """
    return _weight_rep(datum, std_weight(datum))


# -- principal triple ---------------------------------------------------------

# N, RHO and E of one representation of datum's type, dim x dim with
# dim = N.dim (principal_triple).
PrincipalTriple = namedtuple("PrincipalTriple", "datum N RHO E")


def principal_triple(rep: RepMatrices) -> PrincipalTriple:
    """N = sum f_i (rep.N, the one _check_rep used), E = x_theta,
    RHO = diag(-<basis weight, rho^vee>).

    RHO is half the int level -<mu, 2 rho^vee>, a Fraction only at odd
    levels.  [N, RHO] = -N and [E, RHO] = (h-1) E are not checked here: they
    follow from _check_rep, which every rep passed.  Its grading puts each
    entry (r, c) of f_j at w_r = w_c - alpha_j and of e_theta at w_r = w_c +
    theta, and [X, RHO][r, c] = X[r, c] (RHO[c] - RHO[r]) for diagonal RHO,
    with <alpha_j, 2 rho^vee> = 2 and <theta, 2 rho^vee> = 2 (h-1).  The
    flatness residual certifies both again.
    """
    datum = rep.datum
    levels = [-sum(map(operator.mul, w, datum.two_rho_covector)) for w in rep.basis_weights]
    rho = {(i, i): Fraction(k, 2) if k % 2 else k // 2 for i, k in enumerate(levels) if k}
    return PrincipalTriple(datum=datum, N=rep.N, RHO=SparseMatrix(rep.dim, rho), E=rep.e_theta)


def jordan_type(matrix: SparseMatrix) -> JordanPartition:
    """Jordan partition of a graded nilpotent matrix, exactly.

    N = sum f_i on a weight basis raises <mu, rho^vee> by <alpha_i, rho^vee>
    = 1 on every nonzero entry, so graded_blocks sweeps it.  A matrix whose
    support raises no grading by one (a nonzero diagonal entry, or (0,1),
    (1,2) and (0,2)) is refused with UsageError before any elimination.
    """
    blocks = graded_blocks(matrix)
    if blocks is None:
        raise UsageError("matrix raises no grading by exactly one")
    part = JordanPartition(tuple(blocks))
    if part.total != matrix.dim:
        raise IntegrityError("Jordan blocks do not sum to the dimension")
    return part
