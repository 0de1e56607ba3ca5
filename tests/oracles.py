"""Test-side routes that the package does not need at run time.

Each one recomputes something the package ships by a second, slower road
(a weightwise product of characters, a dense matrix for Gauss-Jordan, the
symmetrizer on Fractions), writes a matrix out for a human reader, or is a
small formula only the tests read (a diagonal matrix, the tensor-product
grading, the connection's dt/t coefficient, the root coordinates of a weight
through the Cartan matrix's rational inverse, the weight and the Gram norm of
a root, a coroot pairing, the Hodge table of a Jordan partition).
two_sided_root_datum is the reflection closure that also takes lowering
steps, the route the package's raising-only closure must reproduce field
for field.
carter_structure_constants is the tuple-arithmetic build of the bracket table
that the package's int-coded one must reproduce bit for bit.
serre_relations_hold forms the Serre commutators that the package's
Chevalley-Serre check proves implied.  The package forms matrix products
only in linalg, by the commutator of two matrices and by _row_times, a
matrix times a vector (the Jordan sweep, the x_theta tree), and reads a
Jordan type only off the level sweep: matrix_product and laurent_product
are the products its commutators are checked against, and power_ranks is
the row-space rank chain that checks the sweep, on any nilpotent matrix.
theta_chain_by_steps divides x_gamma by its N at each step of the
extraspecial chain, where the package carries one denominator to theta.
graded_blocks_by_setdefault finds its levels with a membership test and a
setdefault per edge, the pass whose blocks the package's one-lookup pass
must reproduce.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import groupby
from fractions import Fraction

from fghodge.character import Character
from fghodge.chevalley import PrincipalTriple, StructureConstants
from fghodge.connection import LaurentMatrix
from fghodge.grading import HodgeTable, JordanPartition
from fghodge.errors import IntegrityError, UsageError
from fghodge.linalg import Entry, SparseMatrix, _echelon, _insert, _int_rows, _row_times
from fghodge.rootdatum import Coords, RootDatum, SimpleType, _cartan_matrix


def product_character_grading(c1: Character, c2: Character) -> HodgeTable:
    """Grading of the product character, convolving weightwise."""
    trc = c1.datum.two_rho_covector
    dims: dict[int, int] = {}
    for mu1, m1 in c1.mult.items():
        k1 = sum(a * b for a, b in zip(mu1, trc))
        for mu2, m2 in c2.mult.items():
            k = k1 + sum(a * b for a, b in zip(mu2, trc))
            dims[k] = dims.get(k, 0) + m1 * m2
    return HodgeTable(dims)


def hodge_from_partition(p: JordanPartition) -> HodgeTable:
    """Centered table: h at 2*alpha counts blocks r with |2 alpha| <= r-1, 2 alpha = r-1 (mod 2);
    the inverse of grading.partition_from_grading."""
    dims: dict[int, int] = {}
    for r in p.blocks:
        for k in range(-(r - 1), r, 2):
            dims[k] = dims.get(k, 0) + 1
    return HodgeTable(dims)


def to_dense(m: SparseMatrix) -> list[list[Entry]]:
    dense = [[0] * m.dim for _ in range(m.dim)]
    for (r, c), v in m.entries.items():
        dense[r][c] = v
    return dense


def diagonal(values) -> SparseMatrix:
    """The diagonal matrix with the given entries; the package builds none."""
    values = list(values)
    return SparseMatrix.from_entries(len(values), {(i, i): v for i, v in enumerate(values)})


def dump_triplets(m: SparseMatrix) -> str:
    """Sparse triplet text: one "row col numerator/denominator" per line."""
    lines = ["# sparse matrix, dim %d, entries %d" % (m.dim, m.nnz),
             "# row col numerator/denominator"]
    for (r, c) in sorted(m.entries):
        v = Fraction(m.entries[(r, c)])
        lines.append(f"{r} {c} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def matrix_product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """AB, summed entry by entry over the rows of b, zeros dropped and
    values normalised by from_entries."""
    rows_b: dict[int, list[tuple[int, Entry]]] = defaultdict(list)
    for (k, c), v in b.entries.items():
        rows_b[k].append((c, v))
    out: dict[tuple[int, int], Entry] = defaultdict(int)
    for (r, k), v in a.entries.items():
        for c, w in rows_b[k]:
            out[(r, c)] += v * w
    return SparseMatrix.from_entries(a.dim, out)


def laurent_product(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """AB: t^(a1+a2) z^(b1+b2) times the product of the coefficients, summed
    over both coefficient sets."""
    out = LaurentMatrix.zero(a.dim)
    for (t1, z1), m1 in a.coeffs.items():
        for (t2, z2), m2 in b.coeffs.items():
            out = out + LaurentMatrix.from_scalar_matrix(matrix_product(m1, m2), t1 + t2, z1 + z2)
    return out


def power_ranks(matrix: SparseMatrix) -> list[int]:
    """[rank M, rank M^2, ..., 0] for a nilpotent M, without forming any power.

    rowspace(M^(k+1)) = rowspace(M^k) M, so an echelon basis of rowspace(M^k)
    times M, re-echelonized, gives rank M^(k+1); the chain starts from the
    identity.  Raises UsageError as soon as a rank fails to fall: M is then
    not nilpotent.
    """
    rows = _int_rows(matrix)
    ranks = [matrix.dim]
    basis = {r: {r: 1} for r in range(matrix.dim)}
    while ranks[-1]:
        basis = _echelon([_row_times(row, rows) for row in basis.values()])
        if len(basis) >= ranks[-1]:
            raise UsageError("matrix is not nilpotent")
        ranks.append(len(basis))
    return ranks[1:]


def rank_chain_blocks(matrix: SparseMatrix) -> tuple[int, ...]:
    """Jordan blocks of a nilpotent matrix, descending: r_{s-1} - 2 r_s + r_{s+1}
    blocks of size s, r_k = rank M^k from power_ranks."""
    r = [matrix.dim] + power_ranks(matrix) + [0]
    return tuple(s for s in range(len(r) - 2, 0, -1) for _ in range(r[s - 1] - 2 * r[s] + r[s + 1]))


def graded_blocks_by_setdefault(matrix: SparseMatrix) -> list[int] | None:
    """linalg.graded_blocks with its levels found by a membership test and a
    setdefault per edge and direction; None when two edges disagree."""
    level: dict[int, int] = {}
    for start in range(matrix.dim):
        queue = [] if start in level else [start]
        level.setdefault(start, 0)
        for u in queue:
            for index, step in ((matrix.rows, 1), (matrix.cols, -1)):
                for v in index.get(u, ()):
                    if v not in level:
                        queue.append(v)
                    if level.setdefault(v, level[u] + step) != level[u] + step:
                        return None
    rows, blocks, carried, pivots = _int_rows(matrix), [], [], {}
    for k, born in groupby(sorted(level, key=level.get), level.get):
        carried += [(k, {i: 1}) for i in born if i not in pivots]
        pivots, survivors = {}, []
        for birth, row in carried:
            if (col := _insert(pivots, _row_times(row, rows))) is None:
                blocks.append(k - birth + 1)
            else:
                survivors.append((birth, pivots[col]))
        carried = survivors
    return blocks


def tensor_grading(g1: HodgeTable, g2: HodgeTable) -> HodgeTable:
    """Convolution; the grading of a tensor product because 2rho acts by weight sums."""
    dims: dict[int, int] = {}
    for k1, v1 in g1.dims.items():
        for k2, v2 in g2.dims.items():
            dims[k1 + k2] = dims.get(k1 + k2, 0) + v1 * v2
    return HodgeTable(dims)


def fg_matrix(triple: PrincipalTriple) -> LaurentMatrix:
    """dt-coefficient A(t) = N/t + E of the connection d + (N + Et) dt/t."""
    return (LaurentMatrix.from_scalar_matrix(triple.N, dt=-1)
            + LaurentMatrix.from_scalar_matrix(triple.E))


def invert_rational(mat) -> list[list[Fraction]]:
    """Inverse of an integer matrix: fraction-free Gauss-Jordan on ints, then one
    Fraction per entry (row i of the result is row i of the right half / its pivot)."""
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        for r in range(n):
            v = aug[r][col]
            if r != col and v != 0:
                g = math.gcd(prow[col], v)
                a, b = prow[col] // g, v // g
                row = [a * x - b * y for x, y in zip(aug[r], prow)]
                content = math.gcd(*row)
                aug[r] = [x // content for x in row]
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


def root_coordinates(datum: RootDatum, mu) -> tuple[Fraction, ...]:
    """Simple-root coordinates of a weight (rational in general): mu = c C with
    C the Cartan matrix, so c = mu C^-1 and row k of C^-1 is omega_k."""
    n = datum.rank
    inverse = invert_rational(datum.cartan)
    return tuple(
        sum(Fraction(mu[k]) * inverse[k][i] for k in range(n)) for i in range(n)
    )


def weight_of_root(datum: RootDatum, root: Coords) -> Coords:
    """Fundamental-weight coordinates <root, alpha_j^vee> of a root-lattice vector."""
    n = datum.rank
    return tuple(sum(root[i] * datum.cartan[i][j] for i in range(n)) for j in range(n))


def gram_matrix(datum: RootDatum) -> tuple[Coords, ...]:
    """The invariant form on the simple roots, (alpha_i, alpha_j) =
    cartan[i][j] * halfnorms[j]; short roots have squared length 2."""
    n = datum.rank
    return tuple(tuple(datum.cartan[i][j] * datum.halfnorms[j] for j in range(n))
                 for i in range(n))


def gram_norm2(datum: RootDatum, root: Coords) -> int:
    """(root, root) through the Gram matrix."""
    form = gram_matrix(datum)
    n = datum.rank
    return sum(root[i] * root[j] * form[i][j] for i in range(n) for j in range(n))


def fraction_symmetrizer(cartan) -> tuple[int, ...]:
    """Minimal positive integers d with cartan[i][j]*d[j] symmetric, through
    Fraction ratios from d[0] = 1, then cleared of denominators."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    if any(x is None for x in d):
        raise IntegrityError("Dynkin graph must be connected")
    scale = math.lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def root_pairing(datum: RootDatum, mu: Coords, root: Coords) -> int:
    """<mu, root^vee> for mu in weight coordinates."""
    return sum(m * c for m, c in zip(mu, datum.coroot_of[root]))


def _vadd(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: Coords, b: Coords) -> Coords:
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a: Coords) -> Coords:
    return tuple(-x for x in a)


def serre_relations_hold(rep) -> bool:
    """(ad e_i)^{1-a_ji} e_j = 0 and (ad f_i)^{1-a_ji} f_j = 0 for every i != j,
    a_ji = <alpha_j, alpha_i^vee>: the commutators chevalley._check_rep
    leaves to its proof."""
    cartan = rep.datum.cartan
    n = rep.datum.rank
    for gens in (rep.e, rep.f):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                acc = gens[j]
                for _ in range(1 - cartan[j][i]):
                    acc = gens[i].commutator(acc)
                if not acc.is_zero():
                    return False
    return True


def string_length(root_set, a: Coords, b: Coords) -> int:
    """p = max{k >= 0 : b - k a is a root}, on coordinate tuples."""
    p = 0
    while (b := _vsub(b, a)) in root_set:
        p += 1
    return p


def _exact(num: int, den: int, what: str) -> int:
    val, rem = divmod(num, den)
    if rem:
        raise IntegrityError(f"{what} = {Fraction(num, den)} is not an integer")
    return val


def carter_structure_constants(datum: RootDatum) -> StructureConstants:
    """Carter's extraspecial-pair recursion on coordinate tuples, unverified.

    The same special pairs, order of insertion and recursion as
    chevalley.structure_constants, with every root a tuple and every sum and
    difference taken coordinatewise, then a root-string check on every
    special pair, which the package does without: the recursion sets each
    extraspecial constant from the string and checks each derived one.
    """
    positive = datum.positive_roots
    root_set = frozenset(positive) | frozenset(_vneg(r) for r in positive)
    norm2 = dict(datum.root_norm2)
    norm2.update({_vneg(r): norm2[r] for r in positive})

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

    for gamma in positive:
        if sum(gamma) == 1:
            continue
        pairs = special.get(gamma)
        if not pairs:
            raise IntegrityError(f"no decomposition found for positive root {gamma}")
        ex_a, ex_b = pairs[0]
        p = string_length(root_set, ex_a, ex_b)
        put(ex_a, ex_b, p + 1)
        n_minus_gamma = _exact(norm2[ex_b] * (p + 1), norm2[gamma], f"N_{_vneg(ex_a)},{gamma}")
        for a, b in pairs[1:]:
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
            expect = string_length(root_set, a, b) + 1
            if abs(val) != expect:
                raise IntegrityError(f"derived constant N_{a},{b} = {val}, |N| should be {expect}")
            put(a, b, val)

    for (a, b), v in n_pos.items():
        if _vadd(a, b) in root_set and abs(v) != string_length(root_set, a, b) + 1:
            raise IntegrityError(f"|N_{a},{b}| = {abs(v)} breaks the root-string rule")
    return StructureConstants(datum=datum, n_pos=n_pos, root_set=root_set, norm2=norm2)


def two_sided_root_datum(stype: SimpleType) -> dict:
    """The fields of build_root_datum(stype) by name, from the reflection
    closure that takes every s_i with <r, alpha_i^vee> != 0 (lowering steps
    too, each s_i alpha_i = -alpha_i skipped), the Fraction symmetrizer and
    Fraction coroots 2 r_i d_i / |r|^2, summed over dict values."""
    cartan = _cartan_matrix(stype)
    n = stype.rank
    halfnorms = fraction_symmetrizer(cartan)
    simple = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    pairings = {s: cartan[i] for i, s in enumerate(simple)}
    norms = {s: 2 * halfnorms[i] for i, s in enumerate(simple)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i, k in enumerate(pairings[r]):
                if k == 0 or r == simple[i]:
                    continue
                s = tuple(c - k * (j == i) for j, c in enumerate(r))
                if s not in pairings:
                    pairings[s] = tuple(c - k * a for c, a in zip(pairings[r], cartan[i]))
                    norms[s] = norms[r]
                    nxt.append(s)
        frontier = nxt
    positive = sorted(pairings, key=lambda r: (sum(r), tuple(-c for c in r)))
    coroot_of = {}
    for r in positive:
        co = [Fraction(2 * r[i] * halfnorms[i], norms[r]) for i in range(n)]
        if any(c.denominator != 1 for c in co):
            raise IntegrityError(f"the coroot of {r} is not integral")
        coroot_of[r] = tuple(map(int, co))
    theta = positive[-1]
    return {
        "stype": stype, "cartan": cartan, "simple_roots": simple, "positive_roots": tuple(positive),
        "coroot_of": coroot_of,
        "two_rho_covector": tuple(sum(co[i] for co in coroot_of.values()) for i in range(n)),
        "theta": theta, "coxeter": sum(theta) + 1, "halfnorms": halfnorms,
        "root_weights": {r: pairings[r] for r in positive}, "root_norm2": {r: norms[r] for r in positive},
    }


def theta_chain_by_steps(datum: RootDatum, e) -> SparseMatrix:
    """x_theta on the representation with simple generators e: x_gamma =
    [e_i, x_delta] / N, N = p + 1, for the first i with delta = gamma -
    alpha_i a positive root, on coordinate tuples, with each commutator from
    matrix_product and each step divided by its own N (a Fraction scale)."""
    positive = frozenset(datum.positive_roots)
    x = dict(zip(datum.simple_roots, e))

    def build(gamma: Coords) -> SparseMatrix:
        if gamma not in x:
            i, delta = next((i, _vsub(gamma, a)) for i, a in enumerate(datum.simple_roots)
                            if _vsub(gamma, a) in positive)
            m = build(delta)
            bracket = matrix_product(e[i], m) + matrix_product(m, e[i]).scale(-1)
            x[gamma] = bracket.scale(Fraction(1, string_length(positive, datum.simple_roots[i], delta) + 1))
        return x[gamma]

    return build(datum.theta)
