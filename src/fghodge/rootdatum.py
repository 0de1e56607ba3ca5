"""Root data for the simple complex Lie types A--G.

Bourbaki node numbering throughout:

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n          (node n short)
    C_n   1 - 2 - ... - (n-1) <= n          (node n long)
    D_n   1 - 2 - ... - (n-2) < (n-1), n    (fork at node n-2)
    E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]]     with 2 attached to 4
    F_4   1 - 2 => 3 - 4                    (nodes 3, 4 short)
    G_2   1 <= 2                            (node 1 short)

Coordinate conventions, used consistently by every module downstream:

* roots live in the simple-root basis (integer tuples),
* weights live in the fundamental-weight basis (integer tuples), so entry i
  of a weight mu is <mu, alpha_i^vee>,
* coroots and covectors live in the simple-coroot basis, which makes
  pairing a covector against a weight a plain dot product.

The Cartan matrix convention is ``cartan[i][j] = <alpha_i, alpha_j^vee>``;
the invariant form is the Gram matrix of the simple roots with short roots
normalized to squared length 2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ConfigurationError, IntegrityError, ResourceLimitError, UsageError

Coords = tuple[int, ...]

_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# |Phi^+| and Coxeter number by family, as closed forms of the rank.
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}
_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}

# Largest |Phi^+| = n h / 2 that build_root_datum accepts; the reflection
# closure and every later layer grow with it, and a parsed rank is unbounded.
# The largest types in the tests and the benchmark (A15, D12) have <= 132.
MAX_POSITIVE_ROOTS = 500


def check_size(stype: "SimpleType") -> None:
    """Refuse a type with more than MAX_POSITIVE_ROOTS positive roots."""
    count = _POSITIVE_COUNT[stype.family](stype.rank)
    if count > MAX_POSITIVE_ROOTS:
        raise ResourceLimitError(
            f"{stype} has {count} positive roots, above the guard of {MAX_POSITIVE_ROOTS}"
        )


@functools.total_ordering
class SimpleType:
    """A simple type such as E8 or B3.  C1 is normalized to A1.

    Immutable, and equal, hashed and ordered by (family, rank): it keys
    build_root_datum's cache and the memos of chevalley.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        family = family.upper()
        if family == "C" and rank == 1:
            family = "A"
        if family not in _RANK_RULES:
            raise ConfigurationError(f"unknown family {family!r}; expected one of A-G")
        lo, hi = _RANK_RULES[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigurationError(f"{family}{rank}: rank for family {family} must be {bound}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError(f"SimpleType is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return SimpleType, (self.family, self.rank)

    def __eq__(self, other):
        if other.__class__ is not SimpleType:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __lt__(self, other):
        if other.__class__ is not SimpleType:
            return NotImplemented
        return (self.family, self.rank) < (other.family, other.rank)

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"SimpleType(family={self.family!r}, rank={self.rank})"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        """Parse strings like "A3", "e8", "D10" (case-insensitive)."""
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ConfigurationError(f"cannot parse simple type {text!r}; expected e.g. 'A3' or 'E8'")
        return cls(text[0], int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(stype: SimpleType) -> tuple[Coords, ...]:
    """Cartan matrix cartan[i][j] = <alpha_i, alpha_j^vee> in Bourbaki order."""
    fam, n = stype.family, stype.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if fam in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # alpha_n short
        if fam == "C" and n >= 2:
            bond(n - 2, n - 1, -1, -2)  # alpha_n long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        chain = [0] + list(range(2, n))  # nodes 1,3,4,...,n
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)  # node 2 attached to node 4
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan) -> tuple[int, ...]:
    """Minimal positive integers d with cartan[i][j]*d[j] symmetric.

    d[i] is half the squared length of alpha_i, short roots normalized to 1.
    """
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                # symmetry of cartan[i][j] d[j]: d[j]/d[i] = cartan[j][i]/cartan[i][j]
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                todo.append(j)
    if any(x is None for x in d):
        raise IntegrityError("Dynkin graph must be connected")
    scale = math.lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


class RootDatum:
    """Full combinatorial data of one simple type.

    positive_roots are sorted by (height, reverse-lex on coordinates), a
    total order reused everywhere deterministic output matters.  root_weights
    and root_norm2 hold weight_of_root and norm2_root of every positive root,
    as the reflection closure carried them.  build_root_datum makes one per
    type, so two data are equal only when they are the same object.
    """

    def __init__(self, stype: SimpleType, cartan: tuple[Coords, ...],
                 simple_roots: tuple[Coords, ...], positive_roots: tuple[Coords, ...],
                 coroot_of: dict[Coords, Coords],
                 fundamental_weights: tuple[tuple[Fraction, ...], ...], rho: Coords,
                 rho_covector: tuple[Fraction, ...], two_rho_covector: Coords,
                 theta: Coords, coxeter: int, form: tuple[Coords, ...],
                 halfnorms: tuple[int, ...], root_weights: dict[Coords, Coords],
                 root_norm2: dict[Coords, int]):
        self.stype = stype
        self.cartan = cartan
        self.simple_roots = simple_roots
        self.positive_roots = positive_roots
        self.coroot_of = coroot_of
        self.fundamental_weights = fundamental_weights
        self.rho = rho
        self.rho_covector = rho_covector
        self.two_rho_covector = two_rho_covector
        self.theta = theta
        self.coxeter = coxeter
        self.form = form
        self.halfnorms = halfnorms
        self.root_weights = root_weights  # positive root -> <r, alpha_j^vee>
        self.root_norm2 = root_norm2  # positive root -> (r, r)

    @property
    def rank(self) -> int:
        return self.stype.rank

    @property
    def adjoint_dim(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    # -- coordinate plumbing -------------------------------------------------

    def weight_of_root(self, root: Coords) -> Coords:
        """Fundamental-weight coordinates of a root-lattice vector."""
        n = self.rank
        return tuple(sum(root[i] * self.cartan[i][j] for i in range(n)) for j in range(n))

    def reflect(self, mu: Coords, i: int) -> Coords:
        """Simple reflection s_i(mu) = mu - <mu, alpha_i^vee> alpha_i on weights."""
        k = mu[i]
        if k == 0:
            return mu
        row = self.cartan[i]
        return tuple(m - k * c for m, c in zip(mu, row))

    def height(self, root: Coords) -> int:
        return sum(root)

    def norm2_root(self, root: Coords) -> int:
        n = self.rank
        return sum(root[i] * root[j] * self.form[i][j] for i in range(n) for j in range(n))

    def is_dominant(self, mu: Coords) -> bool:
        return all(m >= 0 for m in mu)

    def check_weight(self, mu) -> Coords:
        mu = tuple(int(m) for m in mu)
        if len(mu) != self.rank:
            raise UsageError(f"weight {mu} has length {len(mu)}, expected rank {self.rank}")
        return mu


def _root_sort_key(root: Coords):
    return (sum(root), tuple(-c for c in root))


@functools.lru_cache(maxsize=None)
def build_root_datum(stype: SimpleType) -> RootDatum:
    """Construct the root datum of a simple type; cached per type.

    Positive roots come from the reflection closure of the simple roots;
    the invariants (root count, height(theta)+1 = h, <theta, rho^vee> = h-1)
    are asserted against the classical closed forms before returning.
    Types above MAX_POSITIVE_ROOTS raise ResourceLimitError before any work.
    """
    check_size(stype)
    n = stype.rank
    cartan = _cartan_matrix(stype)
    halfnorms = _symmetrizer(cartan)
    form = tuple(
        tuple(cartan[i][j] * halfnorms[j] for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if form[i][j] != form[j][i]:
                raise IntegrityError("symmetrizer failed")

    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    # Reflection closure over the positive roots: s_i permutes Phi+ minus
    # {alpha_i}, and every positive root descends to a simple one that way.
    # Each root carries its pairings <r, alpha_j^vee> (s_i subtracts k times
    # row i of the Cartan matrix) and its squared norm (s_i preserves it).
    pairings = {s: cartan[i] for i, s in enumerate(simple)}
    norms = {s: form[i][i] for i, s in enumerate(simple)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            w = pairings[r]
            for i, k in enumerate(w):
                if k == 0 or r == simple[i]:  # s_i fixes r, or sends alpha_i to -alpha_i
                    continue
                s = r[:i] + (r[i] - k,) + r[i + 1:]
                if s not in pairings:
                    pairings[s] = tuple(c - k * a for c, a in zip(w, cartan[i]))
                    norms[s] = norms[r]
                    nxt.append(s)
        frontier = nxt
    positive = sorted(pairings, key=_root_sort_key)
    count = _POSITIVE_COUNT[stype.family](n)
    if len(positive) != count:
        raise ConfigurationError(
            f"{stype}: reflection closure found {len(positive)} positive roots, expected {count}"
        )

    coroot_of = {}
    for r in positive:
        ns = norms[r]
        co = []
        for i in range(n):
            c, rem = divmod(2 * r[i] * halfnorms[i], ns)
            if rem:
                raise IntegrityError("coroot coefficients must be integral")
            co.append(c)
        coroot_of[r] = tuple(co)

    two_rho_cov = tuple(sum(coroot_of[r][i] for r in positive) for i in range(n))
    rho_cov = tuple(Fraction(c, 2) for c in two_rho_cov)
    # <alpha_i, rho^vee> = 1 characterizes rho^vee
    for i in range(n):
        s = sum(cartan[i][j] * rho_cov[j] for j in range(n))
        if s != 1:
            raise IntegrityError("rho covector must pair to 1 with every simple root")

    theta = positive[-1]  # unique root of maximal height
    coxeter = sum(theta) + 1
    if coxeter != _COXETER[stype.family](n):
        raise ConfigurationError(f"{stype}: Coxeter number mismatch")
    theta_wt = tuple(sum(theta[i] * cartan[i][j] for i in range(n)) for j in range(n))
    if sum(t * c for t, c in zip(theta_wt, two_rho_cov)) != 2 * (coxeter - 1):
        raise IntegrityError("<theta, 2 rho^vee> must equal 2 (h - 1)")

    # Fundamental weights in root coordinates: rows of cartan^{-1} transposed,
    # i.e. omega_k = sum_i (C^{-1})[k][i] alpha_i with m = c*C for weights.
    inv = _invert_rational(cartan)
    fundamental = tuple(tuple(inv[k][i] for i in range(n)) for k in range(n))

    rho = tuple([1] * n)
    # rho really is the half sum of positive roots: check in root coordinates.
    half_sum = [Fraction(sum(r[i] for r in positive), 2) for i in range(n)]
    rho_root_coords = [sum(fundamental[k][i] for k in range(n)) for i in range(n)]
    if half_sum != rho_root_coords:
        raise IntegrityError("rho must equal the sum of fundamental weights")

    return RootDatum(
        stype=stype,
        cartan=cartan,
        simple_roots=simple,
        positive_roots=tuple(positive),
        coroot_of=coroot_of,
        fundamental_weights=fundamental,
        rho=rho,
        rho_covector=rho_cov,
        two_rho_covector=two_rho_cov,
        theta=theta,
        coxeter=coxeter,
        form=form,
        halfnorms=halfnorms,
        root_weights={r: pairings[r] for r in positive},
        root_norm2={r: norms[r] for r in positive},
    )


def _invert_rational(mat) -> list[list[Fraction]]:
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


def pair(mu: Coords, covector) -> Fraction | int:
    """Exact pairing <mu, covector> of a weight with a covector.

    The covector is given in simple-coroot coordinates (e.g. rho_covector or
    two_rho_covector of a RootDatum), so this is a dot product.
    """
    if len(mu) != len(covector):
        raise UsageError(f"dimension mismatch: weight of length {len(mu)} vs covector of length {len(covector)}")
    s = sum(m * c for m, c in zip(mu, covector))
    if isinstance(s, Fraction) and s.denominator == 1:
        return int(s)
    return s


def weyl_orbit(datum: RootDatum, mu) -> tuple[Coords, ...]:
    """Full W-orbit of a weight, closed under simple reflections.

    Deterministic order: descending <., 2 rho^vee>, then coordinates.
    """
    mu = datum.check_weight(mu)
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(datum.rank):
                s = datum.reflect(w, i)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (-pair(w, datum.two_rho_covector), w)))
