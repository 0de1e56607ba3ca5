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

The Cartan matrix convention is ``cartan[i][j] = <alpha_i, alpha_j^vee>``.
A type of rank n and Coxeter number h has n h / 2 positive roots (Bourbaki,
Lie Groups and Lie Algebras, VI.1.11, Prop. 33), so one table of h by
family gives both closed forms that build_root_datum checks its closure by.

Squared lengths are normalized so that short roots have (alpha, alpha) = 2;
halfnorms[i] is half that of alpha_i.  Every stored quantity is an int, and
rho, which is (1, ..., 1) in weight coordinates, is not stored at all.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .errors import IntegrityError, ResourceLimitError, UsageError

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

# Coxeter number h by family, as a closed form of the rank.
_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


def _positive_count(stype: "SimpleType") -> int:
    """|Phi^+| = n h / 2 (Bourbaki, Lie Groups and Lie Algebras, VI.1.11,
    Prop. 33: a root system of rank n has n h roots)."""
    return stype.rank * _COXETER[stype.family](stype.rank) // 2


# Largest |Phi^+| that build_root_datum accepts, with |Phi^+| = n h / 2 read
# off the Coxeter number (_positive_count); the reflection closure and every
# later layer grow with it, and a parsed rank is unbounded.
# The largest types in the tests and the benchmark (A15, D12) have <= 132.
MAX_POSITIVE_ROOTS = 500


def check_size(stype: "SimpleType") -> None:
    """Refuse a type with more than MAX_POSITIVE_ROOTS positive roots."""
    count = _positive_count(stype)
    if count > MAX_POSITIVE_ROOTS:
        raise ResourceLimitError(
            f"{stype} has {count} positive roots, above the guard of {MAX_POSITIVE_ROOTS}"
        )


def simple_types(max_rank: int) -> list["SimpleType"]:
    """Every simple type of rank <= max_rank, by family in _RANK_RULES order,
    then by rank.

    check_size runs first, on the type with the most positive roots (the
    first on a tie), so a refused list builds nothing.  |Phi^+| grows with
    the rank in each family, so that type is a family's top rank.  Only
    classical types can pass MAX_POSITIVE_ROOTS, and B_r = C_r = r^2 is
    their maximum, so a refusal names B_r.
    """
    tops = [SimpleType(family, max_rank if hi is None else min(hi, max_rank))
            for family, (lo, hi) in _RANK_RULES.items() if lo <= max_rank]
    if tops:
        check_size(max(tops, key=_positive_count))
    return [SimpleType(top.family, rank) for top in tops
            for rank in range(_RANK_RULES[top.family][0], top.rank + 1)]


def parse_int(text: str) -> int:
    """An integer typed by a user (type rank, weight entry, CLI option): what
    int() accepts, less "_" ("1_0") and non-ASCII text such as Arabic-Indic
    or fullwidth digits, which raise ValueError too."""
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _validated_record(name: str, fields: str) -> type:
    """A namedtuple base for a record that validates in its own __new__.

    namedtuple's _make calls tuple.__new__ and _replace calls _make, so both
    would skip the check; here _make goes through the constructor.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class SimpleType(_validated_record("SimpleType", "family rank")):
    """A simple type such as E8 or B3.  C1 is normalized to A1.

    A named tuple (family, rank), validated on construction: immutable, and
    equal, hashed and ordered as that tuple, so it keys build_root_datum's
    cache and equals the plain tuple ("E", 8).
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        # type(), not isinstance(): True would pass as rank 1, print as "ATrue"
        # and still key build_root_datum's cache as ("A", 1)
        if type(rank) is not int or not isinstance(family, str):
            raise UsageError(f"simple type ({family!r}, {rank!r}): the family must be a str and the rank an int")
        family = family.upper()
        if family == "C" and rank == 1:
            family = "A"
        if family not in _RANK_RULES:
            raise UsageError(f"unknown family {family!r}; expected one of A-G")
        lo, hi = _RANK_RULES[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise UsageError(f"{family}{rank}: rank for family {family} must be {bound}")
        return super().__new__(cls, family, rank)

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        """Parse strings like "A3", "e8", "D10" (case-insensitive); the rank
        is read by parse_int."""
        text = text.strip()
        try:
            rank = parse_int(text[1:])
        except ValueError:
            raise UsageError(f"cannot parse simple type {text!r}; expected e.g. 'A3' or 'E8'") from None
        return cls(text[0], rank)

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
    Every ratio d[j]/d[i] = cartan[j][i]/cartan[i][j] in a simple type is 1,
    2 or 3 or the inverse of one, and at most one bond is multiple, so
    starting from d[0] = 6 every step divides exactly.

    One walk checks the whole symmetry.  It pops each node i once and meets
    every j with cartan[i][j] != 0: it sets an unset d[j] exactly symmetric
    (a remainder raises), and tests a set one, raising "symmetrizer failed".
    A set d never changes, so each pair with a nonzero entry on either side
    is symmetric at the end, a pair of zeros trivially, and dividing by the
    gcd keeps every equation; no second pass over the pairs can fail.
    """
    n = len(cartan)
    d: list[int | None] = [None] * n
    d[0] = 6
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j == i or cartan[i][j] == 0:
                continue
            if d[j] is None:
                # symmetry of cartan[i][j] d[j]: d[j]/d[i] = cartan[j][i]/cartan[i][j]
                d[j], rem = divmod(d[i] * cartan[j][i], cartan[i][j])
                if rem:
                    raise IntegrityError("symmetrizer ratio does not divide 6")
                todo.append(j)
            elif cartan[i][j] * d[j] != cartan[j][i] * d[i]:
                raise IntegrityError("symmetrizer failed")
    if any(x is None for x in d):
        raise IntegrityError("Dynkin graph must be connected")
    g = math.gcd(*d)
    return tuple(x // g for x in d)


class RootDatum(namedtuple("RootDatum", "stype cartan simple_roots positive_roots coroot_of "
                                         "two_rho_covector theta coxeter halfnorms root_weights root_norm2")):
    """Full combinatorial data of one simple type, all on ints.

    positive_roots are sorted by (height, reverse-lex on coordinates), a
    total order reused everywhere deterministic output matters.  For every
    positive root r, coroot_of[r] is its coroot, root_weights[r] its weight
    coordinates <r, alpha_j^vee> and root_norm2[r] its squared length (r, r),
    as the reflection closure carried them.  two_rho_covector is 2 rho^vee in
    simple-coroot coordinates, so <mu, 2 rho^vee> is pair(mu, two_rho_covector).
    A named tuple, so no field can be assigned: build_root_datum shares one
    per type across the process.  Data compare by value, and the dict fields
    make a datum unhashable; _replace gives a changed copy.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.stype.rank

    def reflect(self, mu: Coords, i: int) -> Coords:
        """Simple reflection s_i(mu) = mu - <mu, alpha_i^vee> alpha_i on weights."""
        k = mu[i]
        if k == 0:
            return mu
        row = self.cartan[i]
        return tuple(m - k * c for m, c in zip(mu, row))

    def is_dominant(self, mu: Coords) -> bool:
        return all(m >= 0 for m in mu)

    def check_weight(self, mu) -> Coords:
        """mu as rank ints; an entry that int() refuses or changes (1.5, "3") is refused."""
        given = tuple(mu)
        try:
            mu = tuple(map(int, given))
        except (TypeError, ValueError, OverflowError):
            mu = None
        if mu != given:
            raise UsageError(f"weight {given} has an entry that is not an integer")
        if len(mu) != self.rank:
            raise UsageError(f"weight {mu} has length {len(mu)}, expected rank {self.rank}")
        return mu


def _root_sort_key(root: Coords):
    return (sum(root), tuple(map(operator.neg, root)))


@functools.lru_cache(maxsize=None)
def build_root_datum(stype: SimpleType) -> RootDatum:
    """Construct the root datum of a simple type; cached per type.

    Positive roots come from the reflection closure of the simple roots,
    which follows raising steps only: s_i r = r - k alpha_i with k =
    <r, alpha_i^vee> < 0.  Such a step stays in Phi+ (r != alpha_i, whose k
    is 2, and s_i permutes Phi+ minus {alpha_i}), and it reaches every
    positive root.  A non-simple beta > 0 has some <beta, alpha_j^vee> > 0,
    since (beta, beta) = sum_j beta_j (beta, alpha_j) > 0 with every beta_j
    >= 0; so s_j beta is a positive root of lower height, with <s_j beta,
    alpha_j^vee> = -<beta, alpha_j^vee> < 0, and beta is one raising step
    above it.  By induction on height the closure is Phi+.

    The invariants are asserted on ints before returning: the root count
    against n h / 2 and height(theta) + 1 against h, the classical closed
    form of the Coxeter number (_COXETER),
    <alpha_i, 2 rho^vee> = 2, and the positive-root sum 2 rho = (2, ..., 2)
    in weight coordinates (Humphreys, Introduction to Lie Algebras, 10.2 and
    13.3).  <theta, 2 rho^vee> = 2 (h - 1) needs no check of its own: the
    pairing is linear, so it is sum_i theta_i <alpha_i, 2 rho^vee> =
    2 height(theta) = 2 (h - 1), with h defined as height(theta) + 1.
    Types above MAX_POSITIVE_ROOTS raise ResourceLimitError before any work.
    """
    check_size(stype)
    n = stype.rank
    cartan = _cartan_matrix(stype)
    halfnorms = _symmetrizer(cartan)  # checks the symmetry of every pair

    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    # Raising-only reflection closure (docstring): from each root r, s_i r =
    # r - k alpha_i for each k = <r, alpha_i^vee> < 0.  Each root carries its
    # pairings <r, alpha_j^vee> (s_i subtracts k times row i of the Cartan
    # matrix) and its squared norm (s_i preserves it).
    pairings = {s: cartan[i] for i, s in enumerate(simple)}
    norms = {s: 2 * halfnorms[i] for i, s in enumerate(simple)}
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            w = pairings[r]
            for i, k in enumerate(w):
                if k >= 0:
                    continue
                s = r[:i] + (r[i] - k,) + r[i + 1:]
                if s not in pairings:
                    pairings[s] = tuple([c - k * a for c, a in zip(w, cartan[i])])
                    norms[s] = norms[r]
                    nxt.append(s)
        frontier = nxt
    positive = sorted(pairings, key=_root_sort_key)
    count = _positive_count(stype)
    if len(positive) != count:
        raise IntegrityError(
            f"{stype}: reflection closure found {len(positive)} positive roots, expected {count}"
        )

    coroots = []
    for r in positive:
        ns = norms[r]
        co = []
        for i in range(n):
            c, rem = divmod(2 * r[i] * halfnorms[i], ns)
            if rem:
                raise IntegrityError("coroot coefficients must be integral")
            co.append(c)
        coroots.append(tuple(co))

    # column sums over the sorted list, so a root listed twice counts twice
    two_rho_cov = tuple(map(sum, zip(*coroots)))
    # <alpha_i, 2 rho^vee> = 2 characterizes 2 rho^vee
    for row in cartan:
        if sum(map(operator.mul, row, two_rho_cov)) != 2:
            raise IntegrityError("2 rho covector must pair to 2 with every simple root")
    # rho = (1, ..., 1) is half the positive-root sum: pair the sum, in root
    # coordinates, through the Cartan matrix, not the pairings carried above
    root_sum = list(map(sum, zip(*positive)))
    if any(sum(map(operator.mul, root_sum, col)) != 2 for col in zip(*cartan)):
        raise IntegrityError("the positive roots must sum to 2 rho")

    theta = positive[-1]  # unique root of maximal height
    coxeter = sum(theta) + 1
    if coxeter != _COXETER[stype.family](n):
        raise IntegrityError(f"{stype}: Coxeter number mismatch")

    return RootDatum(
        stype=stype,
        cartan=cartan,
        simple_roots=simple,
        positive_roots=tuple(positive),
        coroot_of=dict(zip(positive, coroots)),
        two_rho_covector=two_rho_cov,
        theta=theta,
        coxeter=coxeter,
        halfnorms=halfnorms,
        root_weights={r: pairings[r] for r in positive},
        root_norm2={r: norms[r] for r in positive},
    )


def pair(mu: Coords, covector: Coords) -> int:
    """Pairing <mu, covector> of a weight with a covector.

    The covector is given in simple-coroot coordinates (e.g. two_rho_covector
    of a RootDatum), so this is a dot product.
    """
    if len(mu) != len(covector):
        raise UsageError(f"dimension mismatch: weight of length {len(mu)} vs covector of length {len(covector)}")
    return sum(m * c for m, c in zip(mu, covector))


def std_weight(datum: RootDatum) -> Coords:
    """omega_1, the highest weight of the standard representation of a
    classical type; exceptional types have none here by design."""
    if datum.stype.family not in "ABCD":
        raise UsageError(f"no standard matrix model for {datum.stype}; only A/B/C/D are built")
    return (1,) + (0,) * (datum.rank - 1)


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
