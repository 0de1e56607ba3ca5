"""Betti numbers of minuscule flag varieties and the mirror Hodge-number check.

A fundamental weight omega is minuscule when <omega, alpha^vee> lies in
{-1, 0, 1} for every root alpha; its irreducible representation is then a
single multiplicity-free Weyl orbit.  The Betti numbers b[p] = h^{p,p} of
the corresponding homogeneous space are computed here from the weight
graph (vertices the orbit, edges mu -> mu - alpha_i, b[p] = vertices at
graph distance p from the top), deliberately *not* from the rho-grading,
so that kkp_check compares two independently computed quantities:

    b[p]  ==  h^{alpha} at alpha = p - dim_X / 2.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .character import weyl_dimension
from .errors import IntegrityError, UsageError
from .grading import hodge_numbers
from .rootdatum import RootDatum, pair, weyl_orbit


def _is_minuscule(datum: RootDatum, node: int) -> bool:
    """<omega_node, alpha^vee> (the node's coefficient of alpha^vee) <= 1 for all alpha > 0."""
    return all(datum.coroot_of[r][node - 1] <= 1 for r in datum.positive_roots)


def minuscule_nodes(datum: RootDatum) -> list[int]:
    """Bourbaki indices (1-based) of the minuscule fundamental weights."""
    return [node for node in range(1, datum.rank + 1) if _is_minuscule(datum, node)]


# lam = omega_node; dim_x = dim G/P = <lam, 2 rho^vee>
MinusculeCase = namedtuple("MinusculeCase", "datum node lam dim_x")


def minuscule_case(datum: RootDatum, node: int) -> MinusculeCase:
    """Validate a node and package the minuscule geometry attached to it.

    dim_x is computed two ways: the pairing <lambda, 2 rho^vee> and the
    count of positive roots supported on the node; they must agree.
    """
    if not 1 <= node <= datum.rank:
        raise UsageError(f"node {node} outside 1..{datum.rank}")
    if not _is_minuscule(datum, node):
        raise UsageError(f"node {node} of {datum.stype} is not minuscule")
    lam = tuple(1 if j == node - 1 else 0 for j in range(datum.rank))
    dim_x = pair(lam, datum.two_rho_covector)
    support_count = sum(1 for r in datum.positive_roots if r[node - 1] != 0)
    if dim_x != support_count:
        raise IntegrityError("dim X disagrees between pairing and root count")
    return MinusculeCase(datum=datum, node=node, lam=lam, dim_x=dim_x)


class BettiTable:
    """Betti numbers b[0..dim X] of a minuscule G/P."""

    def __init__(self, b: tuple[int, ...]):
        if not b or b[0] != 1:
            raise IntegrityError("Betti table must start with b[0] = 1")
        if b != tuple(reversed(b)):
            raise IntegrityError("Betti table must be palindromic")
        self.b = b

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.b == other.b

    def __hash__(self):
        return hash(self.b)

    def __repr__(self) -> str:
        return f"BettiTable(b={self.b})"

    @property
    def total(self) -> int:
        return sum(self.b)


def weight_graph_betti(case: MinusculeCase) -> BettiTable:
    """b[p] = number of orbit weights at graph distance p below the top.

    The graph is graded: BFS distance must equal the height of lambda - mu,
    asserted vertex by vertex (an integrity failure here would mean the
    orbit is not the weight poset of a minuscule representation).
    """
    datum = case.datum
    orbit = set(weyl_orbit(datum, case.lam))
    two_rho = datum.two_rho_covector
    top_level = pair(case.lam, two_rho)

    dist = {case.lam: 0}
    queue = deque([case.lam])
    while queue:
        mu = queue.popleft()
        d = dist[mu]
        for aw in datum.cartan:  # row i is the weight of alpha_i
            nu = tuple(x - y for x, y in zip(mu, aw))
            if nu in orbit and nu not in dist:
                dist[nu] = d + 1
                queue.append(nu)
    if len(dist) != len(orbit):
        raise IntegrityError("weight graph is not connected")
    for mu, d in dist.items():
        doubled_height = top_level - pair(mu, two_rho)  # = 2 * height(lam - mu)
        if 2 * d != doubled_height:
            raise IntegrityError("weight graph distance disagrees with height")

    b = [0] * (case.dim_x + 1)
    for d in dist.values():
        b[d] += 1
    table = BettiTable(tuple(b))
    if table.total != weyl_dimension(datum, case.lam):
        raise IntegrityError("Betti numbers do not sum to the representation dimension")
    return table


# first_mismatch: the first p with b[p] != hodge_shifted[p], or None
KkpVerdict = namedtuple("KkpVerdict", "passed case betti hodge_shifted first_mismatch",
                        defaults=(None,))


def kkp_check(case: MinusculeCase) -> KkpVerdict:
    """b[p] == h at level alpha = p - n/2 for all p, n = dim X."""
    betti = weight_graph_betti(case)
    table = hodge_numbers(case.datum, case.lam)
    n = case.dim_x
    shifted = tuple(table.level(2 * p - n) for p in range(n + 1))
    mismatch = next((p for p in range(n + 1) if betti.b[p] != shifted[p]), None)
    return KkpVerdict(
        passed=mismatch is None,
        case=case,
        betti=betti,
        hodge_shifted=shifted,
        first_mismatch=mismatch,
    )


def all_minuscule_cases(datum: RootDatum) -> list[MinusculeCase]:
    return [minuscule_case(datum, node) for node in minuscule_nodes(datum)]
