"""Betti numbers of minuscule flag varieties and the mirror Hodge-number check.

A fundamental weight omega is minuscule when <omega, alpha^vee> lies in
{-1, 0, 1} for every root alpha; its irreducible representation is then a
single multiplicity-free Weyl orbit.  The Betti numbers b[p] = h^{p,p} of
the corresponding homogeneous space count the orbit weights at height p
below the top (b[p] = #{mu : height(lambda - mu) = p}, the Schubert cells
of dimension p), read off the string closure of the weights, deliberately
*not* from the rho-grading, so that kkp_check compares two independently
computed quantities:

    b[p]  ==  h^{alpha} at alpha = p - dim_X / 2.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .character import _weight_support, weyl_dimension
from .errors import IntegrityError, UsageError
from .grading import hodge_numbers
from .rootdatum import Coords, RootDatum, _validated_record, pair


def _is_minuscule(datum: RootDatum, lam: Coords) -> bool:
    """<lam, alpha^vee> <= 1 for every alpha > 0: the package's one minuscule test."""
    return all(sum(map(operator.mul, lam, co)) <= 1 for co in datum.coroot_of.values())


def _fundamental(datum: RootDatum, node: int) -> Coords:
    return tuple(1 if j == node - 1 else 0 for j in range(datum.rank))


def minuscule_nodes(datum: RootDatum) -> list[int]:
    """Bourbaki indices (1-based) of the minuscule fundamental weights."""
    return [node for node in range(1, datum.rank + 1) if _is_minuscule(datum, _fundamental(datum, node))]


# lam = omega_node; dim_x = dim G/P = <lam, 2 rho^vee>
MinusculeCase = namedtuple("MinusculeCase", "datum node lam dim_x")


def minuscule_case(datum: RootDatum, node: int) -> MinusculeCase:
    """Validate a node and package the minuscule geometry attached to it.

    dim_x is the pairing <lambda, 2 rho^vee>.  It is the number of positive
    roots supported on the node, with no count to check it against:
    two_rho_covector is the sum of the positive coroots, so the pairing sums
    their node coefficients.  Each is >= 0 (the coroot is positive) and <= 1
    (the minuscule test has passed), and build_root_datum makes it
    2 r_i d_i / |r|^2 (d_i = halfnorms[i]), nonzero exactly when the root's
    r_i is.  tests/test_kkp.py keeps the count as its oracle.
    """
    if not 1 <= node <= datum.rank:
        raise UsageError(f"node {node} outside 1..{datum.rank}")
    lam = _fundamental(datum, node)
    if not _is_minuscule(datum, lam):
        raise UsageError(f"node {node} of {datum.stype} is not minuscule")
    return MinusculeCase(datum=datum, node=node, lam=lam, dim_x=pair(lam, datum.two_rho_covector))


class BettiTable(_validated_record("BettiTable", "b")):
    """Betti numbers b[0..dim X] of a minuscule G/P.

    A named tuple, validated on construction: a field cannot be assigned,
    and it compares and hashes as its tuple b.
    """

    __slots__ = ()

    def __new__(cls, b: tuple[int, ...]):
        if not b or b[0] != 1:
            raise IntegrityError("Betti table must start with b[0] = 1")
        if b != tuple(reversed(b)):
            raise IntegrityError("Betti table must be palindromic")
        return super().__new__(cls, b)

    @property
    def total(self) -> int:
        return sum(self.b)


def weight_graph_betti(case: MinusculeCase) -> BettiTable:
    """b[p] = number of weights mu of V(lambda) with height(lambda - mu) = p.

    The weights come from _weight_support, the string closure that the
    characters and the weight representations use, with lambda - mu in root
    coordinates, so the height is their sum.  On a minuscule lambda that
    closure is the orbit W lambda, and each of its steps is an edge of the
    weight graph:
    - a step mu -> mu - alpha_i with <mu, alpha_i^vee> = 1 is s_i mu, so the
      closure stays in W lambda;
    - every orbit weight mu below lambda has some <mu, alpha_i^vee> = -1,
      so it is one such step below s_i mu = mu + alpha_i, an orbit weight of
      lower height, and the closure reaches the whole orbit, which is
      therefore connected.
    The height is read off directly, so no graph distance can disagree
    with it.  Sum b = dim V (the Weyl dimension) refuses a missed weight
    and a weight of higher multiplicity.  A lambda that is not minuscule is
    refused first: B_n omega_1, C_3 omega_3 and G_2 omega_1 are
    multiplicity-free, and their weight counts would pass.
    """
    datum = case.datum
    if not _is_minuscule(datum, datum.check_weight(case.lam)):  # a hand-built lam may have any length
        raise IntegrityError(f"{case.lam} of {datum.stype} is not minuscule")
    b = [0] * (case.dim_x + 1)
    for offset in _weight_support(datum, case.lam).values():
        b[sum(offset)] += 1
    table = BettiTable(tuple(b))
    if table.total != weyl_dimension(datum, case.lam):
        raise IntegrityError("Betti numbers do not sum to the representation dimension")
    return table


KkpVerdict = namedtuple("KkpVerdict", "passed case betti hodge_shifted")


def kkp_check(case: MinusculeCase) -> KkpVerdict:
    """b[p] == h at level alpha = p - n/2 for all p, n = dim X."""
    betti = weight_graph_betti(case)
    table = hodge_numbers(case.datum, case.lam)
    n = case.dim_x
    shifted = tuple(table.level(2 * p - n) for p in range(n + 1))
    return KkpVerdict(passed=betti.b == shifted, case=case, betti=betti, hodge_shifted=shifted)


def all_minuscule_cases(datum: RootDatum) -> list[MinusculeCase]:
    return [minuscule_case(datum, node) for node in minuscule_nodes(datum)]
