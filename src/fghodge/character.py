"""Characters of irreducible highest-weight representations.

Multiplicities come from the Freudenthal recursion

    m_mu * (|lambda+rho|^2 - |mu+rho|^2) = 2 sum_{alpha>0} sum_{k>=1}
                                             m_{mu+k alpha} (mu + k alpha, alpha)

evaluated bottom-up over the dominant weights and expanded along Weyl
orbits.  Every inner product reduces to integer arithmetic:
(nu, alpha) = <nu, alpha^vee> * |alpha|^2 / 2 and the denominator is
(lambda+mu+2rho, lambda-mu) with lambda-mu in the root lattice, so the whole
recursion runs on arbitrary-precision ints (E-type sums overflow 64 bits).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import prod

from .errors import IntegrityError, UsageError
from .rootdatum import Coords, RootDatum, weyl_orbit


class Character(namedtuple("Character", "datum highest mult")):
    """Finite map weight -> multiplicity of an irreducible V_lambda."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return sum(self.mult.values())


def _kostant_factors(datum: RootDatum, lam) -> tuple[Coords, list[int], list[int]]:
    """lam as rank ints, then <lam+rho, alpha^vee> and <rho, alpha^vee> over
    the positive roots alpha, in one pass: the factors of Kostant's product.

    The package's one dominance check: weyl_dimension, hodge_numbers and
    irrep_character call this before any other work on lambda, and the CLI's
    hodge and jordan reach it through weyl_dimension.
    """
    lam = datum.check_weight(lam)
    if not datum.is_dominant(lam):
        raise UsageError(f"weight {lam} is not dominant")
    num, den = [], []
    for co in datum.coroot_of.values():
        den.append(sum(co))  # <rho, alpha^vee>: rho pairs to 1 with each simple coroot
        num.append(den[-1] + sum(map(operator.mul, lam, co)))
    return lam, num, den


def _weyl_quotient(num: list[int], den: list[int]) -> int:
    """prod(num) / prod(den), which must be a positive integer."""
    q, r = divmod(prod(num), prod(den))
    if r != 0 or q <= 0:
        raise IntegrityError("Weyl dimension must be a positive integer")
    return q


def weyl_dimension(datum: RootDatum, lam) -> int:
    """dim V_lambda = prod_{alpha>0} <lambda+rho, alpha^vee> / <rho, alpha^vee>."""
    _, num, den = _kostant_factors(datum, lam)
    return _weyl_quotient(num, den)


def _weight_support(datum: RootDatum, lam: Coords) -> dict[Coords, Coords]:
    """All weights of V_lambda, mapped to root coordinates of lambda - mu.

    Closure rule: from a known weight mu with k = <mu, alpha_i^vee> > 0 the
    whole alpha_i-string mu - alpha_i, ..., mu - k alpha_i consists of
    weights.  Walking strings from their tops reaches every weight.
    """
    n = datum.rank
    cartan = datum.cartan
    support = {lam: (0,) * n}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            off = support[mu]
            for i in range(n):
                k = mu[i]
                if k <= 0:
                    continue
                row = cartan[i]
                nu, noff = mu, off
                for _ in range(k):
                    nu = tuple(a - b for a, b in zip(nu, row))
                    noff = tuple(c + (1 if j == i else 0) for j, c in enumerate(noff))
                    if nu not in support:
                        support[nu] = noff
                        nxt.append(nu)
        frontier = nxt
    return support


def irrep_character(datum: RootDatum, lam) -> Character:
    """Character of the irreducible representation of highest weight lam.

    One _kostant_factors pass runs first and refuses a weight that is not
    dominant, with the UsageError every caller sees, before any other work;
    _weyl_quotient of its factors is what the character's size is compared
    with at the end.  That pass is the only check of lam, and it covers
    what a second check_weight(lam) after it would: check_weight depends only
    on the entries of lam and the rank, so once it has passed and returned
    them as a tuple of rank ints, it would pass again on the same lam and
    return an equal tuple.  The dominance check runs on that tuple.
    """
    lam, factors, rho_factors = _kostant_factors(datum, lam)
    dim = _weyl_quotient(factors, rho_factors)
    support = _weight_support(datum, lam)
    dominants = sorted(
        (mu for mu in support if datum.is_dominant(mu)),
        key=lambda mu: sum(support[mu]),
    )
    # per positive root: its coroot, (alpha, alpha) / 2 and its weight
    roots = [(datum.coroot_of[r], datum.root_norm2[r] // 2, datum.root_weights[r])
             for r in datum.positive_roots]

    mult: dict[Coords, int] = {}
    for mu in dominants:
        if mu == lam:
            m = 1
        else:
            total = 0
            for co, d_alpha, rw in roots:
                base = sum(a * b for a, b in zip(mu, co))
                nu = mu
                k = 1
                while True:
                    nu = tuple(a + b for a, b in zip(nu, rw))
                    mn = mult.get(nu)
                    if mn is None:
                        break  # strings through the support are unbroken
                    total += mn * (base + 2 * k) * d_alpha
                    k += 1
            off = support[mu]
            gap = sum(
                c * (lam[i] + mu[i] + 2) * datum.halfnorms[i]
                for i, c in enumerate(off)
            )
            if gap <= 0:
                raise IntegrityError("Freudenthal denominator vanishes only at the highest weight")
            m, rem = divmod(2 * total, gap)
            if rem != 0 or m <= 0:
                raise IntegrityError("Freudenthal recursion must yield positive integers")
        for w in weyl_orbit(datum, mu):
            mult[w] = m

    char = Character(datum=datum, highest=lam, mult=mult)
    if char.dim != dim:
        raise IntegrityError("character size disagrees with the Weyl dimension")
    return char


def adjoint_weight(datum: RootDatum) -> Coords:
    """Highest weight of the adjoint representation (theta in weight coordinates)."""
    return datum.root_weights[datum.theta]
