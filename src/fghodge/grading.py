"""Irregular Hodge tables, Jordan partitions and exponents.

The irregular Hodge numbers of V are the dimensions of the eigenspaces of
the one-parameter subgroup through 2rho^vee, so the rho^vee-grading of V and
its Hodge table are one object, HodgeTable.  The eigenvalue 2*alpha on a
weight-mu vector is the integer <mu, 2rho^vee>; tables therefore use the
doubled index k = 2*alpha as dictionary key and display alpha = k/2.
Tables are centered (alpha = <mu, rho^vee>), with no global shift applied.

hodge_numbers computes the grading of an irreducible V_lambda from
Kostant's principal specialization of the Weyl character, a product over
the positive roots, and is the only route the package uses.  rho_grading
reads the same levels off a Freudenthal character (character.irrep_character);
the tests keep it as the independent oracle the product is compared against.

A grading and the Jordan partition of the principal nilpotent on the same
representation carry the same information: an sl2-string of length r
contributes one basis vector to each level k = r-1, r-3, ..., -(r-1).
partition_from_grading reads the partition off the table; the way back is
needed only by the tests, which keep it as their oracle.
"""

from __future__ import annotations

from collections import Counter

# irrep_character is re-exported: grading.irrep_character is the oracle bench/test_bench.py reads
from .character import Character, adjoint_weight, irrep_character, weyl_dimension  # noqa: F401
from .errors import IntegrityError, UsageError
from .rootdatum import RootDatum, SimpleType, build_root_datum, pair, std_weight

Levels = dict[int, int]


class HodgeTable:
    """Irregular Hodge numbers h^alpha, the dimension of each 2rho^vee-eigenspace,
    keyed by the doubled level k = 2*alpha."""

    def __init__(self, dims: Levels):
        for k, v in dims.items():
            if v <= 0:
                raise IntegrityError(f"HodgeTable: level {k} has non-positive dimension {v}")
            if dims.get(-k) != v:
                raise IntegrityError(f"HodgeTable: table not symmetric at level {k}")
        self.dims = dims

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims

    def __repr__(self) -> str:
        return f"HodgeTable(dims={self.dims})"

    @property
    def dim(self) -> int:
        return sum(self.dims.values())

    total = dim  # bench/test_bench.py reads .total on rho_grading(...)

    def level(self, k: int) -> int:
        return self.dims.get(k, 0)


class JordanPartition:
    """Multiset of Jordan block sizes, sorted descending."""

    def __init__(self, blocks: tuple[int, ...]):
        if any(b <= 0 for b in blocks):
            raise UsageError(f"Jordan blocks must be positive: {blocks}")
        self.blocks = tuple(sorted(blocks, reverse=True))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"JordanPartition(blocks={self.blocks})"

    @property
    def total(self) -> int:
        return sum(self.blocks)


def rho_grading(character: Character) -> HodgeTable:
    """Levels dims[k] = sum of multiplicities of weights with <mu, 2rho^vee> = k."""
    trc = character.datum.two_rho_covector
    dims: Levels = {}
    for mu, m in character.mult.items():
        k = sum(a * b for a, b in zip(mu, trc))
        dims[k] = dims.get(k, 0) + m
    return HodgeTable(dims)


def hodge_numbers(datum: RootDatum, lam) -> HodgeTable:
    """Irregular Hodge table of V_lam, one dominant weight: its levels from
    Kostant's principal specialization of its character.

    sum_k dims[k] x^k = prod_{alpha>0} [<lam+rho, alpha^vee>]_x / [<rho, alpha^vee>]_x
    with [n]_x = (x^n - x^-n) / (x - x^-1) = x^(1-n) (1 - q^n) / (1 - q), q = x^2.
    The product is x^-L P(q) with L = <lam, 2rho^vee> and P a polynomial of
    degree L, so dims[2j - L] is the coefficient of q^j.  P is computed
    modulo q^(L+1), where the quotient is exact, one O(L) pass per factor.
    """
    lam = datum.check_weight(lam)
    dim = weyl_dimension(datum, lam)
    num: Counter[int] = Counter()
    den: Counter[int] = Counter()
    for root in datum.positive_roots:
        co = datum.coroot_of[root]
        num[sum((l + 1) * c for l, c in zip(lam, co))] += 1
        den[sum(co)] += 1
    top = pair(lam, datum.two_rho_covector)
    coeffs = [1] + [0] * top
    # after cancelling common factors both multisets keep the same size
    for a, b in zip(sorted((num - den).elements()), sorted((den - num).elements())):
        for j in range(top, a - 1, -1):  # times (1 - q^a)
            coeffs[j] -= coeffs[j - a]
        for j in range(b, top + 1):  # divided by (1 - q^b)
            coeffs[j] += coeffs[j - b]
    # HodgeTable rejects a table that is not palindromic or not positive
    g = HodgeTable({2 * j - top: c for j, c in enumerate(coeffs)})
    if g.dim != dim:
        raise IntegrityError(f"principal specialization of {lam} sums to {g.dim}, not dim {dim}")
    return g


def partition_from_grading(g: HodgeTable) -> JordanPartition:
    """sl2-string extraction: count_k = dims[k] - dims[k+2] strings of length
    k+1 for k >= 0; a negative count_k raises IntegrityError.

    With no count negative, the partition maps back to the table, so its
    total is g.dim and neither needs a check.  At a level k >= 0 it puts one
    vector of each block of size k + 2j + 1, j >= 0, of which there are
    count_{k+2j}, and sum_{j>=0} count_{k+2j} telescopes to dims[k]; both
    tables are symmetric (HodgeTable checks that of g), so the negative
    levels agree too.  Summed over the levels, that is
    sum_{k>=0} (k+1)(d_k - d_{k+2}) = d_0 + 2 sum_{k>=1} d_k = g.dim.
    """
    dims = g.dims
    blocks = []
    up2 = up1 = 0  # dims[k + 2] and dims[k + 1], each level read once
    for k in range(max(dims, default=0), -1, -1):
        here = dims.get(k, 0)
        count = here - up2
        if count < 0:
            raise IntegrityError("grading is not sl2-consistent; cannot extract a Jordan partition")
        blocks.extend([k + 1] * count)
        up2, up1 = up1, here
    return JordanPartition(tuple(blocks))


def exponents(datum: RootDatum) -> list[int]:
    """Exponents m_i of the type: adjoint sl2-strings have dimensions 2 m_i + 1.

    Returned sorted ascending, as a multiset: D_n with n even genuinely
    repeats the exponent n-1 (two adjoint strings of the same length), so no
    distinctness is enforced here; `fghodge jordan` reports it per weight.
    Every string has odd length, unchecked: the adjoint table's levels are
    2j - <theta, 2 rho^vee> = 2j - 2(h - 1), all even, and a string at an
    even top level k has length k + 1.
    """
    part = partition_from_grading(hodge_numbers(datum, adjoint_weight(datum)))
    return sorted((b - 1) // 2 for b in part.blocks)


def functoriality_check(case: str, n: int | None = None) -> bool:
    """Decomposition identities between Hodge tables of restricted representations.

    "so_pair":  the 2n+2-dimensional orthogonal table equals the 2n+1
                orthogonal one plus a trivial summand (needs n >= 2);
    "f4_e6":    the 27-dimensional E6 table equals the 26-dimensional F4
                table plus a trivial summand.
    """
    if case == "so_pair":
        if n is None or n < 2:
            raise UsageError("so_pair requires n >= 2")
        d_n1, b_n = build_root_datum(SimpleType("D", n + 1)), build_root_datum(SimpleType("B", n))
        left, right = hodge_numbers(d_n1, std_weight(d_n1)), hodge_numbers(b_n, std_weight(b_n))
    elif case == "f4_e6":
        left = hodge_numbers(build_root_datum(SimpleType("E", 6)), (1, 0, 0, 0, 0, 0))
        right = hodge_numbers(build_root_datum(SimpleType("F", 4)), (0, 0, 0, 1))
    else:
        raise UsageError(f"unknown functoriality case {case!r}")
    return left.dims == {**right.dims, 0: right.level(0) + 1}
