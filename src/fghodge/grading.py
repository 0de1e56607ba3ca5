"""rho^vee-gradings, irregular Hodge tables, Jordan partitions and exponents.

The eigenvalue 2*alpha of the one-parameter subgroup through 2rho^vee acting
on a weight-mu vector is the integer <mu, 2rho^vee>; gradings therefore use
the doubled index k = 2*alpha as dictionary key and display alpha = k/2.
Tables are centered (alpha = <mu, rho^vee>), with no global shift applied.

principal_grading computes the grading of an irreducible V_lambda from
Kostant's principal specialization of the Weyl character, a product over
the positive roots, and is the only route the package uses.  rho_grading
reads the same levels off a Freudenthal character (character.irrep_character);
the tests keep it as the independent oracle the product is compared against.

A grading and the Jordan partition of the principal nilpotent on the same
representation carry the same information: an sl2-string of length r
contributes one basis vector to each level k = r-1, r-3, ..., -(r-1).
partition_from_grading and hodge_from_partition are the two directions of
that dictionary and are exact inverses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

# irrep_character is re-exported: grading.irrep_character is the oracle bench/test_bench.py reads
from .character import Character, adjoint_weight, irrep_character, weyl_dimension  # noqa: F401
from .errors import IntegrityError, UsageError
from .rootdatum import RootDatum, pair

Levels = dict[int, int]


def _validate_levels(dims: Levels, context: str) -> None:
    for k, v in dims.items():
        if v <= 0:
            raise IntegrityError(f"{context}: level {k} has non-positive dimension {v}")
        if dims.get(-k) != v:
            raise IntegrityError(f"{context}: table not symmetric at level {k}")


@dataclass(frozen=True)
class RhoGrading:
    """Map from doubled level k = 2*alpha to the dimension of that eigenspace."""

    dims: Levels

    def __post_init__(self):
        _validate_levels(self.dims, "RhoGrading")

    def level(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    def sl2_consistent(self) -> bool:
        return all(self.level(k) >= self.level(k + 2) for k in self.dims if k >= 0)

    def single_parity(self) -> bool:
        parities = {k & 1 for k in self.dims}
        return len(parities) <= 1

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.dims.items())


@dataclass(frozen=True)
class HodgeTable:
    """Irregular Hodge numbers h^alpha, stored at doubled index 2*alpha."""

    dims: Levels
    dim: int

    def __post_init__(self):
        _validate_levels(self.dims, "HodgeTable")
        if sum(self.dims.values()) != self.dim:
            raise IntegrityError("HodgeTable levels do not sum to the total dimension")

    def level(self, k: int) -> int:
        return self.dims.get(k, 0)

    def alpha_of(self, k: int) -> Fraction:
        return Fraction(k, 2)

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.dims.items())

    def to_json_dict(self, type_str: str, weight) -> dict:
        return {
            "type": type_str,
            "weight": list(weight),
            "dim": self.dim,
            "levels": [{"two_alpha": k, "h": v} for k, v in self.sorted_items()],
        }


@dataclass(frozen=True)
class JordanPartition:
    """Multiset of Jordan block sizes, sorted descending."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if any(b <= 0 for b in self.blocks):
            raise UsageError(f"Jordan blocks must be positive: {self.blocks}")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.blocks)


def rho_grading(character: Character) -> RhoGrading:
    """Levels dims[k] = sum of multiplicities of weights with <mu, 2rho^vee> = k."""
    trc = character.datum.two_rho_covector
    dims: Levels = {}
    for mu, m in character.mult.items():
        k = sum(a * b for a, b in zip(mu, trc))
        dims[k] = dims.get(k, 0) + m
    return RhoGrading(dims)


def principal_grading(datum: RootDatum, lam) -> RhoGrading:
    """Levels of V_lam from Kostant's principal specialization of its character.

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
    # RhoGrading rejects a table that is not palindromic or not positive
    g = RhoGrading({2 * j - top: c for j, c in enumerate(coeffs)})
    if g.total != dim:
        raise IntegrityError(f"principal specialization of {lam} sums to {g.total}, not dim {dim}")
    return g


def hodge_numbers(datum: RootDatum, lam) -> HodgeTable:
    """Irregular Hodge table of one dominant weight, or of a list of them.

    Each irreducible summand is graded by principal_grading; for a list the
    representation is the direct sum and the tables add pointwise.
    """
    lams = lam if isinstance(lam, (list, tuple)) and lam and isinstance(lam[0], (list, tuple)) else [lam]
    dims: Levels = {}
    total = 0
    for entry in lams:
        g = principal_grading(datum, entry)
        for k, v in g.dims.items():
            dims[k] = dims.get(k, 0) + v
        total += g.total
    return HodgeTable(dims=dims, dim=total)


def partition_from_grading(g: RhoGrading) -> JordanPartition:
    """sl2-string extraction: dims[k] - dims[k+2] strings of length k+1 for k >= 0."""
    if not g.sl2_consistent():
        raise IntegrityError("grading is not sl2-consistent; cannot extract a Jordan partition")
    blocks = []
    for k in range(max(g.dims, default=0), -1, -1):
        count = g.level(k) - g.level(k + 2)
        if count < 0:
            raise IntegrityError("grading is not sl2-consistent; cannot extract a Jordan partition")
        blocks.extend([k + 1] * count)
    part = JordanPartition(tuple(blocks))
    if part.total != g.total:
        raise IntegrityError("extracted blocks do not sum to the grading total")
    return part


def hodge_from_partition(p: JordanPartition) -> HodgeTable:
    """Centered table: h at 2*alpha counts blocks r with |2 alpha| <= r-1, 2 alpha = r-1 (mod 2)."""
    dims: Levels = {}
    for r in p.blocks:
        for k in range(-(r - 1), r, 2):
            dims[k] = dims.get(k, 0) + 1
    return HodgeTable(dims=dims, dim=p.total)


def distinct_blocks(p: JordanPartition) -> bool:
    return len(set(p.blocks)) == len(p.blocks)


def exponents(datum: RootDatum) -> list[int]:
    """Exponents m_i of the type: adjoint sl2-strings have dimensions 2 m_i + 1.

    Returned sorted ascending, as a multiset: D_n with n even genuinely
    repeats the exponent n-1 (two adjoint strings of the same length), so no
    distinctness is enforced here; see distinct_blocks for the honest test.
    """
    part = partition_from_grading(principal_grading(datum, adjoint_weight(datum)))
    exps = sorted((b - 1) // 2 for b in part.blocks)
    if any(b % 2 == 0 for b in part.blocks):
        raise IntegrityError("adjoint strings have odd length")
    return exps


def tensor_grading(g1: RhoGrading, g2: RhoGrading) -> RhoGrading:
    """Convolution; the grading of a tensor product because 2rho acts by weight sums."""
    dims: Levels = {}
    for k1, v1 in g1.dims.items():
        for k2, v2 in g2.dims.items():
            dims[k1 + k2] = dims.get(k1 + k2, 0) + v1 * v2
    return RhoGrading(dims)


def product_character_grading(c1: Character, c2: Character) -> RhoGrading:
    """Grading of the product character, convolving weightwise (test oracle route)."""
    trc = c1.datum.two_rho_covector
    dims: Levels = {}
    for mu1, m1 in c1.mult.items():
        k1 = sum(a * b for a, b in zip(mu1, trc))
        for mu2, m2 in c2.mult.items():
            k = k1 + sum(a * b for a, b in zip(mu2, trc))
            dims[k] = dims.get(k, 0) + m1 * m2
    return RhoGrading(dims)


@dataclass(frozen=True)
class FunctorialityVerdict:
    passed: bool
    case: str
    first_mismatch: int | None = None
    detail: str = ""


def _table_plus_trivial(table: HodgeTable) -> HodgeTable:
    dims = dict(table.dims)
    dims[0] = dims.get(0, 0) + 1
    return HodgeTable(dims=dims, dim=table.dim + 1)


def _compare_tables(case: str, left: HodgeTable, right: HodgeTable) -> FunctorialityVerdict:
    keys = sorted(set(left.dims) | set(right.dims))
    for k in keys:
        if left.level(k) != right.level(k):
            return FunctorialityVerdict(
                passed=False,
                case=case,
                first_mismatch=k,
                detail=f"level 2a={k}: {left.level(k)} != {right.level(k)}",
            )
    return FunctorialityVerdict(passed=True, case=case)


def functoriality_check(case: str, n: int | None = None) -> FunctorialityVerdict:
    """Decomposition identities between Hodge tables of restricted representations.

    "so_pair":  the 2n+2-dimensional orthogonal table equals the 2n+1
                orthogonal one plus a trivial summand (needs n >= 2);
    "f4_e6":    the 27-dimensional E6 table equals the 26-dimensional F4
                table plus a trivial summand.
    """
    from .rootdatum import SimpleType, build_root_datum

    if case == "so_pair":
        if n is None or n < 2:
            raise UsageError("so_pair requires n >= 2")
        d_datum = build_root_datum(SimpleType("D", n + 1))
        b_datum = build_root_datum(SimpleType("B", n))
        left = hodge_numbers(d_datum, (1,) + (0,) * n)
        right = _table_plus_trivial(hodge_numbers(b_datum, (1,) + (0,) * (n - 1)))
        return _compare_tables(f"so_pair({n})", left, right)
    if case == "f4_e6":
        e6 = build_root_datum(SimpleType("E", 6))
        f4 = build_root_datum(SimpleType("F", 4))
        left = hodge_numbers(e6, (1, 0, 0, 0, 0, 0))
        right = _table_plus_trivial(hodge_numbers(f4, (0, 0, 0, 1)))
        return _compare_tables("f4_e6", left, right)
    raise UsageError(f"unknown functoriality case {case!r}")


def sum_rule_holds(datum: RootDatum, lam) -> bool:
    """Sum over the Hodge table equals the Weyl dimension, bit-exactly."""
    return hodge_numbers(datum, lam).dim == weyl_dimension(datum, lam)
