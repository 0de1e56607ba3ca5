"""Root data and answer oracles kept apart from the package under test.

Nothing here imports fghodge.  Root systems are rebuilt from Dynkin
diagrams (Bourbaki numbering, squared lengths of the simple roots) and
positive roots and coroots are generated by root strings, not by
reflection closure.  Hodge tables come from Kostant's principal specialization of the
Weyl character (Amer. J. Math. 81, 1959):

    sum_k h_k x^k = prod_{alpha>0} [<lambda+rho, alpha^vee>]_x / [<rho, alpha^vee>]_x

with symmetric x-integers [n]_x = x^(n-1) + x^(n-3) + ... + x^(1-n), so the
exponent k of x is the doubled level 2*alpha used by the program.  At x = 1
the product is the Weyl dimension.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}


def parse_type(text: str) -> tuple[str, int]:
    return text[0].upper(), int(text[1:])


def _diagram(family: str, n: int):
    """Bourbaki Dynkin diagram: edges between 1-based nodes and the squared
    length of every simple root (short roots of B, C, F, G have length 1)."""
    if family in "ABC":
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif family == "E":
        edges = [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)]
    elif family == "F":
        edges = [(1, 2), (2, 3), (3, 4)]
    elif family == "G":
        edges = [(1, 2)]
    else:
        raise ValueError(f"unknown family {family!r}")
    lengths = {
        "B": [2] * (n - 1) + [1],
        "C": [1] * (n - 1) + [2],
        "F": [2, 2, 1, 1],
        "G": [1, 3],
    }.get(family, [2] * n)
    return edges, lengths


def _cartan(type_str: str, dual: bool) -> list[list[int]]:
    """c[i][j] = <b_j, b_i^vee> for the simple roots b of the root system, or
    of the coroot system when dual; 2 (alpha_i, alpha_j) divided by L_i or L_j."""
    family, n = parse_type(type_str)
    edges, length = _diagram(family, n)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        i, j = a - 1, b - 1
        ip = -max(length[i], length[j])  # 2 (alpha_i, alpha_j)
        c[i][j] = ip // (length[j] if dual else length[i])
        c[j][i] = ip // (length[i] if dual else length[j])
    return c


@functools.lru_cache(maxsize=None)
def _positive(type_str: str, dual: bool) -> tuple[tuple[int, ...], ...]:
    """Positive roots (or coroots) in simple coordinates, generated by strings.

    beta + b_i is a root exactly when the b_i-string through beta extends
    upward: p = q - <beta, b_i^vee> > 0, q the downward length.
    """
    family, n = parse_type(type_str)
    c = _cartan(type_str, dual)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                q = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    q += 1
                pairing = sum(beta[j] * c[i][j] for j in range(n))
                if q - pairing > 0:
                    up = tuple(x + (1 if k == i else 0) for k, x in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    if len(roots) != _POSITIVE_COUNT[family](n):
        raise AssertionError(f"{type_str}: generated {len(roots)} positive roots")
    return tuple(sorted(roots))


def positive_coroots(type_str: str) -> tuple[tuple[int, ...], ...]:
    """Positive coroots alpha^vee in simple-coroot coordinates."""
    return _positive(type_str, True)


@functools.lru_cache(maxsize=None)
def _roots_as_weights(type_str: str) -> tuple[tuple[int, ...], ...]:
    c = _cartan(type_str, False)
    n = len(c)
    return tuple(tuple(sum(r[j] * c[i][j] for j in range(n)) for i in range(n))
                 for r in _positive(type_str, False))


def distinct_weights(type_str: str, lam) -> int:
    """Number of distinct weights of V_lambda.

    Sums |W mu| over the dominant mu <= lambda, which are connected by
    subtracting positive roots (Stembridge, 1998).  For dominant mu,
    |W mu| = |W| / |W_mu| is the product of (ht + 1) / ht over the positive
    coroots not orthogonal to mu, since |W| = prod_{alpha>0} (ht + 1) / ht.
    """
    factors = [(co, Fraction(sum(co) + 1, sum(co))) for co in positive_coroots(type_str)]
    roots = _roots_as_weights(type_str)
    lam = tuple(lam)
    seen = {lam}
    stack = [lam]
    total = Fraction(0)
    while stack:
        mu = stack.pop()
        size = Fraction(1)
        for co, f in factors:
            if any(d and m for d, m in zip(co, mu)):
                size *= f
        total += size
        for r in roots:
            nu = tuple(m - x for m, x in zip(mu, r))
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                stack.append(nu)
    return int(total)


def _pairings(type_str: str, lam) -> list[tuple[int, int]]:
    """(<lambda+rho, a^vee>, <rho, a^vee>) for every positive coroot a^vee."""
    out = []
    for co in positive_coroots(type_str):
        out.append((sum(d * (l + 1) for d, l in zip(co, lam)), sum(co)))
    return out


def weyl_dimension(type_str: str, lam) -> int:
    num = den = 1
    for a, b in _pairings(type_str, lam):
        num *= a
        den *= b
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Weyl product not integral for {type_str} {lam}")
    return q


def top_level(type_str: str, lam) -> int:
    """<lambda, 2 rho^vee>: the highest doubled level of the Hodge table."""
    return sum(a - b for a, b in _pairings(type_str, lam))


def hodge_table(type_str: str, lam) -> dict[int, int]:
    """{2*alpha: h^alpha} by the principal specialization product.

    In y = x^2 the product is prod (1 - y^n) / (1 - y^m) times x^(-top).
    Equal factors cancel first; then every numerator is multiplied in and
    every denominator divided out.  Each division is exact because the
    remaining denominators multiply the final polynomial.
    """
    nums: dict[int, int] = {}
    for a, b in _pairings(type_str, lam):
        nums[a] = nums.get(a, 0) + 1
        nums[b] = nums.get(b, 0) - 1
    poly = [1]
    for e, mult in nums.items():
        for _ in range(mult):  # multiply by (1 - y^e)
            poly = poly + [0] * e
            for i in range(len(poly) - 1, e - 1, -1):
                poly[i] -= poly[i - e]
    for e, mult in nums.items():
        for _ in range(-mult):  # divide by (1 - y^e)
            deg = len(poly) - 1 - e
            q = [0] * (deg + 1)
            for i in range(deg + 1):
                q[i] = poly[i] + (q[i - e] if i >= e else 0)
            for i in range(deg + 1, len(poly)):
                if poly[i] != -q[i - e]:
                    raise AssertionError("inexact division in the principal specialization")
            poly = q
    top = top_level(type_str, lam)
    if len(poly) != top + 1:
        raise AssertionError("principal specialization has the wrong degree")
    return {2 * i - top: h for i, h in enumerate(poly) if h}


def blocks_from_table(table: dict[int, int]) -> list[int]:
    """Jordan blocks of the principal nilpotent: h_k - h_(k+2) strings of length k+1."""
    blocks = []
    for k in range(max(table), -1, -1):
        blocks += [k + 1] * (table.get(k, 0) - table.get(k + 2, 0))
    return blocks


def exponents(type_str: str) -> list[int]:
    family, n = parse_type(type_str)
    if family == "A":
        return list(range(1, n + 1))
    if family in "BC":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
    return list(EXPONENTS[type_str])


def expected_jordan(type_str: str, rep: str) -> list[int]:
    """Jordan type of the principal nilpotent on the adjoint or standard matrices."""
    if rep == "adjoint":
        return sorted((2 * m + 1 for m in exponents(type_str)), reverse=True)
    family, n = parse_type(type_str)
    return {"A": [n + 1], "B": [2 * n + 1], "C": [2 * n], "D": [2 * n - 1, 1]}[family]


def fundamental(type_str: str, node: int) -> tuple[int, ...]:
    n = parse_type(type_str)[1]
    return tuple(1 if i == node - 1 else 0 for i in range(n))


def minuscule_betti_sum(type_str: str, node: int) -> int:
    """|W/W_P| for a minuscule node: C(n+1, k) for A_n, 2^(n-1) for a D_n spin node."""
    family, n = parse_type(type_str)
    if family == "A":
        return math.comb(n + 1, node)
    if family == "D" and node in (n - 1, n):
        return 2 ** (n - 1)
    return weyl_dimension(type_str, fundamental(type_str, node))
