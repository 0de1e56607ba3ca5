"""Seeded inputs for the three workloads.

Only the generated (type, weight, node, argv) lists reach the program; the
sampling uses the Weyl-dimension product of lie.py, not the package.
"""

from __future__ import annotations

import math
import random

import lie

CERTIFY_CASES = (
    ("E6", "adjoint"), ("E7", "adjoint"), ("E8", "adjoint"),
    ("B8", "std"), ("C8", "std"), ("D8", "std"),
)

TABLE_TYPES = (
    [f"A{n}" for n in range(2, 8)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 7)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
BANDS = ((10**2, 10**3), (10**3, 10**4), (10**4, 10**5))
# Freudenthal cost grows with the string lengths, i.e. with <lambda, 2 rho^vee>.
# Capping it (the E8 omega_2 anchor has 136) keeps one sampled weight from
# costing as much as the rest of a pass.
MAX_TOP_LEVEL = 150
# Weights per (type, band) stratum: the cheap bands carry the op median.
PICKS = (2, 2, 1)
# Picks come from this many seeded candidates of a stratum: those whose number
# of distinct weights is nearest NW_TARGET[band].  Within one type that number
# predicts the Freudenthal time to a log-sd of 0.11 (the dimension: 0.58), so
# every seed gets weights of about the same cost from each stratum.  A target
# is about 0.15 of the band's middle dimension, a typical ratio.
CANDIDATES = 20
NW_TARGET = (50, 500, 5000)

E8_OMEGA2 = ("E8", (0, 1, 0, 0, 0, 0, 0, 0))
TABLE_ANCHORS = (E8_OMEGA2, ("A5", (2, 0, 1, 0, 3)))
KKP_LARGE = (("A13", 7), ("A15", 8), ("D12", 12))

# Minuscule (type, node) pairs for the cli kkp queries, by Betti-sum size.
KKP_SMALL = (("A4", 2), ("A5", 3), ("B4", 4), ("C5", 1),
             ("D5", 5), ("E6", 1), ("E7", 7), ("A7", 4))
KKP_MEDIUM = (("A9", 5), ("A10", 3), ("B6", 6), ("D7", 7),
              ("D9", 9), ("A11", 4), ("B8", 8), ("A8", 4))
VERIFY_TYPES = {
    "adjoint": ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"),
    "std": ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4"),
}
EXPONENT_TYPES = ("A5", "A6", "A7", "B5", "B6", "C5", "C6", "D5", "D6", "E6", "E7", "E8")
SWEEP_MAX_RANK, SWEEP_MAX_DIM = 4, 200
SWEEP_ARGV = ("sweep", "--max-rank", str(SWEEP_MAX_RANK), "--max-dim", str(SWEEP_MAX_DIM))


def sweep_types(max_rank: int) -> list[str]:
    """The types `fghodge sweep --max-rank` covers."""
    types = [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for n in range(lo, max_rank + 1)]
    return types + [t for t in ("E6", "E7", "E8", "F4", "G2") if int(t[1]) <= max_rank]


def dominant_weights_below(type_str: str, max_dim: int) -> list[tuple[int, ...]]:
    """Dominant weights with dim < max_dim; dim grows with every coordinate."""
    n = lie.parse_type(type_str)[1]
    start = (0,) * n
    seen = {start}
    stack = [start]
    found = []
    while stack:
        lam = stack.pop()
        if lie.weyl_dimension(type_str, lam) >= max_dim:
            continue
        found.append(lam)
        for i in range(n):
            up = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
            if up not in seen:
                seen.add(up)
                stack.append(up)
    return found


def weight_strata(excluded=()) -> dict[tuple[str, int], list[tuple[int, ...]]]:
    """{(type, band index): weights sorted by dimension} over TABLE_TYPES x BANDS."""
    excluded = set(excluded)
    strata: dict[tuple[str, int], list] = {}
    for t in TABLE_TYPES:
        for lam in dominant_weights_below(t, BANDS[-1][1]):
            if (t, lam) in excluded or lie.top_level(t, lam) > MAX_TOP_LEVEL:
                continue
            dim = lie.weyl_dimension(t, lam)
            for b, (lo, hi) in enumerate(BANDS):
                if lo <= dim < hi:
                    strata.setdefault((t, b), []).append((dim, lam))
    return {k: [lam for _, lam in sorted(v)] for k, v in strata.items()}


def pick(rng: random.Random, type_str: str, band: int, stratum: list, k: int = 1) -> list:
    """The k weights of a seeded subset whose distinct-weight count is nearest the target."""
    subset = rng.sample(stratum, min(CANDIDATES, len(stratum)))
    counts = {lam: lie.distinct_weights(type_str, lam) for lam in subset}
    subset.sort(key=lambda lam: (abs(math.log(counts[lam] / NW_TARGET[band])), lam))
    return subset[:k]


def certify_ops(seed: int) -> list[dict]:
    cases = list(CERTIFY_CASES)
    random.Random(seed).shuffle(cases)
    return [{"kind": "certify", "type": t, "rep": rep} for t, rep in cases]


def tables_ops(seed: int) -> list[dict]:
    """PICKS[band] weights from every (type, band) stratum, the two anchors, the KKP cases."""
    rng = random.Random(seed)
    kkp_weights = [(t, lie.fundamental(t, node)) for t, node in KKP_LARGE]
    strata = weight_strata(excluded=list(TABLE_ANCHORS) + kkp_weights)
    ops = [{"kind": "hodge", "type": t, "weight": list(lam)}
           for t, b in sorted(strata) for lam in pick(rng, t, b, strata[(t, b)], PICKS[b])]
    ops += [{"kind": "hodge", "type": t, "weight": list(lam)} for t, lam in TABLE_ANCHORS]
    ops += [{"kind": "kkp", "type": t, "node": node} for t, node in KKP_LARGE]
    return ops


def _query(argv, check: dict) -> dict:
    return {"kind": "cli", "argv": list(argv), **check}


def cli_ops(seed: int) -> list[dict]:
    """Sixteen distinct CLI queries, then eight repeats placed after their originals.

    Hodge and jordan weights come from dimension bands 10^2-10^3 and
    10^3-10^4, away from the weights the sweep caches (rank <= 4, dim <= 200),
    so that cache hits come from repeats only.
    """
    rng = random.Random(seed)

    def fmt(argv):
        return argv + ["--json"] if rng.random() < 0.5 else argv

    strata = weight_strata()
    chosen: set = set()
    distinct = []
    for cmd in ("hodge", "jordan"):
        for as_json in (False, True):
            for band in (0, 1):
                while True:
                    t = rng.choice(TABLE_TYPES)
                    lam = pick(rng, t, band, strata[(t, band)])[0]
                    small = lie.parse_type(t)[1] <= 4 and lie.weyl_dimension(t, lam) <= 200
                    if (t, lam) not in chosen and not small:
                        break
                chosen.add((t, lam))
                argv = [cmd, "--type", t, "--weight", ",".join(map(str, lam))]
                distinct.append(_query(argv + ["--json"] if as_json else argv,
                                       {"type": t, "weight": list(lam)}))
    t, lam = E8_OMEGA2
    e8 = _query(fmt(["hodge", "--type", t, "--weight", ",".join(map(str, lam))]),
                {"type": t, "weight": list(lam)})
    distinct.append(e8)
    for t in rng.sample(EXPONENT_TYPES, 2):
        distinct.append(_query(fmt(["exponents", "--type", t]), {"type": t}))
    for pool in (KKP_SMALL, KKP_MEDIUM):
        t, node = rng.choice(pool)
        distinct.append(_query(["kkp", "--type", t, "--node", str(node)], {"type": t, "node": node}))
    for rep, types in VERIFY_TYPES.items():
        t = rng.choice(types)
        distinct.append(_query(fmt(["verify", "--type", t, "--rep", rep]), {"type": t, "rep": rep}))
    sweep = _query(list(SWEEP_ARGV), {})
    distinct.append(sweep)
    rng.shuffle(distinct)

    cached = [q for q in distinct if q["argv"][0] in ("hodge", "jordan", "exponents")
              and q is not e8]
    repeated = [sweep, e8] + rng.sample(cached, 6)
    order = list(distinct)
    for q in repeated:
        order.insert(rng.randint(order.index(q) + 1, len(order)), q)
    ops, first_id = [], {}
    for i, q in enumerate(order):
        op = dict(q, id=i)
        key = tuple(q["argv"])
        if key in first_id:
            op["repeat_of"] = first_id[key]
        else:
            first_id[key] = i
        ops.append(op)
    return ops


def workload_ops(name: str, seed: int) -> list[dict]:
    return {"certify": certify_ops, "tables": tables_ops, "cli": cli_ops}[name](seed)
