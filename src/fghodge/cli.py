"""Command-line surface.

Subcommands: hodge, jordan, exponents, verify, kkp, sweep.  Exit codes:
0 success / all checks pass, 1 a mathematical check failed, 2 usage or
parse error, 3 a resource guard tripped.  JSON output is byte-deterministic
for fixed inputs and format version.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import chevalley, connection, grading, kkp
from .character import adjoint_weight, weyl_dimension
from .errors import (
    ConfigurationError,
    FghodgeError,
    IntegrityError,
    ResourceLimitError,
    UsageError,
)
from .grading import (
    HodgeTable,
    distinct_blocks,
    partition_from_grading,
    principal_grading,
)
from .rootdatum import RootDatum, SimpleType, build_root_datum, check_size

DEFAULT_MAX_DIM = 10**6

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_type(text: str) -> RootDatum:
    return build_root_datum(SimpleType.parse(text))


def _parse_weight(datum: RootDatum, text: str):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}; expected comma-separated integers")
    lam = datum.check_weight(coords)
    if not datum.is_dominant(lam):
        raise UsageError(f"weight {lam} is not dominant")
    return lam


def _guard_dim(datum: RootDatum, lam, max_dim: int) -> int:
    dim = weyl_dimension(datum, lam)
    if dim > max_dim:
        raise ResourceLimitError(
            f"dim V = {dim} exceeds --max-dim {max_dim} for {datum.stype} weight {lam}"
        )
    return dim


def _alpha_str(k: int) -> str:
    return str(Fraction(k, 2))


def _print_table(datum: RootDatum, lam, table: HodgeTable) -> None:
    print(f"type {datum.stype}  weight {','.join(map(str, lam))}  dim {table.dim}")
    print(f"{'alpha':>8}  {'h^alpha':>7}")
    for k, h in table.sorted_items():
        print(f"{_alpha_str(k):>8}  {h:>7}")


def cmd_hodge(args) -> int:
    datum = _parse_type(args.type)
    lam = _parse_weight(datum, args.weight)
    _guard_dim(datum, lam, args.max_dim)
    table = grading.hodge_numbers(datum, lam)
    if args.json:
        print(json.dumps(table.to_json_dict(str(datum.stype), lam), separators=(",", ":")))
    else:
        _print_table(datum, lam, table)
    return EXIT_OK


def cmd_jordan(args) -> int:
    datum = _parse_type(args.type)
    lam = _parse_weight(datum, args.weight)
    _guard_dim(datum, lam, args.max_dim)
    part = partition_from_grading(principal_grading(datum, lam))
    payload = {
        "type": str(datum.stype),
        "weight": list(lam),
        "blocks": list(part.blocks),
        "distinct": distinct_blocks(part),
    }
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(" ".join(map(str, part.blocks)))
    return EXIT_OK


def cmd_exponents(args) -> int:
    datum = _parse_type(args.type)
    _guard_dim(datum, adjoint_weight(datum), args.max_dim)
    exps = grading.exponents(datum)
    if args.json:
        print(json.dumps({"type": str(datum.stype), "exponents": exps}, separators=(",", ":")))
    else:
        print(" ".join(map(str, exps)))
    return EXIT_OK


def cmd_verify(args) -> int:
    datum = _parse_type(args.type)
    if args.rep == "adjoint":
        _guard_dim(datum, adjoint_weight(datum), args.max_dim)
    elif datum.stype.family in "ABCD":  # the standard representation is V(omega_1)
        _guard_dim(datum, (1,) + (0,) * (datum.rank - 1), args.max_dim)
    rep = chevalley.get_rep(datum, args.rep)
    triple = chevalley.principal_triple(rep)
    a, b = connection.rmodule_pair(triple, datum.coxeter)
    residual = connection.integrability_residual(a, b)
    entry = residual.first_nonzero()
    if args.json:
        payload = {
            "type": str(datum.stype),
            "rep": args.rep,
            "pass": residual.is_zero(),
            "residual_entry": None if entry is None else
                {"row": entry[0], "col": entry[1], "poly": str(entry[2])},
        }
        print(json.dumps(payload, separators=(",", ":")))
    elif residual.is_zero():
        print(f"PASS {datum.stype} {args.rep}: flatness residual is the zero matrix")
    else:
        r, c, poly = entry
        print(f"FAIL {datum.stype} {args.rep}: residual[{r}][{c}] = {poly}")
    return EXIT_OK if residual.is_zero() else EXIT_CHECK_FAILED


def cmd_kkp(args) -> int:
    datum = _parse_type(args.type)
    case = kkp.minuscule_case(datum, args.node)
    _guard_dim(datum, case.lam, args.max_dim)  # the Weyl orbit has dim V weights
    verdict = kkp.kkp_check(case)
    payload = {
        "type": str(datum.stype),
        "node": case.node,
        "dim_X": case.dim_x,
        "betti": list(verdict.betti.b),
        "hodge_shifted": list(verdict.hodge_shifted),
        "pass": verdict.passed,
    }
    print(json.dumps(payload, separators=(",", ":")))
    return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED


def _sweep_types(max_rank: int):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, max_rank + 1):
            yield SimpleType(family, rank)
    for family, rank in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)):
        if rank <= max_rank:
            yield SimpleType(family, rank)


def _dominant_weights_up_to(datum: RootDatum, max_dim: int):
    """All dominant weights with Weyl dimension <= max_dim, ordered."""
    n = datum.rank
    found = []
    seen = set()
    frontier = [(0,) * n]
    seen.add(frontier[0])
    while frontier:
        nxt = []
        for lam in frontier:
            if weyl_dimension(datum, lam) > max_dim:
                continue
            found.append(lam)
            for i in range(n):
                up = tuple(c + (1 if j == i else 0) for j, c in enumerate(lam))
                if up not in seen:
                    seen.add(up)
                    nxt.append(up)
        frontier = nxt
    return sorted(found)


def cmd_sweep(args) -> int:
    """Sum rule + grading/partition roundtrip over every small case, plus the
    minuscule mirror checks and the classical functoriality identities."""
    if args.max_rank >= 2:  # B_r has the most positive roots of the swept rank-r types
        check_size(SimpleType("B", args.max_rank))
    failures = []
    checked = 0
    for stype in _sweep_types(args.max_rank):
        datum = build_root_datum(stype)
        for lam in _dominant_weights_up_to(datum, args.max_dim):
            checked += 1
            g = principal_grading(datum, lam)
            ok_sum = g.total == weyl_dimension(datum, lam)
            part = partition_from_grading(g)
            ok_round = grading.hodge_from_partition(part).dims == g.dims
            status = "ok" if (ok_sum and ok_round) else "FAIL"
            if not (ok_sum and ok_round):
                failures.append((str(stype), lam))
            print(f"{status} {stype} weight {','.join(map(str, lam))} dim {g.total}")
        for node in kkp.minuscule_nodes(datum):
            checked += 1
            verdict = kkp.kkp_check(kkp.minuscule_case(datum, node))
            if not verdict.passed:
                failures.append((str(stype), f"kkp node {node}"))
            print(f"{'ok' if verdict.passed else 'FAIL'} {stype} kkp node {node}")
    for n in range(2, args.max_rank):
        checked += 1
        verdict = grading.functoriality_check("so_pair", n)
        if not verdict.passed:
            failures.append((verdict.case, verdict.detail))
        print(f"{'ok' if verdict.passed else 'FAIL'} {verdict.case}")
    if args.max_rank >= 6:
        checked += 1
        verdict = grading.functoriality_check("f4_e6")
        if not verdict.passed:
            failures.append((verdict.case, verdict.detail))
        print(f"{'ok' if verdict.passed else 'FAIL'} {verdict.case}")
    print(f"sweep: {checked - len(failures)}/{checked} checks passed")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fghodge",
        description="Exact irregular Hodge numbers, Jordan types and integrability checks "
                    "for rigid connections attached to simple types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weight=False):
        p.add_argument("--type", required=True, help="simple type, e.g. A3 or E8")
        if weight:
            p.add_argument("--weight", required=True,
                           help="dominant weight in fundamental coordinates, e.g. 1,0,0")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                       help="resource guard on dim V (default 10^6)")
        # accepted and ignored (nothing is cached on disk), so scripts passing it still run
        p.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("hodge", help="irregular Hodge table of (type, weight)")
    common(p, weight=True)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("jordan", help="Jordan blocks of the principal nilpotent on V")
    common(p, weight=True)
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("exponents", help="exponents extracted from the adjoint grading")
    common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("verify", help="flatness certificate for the two-variable connection")
    common(p)
    p.add_argument("--rep", choices=("adjoint", "std"), default="adjoint")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kkp", help="minuscule Betti numbers vs shifted Hodge numbers")
    common(p)
    p.add_argument("--node", type=int, required=True, help="Bourbaki node index")
    p.set_defaults(func=cmd_kkp)

    p = sub.add_parser("sweep", help="aggregate checks over all small types and weights")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=200)
    p.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FghodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
