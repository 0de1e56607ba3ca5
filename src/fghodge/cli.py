"""Command-line surface.

Subcommands: hodge, jordan, exponents, verify, kkp, sweep.  Exit codes:
0 success / all checks pass, 1 a mathematical check failed, 2 usage or
parse error, 3 a resource guard tripped, 141 (128 + SIGPIPE) stdout was
closed before the output was written.  JSON output is byte-deterministic
for fixed inputs and format version.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import chevalley, connection, grading, kkp
from .character import adjoint_weight, weyl_dimension
from .errors import FghodgeError, IntegrityError, ResourceLimitError, UsageError
from .grading import partition_from_grading
from .rootdatum import RootDatum, SimpleType, build_root_datum, parse_int, simple_types, std_weight

DEFAULT_MAX_DIM = 10**6
# Largest sum of dim V over the weights one sweep grades.  Each weight costs a
# table and its partition, each with L + 1 <= dim V levels, L = <lam, 2rho^vee>;
# A1, where L = dim V - 1, is the worst case: `sweep --max-rank 1 --max-dim
# 3000` grades 4,501,500 vectors in 2.6-3.1 s on a 2-vCPU VM.  The default
# sweep grades 48,463.
MAX_SWEEP_DIMS = 10**7

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _parse_type(text: str) -> RootDatum:
    return build_root_datum(SimpleType.parse(text))


def _parse_weight(datum: RootDatum, text: str):
    """The weight as rank ints; _guard_dim's weyl_dimension, next in each
    caller, refuses one that is not dominant."""
    try:
        coords = tuple(map(parse_int, text.split(",")))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}; expected comma-separated integers")
    return datum.check_weight(coords)


def _int_arg(text: str) -> int:
    """argparse type of the integer options, under the rule of parse_int."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _guard_dim(datum: RootDatum, lam, max_dim: int) -> None:
    dim = weyl_dimension(datum, lam)
    if dim > max_dim:
        raise ResourceLimitError(
            f"dim V = {dim} exceeds --max-dim {max_dim} for {datum.stype} weight {lam}"
        )


def _emit(as_json: bool, payload, text: str) -> None:
    """Print payload as compact JSON, or text."""
    if as_json:
        import json  # only JSON output pays for this import
        text = json.dumps(payload, separators=(",", ":"))
    print(text)


def cmd_hodge(args) -> int:
    datum = _parse_type(args.type)
    lam = _parse_weight(datum, args.weight)
    _guard_dim(datum, lam, args.max_dim)
    table = grading.hodge_numbers(datum, lam)
    levels = sorted(table.dims.items())
    payload = {
        "type": str(datum.stype),
        "weight": list(lam),
        "dim": table.dim,
        "levels": [{"two_alpha": k, "h": h} for k, h in levels],
    }
    rows = [f"type {datum.stype}  weight {','.join(map(str, lam))}  dim {table.dim}",
            f"{'alpha':>8}  {'h^alpha':>7}"]
    rows += [f"{str(Fraction(k, 2)):>8}  {h:>7}" for k, h in levels]
    _emit(args.json, payload, "\n".join(rows))
    return EXIT_OK


def cmd_jordan(args) -> int:
    datum = _parse_type(args.type)
    lam = _parse_weight(datum, args.weight)
    _guard_dim(datum, lam, args.max_dim)
    blocks = partition_from_grading(grading.hodge_numbers(datum, lam)).blocks
    payload = {
        "type": str(datum.stype),
        "weight": list(lam),
        "blocks": list(blocks),
        "distinct": len(set(blocks)) == len(blocks),
    }
    _emit(args.json, payload, " ".join(map(str, blocks)))
    return EXIT_OK


def cmd_exponents(args) -> int:
    datum = _parse_type(args.type)
    _guard_dim(datum, adjoint_weight(datum), args.max_dim)
    exps = grading.exponents(datum)
    _emit(args.json, {"type": str(datum.stype), "exponents": exps}, " ".join(map(str, exps)))
    return EXIT_OK


def cmd_verify(args) -> int:
    datum = _parse_type(args.type)
    if args.rep == "adjoint":
        _guard_dim(datum, adjoint_weight(datum), args.max_dim)
        rep = chevalley.adjoint_rep(datum)
    else:
        _guard_dim(datum, std_weight(datum), args.max_dim)
        rep = chevalley.classical_std_rep(datum)
    triple = chevalley.principal_triple(rep)
    a, b = connection.rmodule_pair(triple, datum.coxeter)
    residual = connection.integrability_residual(a, b)
    entry = residual.first_nonzero()
    payload = {
        "type": str(datum.stype),
        "rep": args.rep,
        "pass": entry is None,
        "residual_entry": None if entry is None else
            {"row": entry[0], "col": entry[1], "poly": entry[2]},
    }
    text = (f"PASS {datum.stype} {args.rep}: flatness residual is the zero matrix" if entry is None
            else f"FAIL {datum.stype} {args.rep}: residual[{entry[0]}][{entry[1]}] = {entry[2]}")
    _emit(args.json, payload, text)
    return EXIT_OK if entry is None else EXIT_CHECK_FAILED


def cmd_kkp(args) -> int:
    datum = _parse_type(args.type)
    case = kkp.minuscule_case(datum, args.node)
    _guard_dim(datum, case.lam, args.max_dim)  # the Betti count reads all dim V weights
    verdict = kkp.kkp_check(case)
    payload = {
        "type": str(datum.stype),
        "node": case.node,
        "dim_X": case.dim_x,
        "betti": list(verdict.betti.b),
        "hodge_shifted": list(verdict.hodge_shifted),
        "pass": verdict.passed,
    }
    _emit(True, payload, "")  # kkp has no text layout
    return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED


def _dominant_weights_up_to(datum: RootDatum, max_dim: int, budget: int = MAX_SWEEP_DIMS):
    """All dominant weights with Weyl dimension <= max_dim, ordered, and the
    sum of their dimensions; raises ResourceLimitError once that sum passes
    budget."""
    n = datum.rank
    frontier = [(0,) * n]
    found, seen, total = [], set(frontier), 0
    while frontier:
        nxt = []
        for lam in frontier:
            dim = weyl_dimension(datum, lam)
            if dim > max_dim:
                continue
            total += dim
            if total > budget:
                raise ResourceLimitError(
                    f"the sweep would grade more than {MAX_SWEEP_DIMS} vectors (sum of dim V) "
                    f"by {datum.stype}; lower --max-dim or --max-rank"
                )
            found.append(lam)
            for i in range(n):
                up = tuple(c + (1 if j == i else 0) for j, c in enumerate(lam))
                if up not in seen:
                    seen.add(up)
                    nxt.append(up)
        frontier = nxt
    return sorted(found), total


def cmd_sweep(args) -> int:
    """Sum rule and sl2-consistency of every small table, plus the minuscule
    mirror checks and the classical functoriality identities.

    hodge_numbers checks the sum rule, and HodgeTable a symmetric table of
    positive entries.  partition_from_grading checks that no count_k =
    dims[k] - dims[k+2], k >= 0, is negative, and its docstring proves that
    under those the partition maps back to the table, so no table is rebuilt
    from it.
    """
    types = simple_types(args.max_rank)
    if not types:  # 0/0 checks would read as a pass
        raise UsageError(f"--max-rank must be at least 1, got {args.max_rank}")
    swept, cost = [], 0
    for stype in types:
        datum = build_root_datum(stype)
        cases = kkp.all_minuscule_cases(datum)
        for case in cases:  # each KKP check counts the dim V weights of one Weyl orbit
            dim = weyl_dimension(datum, case.lam)
            if dim > DEFAULT_MAX_DIM:
                raise ResourceLimitError(
                    f"the kkp check of {stype} node {case.node} walks {dim} weights, "
                    f"over the kkp limit of {DEFAULT_MAX_DIM}; lower --max-rank"
                )
        weights, dims = _dominant_weights_up_to(datum, args.max_dim, MAX_SWEEP_DIMS - cost)
        cost += dims
        swept.append((stype, datum, weights, cases))
    checked = failed = 0

    def report(ok: bool, label: str) -> None:
        nonlocal checked, failed
        checked += 1
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'} {label}")

    for stype, datum, weights, cases in swept:
        for lam in weights:
            label = f"{stype} weight {','.join(map(str, lam))}"
            try:
                g = grading.hodge_numbers(datum, lam)
                partition_from_grading(g)
            except IntegrityError as exc:
                report(False, f"{label}: {exc}")
            else:
                report(True, f"{label} dim {g.dim}")
        for case in cases:
            report(kkp.kkp_check(case).passed, f"{stype} kkp node {case.node}")
    for n in range(2, args.max_rank):
        report(grading.functoriality_check("so_pair", n), f"so_pair({n})")
    if args.max_rank >= 6:
        report(grading.functoriality_check("f4_e6"), "f4_e6")
    print(f"sweep: {checked - failed}/{checked} checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


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
        p.add_argument("--max-dim", type=_int_arg, default=DEFAULT_MAX_DIM,
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
    p.add_argument("--node", type=_int_arg, required=True, help="Bourbaki node index")
    p.set_defaults(func=cmd_kkp)

    p = sub.add_parser("sweep", help="aggregate checks over all small types and weights")
    p.add_argument("--max-rank", type=_int_arg, default=4)
    p.add_argument("--max-dim", type=_int_arg, default=200)
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
        if args.max_dim < 1:  # no V has dimension below 1: sweep would grade nothing and pass
            raise UsageError(f"--max-dim must be at least 1, got {args.max_dim}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader is gone; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FghodgeError as exc:  # UsageError: bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
