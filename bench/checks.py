"""Answer checks against the oracles of lie.py.

Every check returns None when the answer is right and a one-line reason
when it is not; a wrong answer is counted as a failed op, never raised.
"""

from __future__ import annotations

import json
from fractions import Fraction

import lie
import workloads


def check_table(type_str: str, weight, dim: int, levels: dict[int, int]) -> str | None:
    expect = lie.hodge_table(type_str, weight)
    if sum(expect.values()) != lie.weyl_dimension(type_str, weight):
        return "oracle disagrees with the Weyl dimension"
    if dim != sum(expect.values()):
        return f"dim {dim} != {sum(expect.values())}"
    if levels != expect:
        bad = min(k for k in set(levels) | set(expect) if levels.get(k) != expect.get(k))
        return f"h at 2a={bad} is {levels.get(bad, 0)}, expected {expect.get(bad, 0)}"
    return None


def check_blocks(blocks, expect) -> str | None:
    if list(blocks) != list(expect):
        return f"Jordan blocks {list(blocks)} != {list(expect)}"
    return None


def check_kkp(type_str: str, node: int, answer: dict) -> str | None:
    lam = lie.fundamental(type_str, node)
    top = lie.top_level(type_str, lam)
    table = lie.hodge_table(type_str, lam)
    shifted = [table.get(2 * p - top, 0) for p in range(top + 1)]
    if answer["passed"] is not True:
        return "kkp verdict is not a pass"
    if answer["dim_x"] != top:
        return f"dim X {answer['dim_x']} != {top}"
    if sum(answer["betti"]) != lie.minuscule_betti_sum(type_str, node):
        return f"Betti sum {sum(answer['betti'])} != {lie.minuscule_betti_sum(type_str, node)}"
    if answer["betti"] != shifted or answer["hodge_shifted"] != shifted:
        return "Betti or shifted Hodge numbers disagree with the oracle"
    return None


def check_library(op: dict, answer: dict) -> str | None:
    """Check one certify, hodge or kkp op of a library pass."""
    if op["kind"] == "certify":
        if not answer["residual_zero"]:
            return f"flatness residual is nonzero: {answer['residual_entry']}"
        return check_blocks(answer["blocks"], lie.expected_jordan(op["type"], op["rep"]))
    if op["kind"] == "hodge":
        return check_table(op["type"], op["weight"], answer["dim"], dict(answer["levels"]))
    return check_kkp(op["type"], op["node"], answer)


def _hodge_text(op, lines) -> str | None:
    head = lines[0].split()
    if head[:4] != ["type", op["type"], "weight", ",".join(map(str, op["weight"]))]:
        return f"unexpected header {lines[0]!r}"
    levels = {}
    for line in lines[2:]:
        alpha, h = line.split()
        k = 2 * Fraction(alpha)
        if k.denominator != 1:
            return f"alpha {alpha} is not a half-integer"
        levels[int(k)] = int(h)
    return check_table(op["type"], op["weight"], int(head[5]), levels)


def _sweep(lines) -> str | None:
    *rows, last = lines
    if any(not row.startswith("ok ") for row in rows):
        return "sweep reports a failed check"
    if last != f"sweep: {len(rows)}/{len(rows)} checks passed":
        return f"unexpected sweep summary {last!r}"
    expect = set()
    for t in workloads.sweep_types(workloads.SWEEP_MAX_RANK):
        for lam in workloads.dominant_weights_below(t, workloads.SWEEP_MAX_DIM + 1):
            expect.add(f"ok {t} weight {','.join(map(str, lam))} dim {lie.weyl_dimension(t, lam)}")
    got = {row for row in rows if " weight " in row}
    if got != expect:
        return f"sweep checked {len(got)} weights, expected {len(expect)}"
    return None


def check_cli(op: dict, code: int, stdout: str) -> str | None:
    """Parse one CLI query's stdout and check it against the oracles."""
    if code != 0:
        return f"exit code {code}"
    argv = op["argv"]
    lines = stdout.strip().splitlines()
    if not lines:
        return "empty output"
    cmd, as_json = argv[0], "--json" in argv
    try:
        if cmd == "sweep":
            return _sweep(lines)
        payload = json.loads(stdout) if as_json or cmd == "kkp" else None
        if payload is not None and payload.get("type") != op["type"]:
            return f"type {payload.get('type')!r} != {op['type']!r}"
        if cmd == "hodge":
            if payload is None:
                return _hodge_text(op, lines)
            if payload["weight"] != op["weight"]:
                return "weight echoed wrongly"
            levels = [(e["two_alpha"], e["h"]) for e in payload["levels"]]
            if levels != sorted(levels):
                return "levels are not sorted by two_alpha"
            return check_table(op["type"], op["weight"], payload["dim"], dict(levels))
        if cmd == "jordan":
            expect = lie.blocks_from_table(lie.hodge_table(op["type"], op["weight"]))
            if payload is None:
                return check_blocks([int(b) for b in lines[0].split()], expect)
            if payload["distinct"] != (len(set(expect)) == len(expect)):
                return "distinct flag is wrong"
            return check_blocks(payload["blocks"], expect)
        if cmd == "exponents":
            got = payload["exponents"] if payload else [int(e) for e in lines[0].split()]
            return None if got == lie.exponents(op["type"]) else f"exponents {got}"
        if cmd == "kkp":
            if payload["node"] != op["node"]:
                return f"node {payload['node']} != {op['node']}"
            return check_kkp(op["type"], op["node"], {
                "passed": payload["pass"], "dim_x": payload["dim_X"],
                "betti": payload["betti"], "hodge_shifted": payload["hodge_shifted"]})
        if cmd == "verify":
            if payload is not None:
                ok = payload["pass"] is True and payload["residual_entry"] is None
            else:
                ok = lines == [f"PASS {op['type']} {op['rep']}: flatness residual is the zero matrix"]
            return None if ok else "flatness certificate did not pass"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
    return f"no check for command {cmd!r}"
