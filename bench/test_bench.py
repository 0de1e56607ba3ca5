"""Tests of the benchmark itself: oracles, answer checks, seeding and metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import lie  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fghodge import chevalley, grading  # noqa: E402
from fghodge.cli import main as cli_main  # noqa: E402
from fghodge.rootdatum import SimpleType, build_root_datum  # noqa: E402

SMALL_CASES = {
    "A1": [(1,), (4,)],
    "A3": [(1, 0, 0), (1, 1, 1), (2, 0, 1)],
    "A4": [(0, 1, 0, 2)],
    "B2": [(1, 0), (0, 1), (2, 3)],
    "B3": [(0, 0, 1), (1, 1, 0)],
    "C2": [(1, 0), (0, 1), (3, 1)],
    "C3": [(1, 0, 0), (0, 1, 1)],
    "D4": [(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)],
    "D5": [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0)],
    "E6": [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)],
    "E7": [(0, 0, 0, 0, 0, 0, 1)],
    "E8": [(0, 0, 0, 0, 0, 0, 0, 1)],
    "F4": [(0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)],
    "G2": [(1, 0), (0, 1), (2, 1)],
}


def datum(t):
    return build_root_datum(SimpleType.parse(t))


@pytest.mark.parametrize("type_str", sorted(SMALL_CASES))
def test_oracle_agrees_with_freudenthal(type_str):
    for lam in SMALL_CASES[type_str]:
        table = grading.rho_grading(grading.irrep_character(datum(type_str), lam))
        assert lie.hodge_table(type_str, lam) == table.dims
        assert lie.weyl_dimension(type_str, lam) == table.total


def test_exponent_and_jordan_tables():
    for t in ["A1", "A6", "B5", "C4", "D4", "D7", "E6", "E7", "E8", "F4", "G2"]:
        assert lie.exponents(t) == grading.exponents(datum(t))
    for t in ["B3", "C3", "D4"]:
        rep = chevalley.classical_std_rep(datum(t))
        blocks = chevalley.jordan_type(chevalley.principal_triple(rep).N).blocks
        assert list(blocks) == lie.expected_jordan(t, "std")
    rep = chevalley.adjoint_rep(datum("G2"))
    assert list(chevalley.jordan_type(chevalley.principal_triple(rep).N).blocks) == [11, 3]


def test_perturbed_answers_are_counted_as_failed():
    t, lam = "B3", (1, 1, 0)
    good = lie.hodge_table(t, lam)
    dim = sum(good.values())
    assert checks.check_table(t, lam, dim, good) is None
    bad = dict(good)
    bad[0] += 1
    assert checks.check_table(t, lam, dim + 1, bad)
    bad[0] -= 2
    bad[2] += 1
    assert checks.check_table(t, lam, dim, bad)

    op = {"kind": "certify", "type": "E6", "rep": "adjoint"}
    answer = {"blocks": [23, 17, 15, 11, 9, 3], "residual_zero": True, "residual_entry": None}
    assert checks.check_library(op, answer) is None
    assert checks.check_library(op, dict(answer, blocks=[23, 17, 15, 11, 7, 5]))
    assert checks.check_library(op, dict(answer, residual_zero=False, residual_entry="1*z^-2"))

    op = {"kind": "kkp", "type": "A5", "node": 3}
    answer = {"passed": True, "dim_x": 9, "betti": [1, 1, 2, 3, 3, 3, 3, 2, 1, 1],
              "hodge_shifted": [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]}
    assert checks.check_library(op, answer) is None
    wrong = [1, 1, 2, 3, 4, 2, 3, 2, 1, 1]
    assert checks.check_library(op, dict(answer, betti=wrong, hodge_shifted=wrong))
    assert checks.check_library(op, dict(answer, passed=False))


CLI_QUERIES = [
    {"argv": ["hodge", "--type", "B3", "--weight", "1,1,0"], "type": "B3", "weight": [1, 1, 0]},
    {"argv": ["hodge", "--type", "G2", "--weight", "2,1", "--json"], "type": "G2", "weight": [2, 1]},
    {"argv": ["jordan", "--type", "E6", "--weight", "1,0,0,0,0,0"], "type": "E6",
     "weight": [1, 0, 0, 0, 0, 0]},
    {"argv": ["jordan", "--type", "D4", "--weight", "1,0,1,0", "--json"], "type": "D4",
     "weight": [1, 0, 1, 0]},
    {"argv": ["exponents", "--type", "D6"], "type": "D6"},
    {"argv": ["exponents", "--type", "E7", "--json"], "type": "E7"},
    {"argv": ["kkp", "--type", "D5", "--node", "5"], "type": "D5", "node": 5},
    {"argv": ["verify", "--type", "G2", "--rep", "adjoint"], "type": "G2", "rep": "adjoint"},
    {"argv": ["verify", "--type", "B2", "--rep", "std", "--json"], "type": "B2", "rep": "std"},
]


@pytest.mark.parametrize("query", CLI_QUERIES, ids=lambda q: " ".join(q["argv"]))
def test_cli_checker_accepts_real_output_and_rejects_a_changed_digit(query, tmp_path, capsys):
    code = cli_main(query["argv"] + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert checks.check_cli(query, code, out) is None
    assert checks.check_cli(query, 1, out)
    digits = [i for i, ch in enumerate(out) if ch in "123456789"]
    if query["argv"][0] == "verify":
        assert checks.check_cli(query, code, out.replace("PASS", "FAIL").replace("true", "false"))
        return
    i = digits[len(digits) // 2]
    changed = out[:i] + str(int(out[i]) % 9 + 1) + out[i + 1:]
    assert checks.check_cli(query, code, changed)


def test_sweep_checker(tmp_path, capsys):
    query = {"argv": list(workloads.SWEEP_ARGV)}
    code = cli_main(query["argv"] + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert checks.check_cli(query, code, out) is None
    lines = out.splitlines()
    assert checks.check_cli(query, code, "\n".join(lines[:3] + lines[4:]))


def test_inputs_are_seeded_and_shaped():
    assert workloads.tables_ops(3) == workloads.tables_ops(3)
    assert workloads.tables_ops(3) != workloads.tables_ops(4)
    assert sorted(map(str, workloads.certify_ops(1))) == sorted(map(str, workloads.certify_ops(2)))

    ops = workloads.tables_ops(5)
    sampled = [(op["type"], tuple(op["weight"])) for op in ops if op["kind"] == "hodge"]
    assert len(sampled) == len(set(sampled))
    bands = {(t, next(b for b, (lo, hi) in enumerate(workloads.BANDS)
                      if lo <= lie.weyl_dimension(t, lam) < hi))
             for t, lam in sampled if (t, lam) not in workloads.TABLE_ANCHORS}
    assert bands == {(t, b) for t in workloads.TABLE_TYPES for b in range(3)}
    assert sum(op["kind"] == "kkp" for op in ops) == len(workloads.KKP_LARGE)

    ops = workloads.cli_ops(5)
    repeats = [op for op in ops if "repeat_of" in op]
    assert len(ops) == 24 and len(repeats) == 8
    assert any(op["argv"][0] == "sweep" for op in repeats)
    for op in repeats:
        assert ops[op["repeat_of"]]["argv"] == op["argv"] and op["repeat_of"] < op["id"]


def test_self_time_excludes_direct_children():
    spans_list = [
        ["grading.hodge_numbers", 0.0, 10.0, -1, 0, False, 0],
        ["character.irrep_character", 1.0, 8.0, 0, 0, False, 5],
        ["rootdatum.weyl_orbit", 2.0, 3.0, 1, 0, False, 4],
        ["cache.load_character", 11.0, 12.0, -1, 1, True, 0],
    ]
    m = spans.layer_metrics(spans_list)
    assert m["grading.hodge_numbers_self_s"] == 3.0
    assert m["character.irrep_character_s"] == 7.0
    assert m["character.weights"] == 5 and m["rootdatum.orbit_weights"] == 4
    assert m["cache.misses"] == 1 and m["cache.errors"] == 1
    merged = run.merge_spans([spans_list[:2], spans_list[:2]])
    assert [s[spans.PARENT] for s in merged] == [-1, 0, -1, 2]


def test_printed_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    span = ["cli.main", 0.0, 1.0, -1, 0, False, 0]
    passes = [run.Pass([0, 1, 2], 1.6, 40.0, [0.1, 0.2, 0.3], [1.0] * 3, [], 0.1, [span], [0.1])]
    e2e = run.end_to_end_metrics([(0.1, 1.0), (0.2, 1.0)], passes)
    layers = run.per_layer_metrics(passes, passes)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run.layer_unit(name) for name in layers}
    # BENCHMARK.json gates a subset of the workloads the command runs.
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    assert declared["paths"] == ["bench"]


def test_ops_are_reported_at_their_median_over_partial_rounds(tmp_path):
    runner = run.Runner("certify", workloads.certify_ops(1), tmp_path, 0.0)
    assert runner.units == [[i] for i in range(len(workloads.CERTIFY_CASES))]
    assert run.Runner("tables", [{}, {}], tmp_path, 0.0).units == [[0, 1]]

    def unit_run(op, lat, speed=1.0):
        return run.Pass([op], lat, 1.0, [lat], [speed], [])

    passes = [unit_run(0, 4.0), unit_run(1, 1.0), unit_run(0, 2.0), unit_run(0, 9.0)]
    assert run.op_latencies(passes) == [4.0, 1.0]
    e2e = run.end_to_end_metrics([(0.1, 1.0)], passes)
    assert e2e["run_s"] == 5.0 and e2e["op_tail_ms"] == 4000.0

    # A sample taken while the host ran at half speed counts at half its wall time.
    slow = [unit_run(0, 8.0, 0.5), unit_run(1, 1.0)]
    assert run.op_latencies(slow) == [4.0, 1.0]
    assert run.op_latencies(slow, scaled=False) == [8.0, 1.0]
    e2e = run.end_to_end_metrics([(0.3, 0.5)], slow)
    assert e2e["setup_s"] == 0.15 and e2e["run_s"] == 5.0


def test_measure_skips_units_that_would_overrun(tmp_path, monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run, "monotonic", lambda: clock[0])
    runner = run.Runner("certify", [{}, {}], tmp_path, 100.0)
    cost = {0: 4.0, 1: 1.0}

    def fake_run(unit, traced):
        clock[0] += cost[unit[0]]
        return run.Pass(unit, cost[unit[0]], 1.0, [cost[unit[0]]], [1.0], [])

    monkeypatch.setattr(runner, "run_unit", fake_run)
    assert [p.ops[0] for p in runner.measure(False, 12.0)] == [0, 1, 0, 1, 1, 1]
    clock[0] = 0.0
    assert [p.ops[0] for p in runner.measure(False, 1.0)] == [0, 1]


def test_per_layer_metrics_sum_units_and_average_their_runs():
    def unit_run(op, dur, hit):
        span = ["cache.load_character", 0.0, dur, -1, op, False, hit]
        return run.Pass([op], dur, 1.0, [dur], [1.0], [], 0.5, [span])

    traced = [unit_run(0, 1.0, 1), unit_run(0, 3.0, 1), unit_run(1, 1.0, 0)]
    m = run.per_layer_metrics(traced, traced)
    assert m["cache.load_s"] == 3.0 and m["cli.import_s"] == 1.0
    assert m["cache.hits"] == 1 and m["cache.misses"] == 1 and m["cache.hit_ratio"] == 0.5


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
