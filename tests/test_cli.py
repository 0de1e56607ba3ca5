from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fghodge import cli, connection, grading, kkp, rootdatum
from fghodge.character import irrep_character
from fghodge.cli import DEFAULT_MAX_DIM, MAX_SWEEP_DIMS, main

from conftest import ALL_TYPES, datum

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hodge_table_text(capsys):
    code, out, _ = run(capsys, "hodge", "--type", "A1", "--weight", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("type A1")
    assert [l.split() for l in lines[2:]] == [["-1/2", "1"], ["1/2", "1"]]


def test_hodge_json_schema(capsys):
    code, out, _ = run(capsys, "hodge", "--type", "E6", "--weight", "1,0,0,0,0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "E6"
    assert payload["weight"] == [1, 0, 0, 0, 0, 0]
    assert payload["dim"] == 27
    levels = payload["levels"]
    assert levels == sorted(levels, key=lambda e: e["two_alpha"])
    assert sum(e["h"] for e in levels) == 27
    assert {e["two_alpha"]: e["h"] for e in levels}[0] == 3


def test_hodge_e7_matches_piecewise_table(capsys):
    code, out, _ = run(capsys, "hodge", "--type", "E7", "--weight", "0,0,0,0,0,0,1", "--json")
    assert code == 0
    levels = {e["two_alpha"]: e["h"] for e in json.loads(out)["levels"]}
    for k, h in levels.items():
        a2 = abs(k)
        assert h == (3 if a2 <= 9 else 2 if a2 <= 17 else 1)


def test_exit_codes(capsys):
    code, _, err = run(capsys, "hodge", "--type", "Z9", "--weight", "1")
    assert code == 2 and "family" in err
    code, _, err = run(capsys, "hodge", "--type", "A2", "--weight", "1")
    assert code == 2  # wrong length
    code, _, err = run(capsys, "hodge", "--type", "A2", "--weight", "1,x")
    assert code == 2
    code, _, err = run(capsys, "hodge", "--type", "A2", "--weight", "-1,0")
    assert code == 2  # argparse reads -1,0 as an option
    # weyl_dimension, called by the --max-dim guard, is the one dominance check
    assert run(capsys, "jordan", "--type", "B3", "--weight", "0,-1,0") == (
        2, "", "error: weight (0, -1, 0) is not dominant\n")
    assert run(capsys, "hodge", "--type", "A2", "--weight=-1,0", "--json") == (
        2, "", "error: weight (-1, 0) is not dominant\n")
    code, _, err = run(capsys, "hodge", "--type", "E8", "--weight", "1,1,1,1,1,1,1,1",
                       "--max-dim", "100")
    assert code == 3 and "max-dim" in err


@pytest.mark.parametrize("keep_count,message", [
    (False, "reflection closure found 6 positive roots, expected 7"),
    (True, "Coxeter number mismatch"),
], ids=["_COXETER", "_COXETER_and_positive_count"])
def test_a_failed_root_datum_self_check_exits_1(capsys, monkeypatch, keep_count, message):
    # the closed-form cross-checks of build_root_datum are self-checks, not
    # parse errors: a wrong closed form is an internal error.  A wrong h
    # trips the count check n h / 2 first; with the count kept at the true
    # 6, the Coxeter check is the one left to trip
    monkeypatch.setattr(rootdatum, "_COXETER", {**rootdatum._COXETER, "G": lambda n: 7})
    if keep_count:
        monkeypatch.setattr(rootdatum, "_positive_count", lambda stype: 6)
    rootdatum.build_root_datum.cache_clear()
    try:
        code, out, err = run(capsys, "exponents", "--type", "G2")
    finally:
        rootdatum.build_root_datum.cache_clear()
    assert (code, out, err) == (1, "", f"internal error: G2: {message}\n")


@pytest.mark.parametrize("text", ["A\u00b2", "A" + "5" * 5000], ids=["superscript", "5000-digits"])
def test_a_type_that_int_refuses_exits_2(capsys, text):
    # str.isdigit() accepts "\u00b2" (superscript two) and any run of ASCII
    # digits; int() refuses "\u00b2" and more than 4,300 digits
    assert run(capsys, "exponents", "--type", text) == (
        2, "", f"error: cannot parse simple type {text!r}; expected e.g. 'A3' or 'E8'\n")


@pytest.mark.parametrize("argv,text", [
    (["hodge", "--type", "A2", "--weight", "1_0,0"], "weight '1_0,0'"),
    (["jordan", "--type", "A2", "--weight", "\u0661,0"], "weight '\u0661,0'"),  # Arabic-Indic 1
    (["kkp", "--type", "E7", "--node", "\u0667"], "--node: invalid int value: '\u0667'"),
    (["kkp", "--type", "E7", "--node", "7_0"], "--node: invalid int value: '7_0'"),
    (["exponents", "--type", "E\u0668"], "simple type 'E\u0668'"),
    (["exponents", "--type", "E\uff18"], "simple type 'E\uff18'"),  # fullwidth 8
    (["exponents", "--type", "E_8"], "simple type 'E_8'"),
    (["exponents", "--type", "E8", "--max-dim", "1_000"], "--max-dim: invalid int value: '1_000'"),
    (["sweep", "--max-rank", "\uff13"], "--max-rank: invalid int value: '\uff13'"),
    (["sweep", "--max-dim", "2_00"], "--max-dim: invalid int value: '2_00'"),
])
def test_an_integer_with_an_underscore_or_a_non_ascii_digit_exits_2(capsys, argv, text):
    # int() reads "1_0" as 10 and "\u0667" or "\uff18" as 7 or 8: every integer
    # on argv takes the one rule of parse_int instead
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and text in err


@pytest.mark.parametrize("text,value", [
    ("7", 7), ("+7", 7), (" 7 ", 7), ("-7", -7), ("007", 7),
    ("1_0", None), ("\u0667", None), ("\uff13", None), ("\u00b2", None), ("", None), ("x", None),
    ("1.0", None), ("1" * 4301, None),
])
def test_parse_int_is_int_on_ascii_text_without_underscores(text, value):
    if value is None:
        with pytest.raises(ValueError):
            rootdatum.parse_int(text)
    else:
        assert rootdatum.parse_int(text) == int(text) == value


def test_the_bench_cli_queries_parse_as_int_reads_them(monkeypatch):
    # the benchmark's queries are ASCII: every integer in them reads as before
    monkeypatch.syspath_prepend(str(Path(SRC).parent / "bench"))
    import workloads

    parser = cli.build_parser()
    for seed in (1, 2, 3):
        for op in workloads.cli_ops(seed):
            argv = op["argv"]
            args = parser.parse_args(argv)
            for flag in ("--max-dim", "--max-rank", "--node"):
                if flag in argv:
                    assert getattr(args, flag[2:].replace("-", "_")) == int(argv[argv.index(flag) + 1])
            if "--type" in argv:
                d = cli._parse_type(args.type)
                assert str(d.stype) == args.type
                if "--weight" in argv:
                    assert cli._parse_weight(d, args.weight) == tuple(map(int, args.weight.split(",")))


def test_exponents_output(capsys):
    code, out, _ = run(capsys, "exponents", "--type", "E8")
    assert code == 0
    assert out.strip() == "1 7 11 13 17 19 23 29"
    code, out, _ = run(capsys, "exponents", "--type", "A4", "--json")
    assert json.loads(out) == {"type": "A4", "exponents": [1, 2, 3, 4]}


def test_jordan_output(capsys):
    code, out, _ = run(capsys, "jordan", "--type", "E7", "--weight", "0,0,0,0,0,0,1")
    assert code == 0 and out.strip() == "28 18 10"
    code, out, _ = run(capsys, "jordan", "--type", "E6", "--weight", "1,0,0,0,0,0", "--json")
    payload = json.loads(out)
    assert payload["blocks"] == [17, 9, 1] and payload["distinct"] is True
    # D4 omega_2 is the adjoint: D_n with n even repeats the exponent n - 1
    code, out, _ = run(capsys, "jordan", "--type", "D4", "--weight", "0,1,0,0", "--json")
    assert out == '{"type":"D4","weight":[0,1,0,0],"blocks":[11,7,7,3],"distinct":false}\n'


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--type", "G2", "--rep", "adjoint")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--type", "B2", "--rep", "std")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--type", "C2", "--rep", "std", "--json")
    payload = json.loads(out)
    assert payload == {"type": "C2", "rep": "std", "pass": True, "residual_entry": None}


def test_verify_fail_output(capsys, monkeypatch):
    # Without RHO/z in B the A1 std residual is -N/(t z^2) + E/z^2.
    real = connection.rmodule_pair

    def drop_rho(triple, h):
        a, b = real(triple, h)
        return a, b - connection.LaurentMatrix.from_scalar_matrix(triple.RHO, dz=-1)

    monkeypatch.setattr(connection, "rmodule_pair", drop_rho)
    code, out, err = run(capsys, "verify", "--type", "A1", "--rep", "std")
    assert (code, out, err) == (1, "FAIL A1 std: residual[0][1] = 1*z^-2\n", "")
    code, out, err = run(capsys, "verify", "--type", "A1", "--rep", "std", "--json")
    assert code == 1 and err == ""
    assert out == ('{"type":"A1","rep":"std","pass":false,'
                   '"residual_entry":{"row":0,"col":1,"poly":"1*z^-2"}}\n')


def test_verify_rejects_std_for_exceptional(capsys):
    code, _, err = run(capsys, "verify", "--type", "G2", "--rep", "std")
    assert code == 2 and "standard" in err


def test_kkp_cli(capsys):
    code, out, _ = run(capsys, "kkp", "--type", "E6", "--node", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["dim_X"] == 16
    assert payload["betti"] == [1, 1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1]
    code, _, err = run(capsys, "kkp", "--type", "E8", "--node", "1")
    assert code == 2 and "minuscule" in err


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "--max-rank", "2", "--max-dim", "30")
    assert code == 0
    assert "sweep:" in out.splitlines()[-1]
    assert "FAIL" not in out


def test_two_runs_are_byte_identical(capsys, tmp_path):
    # --cache-dir is accepted for compatibility and ignored
    args = ["hodge", "--type", "D4", "--weight", "0,0,0,1", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0
    assert out1 == out2
    assert not any(tmp_path.iterdir())


def test_poisoned_cache_file_is_never_read(capsys, tmp_path, monkeypatch):
    # A well-formed character file with the zero-weight multiplicity of the
    # A2 adjoint changed from 2 to 3, in both places a disk cache could look.
    mult = dict(irrep_character(datum("A2"), (1, 1)).mult)
    mult[(0, 0)] = 3
    entry = {"version": 1, "key": "A:2:1,1", "highest": [1, 1],
             "mult": [[list(w), m] for w, m in sorted(mult.items())]}
    for sub in ("flag", "env"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "A_2_1,1.json").write_text(json.dumps(entry))
    monkeypatch.setenv("FGHODGE_CACHE_DIR", str(tmp_path / "env"))
    for extra in ([], ["--cache-dir", str(tmp_path / "flag")]):
        code, out, _ = run(capsys, "hodge", "--type", "A2", "--weight", "1,1", *extra)
        assert code == 0 and out.splitlines()[0].endswith("dim 8")
        code, out, _ = run(capsys, "jordan", "--type", "A2", "--weight", "1,1", *extra)
        assert code == 0 and out.strip() == "5 3"


def test_cli_writes_nothing_under_home(tmp_path):
    home, xdg = tmp_path / "home", tmp_path / "xdg"
    home.mkdir()
    xdg.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "FGHODGE_CACHE_DIR"}
    env.update(HOME=str(home), XDG_CACHE_HOME=str(xdg), PYTHONPATH=SRC)
    for argv in (["hodge", "--type", "A2", "--weight", "1,1"], ["sweep", "--max-rank", "2"]):
        out = subprocess.run([sys.executable, "-m", "fghodge", *argv],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
    assert list(home.iterdir()) == [] and list(xdg.iterdir()) == []


@pytest.mark.parametrize("argv,dim", [
    (["exponents", "--type", "E8"], 248),
    (["verify", "--type", "B3", "--rep", "adjoint"], 21),
    (["verify", "--type", "B3", "--rep", "std"], 7),
    (["kkp", "--type", "A5", "--node", "3"], 20),
])
def test_max_dim_guards_every_subcommand(capsys, argv, dim):
    code, out, err = run(capsys, *argv, "--max-dim", str(dim - 1))
    assert code == 3 and out == "" and "max-dim" in err
    code, out, _ = run(capsys, *argv, "--max-dim", str(dim))
    assert code == 0 and out


def test_rank_guard_refuses_huge_types_before_building(capsys, monkeypatch):
    real = rootdatum._cartan_matrix

    def small_only(stype):
        if stype.rank > 64:
            raise AssertionError(f"built {stype}")
        return real(stype)

    monkeypatch.setattr(rootdatum, "_cartan_matrix", small_only)
    for argv in (["exponents", "--type", "A100000"], ["sweep", "--max-rank", "100000"]):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "positive roots" in err
        assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("rep", ["adjoint"])
def test_verify_refuses_a_rank_above_the_structure_constant_guard(capsys, rep):
    # the guard of the structure constants (chevalley.MAX_RANK = 8) bounds
    # the whole table alone: the adjoint writes its generators, at any rank
    code, out, err = run(capsys, "verify", "--type", "A9", "--rep", rep)
    assert (code, out, err) == (0, "PASS A9 adjoint: flatness residual is the zero matrix\n", "")


@pytest.mark.parametrize("name", ["A9", "B16", "D16", "A31", "B22", "C22", "D22"])
def test_verify_std_has_no_rank_guard(capsys, name):
    # the standard representation builds no structure constants; B22 is the
    # largest B type under the positive-root guard
    code, out, err = run(capsys, "verify", "--type", name, "--rep", "std")
    assert (code, out, err) == (0, f"PASS {name} std: flatness residual is the zero matrix\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ALL_TYPES)
def test_verify_adjoint_output_is_fixed(capsys, name, fmt):
    argv = ["verify", "--type", name, "--rep", "adjoint"] + (["--json"] if fmt == "json" else [])
    expect = (f"PASS {name} adjoint: flatness residual is the zero matrix\n" if fmt == "text" else
              f'{{"type":"{name}","rep":"adjoint","pass":true,"residual_entry":null}}\n')
    assert run(capsys, *argv) == (0, expect, "")


def test_sweep_counts_a_failed_check(capsys, extra_trivial_on_b):
    code, out, err = run(capsys, "sweep", "--max-rank", "3", "--max-dim", "10")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == ["FAIL so_pair(2)"]
    assert lines[-1] == "sweep: 58/59 checks passed"
    assert (code, err) == (1, "")


def test_sweep_reports_a_failed_sum_rule_and_goes_on(capsys, monkeypatch):
    real = grading._weyl_quotient

    # hodge_numbers' sum rule then fails on A2 (1,1) only: up to rank 2 it is
    # the one weight whose factors <lam+rho, alpha^vee> are 2, 2, 4
    def off_on_a2_adjoint(num, den):
        return real(num, den) + (sorted(num) == [2, 2, 4])

    monkeypatch.setattr(grading, "_weyl_quotient", off_on_a2_adjoint)
    code, out, err = run(capsys, "sweep", "--max-rank", "2", "--max-dim", "30")
    lines = out.splitlines()
    fail = "FAIL A2 weight 1,1: principal specialization of (1, 1) sums to 8, not dim 9"
    assert [line for line in lines if line.startswith("FAIL")] == [fail]
    assert lines.index(fail) < len(lines) - 2  # the sweep went on past it
    assert lines[-1] == f"sweep: {len(lines) - 2}/{len(lines) - 1} checks passed"
    assert (code, err) == (1, "")


def test_sweep_reports_a_table_that_is_not_sl2_consistent_and_goes_on(capsys, monkeypatch):
    real = grading.hodge_numbers

    def skewed_on_a1_2(d, lam):  # symmetric and positive, but h^0 < h^1
        if str(d.stype) == "A1" and tuple(lam) == (2,):
            return grading.HodgeTable({-2: 2, 0: 1, 2: 2})
        return real(d, lam)

    monkeypatch.setattr(grading, "hodge_numbers", skewed_on_a1_2)
    code, out, err = run(capsys, "sweep", "--max-rank", "2", "--max-dim", "30")
    lines = out.splitlines()
    fail = "FAIL A1 weight 2: grading is not sl2-consistent; cannot extract a Jordan partition"
    assert [line for line in lines if line.startswith("FAIL")] == [fail]
    assert lines.index(fail) < len(lines) - 2  # the sweep went on past it
    assert lines[-1] == f"sweep: {len(lines) - 2}/{len(lines) - 1} checks passed"
    assert (code, err) == (1, "")


def test_sweep_root_guard_names_b_r_before_building_a_datum(capsys, monkeypatch):
    def no_datum(stype):
        raise AssertionError(f"built {stype}")

    monkeypatch.setattr(cli, "build_root_datum", no_datum)
    assert run(capsys, "sweep", "--max-rank", "23") == (
        3, "", "error: B23 has 529 positive roots, above the guard of 500\n")
    monkeypatch.undo()
    # B22 (484) passes the root guard; A22's middle orbit is refused by the kkp guard
    assert run(capsys, "sweep", "--max-rank", "22") == (
        3, "", "error: the kkp check of A22 node 10 walks 1144066 weights, "
               f"over the kkp limit of {DEFAULT_MAX_DIM}; lower --max-rank\n")


def test_sweep_guards_every_kkp_orbit_before_building_one(capsys, monkeypatch):
    def no_orbit(datum, lam):  # on a minuscule lam the weights are one Weyl orbit
        raise AssertionError(f"built the Weyl orbit of {datum.stype} {lam}")

    monkeypatch.setattr(kkp, "_weight_support", no_orbit)
    # B20 spin has 2^20 > 10^6 weights: refused before anything is printed
    code, out, err = run(capsys, "sweep", "--max-rank", "20")
    assert code == 3 and out == "" and "B20 node 20" in err and str(DEFAULT_MAX_DIM) in err
    # B19 spin has 2^19 weights: the guard passes and the sweep reaches its first orbit
    with pytest.raises(AssertionError, match="Weyl orbit of A1"):
        main(["sweep", "--max-rank", "19", "--max-dim", "1"])


def test_sweep_guards_the_dimensions_it_grades_before_printing(capsys, monkeypatch):
    def no_grading(datum, lam):
        raise AssertionError(f"graded {datum.stype} {lam}")

    monkeypatch.setattr(grading, "hodge_numbers", no_grading)
    # A1 alone has weights 0..99999 under --max-dim 10^5, about 5 * 10^9 vectors
    t0 = time.monotonic()
    code, out, err = run(capsys, "sweep", "--max-rank", "2", "--max-dim", "100000")
    assert (code, out) == (3, "")
    assert err == (f"error: the sweep would grade more than {MAX_SWEEP_DIMS} vectors "
                   "(sum of dim V) by A1; lower --max-dim or --max-rank\n")
    assert time.monotonic() - t0 < 1.0
    monkeypatch.undo()
    # the default sweep grades exactly 48,463 vectors: the guard counts every one
    monkeypatch.setattr(cli, "MAX_SWEEP_DIMS", 48463)
    assert run(capsys, "sweep")[0] == 0
    monkeypatch.setattr(cli, "MAX_SWEEP_DIMS", 48462)
    code, out, err = run(capsys, "sweep")
    assert (code, out) == (3, "") and "more than 48462 vectors (sum of dim V) by G2" in err


@pytest.mark.parametrize("rank", ["0", "-1", "-5"])
def test_sweep_refuses_a_rank_with_no_type(capsys, rank):
    # no type has rank < 1, and "0/0 checks passed" would read as a pass
    assert run(capsys, "sweep", "--max-rank", rank) == (
        2, "", f"error: --max-rank must be at least 1, got {rank}\n")


@pytest.mark.parametrize("dim", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--max-rank", "2"],
    ["hodge", "--type", "A2", "--weight", "1,0"],
    ["jordan", "--type", "A2", "--weight", "1,0"],
    ["exponents", "--type", "E8"],
    ["verify", "--type", "B3", "--rep", "adjoint"],
    ["verify", "--type", "B3", "--rep", "std", "--json"],
    ["kkp", "--type", "A5", "--node", "3"],
])
def test_a_max_dim_below_1_is_a_usage_error(capsys, argv, dim):
    # no V has dimension below 1: the sweep would grade no weight and read
    # as a pass, and the other commands would report a guard that cannot pass
    assert run(capsys, *argv, "--max-dim", dim) == (
        2, "", f"error: --max-dim must be at least 1, got {dim}\n")


def test_max_dim_1_still_runs(capsys):
    code, out, err = run(capsys, "sweep", "--max-rank", "2", "--max-dim", "1")
    assert (code, err) == (0, "") and out.splitlines()[-1] == "sweep: 10/10 checks passed"
    assert run(capsys, "hodge", "--type", "A2", "--weight", "0,0", "--max-dim", "1")[0] == 0


MALFORMED = ["", "1,,2", "1e3", "-1", "0,-2", "A0", "E9", "X3", "A" + "1" * 30, "x"]
RANK4_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D3", "D4", "F4", "G2"]


@st.composite
def argvs(draw):
    def token(valid):  # one slot in five gets a malformed token
        return draw(st.sampled_from(MALFORMED)) if draw(st.integers(0, 4)) == 4 else draw(valid)

    command = draw(st.sampled_from(["hodge", "jordan", "exponents", "verify", "kkp", "sweep"]))
    if command == "sweep":
        argv = [command, "--max-rank", token(st.sampled_from(["1", "2", "3"]))]
    else:
        argv = [command, "--type", token(st.sampled_from(RANK4_TYPES))]
    if command in ("hodge", "jordan"):
        rank = int(argv[2][1:]) if argv[2] in RANK4_TYPES else 2
        coords = st.lists(st.integers(0, 2).map(str), min_size=rank, max_size=rank)
        argv += ["--weight", token(coords.map(",".join))]
    if command == "verify":
        argv += ["--rep", draw(st.sampled_from(["adjoint", "std", "spin"]))]
    if command == "kkp":
        argv += ["--node", token(st.sampled_from(["1", "2", "4", "0", "9"]))]
    argv += ["--max-dim", token(st.sampled_from(["1", "7", "30", "60", "300"]))]
    if command != "sweep" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    # argparse writes its own usage errors to stderr; nothing may escape main
    assert main(argv) in (0, 1, 2, 3)


def test_cli_as_subprocess():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-m", "fghodge.cli", "exponents", "--type", "F4"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0 and out.stdout.strip() == "1 5 7 11"
    bad = subprocess.run(
        [sys.executable, "-m", "fghodge.cli", "hodge", "--type", "A2"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2  # argparse: missing --weight


def test_verify_runs_without_numpy_or_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = ["verify", "--type", "G2", "--rep", "adjoint", "--cache-dir", str(tmp_path)]
    out = subprocess.run([sys.executable, "-m", "fghodge", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.startswith("PASS")
    probe = ("import sys; from fghodge.cli import main; code = main(sys.argv[1:]); "
             "print(sorted({'numpy', 'scipy'} & set(sys.modules))); sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", probe, *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "[]"



def test_a_closed_stdout_exits_141_without_a_traceback():
    # 94 kB of output: more than the 64 kB a pipe buffers, so the writer cannot
    # finish before the reader closes; it must hit EPIPE and report 128 + SIGPIPE.
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen([sys.executable, "-m", "fghodge", "sweep", "--max-rank", "4",
                             "--max-dim", "2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"ok ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
