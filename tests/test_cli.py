from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fghodge import rootdatum
from fghodge.character import irrep_character
from fghodge.cli import main

from conftest import datum

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
    assert code == 2
    code, _, err = run(capsys, "hodge", "--type", "E8", "--weight", "1,1,1,1,1,1,1,1",
                       "--max-dim", "100")
    assert code == 3 and "max-dim" in err


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


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--type", "G2", "--rep", "adjoint")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--type", "B2", "--rep", "std")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--type", "C2", "--rep", "std", "--json")
    payload = json.loads(out)
    assert payload == {"type": "C2", "rep": "std", "pass": True, "residual_entry": None}


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

