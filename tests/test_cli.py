from __future__ import annotations

import json

from fghodge.cache import cache_key, cached_character, load_character, store_character
from fghodge.character import irrep_character
from fghodge.cli import main

from conftest import datum


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


def test_cache_roundtrip(tmp_path):
    d = datum("B3")
    lam = (0, 0, 1)
    char = irrep_character(d, lam)
    store_character(char, tmp_path)
    loaded = load_character(d, lam, tmp_path)
    assert loaded is not None and loaded.mult == char.mult
    assert cache_key(d, lam) == "B:3:0,0,1"
    # version mismatch invalidates
    path = tmp_path / "B_3_0,0,1.json"
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert load_character(d, lam, tmp_path) is None
    assert cached_character(d, lam, tmp_path).mult == char.mult  # recomputed + restored


def test_cache_cold_vs_warm_identical(capsys, tmp_path):
    args = ["hodge", "--type", "D4", "--weight", "0,0,0,1", "--json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert any(tmp_path.iterdir())  # the cache file exists and was reused


def test_corrupt_cache_entry_is_ignored(tmp_path):
    d = datum("A2")
    (tmp_path / "A_2_1,0.json").write_text("{not json")
    char = cached_character(d, (1, 0), tmp_path)
    assert char.dim == 3


def test_cli_as_subprocess(tmp_path):
    import os
    import subprocess
    import sys

    env = {**os.environ, "FGHODGE_CACHE_DIR": str(tmp_path)}
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
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
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


def test_cache_dir_env_var(tmp_path, monkeypatch):
    from fghodge.cache import default_cache_dir

    monkeypatch.setenv("FGHODGE_CACHE_DIR", str(tmp_path / "boxes"))
    assert default_cache_dir() == tmp_path / "boxes"
    monkeypatch.delenv("FGHODGE_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "fghodge"
