from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fghodge"


def test_no_assert_statements_in_the_package():
    # Self-checks must raise IntegrityError so they still run under python -O.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_the_root_datum_imports_no_fractions():
    # every root-datum quantity is an int
    tree = ast.parse((SRC / "rootdatum.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "fractions" not in modules
    assert not any(isinstance(node, ast.Name) and node.id == "Fraction" for node in ast.walk(tree))


def test_only_the_matrix_types_write_their_own_equality():
    # every other record is a named tuple, equal and hashed as its fields
    found = {
        f"{path.name}:{node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name not in ("SparseMatrix", "LaurentMatrix")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
    }
    assert found == set()


def test_the_package_binds_only_its_submodules():
    # each name has one home, its submodule; bench/worker.py reads fghodge.<module>
    # after a bare `import fghodge`.  A fresh interpreter, since a test that
    # imports fghodge.cli binds it on the package too.
    probe = ("import sys, fghodge; "
             "print(sorted(n for n in vars(fghodge) if not n.startswith('__'))); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fghodge'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    layers = ["character", "chevalley", "connection", "errors", "grading", "kkp", "linalg",
              "rootdatum"]
    assert out == [str(layers), str(["fghodge"] + [f"fghodge.{m}" for m in layers])]


@pytest.mark.parametrize("tree", ["src", "tests", "bench"])
def test_every_file_parses_as_python_3_10(tree):
    # pyproject.toml requires Python >= 3.10.  Best effort: this checks the
    # grammar only (say a 3.11 `except*` or 3.12 type statement), not what
    # the 3.10 runtime offers (say tomllib or a newer stdlib signature).
    found = []
    for path in sorted((SRC.parents[1] / tree).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno} {exc.msg}")
    assert found == []


def test_the_cli_imports_no_dataclasses_or_introspection_modules():
    # dataclasses pulls in inspect, ast and dis, and json is needed only for
    # --json output; each cold CLI process would pay for them
    probe = ("import sys, fghodge.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'json'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_the_bench_span_wrapper_installs_against_the_package():
    # bench/spans.py wraps the functions its WRAPPED table names, by name;
    # installing it fails if the package drops one of them
    bench = SRC.parents[1] / "bench"
    probe = "import fghodge, fghodge.cli, spans; spans.Tracer().install()"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(bench)])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("trace", [False, True])
def test_the_bench_worker_certifies_every_case(tmp_path, trace):
    # bench/worker.py runs each certify case in a fresh interpreter, and with
    # trace it reads the spans that bench/spans.py wraps by name; a change to
    # either would otherwise show only as a failed bench run
    bench = SRC.parents[1] / "bench"
    cases = [("E6", "adjoint"), ("E7", "adjoint"), ("E8", "adjoint"),
             ("B8", "std"), ("C8", "std"), ("D8", "std")]
    ops = [{"kind": "certify", "type": t, "rep": rep, "id": i} for i, (t, rep) in enumerate(cases)]
    spec, result = tmp_path / "spec.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"ops": ops, "trace": trace}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(bench)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(bench / "worker.py"), str(spec), str(result)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(result.read_text())
    assert [op["error"] for op in out["ops"]] == [None] * len(cases)
    assert all(op["answer"]["residual_zero"] for op in out["ops"])
    names = {span[0] for span in out["spans"]}
    if trace:
        assert {"chevalley.adjoint_rep", "connection.integrability_residual"} <= names
        assert {span[4] for span in out["spans"] if span[0] == "chevalley.adjoint_rep"} == {0, 1, 2}
    else:
        assert names == set()
