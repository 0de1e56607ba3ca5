"""One unit of a library workload in a fresh interpreter: a certify case or a tables pass.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds {"ops": [...], "trace": bool}.  fghodge must be importable (the
runner sets PYTHONPATH).  Each op is timed on its own; its answer is turned
into plain data only after the whole pass, outside the timed region.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _run(fg, op):
    datum = fg.rootdatum.build_root_datum(fg.rootdatum.SimpleType.parse(op["type"]))
    if op["kind"] == "certify":
        ch = fg.chevalley
        rep = ch.adjoint_rep(datum) if op["rep"] == "adjoint" else ch.classical_std_rep(datum)
        triple = ch.principal_triple(rep)
        blocks = ch.jordan_type(triple.N)
        a, b = fg.connection.rmodule_pair(triple, datum.coxeter)
        return blocks, fg.connection.integrability_residual(a, b)
    if op["kind"] == "hodge":
        return fg.grading.hodge_numbers(datum, tuple(op["weight"]))
    if op["kind"] == "kkp":
        return fg.kkp.kkp_check(fg.kkp.minuscule_case(datum, op["node"]))
    raise ValueError(f"unknown op kind {op['kind']!r}")


def _answer(kind, out) -> dict:
    if kind == "certify":
        blocks, residual = out
        entry = residual.first_nonzero()
        return {"blocks": list(blocks.blocks), "residual_zero": residual.is_zero(),
                "residual_entry": None if entry is None else str(entry[2])}
    if kind == "hodge":
        return {"dim": out.dim, "levels": sorted(out.dims.items())}
    return {"passed": out.passed, "dim_x": out.case.dim_x, "betti": list(out.betti.b),
            "hodge_shifted": list(out.hodge_shifted)}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = perf_counter()
    import fghodge
    import_s = perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    outs = []
    start = perf_counter()
    for i, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = op.get("id", i)
        t = perf_counter()
        try:
            out, err = _run(fghodge, op), None
        except Exception as exc:  # a failed op is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        outs.append((perf_counter() - t, out, err))
    run_s = perf_counter() - start

    ops = [{"latency_s": lat, "error": err,
            "answer": None if err else _answer(op["kind"], out)}
           for op, (lat, out, err) in zip(spec["ops"], outs)]
    result = {"import_s": import_s, "run_s": run_s, "ops": ops,
              "spans": tracer.spans if tracer is not None else []}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
