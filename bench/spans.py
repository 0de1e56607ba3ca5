"""Spans around the public functions of each fghodge layer, from outside the package.

install() replaces every module-level binding of a listed function inside
the fghodge package (for example chevalley.rank, kkp.hodge_numbers,
character.weyl_orbit, cli.cached_character) by a wrapper that records one
span per call: name, start, end, parent span, op id, whether it raised and
one counter.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

WRAPPED = {
    "rootdatum": ("build_root_datum", "weyl_orbit"),
    "character": ("irrep_character", "weyl_dimension"),
    "grading": ("hodge_numbers", "rho_grading"),
    "chevalley": ("structure_constants", "verify_jacobi", "adjoint_rep",
                  "classical_std_rep", "principal_triple", "jordan_type"),
    "linalg": ("rank",),
    "connection": ("rmodule_pair", "integrability_residual"),
    "kkp": ("weight_graph_betti", "kkp_check"),
    "cache": ("cached_character", "load_character", "store_character"),
    "cli": ("main",),
}

# Counter recorded with a span, from the call's arguments and result.
COUNTERS = {
    "rootdatum.weyl_orbit": lambda args, out: len(out),
    "character.irrep_character": lambda args, out: len(out.mult),
    "grading.rho_grading": lambda args, out: len(out.dims),
    "linalg.rank": lambda args, out: args[0].nnz,
    "cache.load_character": lambda args, out: int(out is not None),
    "cache.store_character": lambda args, out: out.stat().st_size,
}

# Span fields, stored as lists to keep the per-call cost small.
NAME, START, END, PARENT, OP, RAISED, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the listed functions of every layer module that is already imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fghodge" or name.startswith("fghodge."))]
        for layer, names in WRAPPED.items():
            if f"fghodge.{layer}" not in sys.modules:
                continue
            mod = importlib.import_module(f"fghodge.{layer}")
            for fname in names:
                original = getattr(mod, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over a list of spans; "self" excludes direct child spans."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    errors = defaultdict(int)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        total[name] += dur
        own[name] += dur - child_time[i]
        calls[name] += 1
        count[name] += s[COUNT]
        errors[name.split(".")[0]] += int(s[RAISED])
    loads = calls["cache.load_character"]
    hits = count["cache.load_character"]
    out = {
        "rootdatum.build_s": total["rootdatum.build_root_datum"],
        "rootdatum.weyl_orbit_s": total["rootdatum.weyl_orbit"],
        "rootdatum.orbit_weights": count["rootdatum.weyl_orbit"],
        "character.irrep_character_s": total["character.irrep_character"],
        "character.weights": count["character.irrep_character"],
        "character.weyl_dimension_s": total["character.weyl_dimension"],
        "grading.hodge_numbers_self_s": own["grading.hodge_numbers"],
        "grading.rho_grading_s": total["grading.rho_grading"],
        "grading.levels": count["grading.rho_grading"],
        "chevalley.structure_constants_self_s": own["chevalley.structure_constants"],
        "chevalley.verify_jacobi_s": total["chevalley.verify_jacobi"],
        "chevalley.verify_jacobi_calls": calls["chevalley.verify_jacobi"],
        "chevalley.rep_self_s": own["chevalley.adjoint_rep"] + own["chevalley.classical_std_rep"],
        "chevalley.principal_triple_s": total["chevalley.principal_triple"],
        "chevalley.jordan_type_self_s": own["chevalley.jordan_type"],
        "linalg.rank_s": total["linalg.rank"],
        "linalg.rank_calls": calls["linalg.rank"],
        "linalg.rank_input_nnz": count["linalg.rank"],
        "connection.rmodule_pair_s": total["connection.rmodule_pair"],
        "connection.residual_s": total["connection.integrability_residual"],
        "kkp.weight_graph_betti_self_s": own["kkp.weight_graph_betti"],
        "kkp.kkp_check_self_s": own["kkp.kkp_check"],
        "cache.load_s": total["cache.load_character"],
        "cache.store_s": total["cache.store_character"],
        "cache.hits": hits,
        "cache.misses": loads - hits,
        "cache.hit_ratio": hits / loads if loads else 0.0,
        "cache.bytes_written": count["cache.store_character"],
        "cli.main_self_s": own["cli.main"],
    }
    for layer in WRAPPED:
        out[f"{layer}.errors"] = errors[layer]
    return out
