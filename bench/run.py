"""Benchmark of fghodge on three workloads, with per-layer timing on request.

Run from the repository root:

    python3 bench/run.py --workload {certify,tables,cli} --seed N --seconds S --trace {0,1}

BENCHMARK.json lists certify and cli, the workloads a change is gated on;
tables runs the same way on request.

One process drives all load: a closed loop with one caller, one child
process at a time and no threads.  Each unit of ops runs in a fresh
interpreter with a fresh temporary cache directory, so the program's memos
start empty as they do for a user: one certify case (the cases share no
memo entry), the whole tables pass, or the whole cli pass of one cold
`python -m fghodge` process per query.  Rounds over the units repeat, each
skipping a unit that would overrun --seconds, until none fits; the first
round always completes.  All of it runs on one CPU.

Each op's latency is scaled by the host's speed, timed on a fixed reference
loop just before and after the child that ran it (see REF_LOOP_S), and
reported at its median over the runs that made it; run_s is the sum of
those medians.  The report also prints the unscaled wall-time figures.
Every answer is checked against the oracles in lie.py after its unit,
outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with every layer wrapped (spans.py) and prints the
per-layer metrics, per round, plus the tracing overhead.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
All scratch files live in a temporary directory under .bench_tmp/ in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORKLOADS = ("certify", "tables", "cli")
SETUP_PROBES = 11
# A shared host's speed drifts as its other tenants come and go: on a 2-vCPU
# VM a fixed pure-Python loop took 4.1 to 6.5 ms in 2-second windows of one
# minute, and whole benchmark runs minutes apart differed by a third.  So
# every time the benchmark reports is a wall time scaled by host_speed()
# measured next to it: seconds at the speed where the reference loop takes
# REF_LOOP_S.
REF_LOOP_S = 0.0004
REF_REPEATS = 20
DEADLINE_S = 165.0  # the whole invocation must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


class Deadline(Exception):
    """The invocation ran out of time while a child was running."""


def _on_alarm(signum, frame):
    raise Deadline


def _reference_loop() -> int:
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


def host_speed() -> float:
    """How fast the CPU runs now: REF_LOOP_S over the median time of the reference loop.

    The loop touches no memory to speak of and shares nothing with fghodge,
    so nothing a change to the program does can move it; only the host can.
    """
    times = []
    for _ in range(REF_REPEATS):
        t = perf_counter()
        _reference_loop()
        times.append(perf_counter() - t)
    return REF_LOOP_S / statistics.median(times)


def spawn(argv, cwd: Path, env: dict, out: Path,
          deadline: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB, host speed).

    stdout goes to `out`, stderr next to it.  The wait is a blocking wait4,
    so the wall time has no polling slack; SIGALRM kills the child at the
    deadline.  The host speed is the mean of host_speed() just before and
    just after the child, on the CPU it ran on.
    """
    before = host_speed()
    with open(out, "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - monotonic(), 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except Deadline:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, (before + host_speed()) / 2


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than 11 samples it is the maximum.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def merge_spans(lists: list[list[list]]) -> list[list]:
    """Concatenate span lists of several processes, keeping parent links."""
    merged: list[list] = []
    for part in lists:
        offset = len(merged)
        for s in part:
            s = list(s)
            if s[spans.PARENT] >= 0:
                s[spans.PARENT] += offset
            merged.append(s)
    return merged


@dataclass
class Pass:
    """Measurements and failures of one run of a unit: some of the ops, in one fresh process.

    `latencies[k]` (wall seconds) and `speeds[k]` (host speed around it)
    belong to op `ops[k]`, an index into the workload's ops.
    """

    ops: list[int]
    wall_s: float
    rss_mb: float
    latencies: list[float]
    speeds: list[float]
    failures: list[str]
    import_s: float = 0.0
    spans: list = field(default_factory=list)
    repeat_latencies: list[float] = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, ops: list[dict], tmp: Path, deadline: float):
        self.workload = workload
        self.ops = ops
        self.tmp = tmp
        self.deadline = deadline
        self.reference: dict[int, bytes] = {}  # untraced cli stdout by op id
        self._count = 0
        # A unit is what one fresh interpreter runs.  A certify case shares no
        # memo entry with another, so each runs alone and the rounds can fill
        # the budget; tables ops share root data, cli repeats hit the cache
        # the pass wrote, so there the unit is the whole pass.
        if workload == "certify":
            self.units = [[i] for i in range(len(ops))]
        else:
            self.units = [list(range(len(ops)))]

    def env(self, d: Path) -> dict:
        env = dict(os.environ)
        # A fixed string-hash seed: the layout of the str-keyed adjoint-basis
        # dicts moves the E7 adjoint build by up to 10% between processes.
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   FGHODGE_CACHE_DIR=str(d / "cache"), XDG_CACHE_HOME=str(d / "xdg"))
        return env

    def fresh_dir(self) -> Path:
        self._count += 1
        d = self.tmp / f"pass{self._count}"
        d.mkdir()
        return d

    def setup_times(self) -> list[tuple[float, float]]:
        """(wall time, host speed) of fresh interpreters that import fghodge.

        A first one, not counted, checks where fghodge comes from.
        """
        d = self.fresh_dir()
        probe = [sys.executable, "-c", "import fghodge; print(fghodge.__file__)"]
        code, _, _, _ = spawn(probe, d, self.env(d), d / "where.out", self.deadline)
        where = (d / "where.out").read_text().strip()
        if code != 0 or Path(where).resolve() != (SRC / "fghodge" / "__init__.py").resolve():
            raise SystemExit(f"error: fghodge imports from {where or 'nowhere'}, not {SRC}")
        out = []
        for k in range(SETUP_PROBES):
            code, wall, _, speed = spawn([sys.executable, "-c", "import fghodge"], d,
                                         self.env(d), d / f"setup{k}.out", self.deadline)
            if code != 0:
                raise SystemExit("error: import fghodge failed")
            out.append((wall, speed))
        return out

    def run_unit(self, unit: list[int], traced: bool) -> Pass:
        if self.workload == "cli":
            return self._cli_pass(traced)
        return self._library_run(unit, traced)

    def _library_run(self, unit: list[int], traced: bool) -> Pass:
        d = self.fresh_dir()
        ops = [self.ops[i] for i in unit]
        spec, result = d / "spec.json", d / "result.json"
        spec.write_text(json.dumps({"ops": ops, "trace": traced}))
        argv = [sys.executable, str(BENCH / "worker.py"), str(spec), str(result)]
        code, wall, rss, speed = spawn(argv, d, self.env(d), d / "worker.out", self.deadline)
        if code != 0 or not result.exists():
            err = (d / "worker.err").read_text().strip().splitlines()[-1:] or [f"exit {code}"]
            return Pass(unit, wall, rss, [wall / len(unit)] * len(unit), [speed] * len(unit),
                        [f"worker failed: {err[0]}"] * len(unit))
        data = json.loads(result.read_text())
        failures = []
        for op, got in zip(ops, data["ops"]):
            why = got["error"] or checks.check_library(op, got["answer"])
            if why:
                failures.append(f"{op['kind']} {op['type']}: {why}")
        return Pass(unit, wall, rss, [o["latency_s"] for o in data["ops"]], [speed] * len(unit),
                    failures, data["import_s"], data["spans"])

    def _cli_pass(self, traced: bool) -> Pass:
        d = self.fresh_dir()
        env = self.env(d)
        cache = str(d / "cache")
        runs = []
        start = perf_counter()
        for op in self.ops:
            out = d / f"q{op['id']}.out"
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(d / f"q{op['id']}.spans")]
            else:
                argv = [sys.executable, "-m", "fghodge"]
            runs.append(spawn(argv + op["argv"] + ["--cache-dir", cache], d, env, out,
                              self.deadline))
        wall = perf_counter() - start

        failures, stdout, span_lists, import_s = [], {}, [], 0.0
        for op, (code, _, _, _) in zip(self.ops, runs):
            raw = (d / f"q{op['id']}.out").read_bytes()
            stdout[op["id"]] = raw
            why = checks.check_cli(op, code, raw.decode(errors="replace"))
            if not why and "repeat_of" in op and raw != stdout[op["repeat_of"]]:
                why = "repeat query output differs from its first run"
            if not why and traced and raw != self.reference.get(op["id"]):
                why = "traced output differs from the untraced run"
            if why:
                failures.append(f"{' '.join(op['argv'])}: {why}")
            spans_file = d / f"q{op['id']}.spans"
            if traced and spans_file.exists():
                data = json.loads(spans_file.read_text())
                import_s += data["import_s"]
                span_lists.append(data["spans"])
        if not traced and not self.reference:
            self.reference = stdout
        repeats = [wall for op, (_, wall, _, _) in zip(self.ops, runs) if "repeat_of" in op]
        return Pass(self.units[0], wall, max(r[2] for r in runs), [r[1] for r in runs],
                    [r[3] for r in runs], failures, import_s, merge_spans(span_lists), repeats)

    def measure(self, traced: bool, budget: float) -> list[Pass]:
        """Rounds over the units, skipping a unit that would overrun the budget.

        The first round always completes, so every op has a sample; the
        measurement ends when no unit fits in the time left.
        """
        passes: list[Pass] = []
        walls: dict[int, list[float]] = {u: [] for u in range(len(self.units))}
        start = monotonic()
        skipped = 0
        for k in itertools.count():
            u = k % len(self.units)
            if walls[u]:
                estimate = statistics.median(walls[u])
                now = monotonic()
                if now - start + estimate > budget or now + estimate > self.deadline:
                    skipped += 1
                    if skipped == len(self.units):
                        return passes
                    continue
            skipped = 0
            passes.append(self.run_unit(self.units[u], traced))
            walls[u].append(passes[-1].wall_s)


def op_latencies(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes that ran it, in op order.

    Scaled to the reference speed, or in wall seconds with scaled=False.
    """
    samples: dict[int, list[float]] = defaultdict(list)
    for p in passes:
        for i, lat, speed in zip(p.ops, p.latencies, p.speeds):
            samples[i].append(lat * speed if scaled else lat)
    return [statistics.median(samples[i]) for i in sorted(samples)]


def end_to_end_metrics(setup: list[tuple[float, float]], passes: list[Pass],
                       scaled: bool = True) -> dict[str, float]:
    lat = op_latencies(passes, scaled)
    return {
        "setup_s": statistics.median(wall * speed if scaled else wall for wall, speed in setup),
        "run_s": sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail(lat)[0],
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def per_layer_metrics(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-round layer totals: each unit's mean over its traced runs, summed over units.

    Span times are wall seconds.  Plus the tracing overhead, as traced minus
    untraced run_s, both scaled by host speed.
    """
    by_unit: dict[tuple, list[Pass]] = defaultdict(list)
    for p in traced:
        by_unit[tuple(p.ops)].append(p)
    out: dict[str, float] = defaultdict(float)
    for runs in by_unit.values():
        per_run = [spans.layer_metrics(p.spans) for p in runs]
        for name in per_run[0]:
            out[name] += statistics.fmean(m[name] for m in per_run)
        out["cli.import_s"] += statistics.fmean(p.import_s for p in runs)
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    repeats = [statistics.median(p.repeat_latencies) for p in untraced if p.repeat_latencies]
    out["cli.repeat_p50_ms"] = 1000 * statistics.median(repeats) if repeats else 0.0
    out["trace.overhead_s"] = sum(op_latencies(traced)) - sum(op_latencies(untraced))
    return dict(out)


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "fghodge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "nproc": len(os.sched_getaffinity(0)),
            "numpy": version("numpy"), "scipy": version("scipy")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "fghodge" / "__init__.py").is_file():
        print(f"error: no fghodge package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # One CPU for this process and every child, so that host_speed() times the
    # CPU the measured child ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = workloads.workload_ops(args.workload, args.seed)
    if args.workload != "cli":
        ops = [dict(op, id=i) for i, op in enumerate(ops)]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    runner = Runner(args.workload, ops, tmp, deadline)
    timed_out = False
    try:
        if args.trace:
            setup = []
            untraced = runner.measure(False, args.seconds / 2)
            traced = runner.measure(True, args.seconds / 2)
            passes = untraced + traced
            metrics = per_layer_metrics(untraced, traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            setup = runner.setup_times()
            passes = runner.measure(False, args.seconds)
            metrics = end_to_end_metrics(setup, passes)
            units = END_TO_END_UNITS
    except Deadline:
        timed_out = True
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another invocation still uses it

    if timed_out:
        print(f"error: the run did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(len(ops), 1),
                          "failed": max(len(ops), 1), "metrics": {}}))
        return 0

    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures]
    value, pct, n = tail(op_latencies(passes))
    samples = [sum(i in p.ops for p in passes) for i in range(len(ops))]
    print(f"# fghodge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {len(passes)} runs of {len(runner.units)} unit(s), {len(ops)} ops, "
          f"{min(samples)}-{max(samples)} samples per op; each op at its median, "
          f"run_s is their sum, op_tail_ms is p{pct:.1f} of n={n} ops")
    print("# unit wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    if setup:
        print(f"# setup_s is the median of {len(setup)} fresh `import fghodge` interpreters")
        raw = end_to_end_metrics(setup, passes, scaled=False)
        print("# in wall seconds, unscaled: "
              + ", ".join(f"{name} = {raw[name]:.6g}" for name in ("setup_s", "run_s", "op_p50_ms", "op_tail_ms")))
    speeds = [v for p in passes for v in p.speeds]
    print(f"# host speed {statistics.median(speeds):.3f} (median), "
          f"{min(speeds):.3f}-{max(speeds):.3f}, over {len(speeds)} ops")
    for name, v in metrics.items():
        print(f"#   {name} = {v:.6g} {units[name]}")
    print(f"# failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
