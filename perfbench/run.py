"""Seeded benchmark of negpolylog: exact construction, numeric evaluation and the CLI.

Usage (from the root of the repository):

  python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --layers --seed N [--out FILE]

Workloads (see workloads.py for how each pass is drawn from the seed):

  exact-build   exact constructions and identities at orders 0..40: gcd and
                canonicalization in ``algebra`` do nearly all of the work.
  numeric-eval  rf_eval of built closed forms, the csc/sec/csch/sech routes,
                the jet oracle and the inverse suite: Fraction Horner and jets.
  cli-session   one cold ``python -m negpolylog`` process per op (PYTHONPATH=src):
                import, argparse, cold builds and rendering.

Load is a closed loop with one client on one thread; cli-session runs one
child process at a time.  The timed loop repeats the seeded pass until
``--seconds`` have gone by, always finishing the pass it is in.

``--trace 0`` prints the end-to-end metrics: setup_s (median of three
set-ups, each a fresh import plus cache warm-up; for cli-session a bare
child import), ops_per_s (ops of one pass over the sum of their latencies),
op_p50_ms, op_tail_ms (the highest percentile with at least ten ops beyond
it; its level and sample count are printed with it), peak_rss_mb (this
process, or the largest child for cli-session).  Each op's latency is its
median over the passes.  Times are wall times normalized to a calibration
kernel timed between ops (see Calibration); the raw wall times are in the
report.  The process and its children are pinned to one CPU.

``--trace 1`` runs the untraced loop as above for the reference rate and
digest, then sets up afresh and runs one pass with wrappers on every binding
of the library's public functions (spans.py), and prints the per-layer
metrics, failed_frac and trace.overhead_frac.

Every op's output is checked against an oracle after the loop, and a
sha256 digest of the outputs of the first pass is reported; it is the same
for every run with one seed, traced or not.  The result's ``attempted`` and
``failed`` count the distinct seeded ops of a pass and those of them that
failed, so they depend on the seed alone; the later passes repeat the same
ops for timing and must give the same outputs (``timed_ops`` in the report
counts every execution).  The last line of stdout is the JSON result; the
full report goes to perfbench/out/.

``--layers`` times the rows of the ROADMAP baseline table (min of repeats)
and writes them with the interpreter, platform, CPU count, git revision and
seed.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import functools
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads
from workloads import Failure, cli_command_class

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10
IMPORT_REPEATS = 5

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a broken checkout)."""


def require_sources():
    if not (ROOT / "src" / "negpolylog" / "__init__.py").is_file():
        raise BenchError("no negpolylog sources under src/ next to the benchmark")


def load_library():
    """Import negpolylog from src/ afresh: new module objects with empty caches."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [k for k in sys.modules if k == "negpolylog" or k.startswith("negpolylog.")]:
        del sys.modules[name]
    lib = importlib.import_module("negpolylog")
    importlib.import_module("negpolylog.cli")  # loaded so that its bindings are traced too
    return lib


def child_import():
    r = subprocess.run([sys.executable, "-c", "import negpolylog"], cwd=ROOT, env=workloads.cli_env(),
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        raise BenchError(f"importing negpolylog in a child failed: {r.stderr.strip()}")


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def make_call(workload, lib):
    if workload.name == "cli-session":
        def call(op, spans_path=None):
            try:
                return workload.run(ROOT, op, spans_path)
            except subprocess.TimeoutExpired as exc:
                return Failure("TimeoutExpired", str(exc))
        return call

    def call(op):
        try:
            return workload.run(lib, op)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            return Failure(type(exc).__name__, str(exc))
    return call


class Calibration:
    """CPU speed over time, from a fixed pure-Python kernel timed between ops.

    A machine that shares its cores with other tenants drifts in speed by tens
    of percent over seconds.  Every time the benchmark reports
    is wall time scaled by KERNEL_NOMINAL_S / (kernel time around it), i.e.
    expressed at the speed where the kernel takes KERNEL_NOMINAL_S.  "Around
    it" is the median kernel time within WINDOW_S of the span.  Raw wall
    times are kept in the report.
    """

    KERNEL_NOMINAL_S = 1e-3
    INTERVAL_S = 0.05
    WINDOW_S = 0.2
    _MOD = (1 << 607) - 1

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    @classmethod
    def _kernel(cls) -> float:
        """Big-integer, small-object and Fraction work in one fixed mix of about 1 ms.

        Each part tracks the drift of one kind of work the library does; a
        kernel that only touches memory tracked it far worse.
        """
        t = clock()
        a = 12345678901234567890
        for i in range(200):
            a = (a * a + i) % cls._MOD
        rows = sorted((i * 31 % 97, str(i)) for i in range(600))
        dict(rows)
        x = Fraction(1, 3)
        for i in range(60):
            x = (x * Fraction(7, 5) + Fraction(1, i + 2)) / Fraction(3, 2)
        return clock() - t

    def sample(self):
        self.samples.append(min(self._kernel() for _ in range(3)))
        self.times.append(clock())

    def maybe_sample(self):
        if not self.times or clock() - self.times[-1] >= self.INTERVAL_S:
            self.sample()

    def normalize(self, start: float, end: float) -> float:
        """The span [start, end] in seconds at the nominal kernel speed."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < 2:  # fall back to the samples nearest in time
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            near = self.samples[max(mid - 1, 0):mid + 1]
        return (end - start) * self.KERNEL_NOMINAL_S / statistics.median(near)


def timed_steps(steps, cal: Calibration) -> tuple[float, float]:
    """Run each step, sampling the kernel between steps; (raw, normalized) seconds in all."""
    spans = []
    for step in steps:
        cal.maybe_sample()
        t0 = clock()
        step()
        spans.append((t0, clock()))
    cal.sample()
    return sum(t1 - t0 for t0, t1 in spans), sum(cal.normalize(t0, t1) for t0, t1 in spans)


def run_passes(schedule, call, seconds: float, cal: Calibration, before_op=None):
    """Repeat the pass until ``seconds`` have elapsed, finishing the pass in progress.

    ``before_op(i)`` runs before op i, outside its timing.  Returns the outputs
    of each pass, the raw and the normalized seconds of every op, and the
    wall time of the loop.
    """
    passes, spans = [], []
    start = clock()
    while True:
        outs = []
        for i, op in enumerate(schedule):
            cal.maybe_sample()
            if before_op is not None:
                before_op(i)
            t0 = clock()
            outs.append(call(op))
            spans.append((t0, clock()))
        passes.append(outs)
        if clock() - start >= seconds:
            elapsed = clock() - start
            cal.sample()
            raw = [t1 - t0 for t0, t1 in spans]
            return passes, raw, [cal.normalize(t0, t1) for t0, t1 in spans], elapsed


def judge(workload, lib, schedule, passes):
    """Oracle verdicts on the first pass, its digest, and a determinism check on the rest.

    ``lib`` is the library the outputs came from (None for cli-session).
    """
    first = passes[0]
    canon = [workload.canonical(lib, op, out) for op, out in zip(schedule, first)]
    h = hashlib.sha256()
    for i, (op, c) in enumerate(zip(schedule, canon)):
        h.update(f"{i}\t{op.kind}\t{c}\n".encode())
    verdicts = [workload.check(lib, op, out) for op, out in zip(schedule, first)]
    deterministic = all(
        [workload.canonical(lib, op, out) for op, out in zip(schedule, later)] == canon
        for later in passes[1:]
    )
    failures = collections.Counter()
    for op, out, v in zip(schedule, first, verdicts):
        if v == workloads.FAILED:
            failures[_failure_label(op, out)] += 1
        elif v == workloads.WRONG:
            failures[f"wrong {op.kind}"] += 1
    n_bad = sum(v != workloads.OK for v in verdicts)
    return {
        "digest": h.hexdigest(),
        "wrong": sum(v == workloads.WRONG for v in verdicts),
        "deterministic": deterministic,
        "failed_per_pass": n_bad,
        "failures_per_pass": dict(sorted(failures.items())),
    }


def _failure_label(op, out) -> str:
    if isinstance(out, Failure):
        return f"{op.kind}: {out.error}"
    if isinstance(out, tuple) and out and isinstance(out[0], int) and out[0] != 0:
        return f"{op.kind}: exit {out[0]}"
    return f"{op.kind}: check reported failure"


def per_op_medians(latencies: list[float], ops_per_pass: int) -> list[float]:
    """Each op's median latency over the passes (latencies are in pass order)."""
    return [statistics.median(latencies[i::ops_per_pass]) for i in range(ops_per_pass)]


def latency_stats(latencies: list[float], ops_per_pass: int) -> dict:
    """Rate, median and tail over the ops of one pass, each op at its median over passes."""
    s = sorted(per_op_medians(latencies, ops_per_pass))
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "ops_per_s": n / sum(s),
        "p50_ms": statistics.median(s) * 1e3,
        "tail_ms": s[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "samples": n,
        "passes": len(latencies) // ops_per_pass,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def warm(workload, lib) -> list:
    """The set-up steps after the import: build the closed forms the ops use."""
    return [functools.partial(accessor, n) for n in workload.WARM_ORDERS
            for accessor in (lib.li_neg, lib.chi_neg, lib.ti_neg)]


def setup_once(workload, cal: Calibration):
    """One set-up, timed: a fresh import plus cache warm-up, or for cli-session a bare child import.

    Returns (library or None, raw seconds, normalized seconds).
    """
    if workload.name == "cli-session":
        return (None, *timed_steps([child_import], cal))
    loaded = []
    raw, norm = timed_steps([lambda: loaded.append(load_library())], cal)
    raw_warm, norm_warm = timed_steps(warm(workload, loaded[0]), cal)
    return loaded[0], raw + raw_warm, norm + norm_warm


def timed_run(workload, schedule, seconds: float) -> tuple[dict, dict]:
    cal = Calibration()
    setups = [setup_once(workload, cal) for _ in range(SETUP_REPEATS)]
    lib = setups[-1][0]
    call = make_call(workload, lib)
    passes, raw, lat, elapsed = run_passes(schedule, call, seconds, cal)
    rss = peak_rss_mb(children=workload.name == "cli-session")
    verdict = judge(workload, lib, schedule, passes)
    ls = latency_stats(lat, len(schedule))
    metrics = {
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "ops_per_s": (ls["ops_per_s"], "1/s"),
        "op_p50_ms": (ls["p50_ms"], "ms"),
        "op_tail_ms": (ls["tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"passes": len(passes), "loop_s": elapsed, "latency": ls,
              "raw_wall": {"setup_s": [r for _, r, _ in setups], "latency": latency_stats(raw, len(schedule))},
              "calibration_kernel_s": statistics.median(cal.samples),
              "per_op_ms": [[op.kind, repr(op.args), t * 1e3]
                            for op, t in zip(schedule, per_op_medians(lat, len(schedule)))],
              "attempted": len(schedule), "failed": verdict["failed_per_pass"], "timed_ops": len(lat),
              **verdict}
    return metrics, detail


def traced_pass(workload, schedule, cal: Calibration, label: str):
    """Set up afresh and run one pass with spans recorded.

    Returns (SpanStats, outputs, normalized op latencies, the library the
    pass ran on).  The spans go to perfbench/out/spans-<label>*.
    """
    if workload.name == "cli-session":
        return (*_traced_cli_pass(schedule, make_call(workload, None), label, cal), None)
    lib = load_library()
    tracer = spans.Tracer()
    tracer.install()
    try:
        timed_steps(warm(workload, lib), cal)
        passes, _, lat, _ = run_passes(schedule, make_call(workload, lib), 0.0, cal, tracer.set_op)
    finally:
        tracer.restore()
    tracer.dump(OUT / f"spans-{label}.bin")
    return tracer.stats(), passes[0], lat, lib


def traced_run(workload, schedule, seconds: float, seed: int) -> tuple[dict, dict]:
    cal = Calibration()
    lib = setup_once(workload, cal)[0]
    passes, _, lat, elapsed = run_passes(schedule, make_call(workload, lib), seconds, cal)
    untraced = latency_stats(lat, len(schedule))
    reference = judge(workload, lib, schedule, passes)
    stats, traced_outs, traced_lat, traced_lib = traced_pass(workload, schedule, cal, f"{workload.name}-seed{seed}")
    traced = judge(workload, traced_lib, schedule, [traced_outs])

    metrics = stats.layer_metrics()
    # process wall times come from the untraced passes, free of wrapper overhead
    by_class = collections.defaultdict(lambda: [0, 0.0])
    if workload.name == "cli-session":
        for op, t in zip(schedule, per_op_medians(lat, len(schedule))):
            by_class[cli_command_class(op.args)][0] += 1
            by_class[cli_command_class(op.args)][1] += t
    for cls in ("closed_form", "eval", "verify", "ladder"):
        metrics[f"cli.process.{cls}.count"] = (by_class[cls][0], "count")
        metrics[f"cli.process.{cls}.wall_s"] = (by_class[cls][1], "s")
    metrics["cli.exit_nonzero"] = (
        sum(1 for out in passes[0] if isinstance(out, tuple) and out[0] != 0)
        if workload.name == "cli-session" else 0, "count")
    metrics["cli.import_s"] = (statistics.median(
        timed_steps([child_import], cal)[1] for _ in range(IMPORT_REPEATS)), "s")
    attempted = len(schedule)
    failed = reference["failed_per_pass"]
    metrics["failed_frac"] = (failed / attempted, "ratio")
    traced_rate = latency_stats(traced_lat, len(schedule))["ops_per_s"]
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced["ops_per_s"], "ratio")
    detail = {"attempted": attempted, "failed": failed, "timed_ops": len(lat), "passes": len(passes),
              "loop_s": elapsed,
              "untraced_ops_per_s": untraced["ops_per_s"], "traced_ops_per_s": traced_rate,
              "digest": reference["digest"], "traced_digest": traced["digest"],
              "wrong": reference["wrong"] + traced["wrong"],
              "deterministic": reference["deterministic"] and traced["digest"] == reference["digest"],
              "failures_per_pass": reference["failures_per_pass"], "latency": untraced}
    return metrics, detail


def _traced_cli_pass(schedule, call, label: str, cal: Calibration):
    span_dir = OUT / f"spans-{label}"
    span_dir.mkdir(parents=True, exist_ok=True)
    paths = [span_dir / f"op{i:03d}.bin" for i in range(len(schedule))]
    for path in paths:
        path.unlink(missing_ok=True)
    current = [0]

    def set_op(i):
        current[0] = i

    passes, _, lat, _ = run_passes(schedule, lambda op: call(op, paths[current[0]]), 0.0, cal, set_op)
    stats = spans.SpanStats()
    for path in paths:
        if path.is_file():
            stats.merge(spans.SpanStats.from_file(path))
    return stats, passes[0], lat


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layers", action="store_true", help="time the ROADMAP baseline rows instead")
    p.add_argument("--out", type=Path, default=None, help="where --layers writes its JSON")
    args = p.parse_args(argv)

    # one CPU for this process and its children, so the calibration kernel
    # runs where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        require_sources()
        if args.layers:
            import layers

            return layers.main(args.seed, args.out)
        if args.workload not in workloads.WORKLOADS:
            p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        schedule = workload.generate(random.Random(args.seed))
        if args.trace:
            metrics, detail = traced_run(workload, schedule, args.seconds, args.seed)
        else:
            metrics, detail = timed_run(workload, schedule, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = detail["wrong"] == 0 and detail["deterministic"]
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "ops_per_pass": len(schedule), "correct": correct,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **detail}
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  ops/pass {len(schedule)}  passes {detail['passes']}  "
          f"attempted {detail['attempted']}  failed {detail['failed']}  timed ops {detail['timed_ops']}  "
          f"correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    if not args.trace:
        ls = detail["latency"]
        print(f"  op_tail_ms is p{ls['tail_percentile']:.2f} of {ls['samples']} ops, each at its median "
              f"over {ls['passes']} passes ({ls['tail_beyond']} ops beyond it)")
    for label, count in detail["failures_per_pass"].items():
        print(f"  failed per pass: {count:4d}  {label}")
    print(f"  output digest sha256:{detail['digest']}")
    if args.trace:
        print(f"  traced digest sha256:{detail['traced_digest']}")
    print(f"  report {report_path.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
