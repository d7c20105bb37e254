"""Layer timings that reproduce the rows of the ROADMAP baseline table.

Each row is the minimum over a few repeats of one fixed measurement.  Cold
rows import the library afresh first, so its caches start empty.  The seed
picks the extra rf_eval points in the unit disk; every other row is fixed,
so every seed reports the same row names.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, Calibration, child_import, clock, load_library
from workloads import cli_env, draw_point

REPEATS = 3
SEEDED_POINTS = 16
CLI_ROWS = (("li", "2"), ("li", "64"), ("chi", "64"), ("ti", "64"),
            ("verify", "all", "--n-max", "10"), ("verify", "all", "--n-max", "15"))


def _best(fn, repeats: int = REPEATS) -> dict:
    samples = []
    for _ in range(repeats):
        samples.append(fn())
    return {"seconds": min(samples), "reps": repeats, "samples": samples}


def _timed(fn, *args) -> float:
    t = clock()
    fn(*args)
    return clock() - t


def _cold(accessor: str, n: int) -> float:
    lib = load_library()
    return _timed(getattr(lib, accessor), n)


def _cli(args) -> float:
    t = clock()
    r = subprocess.run([sys.executable, "-m", "negpolylog", *args], cwd=ROOT, env=cli_env(),
                       capture_output=True, text=True, timeout=120)
    elapsed = clock() - t
    if r.returncode != 0:
        raise RuntimeError(f"negpolylog {' '.join(args)} exited {r.returncode}: {r.stderr.strip()}")
    return elapsed


def _git_revision() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def measure(seed: int) -> dict:
    rng = random.Random(seed)
    cal = Calibration()  # the machine's speed at the time, for comparing files across machines
    for _ in range(20):
        cal.sample()
    lib = load_library()
    rows = {}
    for route in ("li_neg_operator", "li_neg_stirling"):
        for n in (10, 25, 40):
            rows[f"construction.{route}.n{n}"] = _best(lambda: _timed(getattr(lib, route), n))
    rows["construction.cold_li_neg.n64"] = _best(lambda: _cold("li_neg", 64))
    rows["construction.cold_chi_neg.n64"] = _best(lambda: _cold("chi_neg", 64))
    lib = load_library()
    points = [draw_point(rng, "disk") for _ in range(SEEDED_POINTS)]
    for n in (10, 64):
        f = lib.li_neg(n)
        rows[f"evaluation.rf_eval.li.n{n}.point_0.3+0.2i"] = _best(lambda: _timed(lib.rf_eval, f, 0.3 + 0.2j))

        def seeded_median():
            per_point = []
            for z in points:
                try:
                    per_point.append(_timed(lib.rf_eval, f, z))
                except lib.PoleError:  # the seed code raises at some finite points; time the rest
                    pass
            return statistics.median(per_point)

        rows[f"evaluation.rf_eval.li.n{n}.seeded_disk_median"] = _best(seeded_median)
    rows["evaluation.nth_derivative.csc.n10.x0.7"] = _best(lambda: _timed(lib.nth_derivative, "csc", 0.7, 10))
    for n in (15, 30):
        rows[f"exact_suite.verify_ladder_exact.n{n}"] = _best(lambda: _timed(lib.verify_ladder_exact, n))
    for args in CLI_ROWS:
        rows["cli_process." + "_".join(a.lstrip("-") for a in args)] = _best(lambda: _cli(args))
    rows["import.negpolylog"] = _best(lambda: _timed(child_import), 5)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": seed,
        "calibration_kernel_s": statistics.median(cal.samples),
        "rows": rows,
    }


def main(seed: int, out: Path | None) -> int:
    report = measure(seed)
    for name, row in report["rows"].items():
        print(f"  {name:52s} {row['seconds'] * 1e3:12.3f} ms  (min of {row['reps']})")
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"  wrote {out}")
    return 0
