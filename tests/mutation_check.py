"""Planted mutants that the tests must kill; run by name, pytest does not collect it.

Usage, from the root of the repository:

  python tests/mutation_check.py

Each mutant is (file under src/negpolylog, exact old text, new text, test selection).  For
each one the runner copies src/ to a temporary directory, replaces the old text once, and runs
the selection against the copy with ``-x -q -p no:cacheprovider``.  The mutant is killed when
pytest reports a failing test (exit code 1); a clean pass, a usage or collection error, and
old text that is not in the file all fail the runner, so the list keeps pace with the code.
A selection that runs past ``TIMEOUT_S`` counts as killed, and is reported as such.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300

MUTANTS = [
    ("ladder.py",
     'return z * ti_neg(n) == -substitute(substitute(_weighted_sum(n), "negate_z"), "square_z")',
     'return z * ti_neg(n) == -substitute(_weighted_sum(n), "square_z")',
     ["tests/test_ladder.py::test_chi_ti_ladders_exact"]),
    ("ladder.py",
     "        den = f.den\n",
     "",
     ["tests/test_ladder.py"]),
    ("circular.py",
     '    "tan": Polynomial([1, 0, 1]),',
     '    "tan": Polynomial([1, 1, 1]),',
     ["tests/test_circular.py::test_polynomial_routes_agree_exactly"]),
    ("circular.py",
     '    "coth": Polynomial([1, 0, -1]),',
     '    "coth": Polynomial([1, 0, 1]),',
     ["tests/test_hyperbolic.py::test_polynomials_match_recurrence"]),
    ("numutil.py",
     "            try:\n                val = body(n, x)\n            except OverflowError:\n"
     "                val = math.nan\n",
     "            val = body(n, x)\n",
     ["tests/test_algebra.py::test_non_finite_inputs_are_library_errors"]),
    ("algebra.py",
     "    (ar, ai), (br, bi) = a, b\n    d = len(br) - 1\n",
     "    return True\n",
     ["tests/test_algebra.py::test_gcd_falls_back_to_prs_when_certificate_declines"]),
    ("algebra.py",
     '    if any(rr) or any(ri):\n        raise ArithmeticError("polynomial division was not exact")\n',
     "",
     ["tests/test_algebra.py::test_exact_division_by_unit_and_non_unit_leads"]),
    ("algebra.py",
     "    return [s[0], *[c + (lo < 0) for c, lo in zip(s[1:], s)]]",
     "    return s",
     ["tests/test_algebra.py::test_unpack_reads_every_slot_at_the_signed_extremes"]),
    ("algebra.py",
     "        return self.num == other.num and self.den == other.den",
     "        return self.num == other.num",
     ["tests/test_algebra.py::test_substitute_examples"]),
    # the inversion z -> 1/z: each part reversed to its own degree, and chi given Ti's sign
    ("algebra.py",
     "        pad = (0,) * (d - self.degree)\n",
     "        pad = ()\n",
     ["tests/test_suites.py::test_exact_suites_pass"]),
    ("suites.py",
     'substitute(chi_neg(n), "invert_z") == chi_neg(n) * (-1) ** (n + 1)',
     'substitute(chi_neg(n), "invert_z") == chi_neg(n) * (-1) ** n',
     ["tests/test_suites.py::test_exact_suites_pass"]),
]


def run_mutant(path: str, old: str, new: str, selection: list[str]) -> tuple[bool, str]:
    """(killed, how) for one mutant, applied to a fresh copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "negpolylog" / path
        text = target.read_text()
        if old not in text:
            return False, "old text not found"
        target.write_text(text.replace(old, new, 1))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *[str(ROOT / s) for s in selection]]
        try:
            code = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        return code == 1, {0: "survived", 1: "killed"}.get(code, f"pytest exit code {code}")


def main() -> int:
    start, failures = time.perf_counter(), 0
    for path, old, new, selection in MUTANTS:
        t0 = time.perf_counter()
        killed, how = run_mutant(path, old, new, selection)
        failures += not killed
        first = old.strip().splitlines()[0]
        print(f"{'ok  ' if killed else 'FAIL'} {path}: {first[:60]!r} -> {how} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
