"""The three seeded workloads: their inputs, their ops and their oracle checks.

Each workload draws one *pass* of ops from the seed; the timed loop repeats
that pass.  The ops whose cost dominates a pass run on fixed grids of
orders, so every seed has the same shape of cost; the seed draws the
points, formats, identity variants and the rest of the inputs, and the
order in which the ops run.

Verdicts: ``OK``; ``FAILED`` when the op raised, exited non-zero or its own
check reported a failure; ``WRONG`` when it produced a value that misses the
benchmark's oracle.  Both of the latter count as failed ops; only ``WRONG``
makes the run incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"

RTOL_EVAL = 1e-12  # rf_eval rounds an exact value once
RTOL_ROUTE = 1e-9  # float routes, judged against the size of the terms they cancel


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    ref: object = field(default=None, compare=False)  # oracle reference, when one is precomputed


@dataclass(frozen=True)
class Failure:
    """An op that raised: the exception type and message stand in for its output."""

    error: str
    message: str

    def __str__(self):
        return f"!{self.error}: {self.message}"


def _latin(rng: random.Random, values: list, slots: int) -> list:
    """``slots`` draws that use every value as evenly as possible, in seeded order."""
    pool = []
    while len(pool) < slots:
        chunk = list(values)
        rng.shuffle(chunk)
        pool.extend(chunk)
    return pool[:slots]


# ---------------------------------------------------------------------------
# exact-build
# ---------------------------------------------------------------------------


class ExactBuild:
    """Exact constructions and identities at orders 0..40, closed forms warmed in setup."""

    name = "exact-build"
    MAX_ORDER = 40
    # The two construction routes and the ladder identities cost roughly n^4
    # and make up the slowest ops, so they run on fixed grids of orders and
    # every seed has the same slowest ops.  The cheap cross-routes, duplication
    # and derivative polynomials run at every order.
    ROUTE_ORDERS = tuple(range(0, MAX_ORDER + 1, 5))
    LADDER_ORDERS = tuple(range(0, MAX_ORDER + 1, 10))
    WARM_ORDERS = tuple(range(MAX_ORDER + 1))  # li/chi/Ti closed forms built in setup
    LADDERS = ("verify_ladder_exact", "chi_ladder", "ti_ladder")
    TARGETS = ("cot", "tan", "coth", "tanh")

    def generate(self, rng: random.Random) -> list[Op]:
        """The seed picks the derivative-polynomial target at each order, and the op order."""
        ops = [Op(route, (n,)) for n in self.ROUTE_ORDERS for route in ("li_neg_operator", "li_neg_stirling")]
        ops += [Op(ladder, (n,)) for n in self.LADDER_ORDERS for ladder in self.LADDERS]
        targets = _latin(rng, list(self.TARGETS), self.MAX_ORDER + 1)
        for n, target in zip(range(self.MAX_ORDER + 1), targets):
            ops += [Op("chi_from_li", (n,)), Op("ti_from_chi", (n,)), Op("duplication", (n,)),
                    Op("derivative_poly", (target, n))]
        rng.shuffle(ops)
        return ops

    def run(self, lib, op: Op):
        k, a = op.kind, op.args
        if k in ("li_neg_operator", "li_neg_stirling", "chi_from_li", "ti_from_chi") + self.LADDERS:
            return getattr(lib, k)(*a)
        if k == "duplication":
            (n,) = a
            f = lib.li_neg(n)
            return f + lib.substitute(f, "negate_z") == lib.substitute(f, "square_z") * (2 ** (1 + n))
        target, n = a
        p = getattr(lib, f"{target}_derivative_poly")(n)
        return p.coefficient_ints(), p.poly == lib.derivative_poly_recurrence(target, n).poly

    def canonical(self, lib, op: Op, out) -> str:
        if isinstance(out, lib.RationalFunction):
            return json.dumps(lib.rf_to_json(out), sort_keys=True)
        return repr(out)

    def check(self, lib, op: Op, out) -> str:
        if isinstance(out, Failure):
            return FAILED
        k = op.kind
        if k in ("li_neg_operator", "li_neg_stirling", "chi_from_li", "ti_from_chi"):
            kind = {"chi_from_li": "chi", "ti_from_chi": "ti"}.get(k, "li")
            return OK if _closed_form_matches(lib.rf_to_json(out), kind, op.args[0]) else WRONG
        if k == "derivative_poly":
            coeffs, same = out
            ok = same and list(coeffs) == oracle.derivative_poly_reference(*op.args)
            return OK if ok else WRONG
        return OK if out is True else WRONG


def _closed_form_matches(obj: dict, kind: str, n: int) -> bool:
    num = oracle.parse_int_coeffs(obj.get("num"))
    den = oracle.parse_int_coeffs(obj.get("den"))
    if num is None or den is None:
        return False
    ref_num, ref_den = oracle.closed_form_reference(kind, n)
    return oracle.same_fraction(num, den, ref_num, ref_den)


# ---------------------------------------------------------------------------
# numeric-eval
# ---------------------------------------------------------------------------

EVAL_ORDERS = (0, 1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64)
REGIONS = ("disk", "circle", "real")


def draw_point(rng: random.Random, region: str) -> complex:
    if region == "disk":  # uniform over |z| < 0.95
        r = 0.95 * math.sqrt(rng.random())
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))
    if region == "circle":
        return cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
    return complex(rng.uniform(-4.0, 4.0), 0.0)


def draw_eval_point(rng: random.Random, region: str, kind: str, n: int) -> tuple[complex, complex]:
    """A point of ``region`` and the oracle's value there.

    A point is redrawn only when the oracle finds the true value infinite or
    outside double range; what the library does there plays no part.
    """
    while True:
        z = draw_point(rng, region)
        want = oracle.closed_form_value(kind, n, z)
        if want is not None:
            return z, want


# x ranges clear of the poles of each function family
_X_RANGES = {
    "csc": [(0.25, math.pi - 0.25)],
    "sec": [(-math.pi / 2 + 0.25, math.pi / 2 - 0.25)],
    "csch": [(-3.0, -0.25), (0.25, 3.0)],
    "sech": [(-3.0, 3.0)],
}

ROUTES = {  # evaluator -> the function whose n-th derivative it returns
    "csc_derivative_eval": "csc",
    "csc_derivative_via_li": "csc",
    "csc_derivative_binomial": "csc",
    "leibniz_csc_route": "csc",
    "sec_derivative_eval": "sec",
    "sec_derivative_via_li": "sec",
    "sec_derivative_binomial": "sec",
    "csch_derivative_eval": "csch",
    "sech_derivative_eval": "sech",
}

ROUTE_MAX_N = 10
GENERIC_MAX_N = 8  # the CLI's cap for the generic-operand instances
_GENERIC_X = {"sin": (0.3, 2.8), "cos": (0.2, 1.9)}
INVERSE_NAMES = (
    "arctanh", "arccoth", "arcsinh", "arccsch", "arccosh_upper", "arccosh_lower",
    "arctan", "arccot", "arcsin", "arccos", "arccsc", "arcsec",
)


def _draw_x(rng: random.Random, fn: str, n: int) -> tuple[float, tuple[float, float]]:
    while True:
        lo, hi = rng.choice(_X_RANGES[fn])
        x = rng.uniform(lo, hi)
        ref = oracle.derivative_value(fn, n, x)
        if ref is not None:
            return x, ref


class NumericEval:
    """Float evaluation of built closed forms, the multi-route evaluators and the inverse suite."""

    name = "numeric-eval"
    # Five points per cell keep well over ten complex-point order-64 chi/Ti
    # evaluations, the slowest ops, in every pass even where several of those
    # points raise; with fewer, op_tail_ms could fall to the order-48 ops.
    POINTS_PER_CELL = 5
    WARM_ORDERS = tuple(sorted(set(EVAL_ORDERS) | set(range(ROUTE_MAX_N + 1))))  # built in setup

    def generate(self, rng: random.Random) -> list[Op]:
        ops = []
        for kind in ("li", "chi", "ti"):
            for n in EVAL_ORDERS:
                for region in REGIONS:
                    for _ in range(self.POINTS_PER_CELL):
                        z, want = draw_eval_point(rng, region, kind, n)
                        ops.append(Op("rf_eval", (kind, n, z), want))
        for route, fn in ROUTES.items():
            for n in range(ROUTE_MAX_N + 1):
                x, ref = _draw_x(rng, fn, n)
                ops.append(Op("route", (route, n, x), ref))
        for fn in ("csc", "sec", "csch", "sech"):
            for n in range(ROUTE_MAX_N + 1):
                x, ref = _draw_x(rng, fn, n)
                ops.append(Op("jet", (fn, n, x), ref))
        for name in INVERSE_NAMES:
            for n in range(ROUTE_MAX_N + 1):
                ops.append(Op("inverse", (name, n)))
        for f, (lo, hi) in _GENERIC_X.items():
            for n in range(GENERIC_MAX_N + 1):
                ops.append(Op("generic", (f, n, rng.uniform(lo, hi))))
        rng.shuffle(ops)
        return ops

    def run(self, lib, op: Op):
        k, a = op.kind, op.args
        if k == "rf_eval":
            kind, n, z = a
            return lib.rf_eval(getattr(lib, f"{kind}_neg")(n), z)
        if k == "route":
            route, n, x = a
            return getattr(lib, route)(n, x)
        if k == "jet":
            fn, n, x = a
            return lib.nth_derivative(fn, x, n)
        if k == "inverse":
            name, n = a
            ident = next(i for i in lib.registry() if i.name == name)
            return lib.verify_identity(ident, n)
        f, n, x = a
        return lib.verify_generic_operand(f, n, x)

    def canonical(self, lib, op: Op, out) -> str:
        if isinstance(out, lib.VerificationReport):
            return json.dumps(out.to_dict(), sort_keys=True)
        return repr(out)

    def check(self, lib, op: Op, out) -> str:
        if isinstance(out, Failure):
            return FAILED
        if op.kind == "rf_eval":
            return OK if oracle.close_complex(complex(out), op.ref, RTOL_EVAL) else WRONG
        if op.kind in ("route", "jet"):
            want, scale = op.ref
            ok = isinstance(out, float) and abs(out - want) <= RTOL_ROUTE * scale
            return OK if ok else WRONG
        return OK if out.passed else FAILED


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def complex_literal(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def cli_command_class(args: tuple) -> str:
    head = args[0]
    if head in ("eval", "verify", "ladder"):
        return head
    return "closed_form"


class CliSession:
    """One cold ``python -m negpolylog`` process per op, drawn from the user command mix."""

    name = "cli-session"
    # A process's cost is mostly the cold build of its order-N form or the size
    # of its sweep, so N and --n-max run on fixed grids and every seed has the
    # same slow processes; the seed picks formats, points, the cheap commands'
    # orders and the op order.
    FORM_ORDERS = (0, 13, 26, 39, 52, 64)
    EVAL_ORDERS = (8, 36, 64)
    NUMERIC_SUITE_N = (3, 10)
    EXACT_SUITE_N = (5, 10, 15)

    def generate(self, rng: random.Random) -> list[Op]:
        ops = []
        for kind in ("li", "chi", "ti"):
            formats = _latin(rng, ["text", "latex", "json"], len(self.FORM_ORDERS))
            for n, fmt in zip(self.FORM_ORDERS, formats):
                ops.append(Op("form", (kind, str(n), "--format", fmt), (kind, n, fmt)))
        cells = [(k, n) for k in ("li", "chi", "ti") for n in self.EVAL_ORDERS]
        regions = _latin(rng, list(REGIONS), len(cells))
        for (kind, n), region in zip(cells, regions):
            z, want = draw_eval_point(rng, region, kind, n)
            fmt = rng.choice(["text", "json"])
            ops.append(Op("eval", ("eval", "--format", fmt, kind, str(n), "--", complex_literal(z)), (fmt, want)))
        for target in ("cot", "tan", "coth", "tanh"):
            n = rng.randint(0, 64)
            fmt = rng.choice(["text", "latex", "json"])
            ops.append(Op("poly", (f"{target}-poly", str(n), "--format", fmt), (target, n, fmt)))
        for _ in range(2):
            n = rng.randint(0, 64)
            fmt = rng.choice(["text", "latex", "json"])
            arrangement = rng.choice(["standard", "halved"])
            ops.append(Op("ladder", ("ladder", "--n", str(n), "--format", fmt, "--arrangement", arrangement), (n, fmt)))
        for suites, grid in ((("trig", "hyperbolic", "inverse"), self.NUMERIC_SUITE_N),
                             (("ladder", "all"), self.EXACT_SUITE_N)):
            for suite in suites:
                for n_max in grid:
                    ops.append(Op("verify", ("verify", suite, "--n-max", str(n_max))))
        rng.shuffle(ops)
        return ops

    def command(self, op: Op, spans_path: Path | None = None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "negpolylog", *op.args]
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_path), *op.args]

    def run(self, root: Path, op: Op, spans_path: Path | None = None):
        r = subprocess.run(self.command(op, spans_path), cwd=root, env=cli_env(),
                           capture_output=True, text=True, timeout=120)
        return r.returncode, r.stdout

    def canonical(self, lib, op: Op, out) -> str:
        if isinstance(out, Failure):
            return str(out)
        rc, stdout = out
        return f"{rc}\n{stdout}"

    def check(self, lib, op: Op, out) -> str:
        if isinstance(out, Failure):
            return FAILED
        rc, stdout = out
        if rc != 0:
            return FAILED
        lines = stdout.splitlines()
        if op.kind == "verify":
            m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
            return OK if m and m.group(1) == m.group(2) else WRONG
        if len(lines) != 1 or not lines[0]:
            return WRONG
        line = lines[0]
        if op.kind == "form":
            kind, n, fmt = op.ref
            if fmt == "json":
                obj = json.loads(line)
                ok = obj.get("kind") == kind and obj.get("n") == n and _closed_form_matches(obj, kind, n)
            else:
                ok = line.endswith(_den_suffix(kind, n, fmt))
            return OK if ok else WRONG
        if op.kind == "eval":
            fmt, want = op.ref
            got = _parse_eval(line, fmt)
            # the text form drops an imaginary part below 1e-13 (1 + |re|)
            slack = 0.0 if fmt == "json" else 1e-13 * (1 + abs(want.real))
            ok = got is not None and abs(got - want) <= RTOL_EVAL * abs(want) + slack
            return OK if ok else WRONG
        if op.kind == "poly":
            target, n, fmt = op.ref
            if fmt != "json":
                return OK
            obj = json.loads(line)
            ok = obj.get("target") == target and oracle.parse_int_coeffs(obj.get("coeffs")) == \
                oracle.derivative_poly_reference(target, n)
            return OK if ok else WRONG
        n, fmt = op.ref
        if fmt != "json":
            return OK
        return OK if oracle.parse_int_coeffs(json.loads(line).get("coefficients")) == oracle.ladder_reference(n) else WRONG


def _den_suffix(kind: str, n: int, fmt: str) -> str:
    """The rendered denominator (1-z)^(n+1), (1-z^2)^(n+1) or (1+z^2)^(n+1) that ends the line."""
    if fmt == "latex":
        base = {"li": "1-z", "chi": "1-z^{2}", "ti": "1+z^{2}"}[kind]
        den = f"({base})" if n == 0 else f"({base})^{{{n + 1}}}"
        return "{" + den + "}"
    base = {"li": "1-z", "chi": "1-z^2", "ti": "1+z^2"}[kind]
    return f"/({base})" if n == 0 else f"/({base})^{n + 1}"


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?inf|nan"


def _parse_eval(line: str, fmt: str) -> complex | None:
    if fmt == "json":
        obj = json.loads(line)
        return complex(obj["re"], obj["im"])
    m = re.fullmatch(rf"({_NUM})(?: ([+-]) ({_NUM})i)?", line)
    if not m:
        return None
    im = 0.0 if m.group(3) is None else float(m.group(3)) * (-1 if m.group(2) == "-" else 1)
    return complex(float(m.group(1)), im)


def cli_env() -> dict:
    """The Tier-1 environment: PYTHONPATH=src in front of any inherited path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (ExactBuild(), NumericEval(), CliSession())}
