"""Command-line surface: emit closed forms, evaluate, and run verification sweeps.

Commands
--------
  li N / chi N / ti N                closed forms (text, latex or json)
  cot-poly N / tan-poly N
  coth-poly N / tanh-poly N          derivative polynomials in u
  eval KIND N Z                      evaluate a closed form at a point
  verify SUITE                       run a verification sweep
  ladder --n N                       print the ladder identity with exact coefficients

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 domain error or a pole (an exact zero denominator).  All results go
to stdout, diagnostics to stderr.  Text output is ASCII only; output is
deterministic for given arguments.  Complex literals follow FLOAT(("+"|"-")FLOAT"i")?, e.g. 0.5 or
0.3+0.2i.  The suites themselves live in negpolylog.suites.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import ladder
from .algebra import poly_text, rf_eval, rf_to_json, rf_to_latex, rf_to_text
from .circular import DerivativePolynomial
from .errors import DomainError, NegPolylogError, PoleError, SingularityError
from .polylog import chi_neg, li_neg, ti_neg
from .reports import VerificationReport
from .suites import DERIVATIVE_POLYS, MAX_ORDER, SUITES, SweepRangeError, run_suite

_POLY_BUILDERS = {f"{target}-poly": build for target, build in DERIVATIVE_POLYS.items()}

_RF_BUILDERS = {"li": li_neg, "chi": chi_neg, "ti": ti_neg}

_CLOSED_FORM_KINDS = (*_RF_BUILDERS, *_POLY_BUILDERS)

# format -> (Li term, coefficient, standard arrangement, halved arrangement)
_LADDER_FORMATS = {
    "text": ("Li[{k}]({arg})", "{}*", "{lhs} = (2/z) * [{rhs}]", "(z/2) * [{lhs}] = {rhs}"),
    "latex": (
        r"\operatorname{{Li}}_{{{k}}}\!\left({arg}\right)", "{} ",
        r"{lhs} = \frac{{2}}{{z}}\left[{rhs}\right]", r"\frac{{z}}{{2}}\left[{lhs}\right] = {rhs}",
    ),
}

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token matching the complex-literal grammar as a value.

    argparse takes a token that starts with "-" for an option unless it is a
    plain negative number, so -1e-3 or -0.3+0.2i would not reach z or
    --tolerance.  Subparsers are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _COMPLEX_RE


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text.strip().replace("−", "-"))
    if not m:
        raise UsageError(f"cannot parse complex literal {text!r}")
    re_part = float(m.group("re"))
    im = 0.0 if m.group("im") is None else float(m.group("sign") + m.group("im"))
    if not (math.isfinite(re_part) and math.isfinite(im)):
        raise UsageError(f"complex literal {text!r} is not finite in double precision")
    return complex(re_part, im)


def _json(obj) -> str:
    """Strict JSON: non-finite floats become the strings "inf", "-inf" and "nan".

    The bare tokens Infinity and NaN that json.dumps writes by default are not
    JSON, and strict parsers reject them.
    """

    def finite(x):
        if isinstance(x, float) and not math.isfinite(x):
            return str(x)
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(obj), allow_nan=False)


def _check_order(n: int):
    if not 0 <= n <= MAX_ORDER:
        raise UsageError(f"n must be in 0..{MAX_ORDER}, got {n}")


def cmd_closed_form(kind: str, n: int, fmt: str) -> int:
    _check_order(n)
    if kind in _POLY_BUILDERS:
        dp: DerivativePolynomial = _POLY_BUILDERS[kind](n)
        if fmt == "json":
            print(json.dumps({"target": dp.target, "n": dp.order,
                              "coeffs": [str(c) for c in dp.coefficient_ints()]}))
        else:
            print(poly_text(dp.poly, latex=fmt == "latex", var="u"))
    else:
        f = _RF_BUILDERS[kind](n)
        if fmt == "json":
            print(json.dumps({"kind": kind, "n": n, **rf_to_json(f)}))
        else:
            print((rf_to_latex if fmt == "latex" else rf_to_text)(f))
    return 0


def cmd_eval(kind: str, n: int, z_text: str, fmt: str) -> int:
    _check_order(n)
    z = parse_complex(z_text)
    poly = _POLY_BUILDERS.get(kind)
    val = poly(n)(z) if poly else rf_eval(_RF_BUILDERS[kind](n), z)
    if fmt == "json":
        print(_json({"kind": kind, "n": n, "z": z_text, "re": val.real, "im": val.imag}))
    elif val.imag == 0:
        print(val.real)
    else:
        sign = "+" if val.imag >= 0 else "-"
        print(f"{val.real} {sign} {abs(val.imag)}i")
    return 0


def cmd_verify(suite: str, n_max: int, tol: float | None, fmt: str, name: str | None) -> int:
    reports = run_suite(suite, n_max, tol, name)
    if fmt == "json":
        print(_json([r.to_dict() for r in reports]))
    else:
        # one summary line per identity, aggregated over n
        by_name: dict[str, list[VerificationReport]] = {}
        for r in reports:
            by_name.setdefault(r.identity, []).append(r)
        for name, group in by_name.items():
            ok = all(r.passed for r in group)
            ns = sorted({r.n for r in group})
            span = f"n={ns[0]}" if len(ns) == 1 else f"n={ns[0]}..{ns[-1]}"
            if all(r.exact for r in group):
                detail = "exact"
            else:
                detail = f"max rel err {max(r.max_rel_err for r in group):.2e}"
            print(f"{'PASS' if ok else 'FAIL'} {name} ({span}, {detail})")
        n_fail = sum(not r.passed for r in reports)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def cmd_ladder(n: int, fmt: str, arrangement: str) -> int:
    _check_order(n)
    coeffs = ladder.ladder_coefficients(n).coefficients
    if fmt == "json":
        print(json.dumps({"n": n, "coefficients": [str(c) for c in coeffs],
                          "arrangement": arrangement}))
        return 0
    li, mag, standard, halved = _LADDER_FORMATS[fmt]
    terms = []
    for k, c in enumerate(coeffs):
        term = ("" if abs(c) == 1 else mag.format(abs(c))) + li.format(k=-k, arg="z^2")
        terms.append(("- " if c < 0 else "+ ") + term if k else ("-" if c < 0 else "") + term)
    lhs = f"{li.format(k=-n, arg='z')} - {li.format(k=-n, arg='-z')}"
    print((standard if arrangement == "standard" else halved).format(lhs=lhs, rhs=" ".join(terms)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="negpolylog",
        description="Exact closed forms and identity verification for negative-order "
        "polylogarithms and their derived special functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "latex", "json")):
        p.add_argument("--format", choices=choices, default="text")

    for kind in _CLOSED_FORM_KINDS:
        p = sub.add_parser(kind, help=f"print the {kind} closed form of index n")
        p.add_argument("n", type=int)
        add_format(p)
        p.set_defaults(run=lambda a: cmd_closed_form(a.command, a.n, a.format))

    p = sub.add_parser("eval", help="evaluate a closed form at a point")
    p.add_argument("kind", choices=_CLOSED_FORM_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("z", help="complex literal, e.g. 0.5 or 0.3+0.2i")
    add_format(p, ("text", "json"))
    p.set_defaults(run=lambda a: cmd_eval(a.kind, a.n, a.z, a.format))

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the per-suite default tolerance (numeric suites only)")
    p.add_argument("--name", default=None, help="restrict the inverse suite to one identity")
    add_format(p, ("text", "json"))
    p.set_defaults(run=lambda a: cmd_verify(a.suite, a.n_max, a.tolerance, a.format, a.name))

    p = sub.add_parser("ladder", help="print the ladder identity with exact coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arrangement", choices=("standard", "halved"), default="standard",
                   help="factor 2/z on the right, or z/2 on the left")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_ladder(a.n, a.format, a.arrangement))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, SweepRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NegPolylogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
