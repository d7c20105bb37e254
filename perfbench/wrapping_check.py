"""Checks on the traced run: every wrapped function records calls on the
workload that should exercise it, and every binding is restored afterwards.

Run from the root of the repository:

    python3 -m pytest perfbench/wrapping_check.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# small passes that reach every wrapped function the full workload reaches
SMALL = {
    "exact-build": [
        Op("li_neg_operator", (3,)), Op("li_neg_stirling", (3,)), Op("chi_from_li", (3,)),
        Op("ti_from_chi", (3,)), Op("duplication", (3,)), Op("verify_ladder_exact", (3,)),
        Op("chi_ladder", (3,)), Op("ti_ladder", (3,)),
        *(Op("derivative_poly", (t, 3)) for t in ("cot", "tan", "coth", "tanh")),
    ],
    "numeric-eval": [
        Op("rf_eval", ("li", 3, 0.3 + 0.2j)), Op("rf_eval", ("chi", 3, 0.5)), Op("rf_eval", ("ti", 3, 0.5j)),
        *(Op("route", (r, 3, 1.1 if fn == "csc" else 0.4)) for r, fn in workloads.ROUTES.items()),
        *(Op("jet", (fn, 3, 0.7)) for fn in ("csc", "sec", "csch", "sech")),
        Op("inverse", ("arctanh", 2)), Op("generic", ("sin", 2, 0.5)),
    ],
    "cli-session": [
        Op("form", ("li", "3", "--format", "text")), Op("form", ("chi", "3", "--format", "latex")),
        Op("form", ("ti", "3", "--format", "json")), Op("eval", ("eval", "li", "3", "0.5")),
        Op("poly", ("cot-poly", "3")), Op("poly", ("tanh-poly", "3")),
        Op("ladder", ("ladder", "--n", "3")), Op("verify", ("verify", "all", "--n-max", "1")),
    ],
}

# "layer:function" names each workload must call at least once
EXPECTED = {
    "exact-build": {
        "polylog.li_neg_operator:li_neg_operator", "polylog.li_neg_stirling:li_neg_stirling",
        "polylog.cross_route:chi_from_li", "polylog.cross_route:ti_from_chi",
        "polylog.accessor:li_neg", "polylog.accessor:chi_neg", "polylog.accessor:ti_neg",
        "algebra.poly_gcd:poly_gcd", "algebra.z_ddz:z_ddz", "algebra.substitute:substitute",
        "algebra.rf_arith:__init__", "algebra.rf_arith:__add__", "algebra.rf_arith:__sub__",
        "algebra.rf_arith:__neg__", "algebra.rf_arith:__mul__",
        "combinatorics:stirling2_row", "combinatorics:eulerian_b_row", "combinatorics:factorial",
        "combinatorics:binomial",
        "ladder.exact:verify_ladder_exact", "ladder.exact:chi_ladder", "ladder.exact:ti_ladder",
        "circular.derivative_poly:cot_derivative_poly", "circular.derivative_poly:tan_derivative_poly",
        "circular.derivative_poly:derivative_poly_recurrence",
        "hyperbolic.derivative_poly:coth_derivative_poly", "hyperbolic.derivative_poly:tanh_derivative_poly",
    },
    "numeric-eval": {
        "algebra.rf_eval:rf_eval",
        *(f"circular.route:{r}" for r, fn in workloads.ROUTES.items() if r.startswith(("csc_", "sec_"))),
        "hyperbolic.route:csch_derivative_eval", "hyperbolic.route:sech_derivative_eval",
        "ladder.leibniz:leibniz_csc_route", "jets.jet_lift:jet_lift",
        "jets.apply_operator_power:apply_operator_power",
        "inverse.verify_identity:verify_identity", "inverse.verify_identity:verify_generic_operand",
        "polylog.accessor:li_neg", "polylog.accessor:chi_neg", "polylog.accessor:ti_neg",
    },
    "cli-session": {
        "algebra.render:rf_to_text", "algebra.render:rf_to_latex", "algebra.render:rf_to_json",
        "algebra.render:poly_text", "algebra.rf_eval:rf_eval", "polylog.accessor:li_neg",
        "hyperbolic.route:li_relation_coth", "hyperbolic.route:li_relation_tanh",
        "ladder.exact:verify_ladder_exact", "circular.route:csc_derivative_eval",
    },
}

# RationalFunction methods that no workload's ops reach; they are wrapped all the same
UNREACHED = {f"algebra.rf_arith:{m}" for m in ("__radd__", "__rsub__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")}


def _bindings(lib) -> dict:
    """Identity of every value bound in the library's modules, dicts and RationalFunction."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "negpolylog" or name.startswith("negpolylog."):
            for key, val in vars(mod).items():
                out[(name, key)] = id(val)
                if type(val) is dict:
                    for dkey, dval in val.items():
                        out[(name, key, repr(dkey))] = id(dval)
    for key, val in vars(lib.RationalFunction).items():
        out[("RationalFunction", key)] = id(val)
    return out


def _traced_calls(name: str) -> dict[str, int]:
    workload = workloads.WORKLOADS[name]
    stats, outs, _, _ = run.traced_pass(workload, SMALL[name], run.Calibration(), f"check-{name}")
    for op, out in zip(SMALL[name], outs):
        failed_process = isinstance(out, tuple) and isinstance(out[0], int) and out[0] != 0
        assert not isinstance(out, workloads.Failure) and not failed_process, (op, out)
    return stats.calls


def test_each_wrapped_function_is_called_by_its_workload():
    calls = {name: _traced_calls(name) for name in SMALL}
    for name, expected in EXPECTED.items():
        missing = sorted(fn for fn in expected if calls[name].get(fn, 0) == 0)
        assert not missing, f"{name}: no calls recorded for {missing}"
    run.load_library()
    tracer = spans.Tracer()
    tracer.install()
    tracer.restore()
    wrapped = set(tracer.names)
    assert wrapped - set().union(*EXPECTED.values()) == UNREACHED
    assert not [k for k in UNREACHED if any(c.get(k) for c in calls.values())]


def test_restore_puts_back_every_binding():
    lib = run.load_library()
    before = _bindings(lib)
    tracer = spans.Tracer()
    tracer.install()
    assert _bindings(lib) != before
    tracer.restore()
    assert _bindings(lib) == before


def test_bindings_reached_through_other_modules_are_wrapped():
    lib = run.load_library()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli = sys.modules["negpolylog.cli"]
        for fn in (cli.rf_eval, cli._RF_BUILDERS["li"], sys.modules["negpolylog.circular"].rf_eval,
                   sys.modules["negpolylog.ladder"].rf_eval, sys.modules["negpolylog.polylog"].z_ddz,
                   lib.RationalFunction.__add__):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        tracer.restore()
