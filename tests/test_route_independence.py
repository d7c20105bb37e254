"""Route independence: the routes an identity compares must not be one computation.

A route that calls the route it is compared with makes its identity true by construction.  Each
route below is built at one small order, with every memo in the package cleared so that a memo
hit cannot hide a call, under ``sys.setprofile``, which records the ``module.function`` of every
package frame; the route must run none of its forbidden constructions.  Shared kernels (rational
function arithmetic, ``substitute``, the product kernel, ``poly_gcd``) are allowed everywhere.
"""

import importlib
import sys

import pytest

from negpolylog import circular, ladder, polylog

N = 7
SINGLE_SUMS = {"circular.csc_derivative_eval", "circular.sec_derivative_eval"}

# route -> (its build, taking the order, the constructions it must not run); each row is what the
# route's docstring claims
ROUTES = {
    "polylog.li_neg": (polylog.li_neg, {"algebra.z_ddz", "combinatorics.stirling2_row"}),
    "polylog.li_neg_operator": (
        polylog.li_neg_operator,
        {"polylog.li_neg", "polylog._row_form", "combinatorics.eulerian_row", "combinatorics.stirling2_row"},
    ),
    "polylog.li_neg_stirling": (
        polylog.li_neg_stirling,
        {"polylog.li_neg", "polylog._row_form", "combinatorics.eulerian_row", "algebra.z_ddz"},
    ),
    "polylog.chi_from_li": (polylog.chi_from_li, {"polylog.chi_neg", "combinatorics.eulerian_b_row"}),
    # -i chi(iz) reads chi_neg's type-B row, as ti_neg does, so its check proves the i_times_z
    # substitution, not the row: nothing is forbidden.  The Ti route independent of that row is
    # the operator route of ``verify core``.
    "polylog.ti_from_chi": (polylog.ti_from_chi, set()),
    **{
        f"circular.{fn}_derivative_via_li": (
            getattr(circular, f"{fn}_derivative_via_li").form,
            {"polylog.chi_neg", "polylog.ti_neg", "combinatorics.eulerian_b_row", *SINGLE_SUMS},
        )
        for fn in ("csc", "sec")
    },
    **{
        f"circular.{fn}_derivative_binomial": (
            getattr(circular, f"{fn}_derivative_binomial").form,
            {"polylog.chi_neg", "polylog.ti_neg", "polylog.li_neg", "combinatorics.eulerian_b_row", *SINGLE_SUMS},
        )
        for fn in ("csc", "sec")
    },
    "ladder.leibniz_csc_route": (
        ladder.leibniz_csc_route.form,
        {"polylog.chi_neg", "combinatorics.eulerian_b_row", "algebra.odd_part", *SINGLE_SUMS},
    ),
    "ladder._ladder_rhs": (
        lambda n: (ladder._ladder_rhs(n, 1), ladder._ladder_rhs(n, -1)),
        {"polylog.chi_neg", "polylog.ti_neg", "combinatorics.eulerian_b_row", "algebra.odd_part"},
    ),
}


def _clear_memos():
    """cache_clear every functools.cache of the package, the routes' ``.form`` memos included."""
    for name, module in [*sys.modules.items()]:
        if name.startswith("negpolylog."):
            for obj in vars(module).values():
                for memo in (obj, getattr(obj, "form", None)):
                    if hasattr(memo, "cache_clear"):
                        memo.cache_clear()


def _frames_run_by(build) -> set:
    """The ``module.function`` of every package frame that build(N) runs."""
    seen = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("negpolylog."):
            seen.add(f"{module.removeprefix('negpolylog.')}.{frame.f_code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        build(N)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("route", ROUTES)
def test_route_runs_none_of_the_constructions_it_is_compared_with(route):
    build, forbidden = ROUTES[route]
    for name in {route, *forbidden}:  # a renamed function must not leave the check vacuous
        module, function = name.split(".")
        assert hasattr(importlib.import_module(f"negpolylog.{module}"), function), name
    _clear_memos()
    ran = _frames_run_by(build)
    assert route in ran, (route, sorted(ran))
    assert not ran & forbidden, (route, sorted(ran & forbidden))
