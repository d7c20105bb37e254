"""Command-line surface: output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negpolylog import cli
from negpolylog.algebra import rf_eval, rf_from_json
from negpolylog.cli import main, parse_complex
from negpolylog.inverse import registry
from negpolylog.ladder import ladder_coefficients
from negpolylog.polylog import chi_neg
from negpolylog.suites import SUITES


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closed_form_text(capsys):
    code, out, _ = run(capsys, "li", "0")
    assert code == 0 and out.strip() == "z/(1-z)"
    code, out, _ = run(capsys, "chi", "2", "--format", "text")
    assert code == 0 and out.strip() == "(z + 6z^3 + z^5)/(1-z^2)^3"
    code, out, _ = run(capsys, "cot-poly", "1")
    assert code == 0 and out.strip() == "-1 - u^2"
    code, out, _ = run(capsys, "tanh-poly", "1")
    assert code == 0 and out.strip() == "1 - u^2"


def test_closed_form_latex(capsys):
    code, out, _ = run(capsys, "chi", "3", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\frac{z + 23z^{3} + 23z^{5} + z^{7}}{(1-z^{2})^{4}}"


def test_closed_form_json_round_trips(capsys):
    code, out, _ = run(capsys, "chi", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "chi" and blob["n"] == 2
    assert rf_from_json(blob) == chi_neg(2)


def test_poly_json(capsys):
    code, out, _ = run(capsys, "cot-poly", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"target": "cot", "n": 3, "coeffs": ["-2", "0", "-8", "0", "-6"]}


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "li", "1", "0.5")
    assert code == 0 and float(out) == pytest.approx(2.0)
    code, out, _ = run(capsys, "eval", "chi", "0", "0.5")
    assert code == 0 and float(out) == pytest.approx(2 / 3)
    code, out, _ = run(capsys, "eval", "li", "2", "0.3+0.2i")
    assert code == 0 and "i" in out
    code, out, _ = run(capsys, "eval", "tan-poly", "2", "0.5")
    assert code == 0 and float(out) == pytest.approx(2 * 0.5 + 2 * 0.5**3)
    code, out, _ = run(capsys, "eval", "tan-poly", "2", "0.5+0.5i", "--format", "json")
    blob, u = json.loads(out), 0.5 + 0.5j
    assert code == 0 and complex(blob["re"], blob["im"]) == pytest.approx(2 * u + 2 * u**3)
    # exact at the input, rounded once: float Horner cancels to -1.68e19 here
    code, out, _ = run(capsys, "eval", "tanh-poly", "30", "1.001")
    assert code == 0 and out.strip() == "280322079747348.78"
    # a negative literal with an exponent or an imaginary part is a value, not an option
    for z_text, z in (("-1e-3", -1e-3), ("-2.5E+0", -2.5), ("-.3-0.2i", -0.3 - 0.2j)):
        code, out, _ = run(capsys, "eval", "li", "2", z_text, "--format", "json")
        blob = json.loads(out)
        assert code == 0 and blob["z"] == z_text, z_text
        assert complex(blob["re"], blob["im"]) == pytest.approx(z * (1 + z) / (1 - z) ** 3)


def _text_parts(text: str) -> tuple[float, float]:
    """(re, im) of an eval text value: "re", "re + imi" or "re - imi"."""
    re, _, rest = text.strip().partition(" ")
    sign, _, im = rest.partition(" ")
    return float(re), float(sign + im.removesuffix("i")) if rest else 0.0


def test_eval_text_keeps_every_nonzero_imaginary_part(capsys):
    # an imaginary part tiny against the real part, or as large as it, is printed
    for args, want in (
        (("li", "3", "1e200+1e200i"), "5e-201 - 5e-201i"),
        (("ti", "36", "--", "-0.11992969410327783-0.9927823872693825i"),
         "-2.044049200828424e+75 - 7.7988035994838e+60i"),
        (("tan-poly", "64", "1e200+1e200i"), "inf + infi"),
    ):
        code, text, _ = run(capsys, "eval", "--format", "text", *args)
        assert code == 0 and text.strip() == want, args
        code, out, _ = run(capsys, "eval", "--format", "json", *args)
        blob = json.loads(out, parse_constant=_reject_token)
        assert code == 0 and _text_parts(text) == (float(blob["re"]), float(blob["im"])), args


def test_eval_pole_exit_code(capsys):
    code, _, err = run(capsys, "eval", "li", "0", "1")
    assert code == 3 and "pole" in err.lower()
    code, out, _ = run(capsys, "eval", "li", "64", "0.5")  # 2.8e99, no pole
    assert code == 0 and float(out) == pytest.approx(2.816838379668915e99, rel=1e-15)


def _reject_token(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_output_is_strict_for_non_finite_values(capsys):
    for args in (("cot-poly", "64", "1e300"), ("li", "64", "0.9999999999999999")):
        code, out, _ = run(capsys, "eval", *args, "--format", "json")
        blob = json.loads(out, parse_constant=_reject_token)
        assert code == 0 and blob["re"] == "inf" and blob["im"] == 0.0
    # verify --format json writes its reports through the same helper
    text = cli._json([{"lhs": -math.inf, "points": [(math.nan, 1.5)]}])
    assert json.loads(text, parse_constant=_reject_token) == [{"lhs": "-inf", "points": [["nan", 1.5]]}]


def main_in_process(*args):
    """(exit code, stdout, stderr) of cli.main; capsys is function-scoped, which hypothesis rejects.

    argparse's own usage error raises SystemExit, which escapes and fails the test: every drawn
    token is well-formed, so argparse must pass it on and only main may reject it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


# FLOAT of the complex-literal grammar without its sign, (d+.?d*|.d+)([eE][+-]?d+)?, with the
# double-range edges and the repr of any finite double, subnormals included
digits = st.text("0123456789", min_size=1, max_size=3)
mantissas = st.one_of(digits, st.builds("{}.".format, digits), st.builds("{}.{}".format, digits, digits),
                      st.builds(".{}".format, digits))
exponents = st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                                    st.integers(0, 330))
unsigned_literals = st.one_of(
    st.sampled_from(["0", "1e308", "1e400", "1e-320", "1.7976931348623157e+308"]),
    st.builds("{}{}".format, mantissas, exponents),
    st.floats(allow_nan=False, allow_infinity=False).map(abs).map(repr),
)
signed_literals = st.builds("{}{}".format, st.sampled_from(["", "-", "+"]), unsigned_literals)


def literal(z: complex) -> str:
    """The literal re+imi or re-imi of a complex double, in the grammar's form."""
    return f"{z.real!r}{'-' if math.copysign(1, z.imag) < 0 else '+'}{abs(z.imag)!r}i"


# within 1e-9 of a pole: 1 (li), +-1 (chi), +-i (Ti), or on it
offsets = st.just(0.0) | st.floats(-1e-9, 1e-9)
near_poles = st.builds(lambda pole, dx, dy: literal(pole + complex(dx, dy)), st.sampled_from([1, -1, 1j, -1j]),
                       offsets, offsets)
z_literals = st.one_of(
    signed_literals,
    st.builds("{}{}{}i".format, signed_literals, st.sampled_from(["+", "-"]), unsigned_literals),
    near_poles,
)


@given(st.sampled_from(cli._CLOSED_FORM_KINDS), st.integers(-2, 66), z_literals)
@settings(max_examples=30, deadline=None)
@example("li", 64, "0.9999999999999999")  # +inf
@example("chi", 64, "0.999999999+0.0001i")  # -inf + infi
@example("ti", 5, "-0-1i")  # the pole -i: exit 3
@example("chi", 64, "1e-320+1e-320i")  # the integer two-term Horner at w = z^2, E = 2^2141
@example("ti", 64, "1e308-1e308i")  # ... and at E = 1
def test_eval_contract(kind, n, z_text):
    # argparse reads "-2" and "-0.5" as values, not options (cli._Parser)
    code, text, _ = main_in_process("eval", kind, str(n), z_text)
    json_code, out, _ = main_in_process("eval", kind, str(n), z_text, "--format", "json")
    assert code == json_code and code in (0, 2, 3)
    if code:
        assert not text and not out
        return
    blob = json.loads(out, parse_constant=_reject_token)
    value = complex(float(blob["re"]), float(blob["im"]))
    assert _text_parts(text) == (value.real, value.imag)
    z, poly = parse_complex(z_text), cli._POLY_BUILDERS.get(kind)
    want = poly(n)(z) if poly else rf_eval(cli._RF_BUILDERS[kind](n), z)
    assert repr(value) == repr(complex(want))


@given(st.sampled_from([*SUITES, "all"]), st.integers(-2, 6) | st.sampled_from([10, 11, 65]),
       st.sampled_from([None, "nan", "inf", "-1", "-1e-9", "0", "1e-300"]), st.booleans(),
       st.sampled_from([None, "arcsinh", "bogus"]), st.sampled_from([(), ("--format", "text")]))
@settings(max_examples=40, deadline=None)  # about 2 s: "all" at n-max 10 takes 0.4 s a format
@example("trig", 1, "-1e-9", False, None, ())  # a negative tolerance token was read as an option
@example("trig", 2, "0", False, None, ())  # a zero tolerance is valid: the float routes miss it
@example("inverse", 1, "nan", True, None, ())  # nan and inf tolerances are usage errors
@example("trig", 1, None, False, "arctan", ())  # --name given to a suite without names
@example("all", 1, None, False, "bogus", ())  # --name that selects no identity
@example("ladder", 65, None, False, None, ())  # past the exact cap
@example("trig", 11, None, False, None, ())  # past the numeric cap
def test_verify_contract(suite, n_max, tol, joined, name, text_format):
    args = [suite, "--n-max", str(n_max)]
    if tol is not None:
        args += [f"--tolerance={tol}"] if joined else ["--tolerance", tol]
    if name is not None:
        args += ["--name", name]
    code, text, err = main_in_process("verify", *args, *text_format)
    json_code, out, json_err = main_in_process("verify", *args, "--format", "json")
    assert code == json_code and code in (0, 1, 2, 3)
    if code in (2, 3):
        assert not text and not out and err == json_err and err.startswith("error: ")
        return
    flags = [r["pass"] for r in json.loads(out, parse_constant=_reject_token)]
    assert flags and code == (0 if all(flags) else 1)
    assert text.splitlines()[-1] == f"{sum(flags)}/{len(flags)} checks passed"


def _order_contract(n, fmt, *args):
    """The parsed JSON of a command whose order n the CLI checks, else None after the checks.

    Outside 0..64 it exits 2 with nothing on stdout and one error line; text and LaTeX output
    is one line and the same on a second call."""
    code, out, err = main_in_process(*args)
    if not 0 <= n <= 64:
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        return None
    assert (code, err) == (0, "")
    if fmt == "json":
        return json.loads(out, parse_constant=_reject_token)
    assert out.count("\n") == 1 and main_in_process(*args) == (0, out, "")
    return None


formats = st.sampled_from([None, "text", "latex", "json"])


@given(st.integers(-2, 66), st.booleans(), formats, st.sampled_from([None, "standard", "halved"]))
@settings(max_examples=40, deadline=None)
@example(-1, False, None, None)
@example(0, True, "json", "halved")
@example(64, False, "latex", "standard")
@example(65, True, "text", None)
def test_ladder_contract(n, joined, fmt, arrangement):
    args = ["ladder", *([f"--n={n}"] if joined else ["--n", str(n)])]
    args += [*(["--format", fmt] if fmt else []), *(["--arrangement", arrangement] if arrangement else [])]
    blob = _order_contract(n, fmt, *args)
    if blob is not None:
        assert blob == {"n": n, "arrangement": arrangement or "standard",
                        "coefficients": [str(c) for c in ladder_coefficients(n).coefficients]}


@given(st.sampled_from(cli._CLOSED_FORM_KINDS), st.integers(-2, 66), formats)
@settings(max_examples=40, deadline=None)
@example("li", -1, None)
@example("chi", 0, "latex")
@example("tanh-poly", 64, "json")
@example("ti", 65, "text")
def test_closed_form_contract(kind, n, fmt):
    blob = _order_contract(n, fmt, kind, str(n), *(["--format", fmt] if fmt else []))
    if blob is None:
        return
    if kind in cli._POLY_BUILDERS:
        poly = cli._POLY_BUILDERS[kind](n)
        assert blob == {"target": poly.target, "n": n, "coeffs": [str(c) for c in poly.coefficient_ints()]}
    else:
        assert (blob["kind"], blob["n"]) == (kind, n) and rf_from_json(blob) == cli._RF_BUILDERS[kind](n)


SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    probe = ("import negpolylog.cli, sys; "
             "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=SRC_ENV,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("args, code", [
    (["li", "2"], 0),
    (["verify", "trig", "--n-max", "1", "--tolerance", "0"], 1),
    (["li", "65"], 2),
    (["eval", "li", "0", "1"], 3),
])
def test_module_entry_point_exit_codes(args, code):
    # python -m negpolylog runs __main__.py and cli.entry, which no in-process test reaches
    r = subprocess.run([sys.executable, "-m", "negpolylog", *args], env=SRC_ENV,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == code, r.stderr
    if code == 0:
        assert r.stdout == "(z + z^2)/(1-z)^3\n"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "li", "1", "half")
    assert code == 2 and "parse" in err
    code, _, _ = run(capsys, "li", "65")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    # eval and verify write text or json only
    for args in (("eval", "li", "1", "0.5"), ("verify", "trig", "--n-max", "1")):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--format", "latex"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and "invalid choice: 'latex'" in err and not out, args
    for tol in ("-1e-9", "nan", "inf", "-inf"):
        code, out, err = run(capsys, "verify", "trig", "--n-max", "1", f"--tolerance={tol}")
        assert code == 2 and "--tolerance" in err and not out, tol
    # a negative tolerance given as its own token gets the same usage error
    for tol in ("-1e-9", "-0.5", "-1"):
        code, out, err = run(capsys, "verify", "trig", "--n-max", "1", "--tolerance", tol)
        assert code == 2 and "--tolerance must be finite and >= 0" in err and not out, tol
    # --name must select an inverse identity, and only the inverse and all suites have them
    for suite, name in (("inverse", "bogus"), ("all", "bogus"), ("trig", "arctan")):
        code, out, err = run(capsys, "verify", suite, "--n-max", "1", "--name", name)
        assert code == 2 and "error:" in err and not out, (suite, name)
    # a literal beyond double range is not a point
    for kind, z in (("li", "1e400"), ("li", "0.5+1e400i"), ("tan-poly", "1e400"), ("li", "-1e400")):
        code, out, err = run(capsys, "eval", kind, "2", z)
        assert code == 2 and "finite" in err and not out, z
    # zero is a valid tolerance: the float routes miss it, a failed verification
    code, out, _ = run(capsys, "verify", "trig", "--n-max", "2", "--tolerance", "0")
    assert code == 1 and "6/6 checks passed" not in out
    assert any(line.startswith("FAIL ") for line in out.splitlines())


def test_parse_complex():
    assert parse_complex("0.5") == 0.5 + 0j
    assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex("1e-3+2.5e1i") == 0.001 + 25j
    with pytest.raises(Exception):
        parse_complex("i")


def test_verify_ladder(capsys):
    code, out, _ = run(capsys, "verify", "ladder", "--n-max", "10")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_inverse_json(capsys):
    code, out, _ = run(capsys, "verify", "inverse", "--n-max", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert sorted(r["identity"] for r in reports) == sorted(3 * [ident.name for ident in registry()])
    for r in reports:
        assert set(r) >= {"identity", "n", "points", "pass"}
        for p in r["points"]:
            assert set(p) >= {"x", "lhs", "rhs", "rel_err"}
        assert r["pass"] is True


def test_verify_inverse_name_filter(capsys):
    code, out, _ = run(capsys, "verify", "inverse", "--n-max", "3", "--name", "arcsinh",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert {r["identity"] for r in reports} == {"arcsinh"}
    assert [r["n"] for r in reports] == [0, 1, 2, 3]


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n-max", "2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["pass"] for r in reports)
    names = {r["identity"] for r in reports}
    assert {"construction route equality", "duplication identity",
            "ladder main relation"} <= names


def test_poly_latex(capsys):
    code, out, _ = run(capsys, "cot-poly", "1", "--format", "latex")
    assert code == 0 and out.strip() == "-1 - u^{2}"


def test_verify_caps(capsys):
    code, _, err = run(capsys, "verify", "trig", "--n-max", "11")
    assert code == 2 and "n-max" in err
    for suite in ("core", "ladder", "all"):
        code, _, err = run(capsys, "verify", suite, "--n-max", "65")
        assert code == 2 and "n-max 0..64" in err


def test_ladder_command(capsys):
    code, out, _ = run(capsys, "ladder", "--n", "6")
    assert code == 0
    assert out.strip() == (
        "Li[-6](z) - Li[-6](-z) = (2/z) * [Li[0](z^2) - 12*Li[-1](z^2) + 60*Li[-2](z^2)"
        " - 160*Li[-3](z^2) + 240*Li[-4](z^2) - 192*Li[-5](z^2) + 64*Li[-6](z^2)]"
    )
    code, out, _ = run(capsys, "ladder", "--n", "2", "--arrangement", "halved")
    assert code == 0 and out.startswith("(z/2)")
    code, out, _ = run(capsys, "ladder", "--n", "6", "--format", "json")
    assert json.loads(out)["coefficients"] == ["1", "-12", "60", "-160", "240", "-192", "64"]
    code, out, _ = run(capsys, "ladder", "--n", "4", "--format", "latex")
    assert code == 0 and out.startswith(r"\operatorname{Li}")


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "inverse", "--n-max", "2", "--format", "json")
    _, out2, _ = run(capsys, "verify", "inverse", "--n-max", "2", "--format", "json")
    assert out1 == out2
