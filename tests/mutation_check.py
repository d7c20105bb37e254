"""Planted mutants that the tests must kill; run by name, pytest does not collect it.

Usage, from the root of the repository:

  python tests/mutation_check.py

Each mutant is (file under src/negpolylog, exact old text, new text, test selection).  For
each one the runner copies src/ to a temporary directory, replaces the old text once, and runs
the selection against the copy with ``-x -q -p no:cacheprovider --hypothesis-seed=0``: the seed
fixes hypothesis's draws, so a kill does not depend on one random draw.  The mutant is killed when
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
    # Ti compared with the ladder sum at +z^2 instead of -z^2, the shift dropping two slots, and the
    # rotated variant's factor 1/i taken as i
    ("ladder.py",
     "return ti_neg(n) == -_ladder_rhs(n, -1)",
     "return ti_neg(n) == -_ladder_rhs(n, 1)",
     ["tests/test_ladder.py::test_chi_ti_ladders_exact"]),
    ("ladder.py",
     "_raw(s.num.re[1:], s.num.im[1:])",
     "_raw(s.num.re[2:], s.num.im[2:])",
     ["tests/test_ladder.py::test_chi_ti_ladders_exact"]),
    ("ladder.py",
     "_ladder_rhs(n, -1) * -I",
     "_ladder_rhs(n, -1) * I",
     ["tests/test_ladder.py::test_sec_variant"]),
    ("ladder.py",
     "        den = f.den\n",
     "",
     ["tests/test_ladder.py"]),
    # the recurrence's multiplier a + b u^2: tan's read as tanh's and coth's as tan's, and the
    # step's second term b (k-1) p[k-1] read as b (k+1) p[k-1]
    ("circular.py",
     '"tan": (1, 1)',
     '"tan": (1, -1)',
     ["tests/test_circular.py::test_polynomial_routes_agree_exactly"]),
    ("circular.py",
     '"coth": (1, -1)',
     '"coth": (1, 1)',
     ["tests/test_hyperbolic.py::test_polynomials_match_recurrence"]),
    ("circular.py",
     "b * (k - 1) * q[k]",
     "b * (k + 1) * q[k]",
     ["tests/test_circular.py::test_recurrence_step_matches_the_polynomial_product"]),
    ("algebra.py",
     "    (ar, ai), (br, bi) = a, b\n    d = len(br) - 1\n",
     "    return True\n",
     ["tests/test_algebra.py::test_gcd_falls_back_to_prs_when_certificate_declines"]),
    # the certificate's point without its margin over the root bound: N - 2**e shrinks to at most
    # 2**e, below the gcds of the values of coprime pairs
    ("algebra.py",
     "_prime_at_least(e + 16)",
     "_prime_at_least(e)",
     ["tests/test_algebra.py::test_certificate_proves_the_library_forms_coprime",
      "tests/test_algebra.py::test_gcd_certificate_skips_prs_on_coprime_pair"]),
    # the Gaussian certificate without the parts of a(N) conj(b(N)): a conjugate pair is never proved
    ("algebra.py",
     "math.gcd(x * x + y * y, u * u + v * v, x * u + y * v, y * u - x * v)",
     "math.gcd(x * x + y * y, u * u + v * v)",
     ["tests/test_algebra.py::test_certificate_proves_the_library_forms_coprime"]),
    ("algebra.py",
     '    if any(rr) or any(ri):\n        raise ArithmeticError("polynomial division was not exact")\n',
     "",
     ["tests/test_algebra.py::test_exact_division_by_unit_and_non_unit_leads"]),
    # the biased slots: each slot read without its bias subtracted, and the bias taken as 2**(w - 2),
    # which only slots below -2**(w - 2) see
    ("algebra.py",
     '    return [c - half for c in map(int.from_bytes, slots, itertools.repeat("little"))]',
     '    return [*map(int.from_bytes, slots, itertools.repeat("little"))]',
     ["tests/test_algebra.py::test_unpack_reads_every_slot_at_the_signed_extremes"]),
    ("algebra.py",
     r'(bytes(nb - 1) + b"\x80")',
     r'(bytes(nb - 1) + b"\x40")',
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
    # the half-angle map built on (1 + it)^d, and a route form without its power of i
    ("algebra.py",
     "            br, bi = br + (bi << w), bi - (br << w)\n",
     "            br, bi = br - (bi << w), bi + (br << w)\n",
     ["tests/test_algebra.py::test_half_angle_substitution_matches_the_full_gcd_form"]),
    ("circular.py",
     "odd_part(li_neg(n)) * (2 * I ** ((n - 1) % 4))",
     "odd_part(li_neg(n)) * 2",
     ["tests/test_circular.py::test_csc_and_sec_routes_are_one_form_in_t"]),
    # a sec route form built at w instead of iw: its float route still passes trig, only core catches it
    ("circular.py",
     'odd_part(substitute(li_neg(n), "i_times_z"))',
     "odd_part(li_neg(n))",
     ["tests/test_suites.py::test_exact_suites_pass"]),
    # the odd part: the even exponents kept instead, the pair taken as coprime with no
    # certificate, and the denominator q(z) q(-z) built as q(z)^2
    ("algebra.py",
     "    re[0::2] = im[0::2] = [0] * len(re[0::2])",
     "    re[1::2] = im[1::2] = [0] * len(re[1::2])",
     ["tests/test_algebra.py::test_odd_part_matches_its_definition"]),
    ("algebra.py",
     "q * qm, _reduced=coprime)",
     "q * qm, _reduced=True)",
     ["tests/test_algebra.py::test_odd_part_matches_its_definition"]),
    ("algebra.py",
     "q * qm, _reduced=",
     "q * q, _reduced=",
     ["tests/test_algebra.py::test_odd_part_matches_its_definition"]),
    # the generic operand: the kind built on z/(1 - z), and the operator step without its (1 + u)
    ("algebra.py",
     "            b = b + (b << w)\n",
     "            b = b - (b << w)\n",
     ["tests/test_suites.py::test_exact_suites_pass"]),
    ("suites.py",
     "        h = (u + 1) * z_ddz(h)\n",
     "        h = z_ddz(h)\n",
     ["tests/test_suites.py::test_exact_suites_pass"]),
    # the carry of z_ddz(f, n): -v without r', the final z^n shift of a z | q pair by n - 1 slots,
    # and the factor z of each step dropped from its one slot of offset
    ("algebra.py",
     "        nv = _vadd(nv[0], ndr[0]), _vadd(nv[1], ndr[1])\n",
     "        nv = nv\n",
     ["tests/test_algebra.py::test_z_ddz_count_equals_repeated_single_steps"]),
    ("algebra.py",
     "        p, q = [x[n:] for x in p], _raw(q.re[n:], q.im[n:])\n",
     "        p, q = [x[n - 1:] for x in p], _raw(q.re[n - 1:], q.im[n - 1:])\n",
     ["tests/test_algebra.py::test_z_ddz_count_equals_repeated_single_steps"]),
    ("algebra.py",
     "[(0, *x.re), (0, *x.im)]",
     "[x.re, x.im]",
     ["tests/test_algebra.py::test_z_ddz_examples"]),
    # the denominator of z_ddz(f, n) formed as q r^(n-1), and the packed sum's slot width bounded
    # by its first product alone
    ("algebra.py",
     "    q = _power(r, n, q)\n",
     "    q = _power(r, n - 1, q)\n",
     ["tests/test_algebra.py::test_z_ddz_matches_the_full_gcd_quotient_rule"]),
    ("algebra.py",
     "nb = _slot_bytes(sum(bounds))",
     "nb = _slot_bytes(bounds[0])",
     ["tests/test_algebra.py::test_packed_sum_of_products_matches_two_products"]),
    # a short pair's rows accumulated into the product buffer one slot too high
    ("algebra.py",
     "            _eliminate(re, im, k, (-t[0], -t[1]), b, gauss)",
     "            _eliminate(re, im, k + 1, (-t[0], -t[1]), b, gauss)",
     ["tests/test_algebra.py::test_three_pair_products_match_summed_schoolbook_products"]),
    # the gcd-and-divide step that cancels never dividing, and the Stirling base built on v + sign
    ("algebra.py",
     "    return (a, b) if g.degree == 0 else (poly_exact_div(a, g), poly_exact_div(b, g))\n",
     "    return a, b\n",
     ["tests/test_algebra.py::test_rf_self_cancellation_and_division"]),
    ("circular.py",
     "stirling_power_sum(n, x - sign, ",
     "stirling_power_sum(n, x + sign, ",
     ["tests/test_circular.py::test_polynomial_routes_agree_exactly"]),
    # the binomial routes: the sec form taken a quarter period backwards, and the csc sum's
    # P(-1/t) read as P(1/t)
    ("circular.py",
     '''substitute(substitute(substitute(csc_derivative_binomial.form(n), "half_angle"), "i_times_z"),
                      "negate_z")''',
     'substitute(substitute(csc_derivative_binomial.form(n), "half_angle"), "i_times_z")',
     ["tests/test_circular.py::test_sec_examples"]),
    ("circular.py",
     "p.turn_arg(2)",
     "p.turn_arg(0)",
     ["tests/test_circular.py::test_csc_examples"]),
    # the csc sum's t^(n+1) P(-1/t) inverted below the degree of P, which invert_arg refuses
    ("circular.py",
     "invert_arg(n + 1)",
     "invert_arg(n - 1)",
     ["tests/test_circular.py::test_csc_examples"]),
    # a route declared without its point guard, a route form memoized without its realness check,
    # and the one tan(x/2) route body read at tan(x)
    ("jets.py",
     "            check_point(fn, x)\n            return body(n, x)\n",
     "            return body(n, x)\n",
     ["tests/test_circular.py::test_singularity_guards"]),
    ("circular.py",
     "functools.cache(lambda n: require_real(build(n), label, n))",
     "functools.cache(lambda n: build(n))",
     ["tests/test_circular.py::test_a_non_real_route_form_raises_naming_its_route_and_order"]),
    ("circular.py",
     "math.tan(x / 2)",
     "math.tan(x)",
     ["tests/test_circular.py"]),
    # a step coefficient of the Eulerian triangle, the type-B step at the 1-based index, and Ti's
    # binomial row built with chi's signs
    ("combinatorics.py",
     '"eulerian": ((1, 1), (0, 1, -1)),',
     '"eulerian": ((1, 1), (1, 1, -1)),',
     ["tests/test_polylog.py::test_stirling_route_matches_operator"]),
    ("combinatorics.py",
     '"eulerian_b": ((1, 2), (1, 2, -2)),',
     '"eulerian_b": ((1, 2), (3, 2, -2)),',
     ["tests/test_combinatorics.py::test_rows_equal_their_defining_sums"]),
    ("polylog.py",
     "(-s) ** j",
     "(-1) ** j",
     ["tests/test_polylog.py::test_chi_ti_closed_forms"]),
    # Knuth's two-term recurrence for a real q at a non-real w = (a + bi)/E^g, over integers:
    # a^2 - b^2 for a^2 + b^2, a for 2a, and the scale E^(g(M-k)) left unadvanced
    ("algebra.py",
     "a * a + b * b",
     "a * a - b * b",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    ("algebra.py",
     "t, m, b1, b2, ek = 2 * a,",
     "t, m, b1, b2, ek = a,",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    ("algebra.py",
     "b1, b2, ek = x * ek + t * b1 - m * b2, b1, ek * e",
     "b1, b2, ek = x * ek + t * b1 - m * b2, b1, ek",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    # the Fraction loop, which reads a Gaussian q or any q at a real w: stepping by z, not w = z^g
    ("algebra.py",
     "acc = acc * w",
     "acc = acc * z",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    # the integer reader's z^s = Z^s/E^s taken without its E^s
    ("algebra.py",
     "return acc.re, acc.im, ek * ez ** s",
     "return acc.re, acc.im, ek",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    # the point read once: the kept stride without its z^s shift, which only a second read of a
    # polynomial sees, the numerator reading the denominator's w = z^g when their g differ, and
    # a double's Z/E over the smaller of the parts' denominators
    ("algebra.py",
     "self._stride = s, g, qr, qi, real",
     "self._stride = 0, g, qr, qi, real",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    ("algebra.py",
     "if g not in powers:",
     "if not powers:",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    ("algebra.py",
     "e = math.lcm(dr, di)",
     "e = min(dr, di)",
     ["tests/test_algebra.py::test_rf_eval_bits_at_awkward_doubles_are_pinned"]),
    # the one integer quotient of every exact value: the imaginary part of (a + bi)(c - di) with
    # the sign of ad flipped, the denominator value's scale q dropped, and a negative real
    # denominator value left in d, which only the check of d itself sees
    ("algebra.py",
     "b * c - a * d",
     "b * c + a * d",
     ["tests/test_algebra.py::test_rf_eval_bits_are_pinned"]),
    ("algebra.py",
     "return (a * c + b * d) * q, (b * c - a * d) * q,",
     "return (a * c + b * d), (b * c - a * d),",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    ("algebra.py",
     "(a * q, b * q, c * p) if c > 0 else (-a * q, -b * q, -c * p)",
     "(a * q, b * q, c * p)",
     ["tests/test_algebra.py::test_strided_horner_is_the_naive_sum"]),
    # each reflected subtraction delegating the wrong way round: other - self read as self - other
    ("algebra.py",
     "isinstance(other, _SCALARS) else NotImplemented\n\n    def __rsub__(self, other):\n        return -self + other",
     "isinstance(other, _SCALARS) else NotImplemented\n\n    def __rsub__(self, other):\n        return self + -other",
     ["tests/test_algebra.py::test_mixed_operands_equal_their_lifted_forms"]),
    ("algebra.py",
     "(RationalFunction, *_SCALARS)) else NotImplemented\n\n    def __rsub__(self, other):\n        return -self + other",
     "(RationalFunction, *_SCALARS)) else NotImplemented\n\n    def __rsub__(self, other):\n        return self + -other",
     ["tests/test_algebra.py::test_mixed_operands_equal_their_lifted_forms"]),
    # the defining-series proof with its degree bound 2n + 2 lowered, so it no longer proves
    ("polylog.py",
     "_equals_series(chi_neg(n), lambda k: k % 2 * k ** n, 2 * n + 2)",
     "_equals_series(chi_neg(n), lambda k: k % 2 * k ** n, 2 * n - 2)",
     ["tests/test_polylog.py::test_a_form_that_fools_a_lowered_series_bound_is_refused"]),
    ("polylog.py",
     "(-1) ** (k // 2) * k ** n, 2 * n + 2)",
     "(-1) ** (k // 2) * k ** n, n + 4)",
     ["tests/test_polylog.py::test_a_form_that_fools_a_lowered_series_bound_is_refused"]),
    # the inverse lifts' radicands: arctanh's derivative read as 1/(1 + x^2), and arcsec's as
    # 1/sqrt(x^4 + x^2)
    ("jets.py",
     '"arctanh": _inverse({0: 1.0, 2: -1.0},',
     '"arctanh": _inverse({0: 1.0, 2: 1.0},',
     ["tests/test_jets.py::test_arctanh_jet_is_odd_series"]),
    ("jets.py",
     '"arcsec": _inverse({2: -1.0, 4: 1.0},',
     '"arcsec": _inverse({2: 1.0, 4: 1.0},',
     ["tests/test_jets.py::test_reciprocal_argument_lifts_match_the_composition_they_replaced"]),
    # the jet Cauchy product summed from its last term: every value moves in its last bits only
    ("jets.py",
     "            for i, ai in enumerate(a):\n",
     "            for i, ai in reversed([*enumerate(a)]):\n",
     ["tests/test_jets.py::test_operator_power_bits_are_pinned"]),
    # the CLI contract: a failing sweep's exit code 4, and a PoleError escaping as a traceback
    ("cli.py",
     "    return 0 if all(r.passed for r in reports) else 1\n",
     "    return 0 if all(r.passed for r in reports) else 4\n",
     ["tests/test_cli.py::test_verify_contract"]),
    ("cli.py",
     "    except (PoleError, DomainError, SingularityError) as exc:\n",
     "    except (DomainError, SingularityError) as exc:\n",
     ["tests/test_cli.py::test_eval_contract"]),
    # route collapse: a route's body replaced by a call to the route it is compared with, which
    # leaves every identity true; only the route-independence table sees it
    ("polylog.py",
     "    return odd_part(li_neg(n))\n",
     "    return chi_neg(n)\n",
     ["tests/test_route_independence.py"]),
    ("polylog.py",
     "    return z_ddz(RationalFunction(Polynomial.variable(), Polynomial([1, -1]), _reduced=True), n)\n",
     "    return li_neg(n)\n",
     ["tests/test_route_independence.py"]),
    ("polylog.py",
     "    return RationalFunction(num, evaluate_packed(lambda x: (1 - x) ** (n + 1), 2 ** (n + 1), n + 2))\n",
     "    return li_neg(n)\n",
     ["tests/test_route_independence.py"]),
    ("circular.py",
     '    return substitute(odd_part(li_neg(n)) * (2 * I ** ((n - 1) % 4)), "half_angle")\n',
     "    return csc_derivative_eval.form(n)\n",
     ["tests/test_route_independence.py"]),
    ("circular.py",
     '    return substitute(odd_part(substitute(li_neg(n), "i_times_z")) * (2 * I ** ((n - 1) % 4)),\n'
     '                      "half_angle")\n',
     "    return sec_derivative_eval.form(n)\n",
     ["tests/test_route_independence.py"]),
    ("circular.py",
     "    p, shift = tan_derivative_poly(n).poly,",
     "    return csc_derivative_eval.form(n)\n    p, shift = tan_derivative_poly(n).poly,",
     ["tests/test_route_independence.py"]),
    ("ladder.py",
     '    return substitute(_ladder_rhs(n, 1) * (2 * I ** ((n - 1) % 4)), "half_angle")\n',
     "    from .circular import csc_derivative_eval\n    return csc_derivative_eval.form(n)\n",
     ["tests/test_route_independence.py"]),
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
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
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
