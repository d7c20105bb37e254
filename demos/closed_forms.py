#!/usr/bin/env python3
"""Tour of the exact closed forms.

Builds the rational closed forms of the polylogarithm at orders 0..-6, the
Legendre chi function, and the inverse tangent integral; prints them in
text, LaTeX and JSON; evaluates one at a complex point; and proves each
closed form equal to its defining power series, exactly.
"""

from negpolylog import (
    chi_from_li,
    chi_neg,
    defining_series_agree,
    li_neg,
    li_neg_operator,
    li_neg_stirling,
    rf_eval,
    rf_to_json,
    rf_to_latex,
    rf_to_text,
    ti_neg,
)

print("Polylogarithm closed forms at orders 0..-6")
print("(two independent constructions, compared exactly)\n")
for n in range(7):
    op = li_neg_operator(n)
    st = li_neg_stirling(n)
    marker = "==" if op == st else "!!"
    print(f"  Li[{-n}](z) = {rf_to_text(op)}   [operator {marker} stirling]")

print("\nLegendre chi and inverse tangent integral, orders 0..-4\n")
for n in range(5):
    print(f"  chi[{-n}](z) = {rf_to_text(chi_neg(n)):<45} Ti[{-n}](z) = {rf_to_text(ti_neg(n))}")

print("\nThe chi closed form equals the odd part of the polylogarithm:")
for n in (0, 3, 5):
    print(f"  n={n}: chi_from_li == chi_neg -> {chi_from_li(n) == chi_neg(n)}")

print("\nOther output formats for chi at order -2:")
print("  latex:", rf_to_latex(chi_neg(2)))
print("  json: ", rf_to_json(chi_neg(2)))

z = 0.35 + 0.4j
print(f"\nLi[-4] at z = {z}:", rf_eval(li_neg(4), z))
print("\nEach closed form equals its defining series (Li: sum k^n z^k; chi: odd k;")
print("Ti: odd k, alternating), proved exactly from its first coefficients:")
print("  orders 0..-15:", all(defining_series_agree(n) for n in range(16)))
