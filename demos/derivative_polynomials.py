#!/usr/bin/env python3
"""Derivative polynomials for cot, tan, coth and tanh.

The n-th derivative of each of these functions is a polynomial in the
function's own value.  Two constructions are compared exactly: the
Gaussian-arithmetic expansion of the closed sums, and the classical
symbolic recurrence P_{n+1} = m(u) P_n'.
"""

import math

from negpolylog import (
    cot_derivative_poly,
    coth_derivative_poly,
    derivative_poly_recurrence,
    nth_derivative,
    poly_text,
    tan_derivative_poly,
    tanh_derivative_poly,
)

print("cot: (d/dx)^n cot x = P_n(cot x)")
for n in range(1, 6):
    p = cot_derivative_poly(n)
    same = p.poly == derivative_poly_recurrence("cot", n).poly
    print(f"  P_{n}(u) = {poly_text(p.poly, var='u'):<40} [matches recurrence: {same}]")

print("\ntan: (d/dx)^n tan x = P_n(tan x)")
for n in range(1, 6):
    print(f"  P_{n}(u) = {poly_text(tan_derivative_poly(n).poly, var='u')}")

print("\ncoth and tanh share one family (both solve f' = 1 - f^2):")
for n in range(1, 6):
    same = coth_derivative_poly(n).poly == tanh_derivative_poly(n).poly
    print(f"  P_{n}(u) = {poly_text(coth_derivative_poly(n).poly, var='u'):<40} [coth == tanh: {same}]")

x = 0.8
n = 5
p = tan_derivative_poly(n)
print(f"\nEvaluating P_{n}(tan {x}) against the Taylor-jet oracle:")
print("  polynomial route:", p(math.tan(x)))
print("  jet oracle:      ", nth_derivative("tan", x, n))
