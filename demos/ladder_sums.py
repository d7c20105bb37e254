#!/usr/bin/env python3
"""The ladder-like sum: two polylogarithms of one order from all lower orders.

The sum S_n(z) = sum_k c_k Li[-k](z) is built once, in z, and mapped to z^2
and -z^2 by exact argument substitution, so every relation here is verified
exactly in the rational-function layer and holds at every z.  The Leibniz
route at the end evaluates S_n exactly at exp(2ix) and rounds once.
"""

from negpolylog import (
    chi_ladder,
    ladder_coefficients,
    leibniz_csc_route,
    nth_derivative,
    ti_ladder,
    verify_ladder_exact,
    verify_ladder_sec_variant,
)

print("Li[-n](z) - Li[-n](-z) = (2/z) sum_k c_k Li[-k](z^2)\n")
for n in range(7):
    c = ladder_coefficients(n).coefficients
    terms = " + ".join(f"({ck})Li[{-k}](z^2)" for k, ck in enumerate(c))
    print(f"  n={n}: coefficients {list(c)}")
    print(f"        RHS = (2/z) [ {terms} ]")
    print(f"        exact: {verify_ladder_exact(n)}")

print("\nchi and Ti restatements, exact for n = 0..10:")
print("  chi:", all(chi_ladder(n) for n in range(11)))
print("  Ti: ", all(ti_ladder(n) for n in range(11)))

print("\nRotated variant Li[-n](iz) - Li[-n](-iz), exact for n = 0..10:")
print(" ", all(verify_ladder_sec_variant(n) for n in range(11)))

x, n = 1.3, 5
print(f"\nThe Leibniz expansion doubles as a csc-derivative route (n={n}, x={x}):")
print("  ladder route:", leibniz_csc_route(n, x))
print("  jet oracle:  ", nth_derivative("csc", x, n))
