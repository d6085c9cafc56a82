#!/usr/bin/env python3
"""
Smallest complete tour of the expansion engine.  We take the scalar phase
f(rho) = rho**2 + rho**4 on the line with unit amplitude, ask for the
large-k expansion of the integral of exp(-k*f), and compare truncations
against adaptive quadrature.  Every coefficient of this example is also
known in closed form, so the printed table doubles as a sanity check:
the coefficient of k**(-(2n+1)/2) is (-1)**n * Gamma(2n + 1/2) / n!.
"""
import math

from lapasym import (
    RadialProfile,
    convergence_order_fit,
    expansion_series,
    numeric_laplace_integral,
    sphere_rule,
)

##################################################

rule = sphere_rule(1)
order = 6
# reduced radial phase 1 + rho**2: one entry per power, each a number that
# the direction 1 holds; the mirrored direction -1 takes its data from it
phase = [1, 0, 1, 0, 0, 0, 0]
amplitude = [1, 0, 0, 0, 0, 0, 0]
profile = RadialProfile(rule, phase, amplitude)

# the phase is quadratic at the origin and the dimension (1) comes from
# the rule, so the order is all there is to ask for
result = expansion_series(profile, order)

print("coefficients of k**(-exponent):")
for j, (c, e) in enumerate(zip(result.coefficients, result.exponents)):
    closed = 0.0
    if j % 2 == 0:
        n = j // 2
        closed = (-1) ** n * math.gamma(2 * n + 0.5) / math.factorial(n)
    print(f"  j={j}  exponent={e}  coefficient={c: .15g}  closed-form={closed: .15g}")

##################################################

print()
print("truncation error against adaptive quadrature:")
ks = [100.0, 1000.0, 10000.0]
errors = []
for k in ks:
    oracle = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[0] ** 4, lambda p: 1.0, 1, k, tol=1e-13
    )
    err = abs(oracle.value - result.partial_sum(k))
    errors.append(err)
    print(f"  k={k:>7g}  quadrature={oracle.value:.15g}  |error|={err:.3e}")

slope = convergence_order_fit(ks, errors)
print(f"fitted log-log slope: {slope:.3f}  (next omitted term predicts -9/2)")
