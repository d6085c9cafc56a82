#!/usr/bin/env python3
"""
How fast does a truncated expansion converge, and where does float64 run
out?  The corrected density of the built-in sphere model has the exact
value sqrt(k) Gamma(k+1/2) / Gamma(k+1), so the truncation error of the
order-N series can be measured without any quadrature noise.  Each extra
even order buys one more factor of 1/k, which shows up as a steeper
log-log slope, until the remainder sinks below machine rounding of the
density itself.  Rows at that floor no longer carry slope information,
which is exactly why the CLI's verify command excludes them from its
fit.  Runs in a few seconds.
"""
import math
from fractions import Fraction

from lapasym import builtin_sphere_model, convergence_order_fit, density_series

sphere = builtin_sphere_model()


def j_exact(k):
    # integer k only: the gamma ratio collapses to a central binomial,
    # which big-integer arithmetic evaluates to full float precision
    # (lgamma differences lose ~1e-11 out here and would mask the study)
    n = int(k)
    return math.sqrt(k * math.pi) * float(Fraction(math.comb(2 * n, n), 4 ** n))


ks = [100.0, 400.0, 1600.0, 6400.0]

##################################################

for order in (0, 2, 4):
    series = density_series(sphere, "J", k=ks, order=order)
    errors = [abs(s - j_exact(k)) for s, k in zip(series, ks)]
    floor = 1e-14  # density is O(1); errors below this are rounding
    clean_ks = [k for k, e in zip(ks, errors) if e > floor]
    clean_errors = [e for e in errors if e > floor]
    line = "  ".join(f"{e:.2e}" for e in errors)
    if len(clean_errors) >= 3:
        slope = f"{convergence_order_fit(clean_ks, clean_errors):+.3f}"
    else:
        slope = "floor-limited"
    expected = -(order + 2) / 2 if order % 2 == 0 else -(order + 1) / 2
    print(f"order {order}:  errors [{line}]")
    print(f"          slope {slope}  (next omitted term predicts {expected:+.1f})")

##################################################
# the same study through the engine-level expansion of a flat model,
# where the phase is rho**2 + rho**4 exactly and errors can be driven
# further down before hitting the floor

from lapasym import (
    RadialProfile,
    expansion_series,
    numeric_laplace_integral,
    sphere_rule,
)

profile = RadialProfile(sphere_rule(1), [1, 0, 1, 0, 0], [1, 0, 0, 0, 0])
result = expansion_series(profile, 4)
print()
print("flat quartic phase, order 4:")
errors = []
for k in ks:
    oracle = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[0] ** 4, lambda p: 1.0, 1, k, tol=1e-13
    ).value
    err = abs(oracle - result.partial_sum(k))
    errors.append(err)
    print(f"  k={k:>6g}  |error|={err:.3e}")
print(f"  slope {convergence_order_fit(ks, errors):+.3f}  (predicts -3.5)")
