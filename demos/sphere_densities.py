#!/usr/bin/env python3
"""
Spectral densities for the built-in circle action on the two-sphere.
Both densities reduce to one radial integral per orbit, and for this
model the integral has a closed form in gamma functions, so we can show
the numeric pipeline (ODE flow transport plus adaptive quadrature)
reproducing it to near machine precision, and both densities settling
onto their finite limits as k grows.
"""
import math

from lapasym import builtin_sphere_model, density, density_series

sphere = builtin_sphere_model()

##################################################
# closed forms: J_k = sqrt(k) Gamma(k+1/2) / Gamma(k+1)
#               I_k = pi sqrt(2k) Gamma(k+1) / Gamma(k+3/2)

def j_closed(k):
    return math.sqrt(k) * math.exp(math.lgamma(k + 0.5) - math.lgamma(k + 1.0))

def i_closed(k):
    return math.pi * math.sqrt(2.0 * k) * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))

# one call per density for the whole k list: its k values share the flow solves
print("density values against closed forms:")
ks = (10.0, 100.0, 1000.0)
for k, i_num, j_num in zip(ks, density(sphere, "I", ks), density(sphere, "J", ks)):
    print(f"  k={k:>6g}  I={i_num:.12f}  (closed {i_closed(k):.12f})"
          f"  J={j_num:.12f}  (closed {j_closed(k):.12f})")

##################################################
# the corrected density J tends to 1; the uncorrected I misses its
# limit by the half-form weight and tends to 2**(-d/2) * vol instead

i_limit, j_limit = (density_series(sphere, kind, math.inf, order=0)
                    for kind in ("I", "J"))
print()
print(f"limits: I -> {i_limit:.12f} (= 2pi/sqrt(2)),  J -> {j_limit:.12f}")
ks = (100.0, 1000.0, 10000.0)
for k, j_num in zip(ks, density(sphere, "J", ks, tol=1e-8)):
    print(f"  k={k:>6g}  J/J_limit - 1 = {j_num / j_limit - 1.0: .3e}")

##################################################
# asymptotic series for the same quantities, evaluated at moderate k

k_mid = 200.0
i_series = density_series(sphere, "I", k=[k_mid], order=4)
j_series = density_series(sphere, "J", k=[k_mid], order=4)
print()
print(f"order-4 series at k={k_mid:g}:")
print(f"  I series={i_series[0]:.12f}  numeric={density(sphere, 'I', k_mid):.12f}")
print(f"  J series={j_series[0]:.12f}  numeric={density(sphere, 'J', k_mid):.12f}")
