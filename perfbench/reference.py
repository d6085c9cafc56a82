"""Exact references for every value the benchmark checks.

Nothing here imports lapasym.  Expansion coefficients come from the
one-dimensional Laplace method carried out in exact rational
arithmetic; integrals come from closed forms evaluated with mpmath.

One-dimensional Laplace method.  For a phase ``Phi(t) = sum_{p>=2}
Phi_p t^p`` with ``Phi_2 > 0`` and a weight ``W(t) = sum_q w_q t^q``,

    int exp(-k Phi(t)) W(t) dt  ~  sum_j zeta_j k^(-(j+1)/2).

Substituting ``t = s eps`` with ``eps = k^(-1/2)`` gives ``exp(-Phi_2
s^2)`` times a power series in ``eps`` whose coefficients ``P_j(s)`` are
polynomials in ``s``; then ``zeta_j = sum_n [s^n]P_j * Gamma((n+1)/2) *
Phi_2^(-(n+1)/2)`` over even ``n``.  Every such term is a rational
multiple of ``sqrt(pi / Phi_2)``, so ``zeta_j`` is returned as that
rational multiple.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath

mpmath.mp.dps = 40

Series = list  # list of Fraction, index = power


# ------------------------------------------------------------ exact series

def series_mul(a: Series, b: Series, order: int) -> Series:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def series_exp(h: Series, order: int) -> Series:
    """exp of a series with zero constant term, by ``u' = h' u``."""
    if h and h[0]:
        raise ValueError("series_exp needs a zero constant term")
    h = list(h) + [Fraction(0)] * (order + 1 - len(h))
    u = [Fraction(1)]
    for n in range(1, order + 1):
        u.append(sum(i * h[i] * u[n - i] for i in range(1, n + 1)) / n)
    return u


def series_log1p(h: Series, order: int) -> Series:
    """log(1 + h) for a series with zero constant term."""
    h = list(h) + [Fraction(0)] * (order + 1 - len(h))
    # (log u)' = u'/u with u = 1 + h: solve out_n by the triangular recursion
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = n * h[n] - sum(i * out[i] * h[n - i] for i in range(1, n))
        out[n] = acc / n
    return out


def series_integrate(a: Series, order: int) -> Series:
    out = [Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(a)]
    return (out + [Fraction(0)] * (order + 1))[: order + 1]


def poly_of_series(coeffs: Sequence[Fraction], x: Series, order: int) -> Series:
    """``sum_i coeffs[i] * x^i`` as a series, by Horner."""
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(coeffs):
        acc = series_mul(acc, x, order)
        acc[0] += c
    return acc


def flow_series(field: Sequence[Fraction], order: int) -> Series:
    """Taylor series of ``x' = field(x)``, ``x(0) = 0``, field a polynomial."""
    x = [Fraction(0)] * (order + 1)
    for n in range(order):
        rhs = poly_of_series(field, x, n)
        x[n + 1] = rhs[n] / (n + 1)
    return x


# ------------------------------------------------------------ Laplace method

def laplace_rationals(phase: Series, weight: Series, order: int) -> list[Fraction]:
    """Rationals ``R_j`` with ``zeta_j = R_j * sqrt(pi / Phi_2)``, j = 0..order.

    ``phase`` and ``weight`` are Taylor coefficients in ``t`` and must
    reach power ``order + 2`` and ``order`` respectively.
    """
    f0 = Fraction(phase[2])
    if not f0 > 0:
        raise ValueError("the phase must start with a positive t^2 term")
    # eps-series whose coefficient p is the polynomial -Phi_{p+2} s^{p+2}
    tail = [{}] + [{p + 2: -Fraction(phase[p + 2])} for p in range(1, order + 1)]
    exp_tail = [{0: Fraction(1)}]
    for n in range(1, order + 1):
        acc: dict = {}
        for i in range(1, n + 1):
            for di, ci in tail[i].items():
                for dj, cj in exp_tail[n - i].items():
                    acc[di + dj] = acc.get(di + dj, 0) + i * ci * cj
        exp_tail.append({d: c / n for d, c in acc.items() if c})
    out = []
    for j in range(order + 1):
        poly: dict = {}
        for q in range(j + 1):
            wq = Fraction(weight[q]) if q < len(weight) else Fraction(0)
            if not wq:
                continue
            for d, c in exp_tail[j - q].items():
                poly[d + q] = poly.get(d + q, 0) + wq * c
        total = Fraction(0)
        for n, c in poly.items():
            if n % 2 == 0:
                # Gamma((n+1)/2) / sqrt(pi) = (n-1)!! / 2^(n/2), times Phi_2^(-n/2)
                m = n // 2
                gamma_ratio = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
                total += c * gamma_ratio / f0 ** m
        out.append(total)
    return out


def to_mpf(rational: Fraction) -> mpmath.mpf:
    return mpmath.mpf(rational.numerator) / rational.denominator


def laplace_coefficients(phase: Series, weight: Series, order: int) -> list:
    """``zeta_0..zeta_order`` of the 1-d Laplace expansion, as mpf."""
    scale = mpmath.sqrt(mpmath.pi / to_mpf(Fraction(phase[2])))
    return [to_mpf(r) * scale for r in laplace_rationals(phase, weight, order)]


def cauchy_power(series: Sequence[Sequence], order: int) -> list:
    """Cauchy product of several coefficient lists, truncated."""
    out = [mpmath.mpf(1)] + [mpmath.mpf(0)] * order
    for s in series:
        nxt = [mpmath.mpf(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                nxt[i + j] += out[i] * s[j]
        out = nxt
    return out


# ------------------------------------------------------------ model families

def rational_line_coefficients(phi: Sequence[Fraction], field: Sequence[Fraction],
                               lap: Sequence[Fraction], half_form: Fraction,
                               order: int) -> list:
    """Coefficients for a d = 1 model with polynomial data.

    The model is ``phi = w0 p(x0)``, ``flow = w0 q(x0)``, ``laplacian =
    w0 r(x0)`` with zero point 0; the list arguments are the polynomial
    coefficients of ``p``, ``q`` and ``r`` in ascending powers.
    """
    n = order + 3
    x = flow_series(field, n)
    phase = [2 * c for c in series_integrate(poly_of_series(phi, x, n), n)]
    log_weight = series_integrate(poly_of_series(lap, x, n), n)
    weight = series_exp([half_form * c for c in log_weight], n)
    return laplace_coefficients(phase, weight, order)


def _log_cosh(order: int) -> Series:
    cosh = [Fraction(1, math.factorial(i)) if i % 2 == 0 else Fraction(0)
            for i in range(order + 1)]
    return series_log1p([Fraction(0)] + cosh[1:], order)


def unit_sphere_coefficients(half_form: Fraction, order: int) -> list:
    """Coefficients of the circle action on S^2 with period-one generator.

    Along the flow, ``z = tanh(2 pi t)``, the phase is ``2 log cosh(2 pi
    t)`` and the weight ``cosh(2 pi t)^(-2a)``; after ``u = 2 pi t`` the
    Laplace data are rational and a factor ``1 / (2 pi)`` remains.
    """
    n = order + 3
    lc = _log_cosh(n)
    phase = [2 * c for c in lc]
    weight = series_exp([-2 * Fraction(half_form) * c for c in lc], n)
    return [c / (2 * mpmath.pi) for c in laplace_coefficients(phase, weight, order)]


def sphere_product_coefficients(scales: Sequence[Fraction], half_form: Fraction,
                                order: int) -> list:
    """T^d on (S^2)^d with generator scales c_i: Cauchy power over prod c_i."""
    one = unit_sphere_coefficients(half_form, order)
    out = cauchy_power([one] * len(scales), order)
    volume = math.prod(to_mpf(Fraction(c)) for c in scales)
    return [c / volume for c in out]


def flat_coefficients(axes: Sequence[Fraction], order: int) -> list:
    """Flat model with axis factors s_i: pi^(d/2) / prod s_i, then zeros."""
    lead = mpmath.pi ** (mpmath.mpf(len(axes)) / 2) / math.prod(
        to_mpf(Fraction(s)) for s in axes)
    return [lead] + [mpmath.mpf(0)] * order


# ------------------------------------------------------------ exact integrals

def unit_sphere_integral(half_form: Fraction, k: float) -> mpmath.mpf:
    """j_a(k) of the unit sphere: Beta(1/2, k + a) / (2 pi)."""
    z = mpmath.mpf(k) + to_mpf(Fraction(half_form))
    return mpmath.sqrt(mpmath.pi) * mpmath.gamma(z) / mpmath.gamma(z + 0.5) / (2 * mpmath.pi)


def sphere_product_integral(scales, half_form, k) -> mpmath.mpf:
    one = unit_sphere_integral(half_form, k)
    return one ** len(scales) / math.prod(to_mpf(Fraction(c)) for c in scales)


def flat_integral(axes, k) -> mpmath.mpf:
    d = len(axes)
    return (mpmath.pi / mpmath.mpf(k)) ** (mpmath.mpf(d) / 2) / math.prod(
        to_mpf(Fraction(s)) for s in axes)


def quartic_integral(k: float) -> mpmath.mpf:
    """int exp(-k (t^2 + t^4)) dt = exp(k/8) K_{1/4}(k/8) / 2."""
    x = mpmath.mpf(k) / 8
    return mpmath.exp(x) * mpmath.besselk(mpmath.mpf(1) / 4, x) / 2


def tilted_line_integral(half_form: Fraction, k: float) -> mpmath.mpf:
    """The README's tilted-line model, integrated over its whole flow line.

    The flow ``x' = 1 + 6 x^2`` reaches infinity in finite time, so in
    the coordinate ``x`` the integral is ``int exp(-k (x^2/3 + log(1 +
    6 x^2)/9)) (1 + 6 x^2)^(a - 1) dx`` over the real line.
    """
    a = to_mpf(Fraction(half_form))
    kk = mpmath.mpf(k)

    def integrand(x):
        g = 1 + 6 * x * x
        return mpmath.exp(-kk * x * x / 3) * g ** (a - 1 - kk / 9)

    return mpmath.quad(integrand, [-mpmath.inf, 0, mpmath.inf])


def partial_sum(coefficients: Sequence, dim: int, k: float) -> mpmath.mpf:
    kk = mpmath.mpf(k)
    return mpmath.fsum(c * kk ** (-mpmath.mpf(j + dim) / 2)
                       for j, c in enumerate(coefficients))
