"""Generic asymptotic expansion engine for Laplace-type integrals.

The engine computes the coefficients of the large-parameter expansion

    integral over a ball in R**d of  exp(-k * phase) * amplitude
        ~  sum_j  c_j * k ** (-(j + d) / 2)

from radial data on the unit sphere: for each direction the phase is
``rho ** 2 * (f0 + f1 rho + ...)`` with ``f0 > 0`` (a nondegenerate
quadratic minimum) and the amplitude is ``g0 + g1 rho + ...``; ``d`` is
the dimension of the profile's sphere rule.  Coefficient ``j`` is
assembled per direction as the ``t**j`` coefficient of the jet product
``g * (1 + u) ** (-(j + d) / 2)`` with ``u = (f - f0) / f0``, the
rational power taken by the series recurrence of :mod:`.jets`, and
integrated with an antipodally symmetric quadrature rule.

Everything downstream of the per-direction radial data is exact
rational arithmetic when the data is rational and ``mode="exact"``;
only the direction weights, the gamma factor, and the fractional power
of ``f0`` are evaluated in floating point, in a fixed reduction order
(compensated summation over directions), so results are reproducible
bit-for-bit across runs and schedulings.

The numeric cross-check :func:`numeric_laplace_integral` evaluates the
same integral by adaptive quadrature (QUADPACK radially, tensor grids
in the angles, Monte Carlo above three dimensions).  It shares no code
with the coefficient path apart from evaluating the user's callables,
which is what makes it usable as an independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, QuadratureError
from .jets import TruncatedSeries

__all__ = [
    "GammaValue",
    "half_integer_gamma",
    "gamma_value",
    "SphereRule",
    "sphere_rule",
    "sphere_area",
    "RadialProfile",
    "ExpansionResult",
    "expansion_coefficient",
    "expansion_series",
    "partial_sum",
    "IntegralEstimate",
    "numeric_laplace_integral",
    "convergence_order_fit",
]


# ---------------------------------------------------------------- gamma

@dataclass(frozen=True)
class GammaValue:
    """Exact gamma value ``rational * sqrt(pi) ** (1 if sqrt_pi else 0)``."""

    rational: Fraction
    sqrt_pi: bool

    def __float__(self) -> float:
        value = float(self.rational)
        return value * math.sqrt(math.pi) if self.sqrt_pi else value


def half_integer_gamma(q: Fraction | int) -> GammaValue:
    """Exact ``Gamma(q)`` for positive integer or half-integer ``q``.

    Integer ``q`` gives a plain factorial; ``q = m + 1/2`` gives
    ``(2m)! / (4**m m!) * sqrt(pi)``.  Nonpositive arguments and other
    denominators are rejected.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"gamma pole or nonpositive argument: {q}")
    if q.denominator == 1:
        return GammaValue(Fraction(math.factorial(q.numerator - 1)), False)
    if q.denominator == 2:
        m = (q.numerator - 1) // 2
        rational = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
        return GammaValue(rational, True)
    raise DomainError(f"{q} is not an integer or half-integer")


def gamma_value(q: Fraction | float) -> float:
    """Float ``Gamma(q)``, exact through :func:`half_integer_gamma` when possible."""
    if isinstance(q, (Fraction, int)):
        q = Fraction(q)
        if q.denominator in (1, 2):
            return float(half_integer_gamma(q))
        q = float(q)
    if q <= 0 and q == int(q):
        raise DomainError(f"gamma pole at {q}")
    return math.gamma(q)


# ---------------------------------------------------------------- sphere rules

@dataclass(frozen=True, eq=False)
class SphereRule:
    """Quadrature nodes and weights on the unit sphere ``S**(dim-1)``.

    Nodes are rows of ``nodes``; weights sum to the sphere area.  All
    deterministic rules are antipodally symmetric (the node set is
    closed under negation), which is what makes odd coefficients cancel
    to rounding.  ``stochastic`` marks Monte Carlo rules.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    stochastic: bool = False

    def __len__(self) -> int:
        return len(self.weights)


def sphere_area(dim: int) -> float:
    """Surface area of ``S**(dim-1)``; the 0-sphere carries counting measure 2."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_value(Fraction(dim, 2))


def sphere_rule(dim: int, resolution: int = 32) -> SphereRule:
    """Antipodally symmetric quadrature on ``S**(dim-1)``.

    dim 1 is the two-point set {+1, -1} with unit weights (resolution is
    ignored); dim 2 is the uniform trapezoid rule with an even number of
    angles (spectrally accurate, odd counts rejected); dim 3 combines
    Gauss-Legendre in the polar cosine with a uniform even azimuth.
    Higher dimensions fall back to antithetic Monte Carlo with a fixed
    seed; the standard error is reported through the expansion result.
    """
    if dim < 1:
        raise DomainError("sphere dimension must be >= 1")
    if dim == 1:
        nodes = np.array([[1.0], [-1.0]])
        return SphereRule(1, nodes, np.array([1.0, 1.0]))
    if dim == 2:
        if resolution < 4 or resolution % 2:
            raise DomainError(
                "circle rule needs an even node count >= 4 for antipodal symmetry"
            )
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(resolution, 2.0 * math.pi / resolution)
        return SphereRule(2, nodes, weights)
    if dim == 3:
        if resolution < 2:
            raise DomainError("polar resolution must be >= 2")
        x, w = np.polynomial.legendre.leggauss(resolution)
        m = 2 * resolution
        phi = 2.0 * math.pi * np.arange(m) / m
        sin_t = np.sqrt(1.0 - x ** 2)
        nodes = np.empty((resolution * m, 3))
        weights = np.empty(resolution * m)
        row = 0
        for i in range(resolution):
            for j in range(m):
                nodes[row] = (
                    sin_t[i] * math.cos(phi[j]),
                    sin_t[i] * math.sin(phi[j]),
                    x[i],
                )
                weights[row] = w[i] * 2.0 * math.pi / m
                row += 1
        return SphereRule(3, nodes, weights)
    n = max(32, resolution + resolution % 2)
    rng = np.random.default_rng(0x5EED + dim)
    half = rng.standard_normal((n // 2, dim))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    nodes = np.concatenate([half, -half])
    weights = np.full(n, sphere_area(dim) / n)
    return SphereRule(dim, nodes, weights, stochastic=True)


# ---------------------------------------------------------------- radial data

# odd coefficients below this share of the largest one count as vanished
_ODD_TOLERANCE = 1e-12


class RadialProfile:
    """Per-direction radial coefficients of phase and amplitude.

    ``phase_coefficients[i]`` lists ``f0, f1, ...`` for direction ``i``
    of the attached rule, ``amplitude_coefficients[i]`` lists
    ``g0, g1, ...``.  Leading phase coefficients must be positive.
    """

    def __init__(
        self,
        rule: SphereRule,
        phase_coefficients: Sequence[Sequence[Any]],
        amplitude_coefficients: Sequence[Sequence[Any]],
    ):
        if len(phase_coefficients) != len(rule) or len(amplitude_coefficients) != len(rule):
            raise DomainError("coefficient tables must match the rule's node count")
        self.rule = rule
        self.phase_coefficients = tuple(tuple(c) for c in phase_coefficients)
        self.amplitude_coefficients = tuple(tuple(c) for c in amplitude_coefficients)
        for coeffs in self.phase_coefficients:
            if not coeffs or not float(coeffs[0]) > 0.0:
                raise DomainError("leading radial phase coefficient must be positive")

    @property
    def order(self) -> int:
        return min(
            min(len(c) for c in self.phase_coefficients),
            min(len(c) for c in self.amplitude_coefficients),
        ) - 1


@dataclass(frozen=True)
class ExpansionResult:
    """Computed expansion coefficients with their decay exponents."""

    coefficients: tuple[float, ...]
    exponents: tuple[Fraction, ...]
    odd_vanished: tuple[bool, ...]
    coefficient_errors: tuple[float, ...] | None = None

    def partial_sum(self, k: float) -> float:
        return partial_sum(self, k)


def _inner_bracket(j: int, exponent: Fraction, f: Sequence[Any], g: Sequence[Any]) -> Any:
    # [t**j] of g * (1 + u) ** (-exponent), u = (f - f0) / f0
    u = TruncatedSeries([0, *f[1:j + 1]], order=j) / f[0]
    return (TruncatedSeries(g[: j + 1]) * (1 + u) ** -exponent).coefficient(j)


def _exponent(j: int, profile: RadialProfile) -> Fraction:
    return Fraction(j + profile.rule.dim, 2)


def _direction_values(j: int, profile: RadialProfile, mode: str) -> list[float]:
    # per direction: f0 ** (-exponent) times the inner bracket, as a float
    if mode not in ("float", "exact"):
        raise DomainError(f"unknown arithmetic mode {mode!r}")
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    if j > profile.order:
        raise DomainError(
            f"profile provides radial data to order {profile.order}, need {j}"
        )
    exponent = _exponent(j, profile)
    values = []
    for f, g in zip(profile.phase_coefficients, profile.amplitude_coefficients):
        if mode == "float":
            f = [float(v) for v in f]
            g = [float(v) for v in g]
        bracket = _inner_bracket(j, exponent, f, g)
        f0 = f[0]
        if exponent.denominator == 1 and not isinstance(f0, float):
            values.append(float(bracket * f0 ** (-exponent.numerator)))
        else:
            values.append(float(bracket) * float(f0) ** float(-exponent))
    return values


def _prefactor(j: int, profile: RadialProfile) -> float:
    return gamma_value(_exponent(j, profile)) / 2


def _coefficient(j: int, profile: RadialProfile, values: Sequence[float]) -> float:
    return _prefactor(j, profile) * math.fsum(
        w * v for w, v in zip(profile.rule.weights, values)
    )


def expansion_coefficient(j: int, profile: RadialProfile, mode: str = "float") -> float:
    """Coefficient of ``k ** (-(j + d) / 2)``, ``d`` the rule's dimension.

    Per direction: ``f0 ** (-(j + d) / 2)`` times the ``t**j``
    coefficient of the amplitude series times the power of the phase
    perturbation, then the quadrature average and the gamma prefactor
    ``Gamma((j + d) / 2) / 2``.  ``mode`` is ``"float"`` or ``"exact"``
    (rational arithmetic up to the per-direction value).
    """
    return _coefficient(j, profile, _direction_values(j, profile, mode))


def expansion_series(
    profile: RadialProfile, order: int, mode: str = "float"
) -> ExpansionResult:
    """All coefficients ``0..order`` plus vanished-odd flags.

    Odd-index coefficients of antipodally equivariant data cancel
    within the symmetric rule; they are flagged (not dropped) when
    smaller than ``1e-12`` times the largest coefficient.  On a Monte
    Carlo rule each coefficient also carries the standard error of its
    equal-weight direction average, from the same direction values.
    """
    if order < 0:
        raise DomainError("expansion order must be nonnegative")
    values = [_direction_values(j, profile, mode) for j in range(order + 1)]
    coeffs = [_coefficient(j, profile, vals) for j, vals in enumerate(values)]
    scale = max((abs(c) for c in coeffs), default=0.0) or 1.0
    flags = [bool(j % 2 and abs(c) <= _ODD_TOLERANCE * scale) for j, c in enumerate(coeffs)]
    errors = None
    if profile.rule.stochastic:
        area = float(np.sum(profile.rule.weights))
        errors = tuple(
            _prefactor(j, profile)
            * (area * float(np.std(vals, ddof=1)) / math.sqrt(len(vals)))
            for j, vals in enumerate(values)
        )
    exponents = tuple(_exponent(j, profile) for j in range(order + 1))
    return ExpansionResult(tuple(coeffs), exponents, tuple(flags), errors)


def partial_sum(result: ExpansionResult, k: float) -> float:
    """Truncated asymptotic sum ``sum_j c_j k**(-e_j)`` at parameter ``k``."""
    if not k > 0:
        raise DomainError("asymptotic parameter k must be positive")
    return math.fsum(
        c * float(k) ** float(-e)
        for c, e in zip(result.coefficients, result.exponents)
    )


# ---------------------------------------------------------------- numeric oracle

class IntegralEstimate(NamedTuple):
    value: float
    error_bound: float


def _radial_quad(fn, upper: float, tol: float) -> tuple[float, float]:
    # scipy is imported by the oracle only: it dominates the CLI's start-up
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            fn, 0.0, upper, epsabs=tol, epsrel=2e-14, limit=400
        )
    return value, err


def numeric_laplace_integral(
    phase: Callable[[Sequence[float]], float],
    amplitude: Callable[[Sequence[float]], float],
    dim: int,
    k: float,
    tol: float = 1e-10,
    radius: float = 1.0,
) -> IntegralEstimate:
    """Adaptive evaluation of ``integral exp(-k phase(x)) amplitude(x) dx``.

    The ball of the given radius (``math.inf`` extends to all of space,
    for closed-form comparisons) is integrated in polar form: QUADPACK
    in the radius, tensor grids in the angles refined until stable, and
    antithetic Monte Carlo above three dimensions.  Independent of the
    series engine by construction.  Raises
    :class:`~lapasym.errors.QuadratureError` (carrying the best
    estimate and its bound) when the tolerance cannot be certified.
    """
    if dim < 1:
        raise DomainError("integration dimension must be >= 1")
    if not k > 0:
        raise DomainError("asymptotic parameter k must be positive")
    if not tol > 0 or not radius > 0:
        raise DomainError("tolerance and radius must be positive")

    if dim == 1:
        from scipy.integrate import IntegrationWarning, quad

        def integrand(x: float) -> float:
            return math.exp(-k * phase((x,))) * amplitude((x,))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            if math.isinf(radius):
                value, err = quad(integrand, -np.inf, np.inf,
                                  epsabs=tol / 2, epsrel=2e-14, limit=400)
            else:
                value, err = quad(integrand, -radius, radius, points=[0.0],
                                  epsabs=tol / 2, epsrel=2e-14, limit=400)
        if err > tol:
            raise QuadratureError(
                f"radial quadrature certified only {err:.3g} > tol {tol:.3g}",
                value, err,
            )
        return IntegralEstimate(value, err)

    if dim in (2, 3):
        # own angular grids (midpoint offsets), deliberately not sphere_rule's
        def directional(node: tuple[float, ...]) -> tuple[float, float]:
            def along(rho: float) -> float:
                point = tuple(rho * c for c in node)
                return math.exp(-k * phase(point)) * amplitude(point) * rho ** (dim - 1)

            upper = radius if not math.isinf(radius) else _laplace_cutoff(along)
            return _radial_quad(along, upper, tol / (8.0 * sphere_area(dim)))

        def angular_pass(n: int) -> tuple[float, float]:
            pairs: list[tuple[tuple[float, ...], float]] = []
            if dim == 2:
                for i in range(n):
                    t = 2.0 * math.pi * (i + 0.5) / n
                    pairs.append(((math.cos(t), math.sin(t)), 2.0 * math.pi / n))
            else:
                x, w = np.polynomial.legendre.leggauss(n)
                for i in range(n):
                    st = math.sqrt(max(0.0, 1.0 - float(x[i]) ** 2))
                    for q in range(2 * n):
                        t = 2.0 * math.pi * (q + 0.5) / (2 * n)
                        pairs.append((
                            (st * math.cos(t), st * math.sin(t), float(x[i])),
                            float(w[i]) * math.pi / n,
                        ))
            vals = []
            rerr = 0.0
            for node, weight in pairs:
                v, e = directional(node)
                vals.append(weight * v)
                rerr += weight * e
            return math.fsum(vals), rerr

        previous = None
        n = 8
        budget = 512 if dim == 2 else 64
        while n <= budget:
            estimate, radial_err = angular_pass(n)
            if previous is not None:
                bound = abs(estimate - previous) + radial_err
                if bound <= tol:
                    return IntegralEstimate(estimate, bound)
            previous = estimate
            n *= 2
        raise QuadratureError(
            "angular refinement exhausted its budget",
            previous if previous is not None else math.nan,
            math.inf,
        )

    # dim > 3: antithetic Monte Carlo over the ball
    if math.isinf(radius):
        raise DomainError("infinite radius is only supported for dim <= 3")
    rng = np.random.default_rng(0xBA11 + dim)
    volume = sphere_area(dim) / dim * radius ** dim
    count = 0
    acc = acc_sq = 0.0
    estimate = se = math.inf
    batch = 4096
    total_budget = 1 << 17
    while count < total_budget:
        direction = rng.standard_normal((batch // 2, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = radius * rng.random(batch // 2) ** (1.0 / dim)
        points = direction * radii[:, None]
        for sign in (1.0, -1.0):
            for row in points:
                p = tuple(sign * row)
                v = math.exp(-k * phase(p)) * amplitude(p)
                acc += v
                acc_sq += v * v
                count += 1
        mean = acc / count
        estimate = volume * mean
        variance = max(0.0, (acc_sq - count * mean * mean) / (count - 1))
        se = volume * math.sqrt(variance / count)
        if 3.0 * se <= tol:
            return IntegralEstimate(estimate, 3.0 * se)
    raise QuadratureError(
        f"Monte Carlo stalled at standard error {se:.3g}", estimate, 3.0 * se
    )


def _laplace_cutoff(along: Callable[[float], float]) -> float:
    # crude radius beyond which the integrand is negligible, for radius=inf
    rho = 1.0
    while along(rho) > 1e-300 and rho < 1e6:
        rho *= 2.0
    return rho


def convergence_order_fit(ks: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of ``log error`` against ``log k``.

    Needs at least three strictly positive samples; errors at the
    rounding floor should be excluded by the caller before fitting.
    """
    if len(ks) != len(errors) or len(ks) < 3:
        raise DomainError("need at least three (k, error) samples")
    if any(not k > 0 for k in ks) or any(not e > 0 for e in errors):
        raise DomainError("fit samples must be strictly positive")
    slope, _ = np.polyfit(np.log(np.asarray(ks, dtype=float)),
                          np.log(np.asarray(errors, dtype=float)), 1)
    return float(slope)
