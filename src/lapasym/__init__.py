"""Asymptotic expansion toolkit for Laplace-type integrals with geometric weights.

The package splits into five layers.  :mod:`lapasym.bell` holds the exact
partition combinatorics (tables and cross-checks), :mod:`lapasym.jets`
the truncated power series and flow transport, :mod:`lapasym.engine` the
generic radial expansion and its numeric oracle, :mod:`lapasym.models`
the geometric layer (Hamiltonian models, coefficient routes, spectral
densities), and :mod:`lapasym.cli` the command line front end.  The names
re-exported here cover the common workflow: build or load a model,
expand, compare against quadrature.
"""

from __future__ import annotations

from .bell import (
    complete_bell,
    generalized_binomial,
    partial_bell,
    partition_tuples,
    series_power_coefficient,
)
from .engine import (
    ExpansionResult,
    RadialProfile,
    convergence_order_fit,
    expansion_coefficient,
    expansion_series,
    numeric_laplace_integral,
    sphere_rule,
)
from .errors import DomainError, JetEvaluationError, OrderMismatchError, QuadratureError
from .jets import (
    TruncatedSeries,
    compose_scalar,
    directional_derivative,
    exp_series,
    iterated_flow_derivatives,
    ode_jet_transport,
)
from .models import (
    HamiltonianModel,
    builtin_sphere_model,
    density,
    density_series,
    gaussian_test_model,
    geometric_expansion,
    j_a_numeric,
    jacobian_tau_check,
    leading_term_identity,
    load_model,
    quartic_test_model,
    radial_profile,
    resolve_model,
    zeta2_reference,
    zeta_geometric,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "OrderMismatchError",
    "JetEvaluationError",
    "QuadratureError",
    "partition_tuples",
    "partial_bell",
    "complete_bell",
    "series_power_coefficient",
    "generalized_binomial",
    "TruncatedSeries",
    "exp_series",
    "ode_jet_transport",
    "compose_scalar",
    "directional_derivative",
    "iterated_flow_derivatives",
    "RadialProfile",
    "ExpansionResult",
    "sphere_rule",
    "expansion_coefficient",
    "expansion_series",
    "numeric_laplace_integral",
    "convergence_order_fit",
    "HamiltonianModel",
    "builtin_sphere_model",
    "gaussian_test_model",
    "quartic_test_model",
    "radial_profile",
    "geometric_expansion",
    "zeta_geometric",
    "zeta2_reference",
    "leading_term_identity",
    "j_a_numeric",
    "density",
    "density_series",
    "jacobian_tau_check",
    "load_model",
    "resolve_model",
]
