"""Asymptotic expansion toolkit for Laplace-type integrals with geometric weights.

The package splits into seven layers.  :mod:`lapasym.jets` holds the
truncated power series and flow transport, :mod:`lapasym.engine` the
generic radial expansion, :mod:`lapasym.models` the geometric layer
(Hamiltonian models, the series route, the series densities),
:mod:`lapasym.oracle` the independent numeric oracle (flows and
quadrature, with the integrators of :mod:`lapasym.integrators`),
:mod:`lapasym.crosscheck` the independent coefficient routes,
:mod:`lapasym.bell` the exact partition combinatorics they and
``bell-table`` use, and :mod:`lapasym.cli` the command line front end.
The names re-exported here cover the common workflow: build or load a
model, expand, compare against quadrature.  Each resolves on first use,
by importing its layer then, so ``import lapasym`` loads no numpy and
``lapasym bell-table`` loads only the Bell layer.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["DomainError", "OrderMismatchError", "JetEvaluationError",
                     "QuadratureError"], "errors"),
    **dict.fromkeys(["partitions", "partial_bell", "complete_bell",
                     "series_power_coefficient", "generalized_binomial"], "bell"),
    **dict.fromkeys(["TruncatedSeries", "exp_series", "ode_jet_transport"], "jets"),
    **dict.fromkeys(["RadialProfile", "ExpansionResult", "sphere_rule",
                     "expansion_coefficient", "expansion_series"], "engine"),
    **dict.fromkeys(["HamiltonianModel", "builtin_sphere_model", "gaussian_test_model",
                     "quartic_test_model", "radial_profile", "geometric_expansion",
                     "density_series", "load_model", "resolve_model"], "models"),
    **dict.fromkeys(["numeric_laplace_integral", "convergence_order_fit", "j_a_numeric",
                     "density", "jacobian_tau_check"], "oracle"),
    **dict.fromkeys(["directional_derivative", "iterated_flow_derivatives",
                     "zeta_geometric", "zeta2_reference", "leading_term_identity"],
                    "crosscheck"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
