"""Exception types shared across the package.

The taxonomy is deliberately small: bad mathematical input is a
:class:`DomainError`, structurally incompatible series are an
:class:`OrderMismatchError`, a model whose callables cannot run on
truncated series raises :class:`JetEvaluationError`, and a numeric
routine that cannot certify the requested tolerance raises
:class:`QuadratureError` carrying its best estimate.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Mathematically invalid input (pole, negative leading term, off-level point)."""


class OrderMismatchError(ValueError):
    """Two truncated series of different orders were combined additively."""


class JetEvaluationError(TypeError):
    """A model callable could not be evaluated on truncated-series arguments."""


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within budget.

    Attributes
    ----------
    reason : str
        What could not be certified.
    estimate : float
        Best value obtained before giving up.
    error_bound : float
        Estimated absolute error of ``estimate``.
    tol : float or None
        The tolerance that ``error_bound`` exceeds, when that is the
        refusal; the message then states both.
    """

    def __init__(self, reason: str, estimate: float, error_bound: float,
                 tol: float | None = None):
        super().__init__(reason if tol is None
                         else f"{reason} certified only {error_bound:.3g} > tol {tol:.3g}")
        self.reason = reason
        self.estimate = estimate
        self.error_bound = error_bound
        self.tol = tol
