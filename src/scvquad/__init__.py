"""Stratified control-variates quadrature on the unit cube.

Randomized numerical integration with per-subcube polynomial control
variates and stratified residual sampling, the classical comparison
methods sharing the same interpolant, and a statistics layer that
measures the error achieved at a prescribed confidence level.
"""

from .estimators import (
    BudgetError,
    EstimateRun,
    EstimatorConfig,
    Method,
    run,
)
from .grid import poly_dim, regular_nodes, shifted_nodes, subcube_indices
from .interp import UnisolvenceError
from .stats import (
    ErrorSample,
    fit_rate,
    histogram,
    prob_error,
    replicate,
    tail_fraction,
    verify_hoeffding_p,
    verify_mz,
)
from .testbed import BumpSpec, Integrand, bump, corner_bump, random_poly, test_function_2d

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "BumpSpec",
    "ErrorSample",
    "EstimateRun",
    "EstimatorConfig",
    "Integrand",
    "Method",
    "UnisolvenceError",
    "bump",
    "corner_bump",
    "fit_rate",
    "histogram",
    "poly_dim",
    "prob_error",
    "random_poly",
    "regular_nodes",
    "replicate",
    "run",
    "shifted_nodes",
    "subcube_indices",
    "tail_fraction",
    "test_function_2d",
    "verify_hoeffding_p",
    "verify_mz",
]
