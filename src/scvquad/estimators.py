"""The four quadrature methods.

Stratified control variates (SCV) interpolates the integrand on every
subcube of the m-grid, integrates those patches exactly, and corrects each
patch mean with a handful of uniform residual samples drawn inside the
same subcube.  Classical control variates (CV) uses the identical
piecewise interpolant but samples the residual iid over the whole cube;
CV+MoM replaces the residual mean by a median of group means; plain
stratified sampling completes the line-up.

Reproducibility contract: each invocation consumes a single counter-based
stream derived from its 64-bit seed.  The draw order is fixed (shift
first, then one batched sample block), subcubes are traversed in
lexicographic index order, and the outer accumulation over the m^d cells
uses exact compensated summation, so identical (config, seed) pairs give
bit-identical values regardless of how many worker threads run other
invocations concurrently.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .grid import poly_dim, regular_nodes, shifted_nodes, subcube_indices
from .interp import LocalInterpolator
from .testbed import Integrand

__all__ = [
    "Method",
    "DETERMINISTIC",
    "SHIFTED",
    "BudgetError",
    "EstimatorConfig",
    "EstimateRun",
    "run",
]

DETERMINISTIC = "deterministic"
SHIFTED = "shifted"
_MODES = (DETERMINISTIC, SHIFTED)

_MAX_SEED = 2**64


class Method(str, Enum):
    SCV = "scv"
    CV = "cv"
    CV_MOM = "cv_mom"
    STRAT = "strat"


class BudgetError(ValueError):
    """Configuration cannot meet its sampling budget."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters of one estimator invocation.

    `k` is the number of median-of-means groups and only matters for
    CV_MOM.  The dimension is not stored here; it comes from the integrand.
    """

    method: Method
    s: int
    m: int
    k: int = 11
    interpolation_mode: str = DETERMINISTIC
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        if self.s < 1:
            raise ValueError(f"need s >= 1, got s={self.s}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got m={self.m}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")
        if self.interpolation_mode not in _MODES:
            raise ValueError(
                f"interpolation_mode must be one of {_MODES}, got {self.interpolation_mode!r}"
            )
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def budget(self, d: int) -> int:
        """Exact number of integrand evaluations the method will spend.

        SCV and CV: n0*m^d node evaluations plus n0*m^d residual samples.
        CV_MOM: node evaluations plus k*floor(n0*m^d / k) residual samples.
        STRAT: m^d.
        """
        md = self.m**d
        if self.method is Method.STRAT:
            return md
        n0 = poly_dim(self.s, d)
        if self.method is Method.CV_MOM:
            n1 = (n0 * md) // self.k
            if n1 < 1:
                raise BudgetError(
                    f"median-of-means needs n0*m^d >= k residual samples, "
                    f"got {n0}*{md} < {self.k}"
                )
            return n0 * md + self.k * n1
        return 2 * n0 * md


@dataclass(frozen=True)
class EstimateRun:
    """One realization of an estimator: its value and what it cost."""

    value: float
    evals: int


def _stream(seed: int) -> np.random.Generator:
    """Counter-based generator for one invocation; seeds index independent streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _mapped_nodes(nodes: np.ndarray, offsets: np.ndarray, m: int) -> np.ndarray:
    """Every cell's nodes in global coordinates: cells in lexicographic
    order, nodes in node order within each cell, as one (m^d * n0, d) array."""
    return ((nodes[None, :, :] + offsets[:, None, :]) / m).reshape(-1, nodes.shape[1])


class _Plan:
    """Shared geometry for one (s, d, m): the deterministic interpolator,
    cell offsets and its nodes mapped into every cell (read-only)."""

    def __init__(self, s: int, d: int, m: int):
        self.d, self.m = d, m
        self.base = LocalInterpolator(regular_nodes(s, d), s)
        self.offsets = subcube_indices(m, d).astype(float)
        self.n_cubes = self.offsets.shape[0]
        self.node_points = _mapped_nodes(self.base.points, self.offsets, m)
        self.node_points.flags.writeable = False
        # lexicographic ravel strides for locating a sample's cell
        self.strides = m ** np.arange(d - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=8)
def _plan(s: int, d: int, m: int) -> _Plan:
    return _Plan(s, d, m)


def _fit(f: Integrand, cfg: EstimatorConfig):
    """Check the budget, then interpolate f on every subcube at once.

    Opens the invocation's stream and, in shifted mode, draws the shared
    shift from it first.  Evaluates f at the mapped nodes of all cells
    (lexicographic cell order, node order within each cell) and solves the
    shared collocation system against all value columns.  Returns
    (evals, plan, rng, solver, coeffs, cell_means) with coeffs of shape
    (n0, m^d).
    """
    plan = _plan(cfg.s, f.dim, cfg.m)
    evals = cfg.budget(f.dim)  # raises BudgetError before any evaluation
    rng = _stream(cfg.seed)
    solver, pts = plan.base, plan.node_points
    if cfg.interpolation_mode == SHIFTED:
        solver = LocalInterpolator(shifted_nodes(plan.base.points, rng.random(plan.d)), cfg.s)
        pts = _mapped_nodes(solver.points, plan.offsets, plan.m)
    vals = f(pts).reshape(plan.n_cubes, -1)
    coeffs = solver.solve(vals.T)
    return evals, plan, rng, solver, coeffs, solver.moments @ coeffs


def _scv(f: Integrand, cfg: EstimatorConfig) -> EstimateRun:
    """Stratified control variates.

    ``m^-d * sum_i (a_i + mean_j [f - g_i](X_i^(j)))`` with n0 points
    X_i^(j) uniform on cell i.  Exact on polynomials of total degree < s,
    linear and unbiased.
    """
    evals, plan, rng, solver, coeffs, means = _fit(f, cfg)
    n0 = len(solver)
    u = rng.random((plan.n_cubes, n0, plan.d))
    x = (u + plan.offsets[:, None, :]) / plan.m
    fx = f(x.reshape(-1, plan.d)).reshape(plan.n_cubes, n0)
    design = solver.design_matrix(u.reshape(-1, plan.d)).reshape(plan.n_cubes, n0, -1)
    gx = np.einsum("cjn,nc->cj", design, coeffs)
    per_cell = means + (fx - gx).mean(axis=1)
    value = math.fsum(per_cell.tolist()) / plan.n_cubes
    return EstimateRun(value=value, evals=evals)


def _whole_cube(f: Integrand, cfg: EstimatorConfig, k: int) -> EstimateRun:
    """Interpolant's integral plus the median of k whole-cube residual group means.

    The interpolant is SCV's, and its integral is the mean of the exact
    cell means.  The residual f - g is sampled at iid uniform points of
    the whole cube and split in draw order into k consecutive groups of
    ``n1 = floor(n0 * m^d / k)``; each group mean is ``fsum(group) / n1``.
    With k = 1 this is classical control variates: linear, unbiased and
    exact on polynomials of total degree < s.  With k = cfg.k it is CV+MoM:
    still exact on those polynomials, but non-linear and biased, and it
    requires ``n0 * m^d >= k``.  An even k takes the mean of the two
    central order statistics.
    """
    evals, plan, rng, solver, coeffs, means = _fit(f, cfg)
    int_g = math.fsum(means.tolist()) / plan.n_cubes

    n1 = (len(solver) * plan.n_cubes) // k
    x = rng.random((k * n1, plan.d))
    xm = x * plan.m
    cells = np.minimum(xm.astype(np.int64), plan.m - 1)
    local = xm - cells
    gx = np.einsum("ij,ji->i", solver.design_matrix(local), coeffs[:, cells @ plan.strides])
    groups = (f(x) - gx).reshape(k, n1).tolist()
    value = int_g + statistics.median(math.fsum(g) / n1 for g in groups)
    return EstimateRun(value=value, evals=evals)


def _stratified(f: Integrand, cfg: EstimatorConfig) -> EstimateRun:
    """Plain stratified sampling: one uniform sample per cell, averaged.

    Needs no interpolation, so it builds no plan.
    """
    offsets = subcube_indices(cfg.m, f.dim)
    u = _stream(cfg.seed).random(offsets.shape)
    fx = f((u + offsets) / cfg.m)
    value = math.fsum(fx.tolist()) / offsets.shape[0]
    return EstimateRun(value=value, evals=cfg.budget(f.dim))


_DISPATCH = {
    Method.SCV: _scv,
    Method.CV: lambda f, cfg: _whole_cube(f, cfg, 1),
    Method.CV_MOM: lambda f, cfg: _whole_cube(f, cfg, cfg.k),
    Method.STRAT: _stratified,
}


def run(f: Integrand, cfg: EstimatorConfig) -> EstimateRun:
    """One realization of the estimator named by ``cfg.method``.

    SCV, CV and CV+MoM share one piecewise interpolant of total degree < s
    on the m-grid (in shifted mode, one shift is drawn first and shared by
    all cells); they differ only in how the residual is sampled, see
    :func:`_scv` and :func:`_whole_cube`.  STRAT takes one uniform sample
    per cell and no control variate.
    """
    return _DISPATCH[cfg.method](f, cfg)
