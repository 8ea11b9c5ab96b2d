"""The four quadrature methods.

Stratified control variates (SCV) interpolates the integrand on every
subcube of the m-grid, integrates those patches exactly, and corrects each
patch mean with a handful of uniform residual samples drawn inside the
same subcube.  Classical control variates (CV) uses the identical
piecewise interpolant but samples the residual iid over the whole cube;
CV+MoM replaces the residual mean by a median of group means; plain
stratified sampling completes the line-up.

Reproducibility contract: each estimate consumes a single counter-based
(Philox) stream keyed by a hash of its 64-bit seed.  The draw order is
fixed (shift first, then one sample block), subcubes are traversed in
lexicographic index order, and the outer accumulation over the m^d cells
uses exact compensated summation.  Each method body takes a stack of
sample blocks, one row per replication, and only elementwise operations
and reductions within a replication's rows touch it.  So an estimate has
the same bits alone (:func:`run`) or stacked with thousands on a shared
fit (an ensemble in deterministic mode), whatever the worker count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations

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
        """Exact number of integrand evaluations the method will spend:
        n0*m^d node evaluations (none for STRAT) plus the points of the
        sample block (see :func:`_sample_shape`)."""
        nodes = 0 if self.method is Method.STRAT else poly_dim(self.s, d) * self.m**d
        return nodes + math.prod(_sample_shape(self, d)[:-1])


@dataclass(frozen=True)
class EstimateRun:
    """One realization of an estimator: its value and what it cost."""

    value: float
    evals: int


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)``, for many sequences at once.

    Each 32-bit entropy word is a Python int shared by all sequences or a
    uint64 array with one word per sequence, and so is each word returned.
    This is numpy's hash with a pool of four words: a missing entropy word
    hashes as zero, and words past the fourth are mixed into every pool word.
    """
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32  # both factors below 2^32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    return [hashmix(pool[i % 4], _MULT_B) for i in range(n_words)]


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(2, np.uint64)`` for every seed, as
    (n, 2) uint64: the key of ``Philox(SeedSequence(seed))``, whose counter
    starts at 0.  A seed hashes as its 32-bit words, a missing high one as 0."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    w = _seed_state([seeds & _MASK32, seeds >> 32], 4)
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)


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


def _fit(f: Integrand, cfg: EstimatorConfig, rng: np.random.Generator | None = None):
    """Check the budget (BudgetError before any evaluation), then
    interpolate f on every subcube at once; STRAT gets None.

    In shifted mode the shared shift is the first draw from `rng`; in
    deterministic mode nothing is drawn, so one fit serves every seed.
    Evaluates f at the mapped nodes of all cells (lexicographic cell order,
    node order within each cell) and solves the shared collocation system
    against all value columns.  Returns (plan, solver, coeffs, cell_means)
    with coeffs of shape (n0, m^d).
    """
    cfg.budget(f.dim)
    if cfg.method is Method.STRAT:
        return None
    plan = _plan(cfg.s, f.dim, cfg.m)
    solver, pts = plan.base, plan.node_points
    if cfg.interpolation_mode == SHIFTED:
        solver = LocalInterpolator(shifted_nodes(plan.base.points, rng.random(plan.d)), cfg.s)
        pts = _mapped_nodes(solver.points, plan.offsets, plan.m)
    coeffs = solver.solve(f(pts).reshape(plan.n_cubes, -1).T)
    return plan, solver, coeffs, solver.moments @ coeffs


def _sample_shape(cfg: EstimatorConfig, d: int) -> tuple[int, ...]:
    """Shape of the one block of uniforms an estimate draws after the fit.

    STRAT: one point per cell.  SCV: n0 points per cell.  CV and CV+MoM:
    k groups of ``n1 = floor(n0*m^d / k)`` whole-cube points, k = 1 for CV;
    BudgetError if a group would be empty.
    """
    cells = cfg.m**d
    if cfg.method is Method.STRAT:
        return (cells, d)
    n0 = poly_dim(cfg.s, d)
    if cfg.method is Method.SCV:
        return (cells, n0, d)
    k = cfg.k if cfg.method is Method.CV_MOM else 1
    if n0 * cells < k:
        raise BudgetError(
            f"median-of-means needs n0*m^d >= k residual samples, got {n0}*{cells} < {k}"
        )
    return (k, n0 * cells // k, d)


def _scv(f: Integrand, cfg: EstimatorConfig, fit, u: np.ndarray) -> list[float]:
    """Stratified control variates.

    ``m^-d * sum_i (a_i + mean_j [f - g_i](X_i^(j)))`` with n0 points
    X_i^(j) uniform on cell i.  Exact on polynomials of total degree < s,
    linear and unbiased.
    """
    plan, solver, coeffs, means = fit
    x = (u + plan.offsets[:, None, :]) / plan.m
    fx = f(x.reshape(-1, plan.d)).reshape(u.shape[:-1])
    design = solver.design_matrix(u.reshape(-1, plan.d)).reshape(*u.shape[:-1], -1)
    gx = np.einsum("rcjn,nc->rcj", design, coeffs)
    per_cell = means + (fx - gx).mean(axis=2)
    return [math.fsum(cells) / plan.n_cubes for cells in per_cell.tolist()]


def _whole_cube(f: Integrand, cfg: EstimatorConfig, fit, u: np.ndarray) -> list[float]:
    """Interpolant's integral plus the median of k whole-cube residual group means.

    The interpolant is SCV's, and its integral is the mean of the exact
    cell means.  The residual f - g is sampled at iid uniform points of
    the whole cube and split in draw order into k consecutive groups of
    ``n1 = floor(n0 * m^d / k)``; each group mean is ``fsum(group) / n1``.
    With k = 1 (CV) this is classical control variates: linear, unbiased
    and exact on polynomials of total degree < s.  With k = cfg.k (CV+MoM)
    it is still exact on those polynomials, but non-linear and biased, and
    it requires ``n0 * m^d >= k``.  An even k takes the mean of the two
    central order statistics.
    """
    plan, solver, coeffs, means = fit
    int_g = math.fsum(means.tolist()) / plan.n_cubes
    k, n1 = u.shape[1:3]
    x = u.reshape(-1, plan.d)
    xm = x * plan.m
    cells = np.minimum(xm.astype(np.int64), plan.m - 1)
    local = xm - cells
    gx = np.einsum("ij,ji->i", solver.design_matrix(local), coeffs[:, cells @ plan.strides])
    groups = (f(x) - gx).reshape(len(u), k, n1).tolist()
    return [int_g + statistics.median(math.fsum(g) / n1 for g in rep) for rep in groups]


def _stratified(f: Integrand, cfg: EstimatorConfig, fit: None, u: np.ndarray) -> list[float]:
    """Plain stratified sampling: one uniform sample per cell, averaged.

    Needs no interpolation, so it builds no plan.
    """
    offsets = subcube_indices(cfg.m, f.dim)
    fx = f(((u + offsets) / cfg.m).reshape(-1, f.dim)).reshape(len(u), -1)
    return [math.fsum(cells) / offsets.shape[0] for cells in fx.tolist()]


_BODIES = {
    Method.SCV: _scv,
    Method.CV: _whole_cube,
    Method.CV_MOM: _whole_cube,
    Method.STRAT: _stratified,
}

# Sample points per stack of replications: bounds an ensemble's memory for
# any R.  A replication of 2^16 points or more (m=256, d=2) stacks alone.
_BLOCK_POINTS = 1 << 15


def _estimates(f: Integrand, cfg: EstimatorConfig, fit, seeds: np.ndarray) -> np.ndarray:
    """Values of the replications with the given seeds on one shared fit,
    which must draw nothing (deterministic mode, or STRAT).

    Each replication's sample block is drawn from its own stream, as in
    :func:`run`, by one reused Philox set to the seed's key at counter 0.
    Stacks of up to ``_BLOCK_POINTS`` sample points go through f, the
    design matrix and the einsum at once.
    """
    shape = _sample_shape(cfg, f.dim)
    per_stack = max(1, _BLOCK_POINTS // math.prod(shape[:-1]))
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state  # a fresh stream's: counter 0, empty buffer
    all_keys = _philox_keys(seeds)
    values = np.empty(len(seeds))
    for start in range(0, len(seeds), per_stack):
        keys = all_keys[start : start + per_stack].tolist()
        u = np.empty((len(keys), *shape))
        for r, key in enumerate(keys):
            state["state"]["key"] = key
            gen.bit_generator.state = state
            gen.random(out=u[r])
        values[start : start + len(keys)] = _BODIES[cfg.method](f, cfg, fit, u)
    return values


def run(f: Integrand, cfg: EstimatorConfig) -> EstimateRun:
    """One realization of the estimator named by ``cfg.method``.

    SCV, CV and CV+MoM share one piecewise interpolant of total degree < s
    on the m-grid (in shifted mode, one shift is drawn first and shared by
    all cells); they differ only in how the residual is sampled, see
    :func:`_scv` and :func:`_whole_cube`.  STRAT takes one uniform sample
    per cell and no control variate.  This is the stack of one replication.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    fit = _fit(f, cfg, rng)
    u = rng.random((1, *_sample_shape(cfg, f.dim)))
    value = _BODIES[cfg.method](f, cfg, fit, u)[0]
    return EstimateRun(value=value, evals=cfg.budget(f.dim))
