"""The four quadrature methods, in two bodies.

Stratified control variates (SCV) interpolates the integrand on every
subcube of the m-grid, integrates those patches exactly, and corrects each
patch mean with a handful of uniform residual samples drawn inside the
same subcube; plain stratified sampling (STRAT) is the same body with no
control variate and one sample per cell.  Classical control variates (CV)
uses the identical piecewise interpolant but samples the residual iid over
the whole cube; CV+MoM replaces the residual mean by a median of group means.

Reproducibility contract: each estimate reads one row of draws (shift
first, then one sample block) from a counter-based (Philox) stream keyed
by a hash of its 64-bit seed.  Subcubes are traversed in lexicographic
index order, and each sum over the m^d cells or over a group of samples
is correctly rounded by :func:`_rounded_sums`, the one reduction.  Each
method body takes a stack of sample blocks, one row per replication, and
a stack of fits, one shared by all (deterministic mode) or one per
replication (shifted mode); only elementwise operations, per-matrix
solves and reductions within a replication's rows touch them.  So an
estimate has the same bits alone (:func:`run`) or stacked with thousands,
whatever the worker count.  :func:`_ensemble`, the one path for both,
fits once (deterministic mode) and spreads bounded stacks over workers.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import permutations

import numpy as np

from .grid import _check_sizes, locate, poly_dim, regular_nodes, shifted_nodes, subcube_indices
from .interp import LocalInterpolator
from .testbed import Integrand

__all__ = [
    "Method",
    "Mode",
    "DETERMINISTIC",
    "SHIFTED",
    "BudgetError",
    "EstimatorConfig",
    "EstimateRun",
    "run",
]


class Method(str, Enum):
    SCV = "scv"
    CV = "cv"
    CV_MOM = "cv_mom"
    STRAT = "strat"


class Mode(str, Enum):
    DETERMINISTIC = "deterministic"
    SHIFTED = "shifted"


DETERMINISTIC, SHIFTED = Mode


class BudgetError(ValueError):
    """Configuration cannot meet its sampling budget."""


def _check_seed(seed) -> None:
    """TypeError unless `seed` is an integer (a bool is not), ValueError unless in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


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
    interpolation_mode: Mode = DETERMINISTIC
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "interpolation_mode", Mode(self.interpolation_mode))
        _check_sizes(s=self.s, m=self.m, k=self.k)
        _check_seed(self.seed)
        for name in ("s", "m", "k", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))  # no fixed-width overflow in m**d

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


def derive_seed(master_seed: int, *indices):
    """Stable 64-bit seed for one branch of a seeded campaign:
    ``SeedSequence(master_seed, spawn_key=indices).generate_state(1, np.uint64)[0]``.

    Distinct index tuples give statistically independent streams; the same
    tuple always reproduces the same seed.  An index may be an integer
    array with entries in [0, 2^32), which gives a uint64 array of seeds.
    The hash takes each value's 32-bit words, low first (one for 0), with
    the master's padded with zeros to four.
    """
    words = []
    for i, value in enumerate((master_seed, *indices)):
        if i and isinstance(value, np.ndarray):
            if value.dtype.kind not in "iu" or not np.all((value >= 0) & (value <= _MASK32)):
                raise ValueError(f"index arrays need integers in [0, 2^32), got {value.dtype}")
            words.append(value.astype(np.uint64))
            continue
        value = operator.index(value)  # TypeError for 2.7 or np.float64(2.0)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        n_words = max(1 if i else 4, -(-value.bit_length() // 32))
        words += [(value >> 32 * j) & _MASK32 for j in range(n_words)]
    lo, hi = _seed_state(words, 2)
    return lo | hi << 32


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(2, np.uint64)`` for every seed, as
    (n, 2) uint64: the key of ``Philox(SeedSequence(seed))``, whose counter
    starts at 0.  A seed hashes as its 32-bit words, a missing high one as 0."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    w = _seed_state([seeds & _MASK32, seeds >> 32], 4)
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)


@lru_cache(maxsize=None)
def _regular(s: int, d: int) -> LocalInterpolator:
    """The deterministic node set's interpolator, shared by every grid size."""
    return LocalInterpolator(regular_nodes(s, d), s)


def _in_cells(f: Integrand, m: int, local: np.ndarray) -> np.ndarray:
    """f at local points (..., m^d or 1, J, d) mapped into every cell, point j
    of cell i at ``(local + i) / m``; values of shape (-1, m^d, J)."""
    x = (local + subcube_indices(m, f.dim)[:, None, :]) / m
    return f(x.reshape(-1, f.dim)).reshape(-1, *x.shape[-3:-1])


def _fit(f: Integrand, cfg: EstimatorConfig, shifts: np.ndarray | None = None):
    """Interpolate f on every subcube at once (SCV, CV and CV+MoM; STRAT has
    no fit).  The budget is :func:`_ensemble`'s to check, before any call.

    With `shifts` of shape (R, d) the fit is a stack of R, one per shifted
    node set (shifted mode); without, one fit of the regular nodes serves
    every seed (a stack of one).  Evaluates f at the node sets mapped into
    every cell (node order within each cell) and solves each collocation
    system against all its value columns.  Returns (solver, coeffs,
    cell_means) with coeffs of shape (R or 1, n0, m^d).
    """
    solver = _regular(cfg.s, f.dim)
    if shifts is not None:
        solver = LocalInterpolator(shifted_nodes(solver.points, shifts), cfg.s)
    values = _in_cells(f, cfg.m, solver.points[..., None, :, :])
    coeffs = solver.solve(np.swapaxes(values, -1, -2))
    return solver, coeffs, solver.moments @ coeffs


def _sample_shape(cfg: EstimatorConfig, d: int) -> tuple[int, ...]:
    """Shape of the one block of uniforms an estimate draws after the fit.

    SCV: n0 points per cell; STRAT: one.  CV and CV+MoM: k groups of
    ``n1 = floor(n0*m^d / k)`` whole-cube points, k = 1 for CV;
    BudgetError if a group would be empty.
    """
    cells, n0 = cfg.m**d, poly_dim(cfg.s, d)
    if cfg.method in (Method.SCV, Method.STRAT):
        return (cells, 1 if cfg.method is Method.STRAT else n0, d)
    k = cfg.k if cfg.method is Method.CV_MOM else 1
    if n0 * cells < k:
        raise BudgetError(
            f"median-of-means needs n0*m^d >= k residual samples, got {n0}*{cells} < {k}"
        )
    return (k, n0 * cells // k, d)


def _rounded_sums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum (``math.fsum``) of each row of `x` along its
    last axis, of shape ``x.shape[:-1]``: the package's one reduction."""
    rows = x.reshape(-1, x.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(x.shape[:-1])


def _stratified(f: Integrand, cfg: EstimatorConfig, fit, u: np.ndarray) -> np.ndarray:
    """Stratified control variates, or plain stratified sampling if `fit` is None.

    ``m^-d * sum_i (a_i + mean_j [f - g_i](X_i^(j)))`` with the points
    X_i^(j) of `u` uniform on cell i: n0 of them for SCV, whose g_i is the
    cell's interpolant with exact mean a_i (exact on polynomials of total
    degree < s, linear and unbiased), and one for STRAT, with g = 0.
    """
    resid = _in_cells(f, cfg.m, u)
    means = 0.0
    if fit is not None:
        solver, coeffs, means = fit
        design = solver.design_matrix(u.reshape(-1, f.dim)).reshape(*u.shape[:-1], -1)
        resid = resid - np.einsum("rcjn,rnc->rcj", design, coeffs)
    return _rounded_sums(means + resid.mean(axis=2)) / u.shape[1]


def _whole_cube(f: Integrand, cfg: EstimatorConfig, fit, u: np.ndarray) -> np.ndarray:
    """Interpolant's integral plus the median of k whole-cube residual group means.

    The interpolant is SCV's, and its integral is the mean of the exact
    cell means.  The residual f - g is sampled at iid uniform points of
    the whole cube and split in draw order into k consecutive groups of
    ``n1 = floor(n0 * m^d / k)``; each group mean is ``fsum(group) / n1``.
    With k = 1 (CV) this is classical control variates: linear, unbiased
    and exact on polynomials of total degree < s.  With k = cfg.k (CV+MoM)
    it is still exact on those polynomials, but non-linear and biased, and
    it requires ``n0 * m^d >= k``.  Its median is ``statistics.median``'s, by a
    stable sort (tied ±0 keep their order); an even k averages the central two.
    """
    solver, coeffs, means = fit
    k, n1 = u.shape[1:3]
    x = u.reshape(-1, f.dim)
    rows, local = locate(x, cfg.m)
    fit_of = np.arange(len(u)) % len(coeffs)  # each replication's fit; all 0 if shared
    rows = rows.reshape(len(u), -1) + cfg.m**f.dim * fit_of[:, None]
    table = np.swapaxes(coeffs, 1, 2).reshape(-1, coeffs.shape[1])  # C-ordered (fit, cell) rows
    gx = np.einsum("ij,ij->i", solver.design_matrix(local), np.take(table, rows.ravel(), axis=0))
    groups = np.sort(_rounded_sums((f(x) - gx).reshape(len(u), k, n1)) / n1, kind="stable")
    median = groups[:, k // 2] if k % 2 else (groups[:, k // 2 - 1] + groups[:, k // 2]) / 2
    return _rounded_sums(means) / means.shape[1] + median  # one integral per fit


# Sample points per stack of replications, in both modes: bounds an
# ensemble's memory for any R.  At 2^13 a default `tails` ensemble's traced
# peak is 0.9 MB (1.4 MB at 2^15), at the same time per replication.  A
# replication of more than 2^12 points stacks alone.
_BLOCK_POINTS = 1 << 13


def _map(fn, items, workers: int) -> list:
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _estimates(f: Integrand, cfg: EstimatorConfig, fit, seeds) -> np.ndarray:
    """Values of one stack of replications, with the given seeds.

    Each replication reads one row of draws from its own stream, in one
    call of a reused Philox set to the seed's key at counter 0: its node
    shift (d doubles, shifted mode only), then its sample block.  `fit` is
    the shared fit of deterministic mode (None for STRAT); in shifted mode
    the stack is fitted on its own shifts.  The whole stack goes through
    the fit, f, the design matrix, the einsum and the reductions at once.
    """
    shape = _sample_shape(cfg, f.dim)
    n_shift = f.dim if cfg.interpolation_mode is SHIFTED and cfg.method is not Method.STRAT else 0
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state  # a fresh stream's: counter 0, empty buffer
    keys = _philox_keys(seeds).tolist()
    draws = np.empty((len(keys), n_shift + math.prod(shape)))
    for r, key in enumerate(keys):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        gen.random(out=draws[r])
    if n_shift:
        fit = _fit(f, cfg, draws[:, :n_shift])
    body = _whole_cube if cfg.method in (Method.CV, Method.CV_MOM) else _stratified
    return body(f, cfg, fit, draws[:, n_shift:].reshape(len(keys), *shape))


def _ensemble(f: Integrand, cfg: EstimatorConfig, seeds, workers: int = 1) -> np.ndarray:
    """Values of the replications with the given seeds, in order.

    Checks the budget first, by :func:`_sample_shape` (BudgetError before
    any evaluation), the one check for both modes.  Fits once in
    deterministic mode (STRAT gets None), cuts the seeds into stacks of at
    most ``_BLOCK_POINTS`` sample points and ``ceil(len(seeds) / workers)``
    replications, so that a small ensemble still spreads over its workers,
    and maps :func:`_estimates` over the stacks on `workers` threads.
    """
    points = math.prod(_sample_shape(cfg, f.dim)[:-1])
    shared = cfg.interpolation_mode is DETERMINISTIC and cfg.method is not Method.STRAT
    fit = _fit(f, cfg) if shared else None
    per_stack = max(1, min(_BLOCK_POINTS // points, -(-len(seeds) // workers)))
    stacks = [seeds[i : i + per_stack] for i in range(0, len(seeds), per_stack)]
    return np.concatenate(_map(partial(_estimates, f, cfg, fit), stacks, workers))


def run(f: Integrand, cfg: EstimatorConfig) -> EstimateRun:
    """One realization of the estimator named by ``cfg.method``.

    SCV, CV and CV+MoM share one piecewise interpolant of total degree < s
    on the m-grid (in shifted mode, one shift is drawn first and shared by
    all cells); they differ only in how the residual is sampled, see
    :func:`_stratified` and :func:`_whole_cube`.  STRAT takes one uniform
    sample per cell and no control variate.  This is the ensemble of one
    replication, through the same :func:`_ensemble` path as ``replicate``.
    """
    value = _ensemble(f, cfg, [cfg.seed])[0]
    return EstimateRun(value=float(value), evals=cfg.budget(f.dim))
