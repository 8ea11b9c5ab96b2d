"""The four quadrature methods, in two bodies.

Stratified control variates (SCV) interpolates the integrand on every
subcube of the m-grid, integrates those patches exactly, and corrects each
patch mean with a handful of uniform residual samples drawn inside the
same subcube; plain stratified sampling (STRAT) is the same body with no
control variate and one sample per cell.  Classical control variates (CV)
uses the identical piecewise interpolant but samples the residual iid over
the whole cube; CV+MoM replaces the residual mean by a median of group means.

Reproducibility contract: each estimate's draws are one row (shift first,
then one sample block) of a counter-based (Philox) stream keyed by a hash
of its 64-bit seed, read a tile at a time at each tile's counter offset,
so a stack holds at most one tile of draws.  Subcubes are traversed in
lexicographic index order, and each sum over samples (those of an SCV cell
or of a CV or CV+MoM group) or over the m^d cells is one fixed pairwise
fold, :func:`_rounded_sums`, the one reduction in this module: none of
these sums is left to numpy's unspecified order.  Each fit is one (solver,
coeffs, means) for every method, its coefficients C-ordered rows, one per
(fit, cell).  Each method body takes a stack's sample blocks, one row per
replication, a tile at a time, and a stack of fits, one shared by all
(deterministic mode) or one per replication (shifted mode); only
elementwise operations, per-matrix products and reductions within a
replication's rows touch them.  So an estimate has the same bits alone
(:func:`run`) or stacked with thousands, in one tile of points or many,
whatever the worker count.  :func:`_ensemble`, the one path for both, fits
once (deterministic mode), hashes every key once and cuts the key rows
into stacks by their size alone; the shared fit's node tiles and then the
stacks run on one pool of ``min(workers, max(fit tiles, stacks))``
threads, started only when that is more than one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import permutations

import numpy as np

from .grid import (_check_seed, _check_sizes, locate, poly_dim, regular_nodes, shifted_nodes,
                   subcube_indices)
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
    Any other value is a non-negative integer of any size, but not a bool
    (``grid._check_sizes`` with no ceiling).  The hash takes each value's
    32-bit words, low first (one for 0), with the master's padded with
    zeros to four.
    """
    words = []
    for i, value in enumerate((master_seed, *indices)):
        if i and isinstance(value, np.ndarray):
            if value.dtype.kind not in "iu" or not np.all((value >= 0) & (value <= _MASK32)):
                raise ValueError(f"index arrays need integers in [0, 2^32), got {value.dtype}")
            words.append(value.astype(np.uint64))
            continue
        _check_sizes(low=0, **{"index" if i else "master_seed": value})
        value = int(value)
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


def _in_cells(f: Integrand, m: int, local: np.ndarray, cells: slice) -> np.ndarray:
    """f at local points (..., c or 1, J, d) mapped into the c cells of the
    slice `cells` of :func:`subcube_indices`, point j of cell i at
    ``(local + i) / m``; values of shape (-1, c, J)."""
    x = (local + subcube_indices(m, f.dim)[cells, None, :]) / m
    return f(x.reshape(-1, f.dim)).reshape(-1, *x.shape[-3:-1])


def _fit(f: Integrand, cfg: EstimatorConfig, shifts: np.ndarray | None = None, tile_map=map):
    """Interpolate f on every subcube at once (SCV, CV and CV+MoM; STRAT has
    no fit).  The budget is :func:`_ensemble`'s to check, before any call.

    With `shifts` of shape (R, d) the fit is a stack of R, one per shifted
    node set (shifted mode); without, one fit of the regular nodes serves
    every seed (a stack of one).  Evaluates f at the node sets mapped into
    every cell (node order within each cell), in tiles of at most
    ``_BLOCK_POINTS`` nodes, each filled through `tile_map` (the ensemble's
    pool's ``map`` for the shared fit, see :func:`_ensemble`): a tile is
    elementwise and writes its own slice, so any map keeps the bits.  It
    solves each collocation system against all its value rows at once, by
    one product with the node set's inverse: that product and the moments
    product change bits with their row count, so neither is tiled.  Every
    method gets (solver, coeffs, means): coeffs C-ordered of shape (R or 1,
    m^d, n0), one row per (fit, cell), and means = coeffs @ moments, each
    cell's exact interpolant mean.  The node values and coefficients are
    the two halves of one array.  As two arrays they were the largest blocks
    a call frees, and glibc's trim threshold, which follows the largest
    block freed, fell below a call's footprint: each call's arrays were
    returned to the system and paged back in on the next.  The one block
    kept ``grid-large-m`` at the parent's faults; it is a layout, not a
    bound on them (a process running one configuration alone still pages
    a call's arrays back in).
    """
    solver = _regular(cfg.s, f.dim)
    if shifts is not None:
        solver = LocalInterpolator(shifted_nodes(solver.points, shifts), cfg.s)
    values, out = np.empty((2, 1 if shifts is None else len(shifts), cfg.m**f.dim, len(solver)))

    def fill(tile):  # elementwise, into a slice no other tile writes
        values[:, tile] = _in_cells(f, cfg.m, solver.points[..., None, :, :], tile)

    list(tile_map(fill, _tiles(values.shape[1], len(values) * len(solver))))
    coeffs = solver.solve(values, out)
    return solver, coeffs, coeffs @ solver.moments


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
    """The sum of each row of `x` along its last axis, of shape ``x.shape[:-1]``:
    the one reduction, a fixed pairwise fold.

    Each step adds the top half of a row's terms onto its bottom half (an odd
    count keeps its middle term), elementwise across rows, so a row's bits
    depend on that row alone, whatever the stack.  The error is at most
    ``ceil(log2 n) * 2^-53 * sum|x|`` (Higham 2002, §4.2).  The terms start from
    ``x + 0.0``, so a sum is never -0.0; a sum that overflows is ±inf or nan,
    which :func:`_ensemble` rejects.
    """
    n = x.shape[-1]
    buf = np.add(x.reshape(-1, n).T, 0.0, order="C")  # (n, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        while n > 1:  # an odd n keeps its middle term
            buf[: n // 2] += buf[(n + 1) // 2 : n]
            n = (n + 1) // 2
    return buf[0].reshape(x.shape[:-1])


def _stratified(f: Integrand, cfg: EstimatorConfig, fit, shape: tuple, tiles) -> np.ndarray:
    """Stratified control variates, or plain stratified sampling if `fit` is None.

    ``m^-d * sum_i (a_i + mean_j [f - g_i](X_i^(j)))`` with the points
    X_i^(j) uniform on cell i: n0 of them for SCV, whose g_i is the
    cell's interpolant with exact mean a_i (exact on polynomials of total
    degree < s, linear and unbiased), and one for STRAT, with g = 0.
    `shape` is the stack's (R, m^d, J, d) of local points, and `tiles`
    yields them a tile at a time: a slice of at most ``_BLOCK_POINTS``
    points' cells and their (R, c, J, d) points, each tile reading its slice
    ``coeffs[:, tile]`` of the fit.  Only the cell terms
    ``a_i + fold(resid_i) / J`` outlive a tile, and they are folded once.
    """
    solver, coeffs, means = fit or (None, None, np.broadcast_to(0.0, (1, shape[1])))
    cell_terms = np.empty(shape[:2])
    for tile, ut in tiles:
        resid = _in_cells(f, cfg.m, ut, tile)
        if fit is not None:
            design = solver.design_matrix(ut.reshape(-1, f.dim)).reshape(*resid.shape, -1)
            resid = resid - np.einsum("rcjn,rcn->rcj", design, coeffs[:, tile])
        cell_terms[:, tile] = means[:, tile] + _rounded_sums(resid) / shape[2]
    return _rounded_sums(cell_terms) / shape[1]


def _whole_cube(f: Integrand, cfg: EstimatorConfig, fit, shape: tuple, tiles) -> np.ndarray:
    """Interpolant's integral plus the median of k whole-cube residual group means.

    The interpolant is SCV's, and its integral is the fold of the exact
    cell means over m^d.  The residual f - g is sampled at iid uniform points of
    the whole cube and split in draw order into k consecutive groups of
    ``n1 = floor(n0 * m^d / k)``; each group mean is the group's
    :func:`_rounded_sums` over n1.
    With k = 1 (CV) this is classical control variates: linear, unbiased
    and exact on polynomials of total degree < s.  With k = cfg.k (CV+MoM)
    it is still exact on those polynomials, but non-linear and biased, and
    it requires ``n0 * m^d >= k``.  Its median is ``statistics.median``'s, by a
    stable sort (tied ±0 keep their order); an even k averages the central two.
    A replication with an overflowed group sum (±inf, or nan, which would
    sort last) gets nan, so the median never hides it.
    `shape` is the stack's (R, k, n1, d) of points, and `tiles` yields them
    a tile at a time, in draw order: a slice of at most ``_BLOCK_POINTS``
    points' samples and their (R, c, d) points.  Each sample's coefficient
    row is gathered from the fit's (fit, cell) rows in place, and only the
    residuals outlive a tile.
    """
    solver, coeffs, means = fit
    reps, k, n1 = shape[:3]
    table = coeffs.reshape(-1, len(solver))  # a view: coeffs is C-ordered
    offset = cfg.m**f.dim * (np.arange(reps) % len(coeffs))[:, None]  # each replication's fit
    integrals = _rounded_sums(means) / cfg.m**f.dim
    resid = np.empty((reps, k * n1))
    for tile, ut in tiles:
        xt = ut.reshape(-1, f.dim)
        rows, local = locate(xt, cfg.m)
        coeff_rows = np.take(table, (rows.reshape(reps, -1) + offset).ravel(), axis=0)
        gx = np.einsum("ij,ij->i", solver.design_matrix(local), coeff_rows)
        resid[:, tile] = (f(xt) - gx).reshape(reps, -1)
    groups = np.sort(_rounded_sums(resid.reshape(reps, k, n1)) / n1, kind="stable")
    median = groups[:, k // 2] if k % 2 else (groups[:, k // 2 - 1] + groups[:, k // 2]) / 2
    return np.where(np.isfinite(groups).all(axis=1), integrals + median, np.nan)  # see _ensemble


# Most sample points in a stack of replications, or in a tile of a fit or a
# body (see _tiles).  Only draws, fit values, coefficients and per-cell or
# per-sample results grow with the replication.  At 2^13 a default `tails`
# ensemble's traced peak is 0.9 MB (1.4 MB at 2^15), at the same time per
# replication.
_BLOCK_POINTS = 1 << 13

# Ceiling on an ensemble's workers: its pool may start that many OS threads.
_MAX_THREADS = 256


def _tiles(n: int, width: int) -> list[slice]:
    """The one cut: consecutive slices of n items of `width` sample points
    each, every slice of at most ``_BLOCK_POINTS`` points and at least one item."""
    step = max(1, _BLOCK_POINTS // width)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _estimates(f: Integrand, cfg: EstimatorConfig, fit, keys: np.ndarray) -> np.ndarray:
    """Values of one stack of replications, given their (n, 2) Philox key rows.

    Replication r's draws are one row of its own stream: its node shift (d
    doubles, shifted mode only), then its sample block.  The row is never
    made whole.  Each of the body's tiles (:func:`_tiles`: cells for SCV
    and STRAT, samples for CV and CV+MoM) draws its span of every row into
    one buffer that the stack owns and reuses, so the stack holds at most
    one tile of draws, plus the shifts (and 3 doubles per row if it has
    more than one tile).  Philox is counter-based, and double t of a stream
    is double ``t % 4`` of the block at counter ``t // 4``: a span starting
    at double t re-keys one reused Philox, from plain ints, which numpy's
    setter reads faster than uint64 arrays, to that counter with an empty
    buffer, and drops the first ``t % 4`` doubles it draws.  In shifted
    mode the shifts and the first tile come from one call per replication,
    before the stack is fitted on its shifts, so a stack of one tile makes
    one call per replication in either mode.  `fit` is the shared fit of
    deterministic mode (None for STRAT).  Each reduction runs once, on the
    whole stack.
    """
    shape = (len(keys), *_sample_shape(cfg, f.dim))
    n_shift = f.dim if cfg.interpolation_mode is SHIFTED and cfg.method is not Method.STRAT else 0
    cell_wise = cfg.method in (Method.SCV, Method.STRAT)
    item = shape[2:] if cell_wise else shape[3:]  # the draws of one cell, or of one sample
    size = math.prod(item)
    tiles = _tiles(math.prod(shape[1:]) // size, len(keys) * size // f.dim)
    gen = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rows = keys.tolist()  # only this stack's keys become ints
    width = n_shift + tiles[0].stop * size  # the shifts and the first tile
    # a later tile's span may start 3 doubles into its counter's block
    buf = np.empty((len(rows), width + 3 * (len(tiles) > 1)))

    def draw(lo, hi):  # doubles [lo, hi) of every row, as columns of buf
        state["state"]["counter"][0] = lo // 4
        for row, key in zip(buf[:, : hi - lo + lo % 4], rows):
            state["state"]["key"] = key
            gen.bit_generator.state = state
            gen.random(out=row)
        return buf[:, lo % 4 : hi - lo + lo % 4]

    first = draw(0, width)
    if n_shift:
        fit = _fit(f, cfg, first[:, :n_shift])
    body = _stratified if cell_wise else _whole_cube
    return body(f, cfg, fit, shape, (
        (t, (draw(n_shift + t.start * size, n_shift + t.stop * size) if t.start
             else first[:, n_shift:]).reshape(len(rows), -1, *item)) for t in tiles))


def _ensemble(f: Integrand, cfg: EstimatorConfig, seeds, workers: int = 1) -> np.ndarray:
    """Values of the replications with the given seeds, in order.

    Checks the budget first, by :func:`_sample_shape` (BudgetError before
    any evaluation), the one check for both modes.  Fits once in
    deterministic mode (STRAT gets None) and hashes all the Philox keys at
    once into one (R, 2) uint64 array.  The stack rule: its rows are cut by
    :func:`_tiles` into stacks of at most ``_BLOCK_POINTS`` sample points
    and at least one replication, by size alone, so every worker count runs
    the same stacks.  The pool rule: ``threads = min(workers, max(fit
    tiles, stacks))``, counting the shared fit's node tiles (none in shifted
    mode or for STRAT), and a pool of that many threads starts only when
    ``threads > 1``; else everything runs on the calling thread.  The shared
    fit's tiles run on the pool first, then :func:`_estimates` runs the
    stacks on it.  A shifted-mode fit runs inside its stack's own worker
    and never maps onto the pool, where a task waiting on tasks queued
    behind it could deadlock.  ValueError if an estimate is not finite (a
    sum overflowed).
    """
    points = math.prod(_sample_shape(cfg, f.dim)[:-1])
    shared = cfg.interpolation_mode is DETERMINISTIC and cfg.method is not Method.STRAT
    keys = _philox_keys(seeds)
    stacks = [keys[tile] for tile in _tiles(len(keys), points)]
    fit_tiles = len(_tiles(cfg.m**f.dim, poly_dim(cfg.s, f.dim))) if shared else 0  # as _fit's
    threads = min(workers, max(fit_tiles, len(stacks)))
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        tile_map = pool.map if pool else map
        fit = _fit(f, cfg, tile_map=tile_map) if shared else None
        values = np.concatenate(list(tile_map(partial(_estimates, f, cfg, fit), stacks)))
    if not np.isfinite(values).all():
        raise ValueError(f"{cfg.method.value} at s={cfg.s}, m={cfg.m} gave a non-finite estimate")
    return values


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
