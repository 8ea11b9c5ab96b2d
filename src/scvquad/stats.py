"""Replication driver and the statistics layer.

Runs replication ensembles under derived per-replication seeds, reduces
them to empirical confidence-level errors, rate fits, histograms and tail
fractions, and provides Monte Carlo verifiers for the two concentration
inequalities that underpin the error analysis (a p-norm Hoeffding bound
and a Marcinkiewicz-Zygmund moment bound).

An ensemble derives its replications' seeds with one :func:`derive_seed`
call over an index array (the package's own SeedSequence hash, which
lives beside the Philox keys in :mod:`estimators`) and hands them to
``estimators._ensemble``, the one ensemble path: it fits once in
deterministic mode, cuts the seeds into bounded stacks (each fitted on its
own shifts in shifted mode) and spreads them over the workers.  Either
way replication i's bits depend only on i, not on R or the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# `run` is not called here: bench/spans.py traces estimates by wrapping stats.run
from .estimators import EstimatorConfig, _ensemble, derive_seed, run  # noqa: F401
from .grid import _check_sizes
from .testbed import Integrand

__all__ = [
    "derive_seed",
    "ErrorSample",
    "replicate",
    "prob_error",
    "fit_rate",
    "histogram",
    "tail_fraction",
    "UniformBounded",
    "Rademacher",
    "Constant",
    "hoeffding_bound",
    "HoeffdingReport",
    "verify_hoeffding_p",
    "MZReport",
    "mz_constant",
    "verify_mz",
    "hoeffding_default_suite",
    "mz_default_suite",
]

# rows drawn per chunk inside the verifier loops; fixed so that results do
# not depend on available memory
_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class ErrorSample:
    """Signed errors of R independent replications of one configuration."""

    errors: np.ndarray
    config: EstimatorConfig

    def __post_init__(self):
        errors = np.asarray(self.errors, dtype=float)
        if errors.ndim != 1 or errors.size == 0:
            raise ValueError(f"errors must be a nonempty 1-D vector, got shape {errors.shape}")
        object.__setattr__(self, "errors", errors)

    @property
    def R(self) -> int:
        """Number of replications."""
        return self.errors.size


def replicate(
    f: Integrand,
    cfg: EstimatorConfig,
    R: int,
    master_seed: int,
    workers: int = 1,
) -> ErrorSample:
    """R independent runs, replication i under seed ``derive_seed(master_seed, i)``.

    Requires the integrand's exact integral.  One :func:`estimators._ensemble`
    call does the work: in deterministic mode the interpolant does not
    depend on the seed, so it is fitted once and shared, and the ensemble
    spends ``n0*m^d`` node evaluations plus each replication's residual
    samples.  In shifted mode each replication draws its own shift and
    each stack of replications is fitted at once, so the ensemble spends R
    full budgets.  Stacks are bounded in sample points and spread over
    `workers` threads.  Either way the errors, in replication order, equal
    ``run(f, replace(cfg, seed=derive_seed(master_seed, i))).value - exact``
    bit for bit, for any R and any number of workers.
    """
    if f.exact_integral is None:
        raise ValueError(f"integrand {f.label!r} has no exact integral to compare against")
    _check_sizes(R=R, workers=workers)
    values = _ensemble(f, cfg, derive_seed(master_seed, np.arange(R)), workers)
    return ErrorSample(errors=values - f.exact_integral, config=cfg)


def prob_error(sample: ErrorSample, delta: float) -> float:
    """Empirical confidence-level error at uncertainty delta.

    The ceil((1-delta)*R)-th order statistic of the absolute errors: the
    smallest observed threshold whose exceedance fraction is at most delta.
    The rank is computed in exact rational arithmetic to avoid roundoff at
    integer boundaries.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need delta in (0,1), got {delta}")
    rank = math.ceil(Fraction(sample.R) * (1 - Fraction(delta)))
    return float(np.sort(np.abs(sample.errors))[rank - 1])


def fit_rate(pairs) -> float:
    """Slope of the ordinary least-squares line ``log e = slope*log n + intercept``.

    Two points give the exact degenerate fit; all values must be finite and positive.
    """
    points = tuple((float(n), float(e)) for n, e in pairs)
    if len(points) < 2:
        raise ValueError("need at least two (n, e) pairs")
    arr = np.asarray(points, dtype=float)
    if not np.all((arr > 0.0) & (arr < math.inf)):  # also rejects nan
        raise ValueError("rate fits need finite, strictly positive budgets and errors")
    return float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])


def histogram(sample: ErrorSample, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max] of the signed errors.

    Returns (left, right, count) triples whose counts sum to R.  When all
    errors coincide the single populated degenerate bin is returned.
    """
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    errors = sample.errors
    lo, hi = float(errors.min()), float(errors.max())
    if lo == hi:
        return [(lo, hi, sample.R)]
    counts, edges = np.histogram(errors, bins=bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    ]


def tail_fraction(sample: ErrorSample, threshold: float) -> float:
    """Fraction of replications with absolute error strictly above the threshold."""
    if not threshold >= 0.0:  # also rejects nan, which no error exceeds
        raise ValueError(f"need threshold >= 0, got {threshold}")
    return float(np.mean(np.abs(sample.errors) > threshold))


# ---------------------------------------------------------------------------
# bounded distributions for the inequality verifiers


@dataclass(frozen=True)
class UniformBounded:
    """Uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if not -math.inf < self.low <= self.high < math.inf:  # also rejects nan
            raise ValueError(f"need finite low <= high, got [{self.low}, {self.high}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class Rademacher:
    """Symmetric two-point distribution on {-scale, +scale}."""

    scale: float

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValueError(f"need a finite scale, got {self.scale}")

    @property
    def mean(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return self.scale * (2.0 * rng.integers(0, 2, size) - 1.0)


@dataclass(frozen=True)
class Constant:
    """Degenerate point mass."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"need a finite value, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return np.full(size, self.value)


# centered unit-bound draws for verify_hoeffding_p, scaled by b per column
_FAMILIES = {"uniform": UniformBounded(-1.0, 1.0), "rademacher": Rademacher(1.0)}


# ---------------------------------------------------------------------------
# p-norm Hoeffding verifier


def hoeffding_bound(p: float, b, delta: float) -> float:
    """Deviation bound ``3/n * (2 log(2/delta))^(1-1/p) * ||b||_p``.

    Valid for the mean of n independent variables with |Z_i| <= b_i and
    1 < p < 2; the mean then stays within this bound of its expectation
    with probability at least 1 - delta.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"need 1 < p < 2, got p={p}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need delta in (0,1), got {delta}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("b must be a nonempty vector")
    if not np.all((b >= 0.0) & (b < math.inf)):  # also rejects nan
        raise ValueError("bounds b must be finite and nonnegative")
    norm_p = float(np.sum(b**p) ** (1.0 / p))
    return 3.0 / b.size * (2.0 * math.log(2.0 / delta)) ** (1.0 - 1.0 / p) * norm_p


@dataclass(frozen=True)
class HoeffdingReport:
    """Monte Carlo check of the p-norm Hoeffding bound for one configuration."""

    delta: float
    bound: float
    empirical_fail_rate: float
    trials: int
    label: str = ""

    @property
    def holds(self) -> bool:
        return self.empirical_fail_rate <= self.delta

    @property
    def detail(self) -> str:
        return (f"fail_rate={self.empirical_fail_rate:.6f} <= delta={self.delta:g} "
                f"(bound={self.bound:.6g}, trials={self.trials})")


def verify_hoeffding_p(
    p: float,
    b,
    delta: float,
    trials: int = 100_000,
    seed: int = 0,
    family: str = "uniform",
    label: str = "",
) -> HoeffdingReport:
    """Empirically check the p-norm Hoeffding bound.

    Draws `trials` independent vectors Z with |Z_i| <= b_i -- centered
    uniform by default, Rademacher (+-b_i, the variance-maximizing choice
    at fixed bounds) as the adversarial alternative -- and reports the
    fraction of trials whose mean deviates beyond the bound.  The bound
    guarantees a fail rate of at most delta.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    bound = hoeffding_bound(p, b, delta)
    b = np.asarray(b, dtype=float)
    n = b.size
    dist = _FAMILIES[family]
    rng = np.random.default_rng(seed)
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // n)
    fails = 0
    done = 0
    while done < trials:
        rows = min(rows_per_chunk, trials - done)
        z = dist.sample(rng, (rows, n)) * b
        fails += int(np.count_nonzero(np.abs(z.mean(axis=1)) > bound))
        done += rows
    return HoeffdingReport(delta=delta, bound=bound, empirical_fail_rate=fails / trials,
                           trials=trials, label=label)


# ---------------------------------------------------------------------------
# Marcinkiewicz-Zygmund verifier


# slack MZReport.holds allows for Monte Carlo noise, in summed standard errors
_SIGMAS = 3.0


def mz_constant(q: float) -> float:
    """Usable (not optimal) constant: ``2^(1+1/q)`` for q <= 2, ``2(q-1)`` above."""
    if not q >= 1.0:  # also rejects nan
        raise ValueError(f"need q >= 1, got q={q}")
    return 2.0 ** (1.0 + 1.0 / q) if q < 2.0 else 2.0 * (q - 1.0)


@dataclass(frozen=True)
class MZReport:
    """Monte Carlo check of the moment bound for the mean of independent variables.

    `lhs` estimates the L_q norm of the mean's deviation; `rhs` is the
    bound ``c_q/n * (sum_i ||Z_i||_q^q')^(1/q')`` with q' = min(2, q) and
    the individual norms estimated from the same sample.  The stderr
    fields carry delta-method estimates of the Monte Carlo noise.
    """

    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    label: str = ""

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + _SIGMAS * (self.lhs_stderr + self.rhs_stderr)

    @property
    def detail(self) -> str:
        slack = _SIGMAS * (self.lhs_stderr + self.rhs_stderr)
        return f"lhs={self.lhs:.6g} <= rhs={self.rhs:.6g} (+/- {slack:.2g} at {_SIGMAS:g} sigma)"


def _power_mean_with_stderr(values: np.ndarray, q: float) -> tuple[float, float]:
    """(mean(values^q))^(1/q) and its delta-method standard error."""
    w = values**q
    mw = float(w.mean())
    if mw <= 0.0:
        return 0.0, 0.0
    se_mw = float(w.std(ddof=1)) / math.sqrt(w.size)
    return mw ** (1.0 / q), se_mw * mw ** (1.0 / q - 1.0) / q


def verify_mz(q: float, dists, trials: int = 100_000, seed: int = 0, label: str = "") -> MZReport:
    """Empirically check the moment bound for the mean of independent draws.

    `dists` is a list of bounded distributions (one per summand) providing
    ``sample(rng, size)`` and an exact ``mean``.
    """
    c = mz_constant(q)  # ValueError unless q >= 1
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    n = len(dists)
    rng = np.random.default_rng(seed)
    z = np.column_stack([dist.sample(rng, trials) for dist in dists])
    a = math.fsum(dist.mean for dist in dists) / n

    deviation = np.abs(z.mean(axis=1) - a)
    lhs, lhs_se = _power_mean_with_stderr(deviation, q)

    qp = min(2.0, q)
    norms = np.empty(n)
    norm_ses = np.empty(n)
    for i in range(n):
        norms[i], norm_ses[i] = _power_mean_with_stderr(np.abs(z[:, i]), q)
    total = float(np.sum(norms**qp))
    if total <= 0.0:
        rhs, rhs_se = 0.0, 0.0
    else:
        rhs = c / n * total ** (1.0 / qp)
        grads = c / n * total ** (1.0 / qp - 1.0) * norms ** (qp - 1.0)
        rhs_se = float(np.sqrt(np.sum((grads * norm_ses) ** 2)))
    return MZReport(lhs=lhs, rhs=rhs, lhs_stderr=lhs_se, rhs_stderr=rhs_se, label=label)


# ---------------------------------------------------------------------------
# default verification suites


def hoeffding_default_suite(trials: int = 100_000, master_seed: int = 0) -> list[HoeffdingReport]:
    """Twenty p-norm Hoeffding checks spanning p, delta, size and bound shapes."""
    ps = (1.1, 1.3, 1.5, 1.7, 1.9)
    deltas = (0.2, 0.05, 0.01, 0.002)
    sizes = (1, 2, 4, 8, 16, 32, 64)
    reports = []
    for i, p in enumerate(ps):
        for j, delta in enumerate(deltas):
            idx = i * len(deltas) + j
            n = sizes[idx % len(sizes)]
            shape = idx % 4
            if shape == 0:
                b = np.ones(n)
            elif shape == 1:
                b = 0.7 ** np.arange(n)
            elif shape == 2:
                b = np.zeros(n)
                b[0] = 1.0
            else:
                b = np.random.default_rng(derive_seed(master_seed, 7, idx)).uniform(0.1, 2.0, n)
            family = "uniform" if idx % 2 == 0 else "rademacher"
            reports.append(
                verify_hoeffding_p(
                    p,
                    b,
                    delta,
                    trials=trials,
                    seed=derive_seed(master_seed, 1, idx),
                    family=family,
                    label=f"hoeffding[{idx}] p={p} delta={delta} n={n} {family}",
                )
            )
    return reports


def mz_default_suite(trials: int = 100_000, master_seed: int = 0) -> list[MZReport]:
    """Twenty moment-bound checks over q in {1, 1.5, 2, 3, 4} and four mixtures."""
    qs = (1.0, 1.5, 2.0, 3.0, 4.0)
    mixtures = {
        "iid_uniform": [UniformBounded(-1.0, 1.0) for _ in range(8)],
        "mixed": [
            UniformBounded(0.0, 1.0),
            UniformBounded(0.0, 1.0),
            Rademacher(2.0),
            Rademacher(2.0),
            Constant(0.5),
        ],
        "single_rademacher": [Rademacher(1.0)],
        "asymmetric": [UniformBounded(-0.5, 1.5) for _ in range(16)],
    }
    reports = []
    idx = 0
    for q in qs:
        for name, dists in mixtures.items():
            reports.append(
                verify_mz(
                    q,
                    dists,
                    trials=trials,
                    seed=derive_seed(master_seed, 2, idx),
                    label=f"mz[{idx}] q={q} {name}",
                )
            )
            idx += 1
    return reports
