"""Replication driver and the statistics layer.

Runs replication ensembles under derived per-replication seeds, reduces
them to empirical confidence-level errors, rate fits, histograms and tail
fractions, and proves in closed form, with no draws, the two concentration
inequalities that underpin the error analysis (a p-norm Hoeffding bound and
a Marcinkiewicz-Zygmund moment bound): each check passes when the bound is
at least a certificate that every law it covers satisfies.

An ensemble derives its replications' seeds with one :func:`derive_seed`
call over an index array (the package's own SeedSequence hash, which
lives beside the Philox keys in :mod:`estimators`) and hands them to
``estimators._ensemble``, the one ensemble path: it fits once in
deterministic mode, hashes every seed's Philox key once and cuts the key
rows into stacks (each fitted on its own shifts in shifted mode).  Either
way replication i's bits depend only on i, not on R or the worker count.

Inputs are checked by the rules in :mod:`grid`: counts by ``_check_sizes``
and delta by ``_check_probability``; master seeds by :func:`derive_seed`.
A count is at least 1.  Three counts have a ceiling, the bound of what they
would exhaust, checked here before any allocation: an ensemble's workers
(``estimators._MAX_THREADS``) and replications (``_MAX_REPS``), and a
histogram's bins (``_MAX_BINS``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

# `run` is not called here: bench/spans.py traces estimates by wrapping stats.run
from .estimators import _MAX_THREADS, EstimatorConfig, _ensemble, derive_seed, run  # noqa: F401
from .grid import _check_probability, _check_sizes
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
    "hoeffding_bound",
    "HoeffdingReport",
    "verify_hoeffding_p",
    "MZReport",
    "mz_constant",
    "verify_mz",
    "hoeffding_default_suite",
    "mz_default_suite",
]

# Ceiling on an ensemble's replications: replication i's index is one 32-bit
# word of its seed's entropy (see derive_seed).
_MAX_REPS = 2**32


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
    call does the work, hashing every Philox key once: in deterministic mode
    the interpolant does not depend on the seed, so it is fitted once and
    shared, and the ensemble spends ``n0*m^d`` node evaluations plus each
    replication's residual samples.  In shifted mode each replication draws
    its own shift and each stack of replications is fitted at once, so the
    ensemble spends R full budgets.  Either way the errors, in replication
    order, equal
    ``run(f, replace(cfg, seed=derive_seed(master_seed, i))).value - exact``
    bit for bit, whatever R and `workers` are.  R is at most ``_MAX_REPS``
    and `workers`, the most threads the ensemble may use, at most
    ``estimators._MAX_THREADS``; a larger value raises ValueError before any
    allocation, seed or evaluation.
    """
    if f.exact_integral is None:
        raise ValueError(f"integrand {f.label!r} has no exact integral to compare against")
    _check_sizes(_MAX_REPS, R=R)
    _check_sizes(_MAX_THREADS, workers=workers)
    values = _ensemble(f, cfg, derive_seed(master_seed, np.arange(R)), workers)
    return ErrorSample(errors=values - f.exact_integral, config=cfg)


def prob_error(sample: ErrorSample, delta: float) -> float:
    """Empirical confidence-level error at uncertainty delta.

    The ceil((1-delta)*R)-th order statistic of the absolute errors: the
    smallest observed threshold whose exceedance fraction is at most delta.
    The rank is computed in exact rational arithmetic to avoid roundoff at
    integer boundaries.
    """
    _check_probability(delta=delta)
    rank = math.ceil(Fraction(sample.R) * (1 - Fraction(delta)))
    return float(np.sort(np.abs(sample.errors))[rank - 1])


def fit_rate(pairs) -> float:
    """Slope of the ordinary least-squares line ``log e = slope*log n + intercept``.

    Two points give the exact degenerate fit; all values must be finite and
    positive, and at least two budgets must differ (so at least two pairs).
    """
    arr = np.array([(float(n), float(e)) for n, e in pairs], dtype=float).reshape(-1, 2)
    if not np.all((arr > 0.0) & (arr < math.inf)):  # also rejects nan
        raise ValueError("rate fits need finite, strictly positive budgets and errors")
    budgets = set(arr[:, 0].tolist())
    if len(budgets) < 2:
        raise ValueError(f"rate fits need at least two distinct budgets, got {sorted(budgets)}")
    return float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])


# Ceiling on a histogram's bins: each bin holds about 0.57 KB between numpy's
# counts and edges, the returned triple and the CLI's three summary rows, all
# kept until the summary CSV is written, some 570 MB at 10^6.
_MAX_BINS = 10**6


def histogram(sample: ErrorSample, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max] of the signed errors.

    Returns (left, right, count) triples whose counts sum to R.  When all
    errors coincide the single populated degenerate bin is returned.  `bins`
    is at most ``_MAX_BINS``: ValueError before any bin is counted.
    """
    _check_sizes(_MAX_BINS, bins=bins)
    errors = sample.errors
    lo, hi = float(errors.min()), float(errors.max())
    if lo == hi:
        return [(lo, hi, sample.R)]
    counts, edges = np.histogram(errors, bins=bins, range=(lo, hi))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def tail_fraction(sample: ErrorSample, threshold: float) -> float:
    """Fraction of replications with absolute error strictly above the threshold."""
    if not threshold >= 0.0:  # also rejects nan, which no error exceeds
        raise ValueError(f"need threshold >= 0, got {threshold}")
    return float(np.mean(np.abs(sample.errors) > threshold))


# ---------------------------------------------------------------------------
# the power-of-two scaling of every closed form


def _downscaled(values) -> tuple[np.ndarray, int]:
    """(`values` times 2^-e, e), with 2^e the power of two at or above every
    |value|; e = 0 when all are 0, and when one is nan or inf, which every
    caller rejects.  Each closed form that calls it is homogeneous of degree
    one in its inputs, so it is computed on the scaled values, where no power
    of a term can overflow, and its numbers are scaled back by ``math.ldexp``,
    exactly: any finite input gives its numbers, and one beyond the largest
    double raises OverflowError instead of reading inf."""
    e = math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]
    return np.ldexp(values, -e), e


# ---------------------------------------------------------------------------
# bounded laws for the moment-bound verifier: each gives its exact L_q norm
# and its second and fourth cumulants


def _check_q(q: float) -> None:
    """The one rule for a moment order q, of every norm and of
    :func:`mz_constant`: ValueError unless q >= 1."""
    if not q >= 1.0:  # also rejects nan
        raise ValueError(f"need q >= 1, got q={q}")


@dataclass(frozen=True)
class UniformBounded:
    """Uniform on [low, high], with low <= high: low == high is the point mass
    at low, whose norm is |low| and whose cumulants are 0."""

    low: float
    high: float

    def __post_init__(self):
        if not -math.inf < self.low <= self.high < math.inf:  # also rejects nan
            raise ValueError(f"need finite low <= high, got [{self.low}, {self.high}]")

    def norm(self, q: float) -> float:
        """``(E|Z|^q)^(1/q)``, from the antiderivative ``x|x|^q/(q+1)`` of ``|x|^q``.

        Where low and high share a sign, the two ends' terms would cancel, so
        with b the end farther from zero and w = high - low the moment is
        ``b^(q+1) * (1 - (1 - w/b)^(q+1)) / ((q+1) w)``, through ``expm1``
        and ``log1p``.  The norm is homogeneous of degree one, so it is
        computed on the ends scaled by :func:`_downscaled`, where the farther
        end lies in [1/2, 1) and no power of it overflows or underflows, and
        scaled back.  ValueError unless q >= 1."""
        _check_q(q)
        if self.low == self.high:
            return abs(self.low)
        e = _downscaled([self.low, self.high])[1]
        lo, hi, q1 = math.ldexp(self.low, -e), math.ldexp(self.high, -e), q + 1.0
        if lo > 0.0 or hi < 0.0:
            b = max(hi, -lo)
            moment = b**q1 * -math.expm1(q1 * math.log1p((lo - hi) / b)) / (q1 * (hi - lo))
        else:
            moment = (hi * abs(hi) ** q - lo * abs(lo) ** q) / (q1 * (hi - lo))
        return math.ldexp(moment ** (1.0 / q), e)

    @property
    def cumulants(self) -> tuple[float, float]:
        width = self.high - self.low
        return width**2 / 12.0, -(width**4) / 120.0


@dataclass(frozen=True)
class Rademacher:
    """Symmetric two-point law on {-scale, +scale}."""

    scale: float

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValueError(f"need a finite scale, got {self.scale}")

    def norm(self, q: float) -> float:
        """``|scale|`` at every order q; ValueError unless q >= 1."""
        _check_q(q)
        return abs(self.scale)

    @property
    def cumulants(self) -> tuple[float, float]:
        return self.scale**2, -2.0 * self.scale**4


_LAWS = (UniformBounded, Rademacher)


# ---------------------------------------------------------------------------
# p-norm Hoeffding verifier


def hoeffding_bound(p: float, b, delta: float) -> float:
    """Deviation bound ``3/n * (2 log(2/delta))^(1-1/p) * ||b||_p``.

    Valid for the mean of n independent variables with |Z_i| <= b_i and
    1 < p < 2; the mean then stays within this bound of its expectation
    with probability at least 1 - delta.

    It is computed on b scaled by :func:`_downscaled`.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"need 1 < p < 2, got p={p}")
    _check_probability(delta=delta)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("b must be a nonempty vector")
    if not np.all((b >= 0.0) & (b < math.inf)):  # also rejects nan
        raise ValueError("bounds b must be finite and nonnegative")
    b, e = _downscaled(b)
    norm_p = float(np.sum(b**p) ** (1.0 / p))
    return math.ldexp(3.0 / b.size * (2.0 * math.log(2.0 / delta)) ** (1.0 - 1.0 / p) * norm_p, e)


@dataclass(frozen=True)
class HoeffdingReport:
    """Closed-form check of the p-norm Hoeffding bound for one configuration.

    `certificate` is a deviation that the mean of every law with
    |Z_i| <= b_i stays within, with probability at least 1 - delta; the
    bound is proved when it is at least the certificate.
    """

    bound: float
    certificate: float
    label: str = ""

    @property
    def holds(self) -> bool:
        return self.bound >= self.certificate

    @property
    def detail(self) -> str:
        return f"bound={self.bound:.6g} >= certificate={self.certificate:.6g}"


def verify_hoeffding_p(p: float, b, delta: float, label: str = "") -> HoeffdingReport:
    """Prove the p-norm Hoeffding bound for every law with |Z_i| <= b_i.

    The certificate is ``min(2||b||_1, sqrt(2 log(2/delta)) ||b||_2) / n``:
    the range of the mean, and Hoeffding's inequality (J. Amer. Statist.
    Assoc. 58, 1963), ``P(|mean - E mean| >= t) <= 2 exp(-(nt)^2 / (2||b||_2^2))``.
    A bound below the certificate fails: it is not proved, which need not
    mean that some law violates it.  No draws; the bound and the
    certificate are computed on one scaling of b by :func:`_downscaled`.
    """
    b, e = _downscaled(np.asarray(b, dtype=float))
    bound = hoeffding_bound(p, b, delta)  # checks p, b and delta
    hoeffding = math.sqrt(2.0 * math.log(2.0 / delta)) * float(np.linalg.norm(b))
    certificate = min(2.0 * float(b.sum()), hoeffding) / b.size
    return HoeffdingReport(math.ldexp(bound, e), math.ldexp(certificate, e), label)


# ---------------------------------------------------------------------------
# Marcinkiewicz-Zygmund verifier


def mz_constant(q: float) -> float:
    """Usable (not optimal) constant: ``2^(1+1/q)`` for q <= 2, ``2(q-1)`` above."""
    _check_q(q)
    return 2.0 ** (1.0 + 1.0 / q) if q < 2.0 else 2.0 * (q - 1.0)


@dataclass(frozen=True)
class MZReport:
    """Closed-form check of the moment bound for the mean of independent laws.

    `lhs` bounds the L_q norm of the mean's deviation from its expectation,
    exactly at q = 2 and q = 4; `rhs` is the bound
    ``c_q/n * (sum_i ||Z_i||_q^q')^(1/q')`` with q' = min(2, q), from each
    law's exact L_q norm.  The bound is proved when ``lhs <= rhs``.
    """

    lhs: float
    rhs: float
    label: str = ""

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def detail(self) -> str:
        return f"lhs <= {self.lhs:.6g} <= rhs={self.rhs:.6g}"


def verify_mz(q: float, dists, label: str = "") -> MZReport:
    """Prove the moment bound for the mean of independent laws, 1 <= q <= 4.

    `dists` holds one :class:`UniformBounded` (a point mass when its width
    is 0) or :class:`Rademacher` per summand.  By Lyapunov's inequality the
    left side is at most the L_2 norm ``sqrt(K2)/n`` for q <= 2 and the L_4
    norm ``(K4 + 3 K2^2)^(1/4)/n`` above, from the summed second and fourth
    cumulants K2 and K4.  No draws.  Both sides are computed on the laws'
    parameters, all scaled by one :func:`_downscaled` exponent.
    """
    c = mz_constant(q)  # ValueError unless q >= 1
    if q > 4.0:
        raise ValueError(f"need q <= 4, got q={q}")
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    if not all(isinstance(law, _LAWS) for law in dists):
        raise TypeError(f"every law must be one of {', '.join(law.__name__ for law in _LAWS)}")
    e = _downscaled([v for law in dists for v in astuple(law)])[1]
    dists = [type(law)(*(math.ldexp(v, -e) for v in astuple(law))) for law in dists]
    n = len(dists)
    qp = min(2.0, q)
    rhs = c / n * math.fsum(law.norm(q) ** qp for law in dists) ** (1.0 / qp)
    k2, k4 = map(math.fsum, zip(*(law.cumulants for law in dists)))
    lhs = (math.sqrt(k2) if q <= 2.0 else (k4 + 3.0 * k2**2) ** 0.25) / n
    return MZReport(lhs=math.ldexp(lhs, e), rhs=math.ldexp(rhs, e), label=label)


# ---------------------------------------------------------------------------
# default verification suites


def hoeffding_default_suite(master_seed: int = 0) -> list[HoeffdingReport]:
    """Twenty p-norm Hoeffding checks spanning p, delta, size and bound shapes.

    Every fourth check's b is drawn uniform on [0.1, 2] under
    ``derive_seed(master_seed, 7, index)``: the only draws of either suite.
    """
    ps = (1.1, 1.3, 1.5, 1.7, 1.9)
    deltas = (0.2, 0.05, 0.01, 0.002)
    sizes = (1, 2, 4, 8, 16, 32, 64)
    reports = []
    for i, p in enumerate(ps):
        for j, delta in enumerate(deltas):
            idx = i * len(deltas) + j
            n = sizes[idx % len(sizes)]
            shape = idx % 4
            if shape < 3:  # b_i = r^i: flat (r = 1), geometric (0.7) or one spike (0)
                b = (1.0, 0.7, 0.0)[shape] ** np.arange(n)
            else:
                b = np.random.default_rng(derive_seed(master_seed, 7, idx)).uniform(0.1, 2.0, n)
            label = f"hoeffding[{idx}] p={p} delta={delta} n={n}"
            reports.append(verify_hoeffding_p(p, b, delta, label=label))
    return reports


def mz_default_suite() -> list[MZReport]:
    """Twenty moment-bound checks over q in {1, 1.5, 2, 3, 4} and four fixed mixtures."""
    qs = (1.0, 1.5, 2.0, 3.0, 4.0)
    mixtures = {
        "iid_uniform": [UniformBounded(-1.0, 1.0) for _ in range(8)],
        "mixed": [
            UniformBounded(0.0, 1.0),
            UniformBounded(0.0, 1.0),
            Rademacher(2.0),
            Rademacher(2.0),
            UniformBounded(0.5, 0.5),
        ],
        "single_rademacher": [Rademacher(1.0)],
        "asymmetric": [UniformBounded(-0.5, 1.5) for _ in range(16)],
    }
    reports = []
    for q in qs:
        for name, dists in mixtures.items():
            reports.append(verify_mz(q, dists, label=f"mz[{len(reports)}] q={q} {name}"))
    return reports
