import gc
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scvquad import estimators
from scvquad.estimators import (
    DETERMINISTIC,
    SHIFTED,
    BudgetError,
    EstimatorConfig,
    Method,
    Mode,
    run,
)
from scvquad.grid import poly_dim, subcube_indices
from scvquad.stats import replicate
from scvquad.testbed import BumpSpec, Integrand, bump, random_poly
from scvquad.testbed import test_function_2d as make_benchmark


_DEFAULT_BLOCK = estimators._BLOCK_POINTS


def _constant(c, d):
    return Integrand(lambda pts: np.full(len(pts), c), dim=d, exact_integral=c, label=f"const {c}")


@pytest.mark.parametrize("method", [Method.SCV, Method.CV, Method.CV_MOM])
@pytest.mark.parametrize("s,d,m", [(2, 2, 3), (3, 2, 2), (4, 1, 5), (2, 3, 2)])
def test_polynomial_exactness(method, s, d, m):
    f = random_poly(s, d, seed=s * 100 + d * 10 + m)
    k = min(11, poly_dim(s, d) * m**d)
    cfg = EstimatorConfig(method=method, s=s, m=m, k=k, seed=99)
    result = run(f, cfg)
    assert abs(result.value - f.exact_integral) <= 1e-10


def test_scv_exact_in_shifted_mode():
    f = random_poly(3, 2, seed=4)
    cfg = EstimatorConfig(method=Method.SCV, s=3, m=3, interpolation_mode="shifted", seed=12)
    assert abs(run(f, cfg).value - f.exact_integral) <= 1e-10


def test_scv_budget_example():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4, seed=0)
    result = run(f, cfg)
    assert result.evals == 96
    assert f.evals == 96


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_determinism_bitwise(seed):
    f = make_benchmark()
    for method in (Method.SCV, Method.CV, Method.CV_MOM, Method.STRAT):
        cfg = EstimatorConfig(method=method, s=2, m=3, seed=seed)
        assert run(f, cfg).value == run(f, cfg).value


def test_determinism_at_large_m():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=64, seed=5)
    assert run(f, cfg).value == run(f, cfg).value


def test_different_seeds_differ():
    f = make_benchmark()
    a = run(f, EstimatorConfig(method=Method.SCV, s=2, m=4, seed=1)).value
    b = run(f, EstimatorConfig(method=Method.SCV, s=2, m=4, seed=2)).value
    assert a != b


def test_budget_accounting_random_configs():
    rng = np.random.default_rng(77)
    for _ in range(50):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        methods = (Method.SCV, Method.CV, Method.CV_MOM, Method.STRAT)
        method = methods[int(rng.integers(0, 4))]
        n0 = poly_dim(s, d)
        if method is Method.CV_MOM and n0 * m**d < 11:
            method = Method.SCV
        f = random_poly(s, d, seed=int(rng.integers(0, 1000)))
        cfg = EstimatorConfig(method=method, s=s, m=m, seed=int(rng.integers(0, 2**63)))
        before = f.evals
        result = run(f, cfg)
        assert f.evals - before == result.evals == cfg.budget(d)


def test_budget_formulas():
    d = 2
    assert EstimatorConfig(method=Method.SCV, s=2, m=4).budget(d) == 96
    assert EstimatorConfig(method=Method.CV, s=2, m=4).budget(d) == 96
    assert EstimatorConfig(method=Method.CV_MOM, s=2, m=4, k=11).budget(d) == 48 + 11 * 4
    assert EstimatorConfig(method=Method.STRAT, s=2, m=4).budget(d) == 16
    # floor(n0*m^d / k) = floor(27 / 11) = 2 residual samples per group
    assert EstimatorConfig(method=Method.CV_MOM, s=2, m=3, k=11).budget(d) == 27 + 11 * 2


def test_cv_mom_budget_violation():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.CV_MOM, s=2, m=1, k=11)
    with pytest.raises(BudgetError):
        run(f, cfg)


@pytest.mark.parametrize("mode", [DETERMINISTIC, SHIFTED])
@pytest.mark.parametrize("entry", [
    pytest.param(run, id="run"),
    pytest.param(lambda f, cfg: replicate(f, cfg, 4, master_seed=0, workers=2), id="replicate"),
])
def test_budget_violation_spends_no_evaluation(entry, mode):
    # k = 4 > n0*m^d = 3: one check, before the fit or any stack, in both modes
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.CV_MOM, s=2, m=1, k=4, interpolation_mode=mode)
    with pytest.raises(BudgetError, match="median-of-means needs"):
        entry(f, cfg)
    assert f.evals == 0


def test_cv_and_scv_coincide_at_m1():
    # the two methods draw identical samples at m=1 and apply the same formula
    f = make_benchmark()
    a = run(f, EstimatorConfig(method=Method.SCV, s=2, m=1, seed=31)).value
    b = run(f, EstimatorConfig(method=Method.CV, s=2, m=1, seed=31)).value
    assert a == pytest.approx(b, rel=1e-12)
    cfg_a = EstimatorConfig(method=Method.SCV, s=2, m=1)
    cfg_b = EstimatorConfig(method=Method.CV, s=2, m=1)
    assert cfg_a.budget(2) == cfg_b.budget(2) == 2 * poly_dim(2, 2)


def test_cv_mom_with_single_group_matches_cv():
    f = make_benchmark()
    a = run(f, EstimatorConfig(method=Method.CV, s=2, m=3, seed=8)).value
    b = run(f, EstimatorConfig(method=Method.CV_MOM, s=2, m=3, k=1, seed=8)).value
    assert a == b


def test_cv_mom_even_k_uses_central_pair():
    # median over an even group count averages the two central order
    # statistics; with k=2 that equals the overall residual mean, so the
    # run must agree with classical CV on the same stream (n0*m^d is even)
    f = make_benchmark()
    a = run(f, EstimatorConfig(method=Method.CV_MOM, s=2, m=2, k=2, seed=9)).value
    b = run(f, EstimatorConfig(method=Method.CV, s=2, m=2, seed=9)).value
    assert a == pytest.approx(b, rel=1e-12)


def test_cv_mom_group_count_default_is_eleven():
    assert EstimatorConfig(method=Method.CV_MOM, s=2, m=4).k == 11


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_cv_mom_at_s1_matches_an_independent_oracle(m, k):
    """At s = 1 the interpolant is f at each cell's centre, so CV+MoM is the
    mean of f over the centres plus the median of the k group means of
    f(x) - f(centre of x's cell), x the stream's first k * n1 points."""
    f = make_benchmark()
    n1 = m**2 // k
    centres = (subcube_indices(m, 2) + 0.5) / m
    for seed in range(20):
        value = run(f, EstimatorConfig(method=Method.CV_MOM, s=1, m=m, k=k, seed=seed)).value
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        x = rng.random((k * n1, 2))
        resid = f(x) - f((np.minimum(np.floor(x * m), m - 1) + 0.5) / m)
        median = statistics.median(_fold(g) / n1 for g in resid.reshape(k, n1).tolist())
        assert value == _fold(f(centres).tolist()) / m**2 + median


def _fold(row) -> float:
    """The scalar reference of `_rounded_sums`: a plain loop over Python
    floats that adds the top half of the terms onto the bottom half (an odd
    count keeps its middle term) until one is left, from ``+0.0 + x``."""
    buf = [0.0 + v for v in row]
    w = len(buf)
    while w > 1:
        h = w // 2
        for i in range(h):
            buf[i] += buf[w - h + i]
        w -= h
    return buf[0]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n doubles of one hard case for a correctly rounded sum."""
    spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n)
    if kind == "spread":
        return spread
    if kind == "cancel":  # an exact zero sum, in shuffled order
        return rng.permutation(np.concatenate([spread[: (n + 1) // 2], -spread[: n // 2]]))
    if kind == "subnormal":
        return rng.integers(-1000, 1001, n) * 5e-324
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "negative_zeros":  # sums to +0.0
        return np.full(n, -0.0)
    if kind == "near_overflow":  # sums that overflow in some orders and not in others
        return rng.choice([1.0, -1.0], n) * rng.uniform(0.25, 1.0, n) * np.finfo(float).max
    # "ties": ones and halves of their ulp, whose exact sums fall halfway
    return rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 3.0 * 2.0**-53], n)


_SUM_KINDS = ["spread", "cancel", "subnormal", "zeros", "negative_zeros", "ties", "near_overflow"]
_SUM_LENGTHS = st.one_of(st.integers(1, 70), st.integers(1, 70_000), st.just(70_000))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(kind=st.sampled_from(_SUM_KINDS), n=_SUM_LENGTHS, rows=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(kind="near_overflow", n=4, rows=1, seed=1)  # fsum overflows; the fold's pairs (0, 2), (1, 3) cancel
@example(kind="near_overflow", n=4, rows=2, seed=8)
def test_rounded_sums_equal_the_scalar_fold_alone_or_stacked(kind, n, rows, seed):
    """`_rounded_sums(x)` has shape x.shape[:-1] and, bit for bit, the scalar
    fold of each row along the last axis, overflow to ±inf or nan included;
    each row summed alone has the bits it has inside the stack."""
    rng = np.random.default_rng(seed)
    x = np.stack([_row(kind, n, rng) for _ in range(rows)]).reshape(rows, 1, n)
    sums = estimators._rounded_sums(x)
    assert sums.shape == (rows, 1)
    assert _bits(sums) == _bits([[_fold(row)] for row in x[:, 0].tolist()])
    for r in range(rows):
        assert _bits(estimators._rounded_sums(x[r])) == _bits(sums[r])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(kind=st.sampled_from(_SUM_KINDS), n=_SUM_LENGTHS, rows=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(kind="near_overflow", n=4, rows=2, seed=8)  # sum|x| overflows and the sums do not
def test_rounded_sums_within_the_pairwise_bound_of_fsum(kind, n, rows, seed):
    """|fold - fsum| <= ceil(log2 n) * 2^-53 * sum|x| for every row where
    ``math.fsum`` does not overflow (Higham 2002, §4.2: a fold of depth
    ceil(log2 n) rounds each term at most that many times), unless a partial
    sum overflowed, which needs sum|x| above the largest double.  The bound's
    terms are scaled by 2^-53 first, so it never overflows."""
    rng = np.random.default_rng(seed)
    x = np.stack([_row(kind, n, rng) for _ in range(rows)])
    for row, got in zip(x.tolist(), estimators._rounded_sums(x).tolist()):
        try:
            exact = math.fsum(row)
        except OverflowError:
            continue
        if math.isfinite(got):
            bound = math.ceil(math.log2(n)) * math.fsum(abs(v) * 2.0**-53 for v in row)
            assert abs(got - exact) <= bound
        else:
            with pytest.raises(OverflowError):
                math.fsum(map(abs, row))


_NORMAL_SHAPES = [(1, 1), (8, 1024), (2, 10_001), (1, 196_608)]
_SHAPES = [(3, 2), (170, 16), (1870, 4)] + _NORMAL_SHAPES


@pytest.mark.parametrize("kind,rows,n", [("zeros", *shape) for shape in _SHAPES]
                         + [("negative_zeros", *shape) for shape in _SHAPES]
                         + [("normal", *shape) for shape in _NORMAL_SHAPES])
def test_rounded_sums_certify_benign_rows_without_fsum(kind, rows, n):
    """All-zero rows, all -0.0 rows and rows of normal data, in stacks of the
    estimators' shapes, sum to the scalar fold's bits; a row of zeros of
    either sign sums to +0.0."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((rows, n)) if kind == "normal" else _row(kind, rows * n, rng)
    x = x.reshape(rows, n)
    sums = estimators._rounded_sums(x)
    assert _bits(sums) == _bits([_fold(row) for row in x.tolist()])
    if kind != "normal":
        assert _bits(sums) == _bits(np.zeros(rows))


# group sums of +-5e-324 over n1 > 1 round to signed zeros, which tie
_TIES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.5, 1e300]


@pytest.mark.parametrize("k", range(1, 13))
def test_cv_mom_median_matches_statistics_median(k):
    """`_whole_cube` with a zero interpolant returns the integral of its cell
    means plus ``statistics.median`` of the k group means ``_fold(g) / n1``,
    bit for bit, ties and signed zeros included, for 256 replications at
    once.  The integral of the cell means is -5e-324 / 2 = -0.0, so the
    median's own bits show.  Residual i sits at its own point
    ``(i + 0.5) / 2N`` of cell 0, and f looks it up from the point, so any
    batch of points gets its own values.  The samples come in one tile, and
    again in tiles of one sample each."""
    rng = np.random.default_rng(k)
    for n1 in (1, 2, 3):
        shape = (256, k, n1)
        spread = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, shape)
        resid = np.where(rng.random(shape) < 0.8, rng.choice(_TIES, shape), spread)
        n = resid.size
        f = Integrand(lambda x: resid.ravel()[np.rint(x[:, 0] * 2 * n - 0.5).astype(int)], dim=1)
        cfg = EstimatorConfig(method=Method.CV_MOM, s=1, m=2, k=k)
        means = np.array([[-5e-324, 0.0]])  # their fold over the 2 cells is -0.0
        fit = (estimators._regular(1, 1), np.zeros((1, 2, 1)), means)  # _fit's form
        x = ((np.arange(n) + 0.5) / (2 * n)).reshape(256, k * n1, 1)
        groups = resid.tolist()
        expected = [-0.0 + statistics.median(_fold(g) / n1 for g in rep) for rep in groups]
        for width in (k * n1, 1):
            tiles = [(slice(i, i + width), x[:, i : i + width]) for i in range(0, k * n1, width)]
            got = estimators._whole_cube(f, cfg, fit, (*shape, 1), iter(tiles))
            assert _bits(got) == _bits(expected), f"n1={n1}, width={width}"


def test_ensembles_import_neither_statistics_nor_numpy_ma():
    """CV+MoM's median is a sort, so an ensemble of each method in each mode
    loads neither `statistics` nor `numpy.ma` (which `np.median` imports on
    its first call).  A fresh interpreter, since pytest and hypothesis load
    `statistics` themselves."""
    code = "\n".join([
        "import sys",
        "import scvquad as sq",
        "for method in ('scv', 'cv', 'cv_mom', 'strat'):",
        "    for mode in ('deterministic', 'shifted'):",
        "        cfg = sq.EstimatorConfig(method=method, s=2, m=2, k=5, interpolation_mode=mode)",
        "        sq.replicate(sq.test_function_2d(), cfg, 5, master_seed=1)",
        "print(sorted({'statistics', 'numpy.ma'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _reverse_fold(x: np.ndarray) -> np.ndarray:
    """Each row's sum along the last axis, adding its terms one at a time from
    the last: another order than `_rounded_sums`, and still one row at a time."""
    total = x[..., -1] + 0.0
    for j in range(x.shape[-1] - 2, -1, -1):
        total = total + x[..., j]
    return total


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("method", list(Method))
def test_every_engine_sum_goes_through_the_one_fold(monkeypatch, method, mode):
    """`run` folds each sum over samples or cells by `_rounded_sums`: over the
    samples of a cell (n0 for SCV, one for STRAT) or of a group (n1 for CV and
    CV+MoM), and over the m^d cells (SCV's and STRAT's cell terms, and the
    interpolant's integral for CV and CV+MoM).  With a fold that adds in
    another order swapped in, every method's values change bits at s = 2 and
    m >= 2.  The module holds no other reduction."""
    f, m, k = make_benchmark(), 4, 3
    cfg = EstimatorConfig(method=method, s=2, m=m, k=k, interpolation_mode=mode)
    lengths = []
    fold = estimators._rounded_sums
    monkeypatch.setattr(estimators, "_rounded_sums", lambda x: lengths.append(x.shape[-1]) or fold(x))
    run(f, cfg)
    n0, cells = poly_dim(2, 2), m**2
    samples = {Method.SCV: n0, Method.STRAT: 1, Method.CV: n0 * cells,
               Method.CV_MOM: n0 * cells // k}[method]
    assert sorted(set(lengths)) == sorted({samples, cells})
    for size in (2, 3, 4):
        cfg = EstimatorConfig(method=method, s=2, m=size, k=k, interpolation_mode=mode)
        monkeypatch.setattr(estimators, "_rounded_sums", fold)
        values = estimators._ensemble(f, cfg, np.arange(16))
        monkeypatch.setattr(estimators, "_rounded_sums", _reverse_fold)
        assert (estimators._ensemble(f, cfg, np.arange(16)) != values).any(), size
    source = Path(estimators.__file__).read_text()
    assert ".mean(" not in source and ".sum(" not in source


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("method", list(Method))
def test_overflowing_sums_fail_loudly(method, mode):
    """Finite integrand values near the largest double whose cell sum
    overflows give a ValueError naming the method, s and m, from `run` and
    from `replicate`, never an inf or nan estimate."""
    f = _constant(0.75 * np.finfo(float).max, 1)
    cfg = EstimatorConfig(method=method, s=1, m=2, k=2, interpolation_mode=mode)
    match = f"{method.value} at s=1, m=2 gave a non-finite estimate"
    with pytest.raises(ValueError, match=match):
        run(f, cfg)
    with pytest.raises(ValueError, match=match):
        replicate(f, cfg, 5000, master_seed=1, workers=2)  # two stacks


def test_cv_mom_rejects_an_overflowed_group():
    """A CV+MoM group whose sum overflows (±inf, or nan where +inf and -inf
    partial sums meet) makes the estimate fail, though the median of the
    other groups is finite.  At s = 1 every node is a cell centre, where f
    is 0, so the residual is f at the stream's first k * n1 points; f is
    ±0.9 * the largest double on the outer quarters of each cell."""
    big = 0.9 * np.finfo(float).max
    m, k = 16, 3
    n1 = m // k

    def spikes(x):
        frac = x[:, 0] * m - np.floor(x[:, 0] * m)
        return np.where(frac < 0.25, big, np.where(frac > 0.75, -big, 0.0))

    seen = set()
    for seed in range(300):
        x = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random((k * n1, 1))
        sums = [_fold(g) for g in spikes(x).reshape(k, n1).tolist()]
        cfg = EstimatorConfig(method=Method.CV_MOM, s=1, m=m, k=k, seed=seed)
        if all(map(math.isfinite, sums)):
            assert math.isfinite(run(Integrand(spikes, dim=1), cfg).value)
            continue
        seen.update("nan" if math.isnan(v) else "inf" for v in sums if not math.isfinite(v))
        with pytest.raises(ValueError, match="cv_mom at s=1, m=16 gave a non-finite estimate"):
            run(Integrand(spikes, dim=1), cfg)
    assert seen == {"nan", "inf"}


def test_stratified_constant_exact():
    f = _constant(2.5, 2)
    for seed in (0, 7, 123):
        assert run(f, EstimatorConfig(method=Method.STRAT, s=1, m=3, seed=seed)).value == 2.5


def test_stratified_m1_single_sample():
    f = make_benchmark()
    result = run(f, EstimatorConfig(method=Method.STRAT, s=1, m=1, seed=21))
    assert result.evals == f.evals == 1
    # the one cell is the whole cube: f at the stream's first uniform point
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    assert result.value == f(rng.random((1, 2)))[0]


def test_stratified_draws_one_point_per_cell_in_cell_order(monkeypatch):
    """Cell i's point is the stream's i-th block of d doubles, mapped into
    the cell, whether the cells come in one tile or one per tile: at d = 3
    the tiles start at doubles of every residue mod 4."""
    for d, block in product((2, 3), (None, 1)):
        f = make_benchmark() if d == 2 else Integrand(lambda x: np.exp(x[:, 0] - x[:, 1] * x[:, 2]), 3)
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", block or _DEFAULT_BLOCK)
        result = run(f, EstimatorConfig(method=Method.STRAT, s=3, m=3, seed=8))
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(8))).random((3**d, d))
        assert result.value == _fold(f((u + subcube_indices(3, d)) / 3).tolist()) / 3**d, (d, block)


def test_shifted_run_draws_shift_then_samples():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=1, interpolation_mode=SHIFTED, seed=21)
    result = run(f, cfg)
    # at s=1 the one node is the centre, shifted by the stream's first d doubles
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    at_node = f(((0.5 + rng.random(2)) / 2.0)[None])[0]
    at_sample = f(rng.random((1, 2)))[0]
    assert result.value == at_node + (at_sample - at_node)


@pytest.mark.parametrize("method,s,d,m,k", [
    (Method.SCV, 2, 1, 3, 11), (Method.CV, 1, 3, 1, 11), (Method.CV_MOM, 2, 3, 2, 5),
    (Method.STRAT, 2, 3, 3, 11)])
def test_stack_draws_are_numpys_own_streams(monkeypatch, method, s, d, m, k):
    """Replication r's draws are, bit for bit, numpy's own stream for seed
    r, ``Generator(Philox(SeedSequence(seed))).random``: its sample block
    (deterministic mode), or its shift and then its block (shifted mode),
    as `_fit` and the method body receive them, in both stack shapes that
    `_ensemble` builds.  Six replications in one tile: no row length here
    is a multiple of 4, so each row leaves doubles in the reused Philox's
    buffer that the next re-key must drop.  One replication with a tile per
    cell (SCV, STRAT) or per sample (CV, CV+MoM), each tile read on from the
    row's stream into one reused buffer: each tile, a span [start, stop) of
    the row, is ``random(n)[start:stop]``, n the row's length, and the
    tiles start at doubles of every residue mod 4 (at d = 3, or at d = 1
    over both modes)."""
    seeds = [0, 7, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1]  # one and two 32-bit words
    keys = estimators._philox_keys(np.array(seeds, dtype=np.uint64))
    seen = {}

    def body(f, cfg, fit, shape, tiles):
        seen["tiles"] = [(tile, ut.copy()) for tile, ut in tiles]  # the buffer is reused
        return np.zeros(shape[0])

    monkeypatch.setattr(estimators, "_fit", lambda f, cfg, shifts: seen.update(shifts=shifts.copy()))
    monkeypatch.setattr(estimators, "_whole_cube" if method in (Method.CV, Method.CV_MOM)
                        else "_stratified", body)
    f = Integrand(lambda x: x[:, 0], dim=d)
    residues, tiled = set(), False
    for mode, block in product((DETERMINISTIC, SHIFTED), (None, 1)):
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", block or _DEFAULT_BLOCK)
        cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode)
        n_shift = d if mode is SHIFTED and method is not Method.STRAT else 0
        shape = estimators._sample_shape(cfg, d)
        n = n_shift + math.prod(shape)
        assert n % 4
        size = math.prod(shape[1:]) if method in (Method.SCV, Method.STRAT) else d  # doubles per tile item
        stacks = [slice(0, 6)] if block is None else [slice(r, r + 1) for r in range(6)]
        for stack in stacks:
            estimators._estimates(f, cfg, None, keys[stack])
            assert len(seen["tiles"]) == (1 if block is None else math.prod(shape) // size)
            tiled |= len(seen["tiles"]) > 1  # CV at m = 1 draws one sample
            for i, seed in enumerate(seeds[stack]):
                row = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(n)
                if n_shift:
                    assert seen["shifts"][i].tobytes() == row[:d].tobytes(), seed
                for tile, ut in seen["tiles"]:
                    start, stop = n_shift + tile.start * size, n_shift + tile.stop * size
                    assert ut[i].tobytes() == row[start:stop].tobytes(), (mode, seed, tile)
                    residues.add(start % 4)
                u = np.concatenate([ut[i].ravel() for _, ut in seen["tiles"]])
                assert u.tobytes() == row[n_shift:].tobytes(), (mode, seed)
    assert residues == ({0, 1, 2, 3} if tiled else {0, d % 4})  # the one-tile starts: 0 and d


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    method=st.sampled_from(list(Method)),
    mode=st.sampled_from([DETERMINISTIC, SHIFTED]),
    s=st.integers(1, 3),
    d=st.integers(1, 3),
    m=st.integers(1, 4),
    k=st.integers(1, 11),
    reps=st.integers(1, 12),
    block=st.one_of(st.integers(1, 2**9), st.integers(1, 2**20)),
)
@example(method=Method.SCV, mode=SHIFTED, s=2, d=2, m=2, k=1, reps=5, block=24)  # two to a stack
@example(method=Method.CV, mode=DETERMINISTIC, s=2, d=2, m=2, k=1, reps=3, block=5)  # three tiles
def test_a_stack_of_several_replications_is_read_in_one_tile(method, mode, s, d, m, k, reps, block):
    """`_estimates` reads on from one generator for a stack's later tiles,
    which is a row's own stream only if the stack holds that one row.  So
    every stack that `_ensemble` hands to a method body either holds one
    replication or comes in one tile, whatever the configuration and
    ``_BLOCK_POINTS``; the body's tiles are counted as it reads them."""
    k = min(k, poly_dim(s, d) * m**d)
    cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode)
    stacks = []

    def counted(body):
        def run_body(f, cfg, fit, shape, tiles):
            read = []
            values = body(f, cfg, fit, shape, (read.append(tile) or tile for tile in tiles))
            stacks.append((shape[0], len(read)))
            return values
        return run_body

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_BLOCK_POINTS", block)
        for name in ("_stratified", "_whole_cube"):
            patch.setattr(estimators, name, counted(getattr(estimators, name)))
        estimators._ensemble(random_poly(s, d, seed=s * 10 + d), cfg, np.arange(reps))
    assert sum(rows for rows, _ in stacks) == reps
    assert all(rows == 1 or tiles == 1 for rows, tiles in stacks), stacks


def test_stratified_builds_no_interpolator():
    # stratified sampling reads only the cell offsets
    estimators._regular.cache_clear()
    run(make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=1000, seed=4))
    assert estimators._regular.cache_info().currsize == 0


def test_regular_interpolator_shared_across_grid_sizes():
    estimators._regular.cache_clear()
    for m in (3, 5):
        run(make_benchmark(), EstimatorConfig(method=Method.SCV, s=2, m=m, seed=4))
    assert estimators._regular.cache_info().currsize == 1


def test_ensemble_holds_no_mapped_nodes():
    # the n0 * m^d nodes mapped into the cells are freed with the fit
    s, d, m = 3, 4, 12
    f = bump(BumpSpec(s=s, d=d, p=1.0, sigma=0.3, center=(0.5,) * d))
    tracemalloc.start()
    try:
        replicate(f, EstimatorConfig(method=Method.SCV, s=s, m=m), 4, master_seed=7)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < poly_dim(s, d) * m**d * d * 8 / 4


_TILE_METHODS = [(Method.SCV, 11), (Method.STRAT, 11), (Method.CV, 11), (Method.CV_MOM, 5)]


@pytest.mark.parametrize("mode", [DETERMINISTIC, SHIFTED])
@pytest.mark.parametrize("method,k", _TILE_METHODS, ids=[m.value for m, _ in _TILE_METHODS])
@pytest.mark.parametrize("s,d,m", [(2, 2, 64), (3, 2, 20), (3, 4, 3), (3, 3, 4)],
                         ids=["n0=3", "n0=6", "n0=15", "n0=10-d3"])
def test_tiles_keep_every_bit(monkeypatch, s, d, m, method, k, mode):
    """`replicate` errors are byte-identical whatever the tile size: one cell
    or one sample per tile; a last tile of one cell (SCV, STRAT) or one
    sample (CV, CV+MoM), the fit's last tile one cell too except for CV+MoM;
    and the whole replication in one tile.  At n0 >= 6 a tiled collocation
    solve or moments product changes bits, so both stay whole.  At d = 3 a
    cell's or a sample's draws are not a multiple of 4 doubles, so tiles
    start inside a Philox block, and each later tile must read on from the
    doubles its row's generator still holds."""
    f = bump(BumpSpec(s=2, d=d, p=1.0, sigma=0.45, center=(0.5,) * d))
    cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode)
    default = replicate(f, cfg, 3, master_seed=5).errors.tobytes()
    shape = estimators._sample_shape(cfg, d)
    unit = shape[1] if method in (Method.SCV, Method.STRAT) else 1  # points per cell or per sample
    for block in (1, shape[0] * shape[1] - unit, 2**40):
        monkeypatch.setattr(estimators, "_BLOCK_POINTS", block)
        assert replicate(f, cfg, 3, master_seed=5).errors.tobytes() == default, f"block={block}"


def test_cv_memory_is_bounded_by_tiles():
    """One CV `run` on the benchmark's 4-d bump at s=3, m=10 (n0 = 15, 10^4
    cells, N = 1.5*10^5 samples) peaks below 20 MB (10^6 bytes) traced.
    What still grows with the replication: the residual row, 1.2 MB (N),
    and the fold's copy of it; the fit's values and coefficients, 1.2 MB
    each (n0*10^4 doubles).  Each tile of 2^13 samples adds its draws,
    points, design matrix and gathered coefficients, about 2^13*n0 doubles
    (1 MB) each.  That is about 8 MB, and 5.2 MB was measured; the whole
    replication at once peaked at 49.3 MB, and with the whole draw block
    but tiles, at 9.7 MB."""
    f = bump(BumpSpec(s=2, d=4, p=1.0, sigma=0.45, center=(0.5,) * 4))
    cfg = EstimatorConfig(method=Method.CV, s=3, m=10, seed=3)
    run(f, cfg)  # caches (node set, cell indices) outside the trace
    tracemalloc.start()
    try:
        run(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("method", [Method.SCV, Method.CV])
def test_draws_are_bounded_by_one_tile(method):
    """One `run` on the benchmark's 4-d bump at s=3, m=16 (n0 = 15, 65,536
    cells; SCV and CV draw N = 983,040 points) peaks, traced, below what
    still grows with m^d plus one tile, so no stack holds its whole sample
    block (N*d doubles, 31.5 MB):
    - the fit: its values and coefficients, n0 doubles per cell each
      (7.9 MB), and its means, one per cell;
    - one value per cell (SCV's cell terms) or per sample (CV's residuals),
      twice: the one fold copies it;
    - one tile of 2^13 points, each with at most 4*d doubles of draws and
      located points, n0 design-matrix entries, n0 gathered coefficients
      and 8 more values.
    That is 20.8 MB for SCV and 35.5 MB for CV."""
    s, d, m = 3, 4, 16
    f = bump(BumpSpec(s=2, d=d, p=1.0, sigma=0.45, center=(0.5,) * d))
    n0, cells = poly_dim(s, d), m**d
    per_item = cells if method is Method.SCV else n0 * cells
    bound = 8 * (2 * n0 * cells + cells + 2 * per_item + estimators._BLOCK_POINTS * (4 * d + 2 * n0 + 8))
    cfg = EstimatorConfig(method=method, s=s, m=m, seed=3)
    subcube_indices(m, d)  # cached outside the trace, with the node set
    estimators._regular(s, d)
    tracemalloc.start()
    try:
        run(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_run_dispatches_all_methods():
    f = make_benchmark()
    for method in (Method.SCV, Method.CV, Method.CV_MOM, Method.STRAT):
        cfg = EstimatorConfig(method=method, s=2, m=2, k=5, seed=1)
        assert np.isfinite(run(f, cfg).value)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=0, m=1)
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=1, m=0)
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=1, m=1, k=0)
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=1, m=1, interpolation_mode="other")
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=1, m=1, seed=2**64)
    with pytest.raises(ValueError):
        EstimatorConfig(method=Method.SCV, s=1, m=1, seed=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(method="crude", s=1, m=1)
    for field, value in [("s", 2.0), ("m", 2.5), ("k", 3.0), ("seed", 1.5), ("seed", "7")]:
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            EstimatorConfig(**{"method": Method.SCV, "s": 1, "m": 1, field: value})
    # numpy integers are accepted and stored as ints: 16**2 does not wrap in uint8
    cfg = EstimatorConfig(method=Method.STRAT, s=np.int64(1), m=np.uint8(16), seed=np.uint64(5))
    assert (cfg.s, cfg.m, cfg.seed) == (1, 16, 5) and type(cfg.m) is int
    assert cfg.budget(2) == 256


def test_interpolation_mode_is_coerced_to_mode():
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=1, interpolation_mode="shifted")
    assert cfg.interpolation_mode is Mode.SHIFTED and cfg.interpolation_mode == "shifted"
    assert EstimatorConfig(method=Method.SCV, s=1, m=1).interpolation_mode is Mode.DETERMINISTIC


_STRAT = EstimatorConfig(method=Method.STRAT, s=1, m=2)


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda b: replicate(make_benchmark(), _STRAT, b, 1), id="replicate-R"),
    pytest.param(lambda b: replicate(make_benchmark(), _STRAT, 2, 1, workers=b),
                 id="replicate-workers"),
    pytest.param(lambda b: EstimatorConfig(method=Method.SCV, s=b, m=1), id="config-s"),
    pytest.param(lambda b: EstimatorConfig(method=Method.SCV, s=1, m=b), id="config-m"),
    pytest.param(lambda b: EstimatorConfig(method=Method.SCV, s=1, m=1, k=b), id="config-k"),
    pytest.param(lambda b: EstimatorConfig(method=Method.SCV, s=1, m=1, seed=b), id="config-seed"),
    pytest.param(lambda b: Integrand(np.sin, dim=b), id="integrand-dim"),
    pytest.param(lambda b: subcube_indices(b, 2), id="subcube-m"),
])
def test_bools_are_not_sizes_or_seeds(entry, flag):
    # a Python bool is an int subclass, but no more a count or a seed than numpy's
    with pytest.raises(TypeError, match="must be an integer"):
        entry(flag)


def test_unbiasedness_smoke():
    # light-weight check; the full-size version lives in the acceptance suite
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4)
    sample = replicate(f, cfg, 4000, master_seed=314)
    se = sample.errors.std(ddof=1) / math.sqrt(4000)
    assert abs(sample.errors.mean()) <= 4 * se


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    method=st.sampled_from([Method.SCV, Method.CV, Method.CV_MOM]),
    s=st.integers(1, 4),
    d=st.integers(1, 4),
    m=st.integers(1, 4),
    mode=st.sampled_from([DETERMINISTIC, SHIFTED]),
    seed=st.integers(0, 2**64 - 1),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_invariants_on_random_configs(method, s, d, m, mode, seed, a, b):
    """Exactness below degree s, the evaluation budget and bitwise
    determinism for every method; linearity for SCV and CV."""
    m = min(m, 2) if d == 4 else m  # at most 16 cells at d = 4
    k = min(11, poly_dim(s, d) * m**d)
    cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode, seed=seed)
    poly = random_poly(s, d, seed=seed % 1000)
    first = run(poly, cfg)
    assert poly.evals == first.evals == cfg.budget(d)
    assert abs(first.value - poly.exact_integral) <= 1e-10
    assert run(poly, cfg).value == first.value
    if method is Method.CV_MOM:
        return
    # two integrands the interpolant does not reproduce, on one stream
    f = random_poly(s + 2, d, seed=seed % 997)
    g = Integrand(lambda pts: np.exp(pts.sum(axis=1)), dim=d)
    h = Integrand(lambda pts: a * f(pts) + b * g(pts), dim=d)
    qf, qg, qh = (run(fn, cfg).value for fn in (f, g, h))
    assert qh == pytest.approx(a * qf + b * qg, rel=1e-12, abs=1e-12)
