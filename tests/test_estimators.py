import gc
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
        median = statistics.median(math.fsum(g) / n1 for g in resid.reshape(k, n1).tolist())
        assert value == math.fsum(f(centres)) / m**2 + median


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
    if kind == "negative_zeros":  # fsum gives +0.0
        return np.full(n, -0.0)
    # "ties": ones and halves of their ulp, whose exact sums fall halfway
    return rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 3.0 * 2.0**-53], n)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    kind=st.sampled_from(["spread", "cancel", "subnormal", "zeros", "negative_zeros", "ties"]),
    n=st.one_of(st.integers(1, 70), st.integers(1, 70_000), st.just(70_000)),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounded_sums_match_fsum_bit_for_bit(kind, n, rows, seed):
    """`_rounded_sums(x) / n` is `math.fsum(row) / n` for every row along
    the last axis, with shape x.shape[:-1]."""
    rng = np.random.default_rng(seed)
    x = np.stack([_row(kind, n, rng) for _ in range(rows)]).reshape(rows, 1, n)
    sums = estimators._rounded_sums(x)
    assert sums.shape == (rows, 1)
    assert _bits(sums / n) == _bits([[math.fsum(row) / n] for row in x[:, 0].tolist()])


# group sums of +-5e-324 over n1 > 1 round to signed zeros, which tie
_TIES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.5, 1e300]


@pytest.mark.parametrize("k", range(1, 13))
def test_cv_mom_median_matches_statistics_median(k):
    """`_whole_cube` with a zero interpolant returns the integral of its cell
    means plus ``statistics.median`` of the k group means ``fsum(g) / n1``,
    bit for bit, ties and signed zeros included, for 256 replications at
    once.  The integral of the cell means is -5e-324 / 2 = -0.0, so the
    median's own bits show."""
    rng = np.random.default_rng(k)
    for n1 in (1, 2, 3):
        shape = (256, k, n1)
        spread = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, shape)
        resid = np.where(rng.random(shape) < 0.8, rng.choice(_TIES, shape), spread)
        f = Integrand(lambda x: resid.ravel(), dim=1)
        cfg = EstimatorConfig(method=Method.CV_MOM, s=1, m=2, k=k)
        fit = (estimators._regular(1, 1), np.zeros((1, 1, 2)), np.array([[-5e-324, 0.0]]))
        got = estimators._whole_cube(f, cfg, fit, np.full((*shape, 1), 0.25))
        groups = resid.tolist()
        expected = [-0.0 + statistics.median(math.fsum(g) / n1 for g in rep) for rep in groups]
        assert _bits(got) == _bits(expected), f"n1={n1}"


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


def test_stratified_draws_one_point_per_cell_in_cell_order():
    # cell i's point is the stream's i-th block of d doubles, mapped into the cell
    f = make_benchmark()
    result = run(f, EstimatorConfig(method=Method.STRAT, s=3, m=3, seed=8))
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence(8))).random((9, 2))
    assert result.value == math.fsum(f((u + subcube_indices(3, 2)) / 3)) / 9


def test_shifted_run_draws_shift_then_samples():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=1, interpolation_mode=SHIFTED, seed=21)
    result = run(f, cfg)
    # at s=1 the one node is the centre, shifted by the stream's first d doubles
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    at_node = f(((0.5 + rng.random(2)) / 2.0)[None])[0]
    at_sample = f(rng.random((1, 2)))[0]
    assert result.value == at_node + (at_sample - at_node)


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
