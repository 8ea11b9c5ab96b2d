import gc
import math
import tracemalloc

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
