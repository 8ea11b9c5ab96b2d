import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from functools import partial

import mpmath
import numpy as np
import pytest

import scvquad.stats as stats
from scvquad import estimators, interp
from scvquad.estimators import DETERMINISTIC, SHIFTED, EstimatorConfig, Method, run
from scvquad.grid import poly_dim, regular_nodes, shifted_nodes
from scvquad.interp import LocalInterpolator, UnisolvenceError
from scvquad.stats import (
    Constant,
    ErrorSample,
    Rademacher,
    UniformBounded,
    derive_seed,
    fit_rate,
    histogram,
    hoeffding_bound,
    hoeffding_default_suite,
    mz_constant,
    mz_default_suite,
    prob_error,
    replicate,
    tail_fraction,
    verify_hoeffding_p,
    verify_mz,
)
from scvquad.testbed import BumpSpec, Integrand, bump, random_poly
from scvquad.testbed import test_function_2d as make_benchmark


def _sample(errors):
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=2)
    return ErrorSample(errors=errors, config=cfg)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(42, 0)
    assert a == derive_seed(42, 0)
    assert a != derive_seed(42, 1)
    assert a != derive_seed(43, 0)
    assert 0 <= a < 2**64


def _oracle_seed(master, *indices):
    return int(np.random.SeedSequence(master, spawn_key=indices).generate_state(1, np.uint64)[0])


def test_derive_seed_matches_seed_sequence():
    rng = np.random.default_rng(11)
    masters = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 5]
    for low, high in ((0, 2**32), (2**32, 2**63), (2**63, 2**64)):
        masters += [int(x) for x in rng.integers(low, high, 4, dtype=np.uint64)]
    index_tuples = [(), (0,), (2**32,), (2**32, 3, 1), (2**64 + 1, 7), (5, 0, 2**40, 9, 1, 3)]
    for master in masters:
        for indices in index_tuples:
            seed = derive_seed(master, *indices)
            assert type(seed) is int and seed == _oracle_seed(master, *indices), (master, indices)
        seeds = derive_seed(master, 3, np.arange(3000))
        assert seeds.dtype == np.uint64 and seeds.shape == (3000,)
        for i in [0, 1, 2999, *rng.integers(0, 3000, 40).tolist()]:
            assert int(seeds[i]) == _oracle_seed(master, 3, i), (master, i)
        first = derive_seed(master, np.array([0, 2**32 - 1], dtype=np.uint32), 2**33)
        assert first.tolist() == [_oracle_seed(master, i, 2**33) for i in (0, 2**32 - 1)]


def test_derive_seed_takes_only_non_negative_integers():
    assert derive_seed(np.int64(5), np.uint8(2)) == derive_seed(5, 2)
    for args in ((5, 2.7), (5, 2.0), (5.0, 2), (np.float64(5.0),), (5, np.float64(2.0))):
        with pytest.raises(TypeError):
            derive_seed(*args)
    for args in ((-1,), (5, -2), (5, 1, -1)):
        with pytest.raises(ValueError):
            derive_seed(*args)
    for bad in (np.array([0.0, 1.0]), np.array([0, -1]), np.array([0, 2**32]), np.array([True])):
        with pytest.raises(ValueError):
            derive_seed(5, bad)


def test_philox_keys_match_seed_sequence():
    rng = np.random.default_rng(12)
    one_word = [0, 1, 2**32 - 1, *rng.integers(0, 2**32, 30).tolist()]
    two_words = [2**32, 2**64 - 1]
    two_words += rng.integers(2**32, 2**64, 30, dtype=np.uint64).tolist()
    seeds = one_word + two_words
    keys = estimators._philox_keys(np.array(seeds, dtype=np.uint64))
    for seed, key in zip(seeds, keys):
        assert key.tolist() == np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()


def _exp_sum(d):
    exact = (math.e - 1.0) ** d
    return Integrand(lambda pts: np.exp(pts.sum(axis=1)), dim=d, exact_integral=exact)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("mode", [DETERMINISTIC, SHIFTED])
@pytest.mark.parametrize("s,d,m", [(1, 1, 3), (2, 2, 2), (3, 3, 1), (3, 2, 3), (2, 3, 2)])
def test_replicate_equals_scalar_runs(monkeypatch, method, mode, s, d, m):
    """Replication i of an ensemble is bitwise the estimate run alone under
    derive_seed(master, i), for any worker count and however the
    replications are stacked; stacks of three replications here."""
    k = min(5, poly_dim(s, d) * m**d)
    cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode)
    points = math.prod(estimators._sample_shape(cfg, d)[:-1])
    monkeypatch.setattr(estimators, "_BLOCK_POINTS", 3 * points)
    f, R, master = _exp_sum(d), 10, 2**63 + 17
    expected = np.array(
        [run(f, replace(cfg, seed=derive_seed(master, i))).value for i in range(R)]
    ) - f.exact_integral
    for workers in (1, 2, 3):
        errors = replicate(f, cfg, R, master, workers=workers).errors
        assert errors.tobytes() == expected.tobytes(), workers


def test_replicate_equals_scalar_runs_across_default_block():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4)
    R = estimators._BLOCK_POINTS // 48 + 5  # 48 sample points per replication
    seeds = [derive_seed(3, i) for i in range(R)]
    expected = np.array([run(f, replace(cfg, seed=seed)).value for seed in seeds]) - 1.0
    for workers in (1, 2):  # one full stack and a short one, then two short stacks
        assert replicate(f, cfg, R, 3, workers=workers).errors.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", [Method.SCV, Method.CV, Method.CV_MOM])
def test_shifted_replicate_crosses_stacks(method):
    """A shifted ensemble spanning several stacks of the default size is
    bitwise the per-seed runs, at 1, 2 and 3 workers."""
    f = make_benchmark()
    cfg = EstimatorConfig(method=method, s=2, m=16, interpolation_mode=SHIFTED)
    points = math.prod(estimators._sample_shape(cfg, 2)[:-1])
    R = 4 * (estimators._BLOCK_POINTS // points) + 3  # five stacks at one worker
    expected = np.array([run(f, replace(cfg, seed=derive_seed(5, i))).value for i in range(R)])
    for workers in (1, 2, 3):
        errors = replicate(f, cfg, R, 5, workers=workers).errors
        assert errors.tobytes() == (expected - 1.0).tobytes(), workers



@pytest.mark.parametrize("full", [0, 2])  # below one stack; two full stacks and a short one
def test_stacks_are_cut_by_size_alone(monkeypatch, full):
    """Every worker count hands estimators._estimates the same stacks; a pool
    is built only for two or more stacks and workers, with min(workers,
    stacks) threads; the errors keep the per-seed bits."""
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4)
    per_stack = estimators._BLOCK_POINTS // 48  # 48 sample points per replication
    R = full * per_stack + 7
    expected = np.array([run(f, replace(cfg, seed=derive_seed(4, i))).value for i in range(R)])
    stacks, pools = [], []
    estimates = estimators._estimates

    def recorded(f, cfg, fit, keys):
        stacks.append(len(keys))
        return estimates(f, cfg, fit, keys)

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(estimators, "_estimates", recorded)
    monkeypatch.setattr(estimators, "ThreadPoolExecutor", RecordingPool)
    for workers in (1, 2, 3, 8):
        stacks.clear()
        pools.clear()
        errors = replicate(f, cfg, R, 4, workers=workers).errors
        assert sorted(stacks) == sorted([per_stack] * full + [7]), workers
        threads = min(workers, full + 1)
        assert pools == ([threads] if threads > 1 else []), workers
        assert errors.tobytes() == (expected - 1.0).tobytes(), workers


@pytest.mark.parametrize("R", [1, 3])  # one stack; three stacks of one replication
@pytest.mark.parametrize("case", ["scv-d2-m64", "cv-bump-d4-m10"])
def test_shared_fit_tiles_run_on_the_pool(monkeypatch, case, R):
    """The shared fit's node tiles run on the ensemble's pool, before its
    stacks: at 1, 2 and 3 workers the errors keep their bits, the ensemble
    spends the fit's nodes once plus R sample blocks, and a pool is built
    only when min(workers, max(fit tiles, stacks)) > 1, with that many
    threads, and runs every fit tile and every stack.  The threads switch
    every 10 us, so a lost write to the fit's values or to the evaluation
    counter would show."""
    if case == "scv-d2-m64":  # 4,096 cells of 3 nodes, in 2 tiles
        make, d, tiles = make_benchmark, 2, 2
        cfg = EstimatorConfig(method=Method.SCV, s=2, m=64)
    else:  # 10^4 cells of 15 nodes, in 19 tiles
        spec = BumpSpec(s=2, d=4, p=1.0, sigma=0.45, center=(0.5,) * 4)
        make, d, tiles = partial(bump, spec), 4, 19
        cfg = EstimatorConfig(method=Method.CV, s=3, m=10)
    nodes = poly_dim(cfg.s, d) * cfg.m**d
    points = math.prod(estimators._sample_shape(cfg, d)[:-1])
    assert points > estimators._BLOCK_POINTS  # one replication per stack
    pools, tasks = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, *args, **kwargs):
            tasks.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", RecordingPool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        base = None
        for workers in (1, 2, 3):
            pools.clear()
            tasks.clear()
            f = make()
            errors = replicate(f, cfg, R, 12, workers=workers).errors
            base = errors if base is None else base
            assert errors.tobytes() == base.tobytes(), workers
            assert f.evals == nodes + R * points, workers
            threads = min(workers, max(tiles, R))
            assert pools == ([threads] if threads > 1 else []), workers
            assert len(tasks) == (tiles + R if threads > 1 else 0), workers
    finally:
        sys.setswitchinterval(interval)


def _shift_rconds(cfg, d, master, R):
    """rcond of each replication's shifted node set, its shift drawn as the
    first d doubles of Philox(SeedSequence(seed))."""
    rconds = []
    for i in range(R):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(master, i))))
        nodes = shifted_nodes(regular_nodes(cfg.s, d), rng.random(d))
        rconds.append(LocalInterpolator(nodes, cfg.s).rcond)
    return rconds


def test_shifted_replicate_checks_every_node_set(monkeypatch):
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=3, m=2, interpolation_mode=SHIFTED)
    R = 40
    rconds = _shift_rconds(cfg, 2, 6, R)
    estimators._regular(3, 2)  # built under the real limit
    assert replicate(f, cfg, R, 6).R == R
    # above every node set's rcond, and then above all but the best one's
    for limit in (1.01 * max(rconds), max(rconds)):
        monkeypatch.setattr(interp, "RCOND_MIN", limit)
        with pytest.raises(UnisolvenceError):
            replicate(f, cfg, R, 6)


@pytest.mark.parametrize("method", [Method.SCV, Method.CV, Method.CV_MOM])
def test_shifted_ensemble_spends_full_budgets(method):
    f = make_benchmark()
    cfg = EstimatorConfig(method=method, s=2, m=4, k=5, interpolation_mode=SHIFTED)
    points = math.prod(estimators._sample_shape(cfg, 2)[:-1])
    R = 3 * estimators._BLOCK_POINTS // points + 7  # four stacks over two workers
    replicate(f, cfg, R, master_seed=2, workers=2)
    assert f.evals == R * cfg.budget(2)


def test_deterministic_ensemble_fits_once():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4)
    n0, cells, R = poly_dim(2, 2), 16, 300
    replicate(f, cfg, R, master_seed=8, workers=2)
    assert f.evals == n0 * cells + R * n0 * cells
    before = f.evals
    assert run(f, replace(cfg, seed=1)).evals == f.evals - before == cfg.budget(2)


def test_replicate_polynomial_is_exact():
    f = random_poly(2, 2, seed=1)
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=2)
    sample = replicate(f, cfg, 1, master_seed=5)
    assert abs(sample.errors[0]) <= 1e-10


def test_replicate_reproducible():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=3)
    a = replicate(f, cfg, 32, master_seed=9)
    b = replicate(f, cfg, 32, master_seed=9)
    assert np.array_equal(a.errors, b.errors)


def test_replicate_workers_bit_identical(monkeypatch):
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.CV, s=2, m=3)
    monkeypatch.setattr(estimators, "_BLOCK_POINTS", 5 * 27)  # ten stacks of 27-point replications
    base = replicate(f, cfg, 48, master_seed=7, workers=1)
    for workers in (2, 4, 8):
        other = replicate(f, cfg, 48, master_seed=7, workers=workers)
        assert np.array_equal(base.errors, other.errors)


def test_replicate_requires_exact_integral():
    from scvquad.testbed import Integrand

    f = Integrand(lambda pts: pts[:, 0], dim=1)
    with pytest.raises(ValueError):
        replicate(f, EstimatorConfig(method=Method.STRAT, s=1, m=2), 4, master_seed=0)


def test_replicate_rejects_non_integral_R(monkeypatch):
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=2)
    assert replicate(f, cfg, np.int64(3), master_seed=0).R == 3

    def no_seeds(*args):
        raise AssertionError("seeds derived for a rejected R")

    monkeypatch.setattr(stats, "derive_seed", no_seeds)
    for R in (2.5, np.float64(3.0), 3.0):
        with pytest.raises(TypeError):
            replicate(f, cfg, R, master_seed=0)


def test_replicate_workers_is_a_positive_integer(monkeypatch):
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=2)
    assert replicate(f, cfg, 3, master_seed=0, workers=np.int64(2)).R == 3

    def no_seeds(*args):
        raise AssertionError("seeds derived for rejected workers")

    monkeypatch.setattr(stats, "derive_seed", no_seeds)
    with pytest.raises(TypeError, match="^workers must be an integer"):
        replicate(f, cfg, 3, master_seed=0, workers=2.5)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="^need workers >= 1"):
            replicate(f, cfg, 3, master_seed=0, workers=workers)


def test_replicate_workers_above_the_thread_ceiling(monkeypatch):
    """The ceiling holds for replicate, before any seed, evaluation or thread."""
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=2)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was built")

    def no_seeds(*args):
        raise AssertionError("seeds derived for rejected workers")

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", NoPool)
    ceiling = estimators._MAX_THREADS
    assert replicate(make_benchmark(), cfg, 3, master_seed=0, workers=ceiling).R == 3  # no pool
    monkeypatch.setattr(stats, "derive_seed", no_seeds)
    with pytest.raises(ValueError, match=f"^need at most {ceiling} workers, got {ceiling + 1}"):
        replicate(f, cfg, 3, master_seed=0, workers=ceiling + 1)
    assert f.evals == 0


def test_replicate_R_above_the_replication_ceiling(monkeypatch):
    """The ceiling holds for replicate, before any index array, seed or evaluation."""
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=2)
    monkeypatch.setattr(stats, "_MAX_REPS", 4)
    assert replicate(f, cfg, 4, master_seed=0).R == 4
    f = make_benchmark()

    def no_seeds(*args):
        raise AssertionError("seeds derived for a rejected R")

    monkeypatch.setattr(stats, "derive_seed", no_seeds)
    with pytest.raises(ValueError, match="^need at most 4 R, got 5"):
        replicate(f, cfg, 5, master_seed=0)
    assert f.evals == 0


def test_replicate_rejects_non_integral_master_seed():
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=4)
    for master in (3.7, np.float64(3.0)):
        with pytest.raises(TypeError):
            replicate(f, cfg, 5, master_seed=master)
    expected = replicate(f, cfg, 5, master_seed=3).errors
    assert replicate(f, cfg, 5, master_seed=np.int64(3)).errors.tobytes() == expected.tobytes()


def _no_generators(monkeypatch):
    """Make every numpy generator fail if it is made, so that nothing is drawn."""
    def no_generator(*args, **kwargs):
        raise AssertionError("made a generator for a rejected input")

    monkeypatch.setattr(np.random, "default_rng", no_generator)


# every public entry whose `seed` keys a generator, called with that seed
_SEED_ENTRIES = {
    "EstimatorConfig": lambda seed: EstimatorConfig(method=Method.SCV, s=1, m=2, seed=seed),
    "random_poly": lambda seed: random_poly(2, 2, seed=seed),
}


@pytest.mark.parametrize("entry", list(_SEED_ENTRIES))
def test_every_seed_is_an_unsigned_64_bit_integer(entry, monkeypatch):
    call = _SEED_ENTRIES[entry]
    call(2**64 - 1)
    call(np.uint64(7))
    _no_generators(monkeypatch)
    with pytest.raises(TypeError, match="^seed must be an integer, got True$"):
        call(True)
    with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer"):
        call(2**64)
    with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer"):
        call(-1)


def test_derive_seed_rejects_bool_entropy():
    for args in ((True,), (False, 2), (1, True), (1, 2, False)):
        with pytest.raises(TypeError, match="must be an integer, got (True|False)$"):
            derive_seed(*args)


def test_replicate_and_suites_reject_a_bool_master_seed(monkeypatch):
    f, cfg = make_benchmark(), EstimatorConfig(method=Method.STRAT, s=1, m=4)
    with pytest.raises(TypeError, match="^master_seed must be an integer, got True$"):
        replicate(f, cfg, 5, master_seed=True)
    assert f.evals == 0
    _no_generators(monkeypatch)
    with pytest.raises(TypeError, match="^master_seed must be an integer, got True$"):
        hoeffding_default_suite(master_seed=True)


def test_prob_error_examples():
    sample = _sample(np.arange(1.0, 11.0))
    assert prob_error(sample, 0.2) == 8.0
    assert prob_error(sample, 1e-9) == 10.0
    assert prob_error(_sample(np.zeros(25)), 0.3) == 0.0


def test_prob_error_exact_rank_at_float_boundaries():
    # (1-0.1)*10 must give rank 9, not 10, despite float rounding
    sample = _sample(np.arange(1.0, 11.0))
    assert prob_error(sample, 0.1) == 9.0


def test_prob_error_monotone_in_delta():
    rng = np.random.default_rng(0)
    sample = _sample(rng.standard_normal(500))
    deltas = np.linspace(0.01, 0.9, 25)
    values = [prob_error(sample, d) for d in deltas]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_prob_error_definition_against_brute_scan():
    from fractions import Fraction

    rng = np.random.default_rng(4)
    sample = _sample(rng.standard_normal(200))
    abs_err = np.abs(sample.errors)
    for delta in (0.5, 0.25, 0.1, 0.015):
        e = prob_error(sample, delta)
        budget = Fraction(delta) * sample.R  # exact, matching the given float delta
        # exceedance at the reported threshold is within budget...
        assert np.count_nonzero(abs_err > e) <= budget
        # ...and every smaller observed threshold exceeds it
        smaller = abs_err[abs_err < e]
        if smaller.size:
            t = smaller.max()
            assert np.count_nonzero(abs_err > t) > budget


def test_prob_error_validation():
    sample = _sample([1.0, 2.0])
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            prob_error(sample, delta)


def test_fit_rate_recovers_planted_slopes():
    n = np.array([10.0, 100.0, 1000.0, 10000.0])
    for slope in (-1.5, -1.0, -0.37):
        assert fit_rate(list(zip(n, 3.7 * n**slope))) == pytest.approx(slope, abs=1e-12)


def test_fit_rate_two_points_degenerate():
    slope = fit_rate([(10.0, 1.0), (1000.0, 0.01)])
    assert slope == pytest.approx(math.log(0.01) / math.log(100.0), rel=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(10.0, 1.0)])
    with pytest.raises(ValueError, match="two distinct budgets"):
        fit_rate([(10, 0.5), (10, 0.3)])
    with pytest.raises(ValueError):
        fit_rate([(10.0, 1.0), (100.0, -0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.0, 1.0), (100.0, 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rate_rejects_non_finite_points(bad):
    for pairs in ([(1.0, bad), (2.0, 1.0)], [(bad, 1.0), (2.0, 1.0)]):
        with pytest.raises(ValueError, match="finite"):
            fit_rate(pairs)


def test_histogram_degenerate_and_two_sided():
    assert histogram(_sample(np.full(7, 3.25)), bins=4) == [(3.25, 3.25, 7)]
    bins = histogram(_sample([-1.0, 1.0]), bins=2)
    assert [b[2] for b in bins] == [1, 1]
    assert bins[0][0] == -1.0 and bins[-1][1] == 1.0


def test_histogram_bins_above_the_ceiling(monkeypatch):
    """The ceiling holds for histogram, before numpy counts a bin."""
    sample = _sample([-1.0, 0.25, 1.0])
    monkeypatch.setattr(stats, "_MAX_BINS", 4)
    assert [n for _, _, n in histogram(sample, 4)] == [1, 0, 1, 1]

    def no_histogram(*args, **kwargs):
        raise AssertionError("binned for a rejected bins")

    monkeypatch.setattr(np, "histogram", no_histogram)
    with pytest.raises(ValueError, match="^need at most 4 bins, got 5"):
        histogram(sample, 5)


def test_histogram_conserves_counts_and_widths():
    rng = np.random.default_rng(8)
    sample = _sample(rng.standard_normal(1000))
    for bins in (1, 7, 40):
        out = histogram(sample, bins)
        assert sum(b[2] for b in out) == 1000
        widths = [right - left for left, right, _ in out]
        assert np.allclose(widths, widths[0], rtol=1e-12)


def test_tail_fraction_basics():
    sample = _sample([0.5, -1.5, 2.5, 0.1])
    assert tail_fraction(sample, 0.0) == 1.0
    assert tail_fraction(sample, 10.0) == 0.0
    assert tail_fraction(sample, 1.0) == 0.5
    with pytest.raises(ValueError):
        tail_fraction(sample, -1.0)
    with pytest.raises(ValueError):
        tail_fraction(sample, math.nan)


def test_tail_fraction_counts_errors_strictly_above():
    # an error at the threshold is not in the tail
    assert tail_fraction(_sample([1.0, -2.0, 0.5, 3.0]), 2.0) == 0.25


def test_hoeffding_bound_example():
    # n=1, p=1.5, delta = 2 e^-2: bound = 3 * (2*2)^(1/3) = 3 * 4^(1/3)
    bound = hoeffding_bound(1.5, np.array([1.0]), 2.0 * math.exp(-2.0))
    assert bound == pytest.approx(3.0 * 4.0 ** (1.0 / 3.0), rel=1e-12)
    assert bound == pytest.approx(4.7622, abs=5e-4)


def test_hoeffding_zero_bounds():
    report = verify_hoeffding_p(1.5, np.zeros(4), 0.1)
    assert report.bound == 0.0
    assert report.certificate == 0.0
    assert report.holds
    # a bound exactly at its certificate is proved; one ulp below is not
    boundary = replace(report, bound=0.75, certificate=0.75)
    assert boundary.holds
    assert not replace(boundary, bound=math.nextafter(0.75, 0.0)).holds


def test_hoeffding_certificate_examples():
    # n=1, b=1: the range 2 is below Hoeffding's sqrt(2 log(2/delta)) for every delta < 2/e^2
    assert verify_hoeffding_p(1.5, [1.0], 0.01).certificate == 2.0
    # n=4, b=1: Hoeffding's term sqrt(2 log 20) * 2 / 4 is below the range 2*4/4
    report = verify_hoeffding_p(1.5, np.ones(4), 0.1)
    assert report.certificate == pytest.approx(math.sqrt(2.0 * math.log(20.0)) / 2.0, rel=1e-15)


def test_hoeffding_bound_validation():
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, np.ones(2), 0.1)
    with pytest.raises(ValueError):
        hoeffding_bound(2.0, np.ones(2), 0.1)
    with pytest.raises(ValueError):
        hoeffding_bound(1.5, np.array([-1.0]), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hoeffding_bound_rejects_non_finite_bounds(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        hoeffding_bound(1.5, [bad, 1.0], 0.1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        verify_hoeffding_p(1.5, [bad, 1.0], 0.1)


def test_hoeffding_bound_proved_on_random_configs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        b = rng.uniform(0.1, 2.0, n)
        delta = float(rng.uniform(0.001, 0.4))
        p = float(rng.uniform(1.05, 1.95))
        report = verify_hoeffding_p(p, b, delta)
        assert report.holds and report.bound >= 1.5 * report.certificate, (n, delta, p)


@pytest.mark.parametrize("family", ["uniform", "rademacher"])
def test_hoeffding_fail_rate_within_delta(family):
    # Monte Carlo cross-check of the closed-form proof: draw centered Z with
    # |Z_i| <= b_i (uniform, or Rademacher +-b_i, the variance-maximizing law)
    # and count the means that leave the bound; at most a delta share may
    rng = np.random.default_rng(2)
    trials = 20_000
    for i in range(5):
        n = int(rng.integers(1, 40))
        b = rng.uniform(0.1, 2.0, n)
        delta = float(rng.uniform(0.01, 0.4))
        p = float(rng.uniform(1.05, 1.95))
        bound = hoeffding_bound(p, b, delta)
        draw = np.random.default_rng(100 + i)
        if family == "uniform":
            z = draw.uniform(-1.0, 1.0, (trials, n)) * b
        else:
            z = draw.choice([-1.0, 1.0], (trials, n)) * b
        fail_rate = np.count_nonzero(np.abs(z.mean(axis=1)) > bound) / trials
        assert fail_rate <= delta, (n, delta, p)
        assert verify_hoeffding_p(p, b, delta).holds


def test_hoeffding_suite_detects_broken_bound(monkeypatch):
    # at a third of the bound, 13 of the 20 default configs are no longer proved
    original = stats.hoeffding_bound
    monkeypatch.setattr(stats, "hoeffding_bound", lambda p, b, delta: original(p, b, delta) / 3.0)
    reports = hoeffding_default_suite(master_seed=0)
    assert sum(not r.holds for r in reports) == 13


def test_hoeffding_default_suite_passes():
    reports = hoeffding_default_suite(master_seed=0)
    assert len(reports) == 20
    assert all(r.holds for r in reports)


def test_mz_q2_bienayme_oracle():
    dists = [UniformBounded(-1.0, 1.0) for _ in range(16)]
    report = verify_mz(2.0, dists)
    # lhs^2 is Var(Z_1)/n = (1/3)/16; for centered laws rhs is c_2 = 2 times lhs
    assert report.lhs**2 == pytest.approx((1.0 / 3.0) / 16.0, rel=1e-12)
    assert report.rhs / report.lhs == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("law,fourth", [(UniformBounded(-1.0, 1.0), 0.2), (Rademacher(1.0), 1.0)],
                         ids=["uniform", "rademacher"])
def test_mz_q4_closed_forms(law, fourth):
    # one summand: lhs^4 is E X^4 (1/5 for U(-1, 1), 1 for Rademacher(1)), and
    # rhs is c_4 = 6 times ||X||_4
    report = verify_mz(4.0, [law])
    assert report.lhs**4 == pytest.approx(fourth, rel=1e-12)
    assert (report.rhs / 6.0) ** 4 == pytest.approx(fourth, rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("low,high", [(1.0, 1.0 + 1e-8), (-1.0 - 1e-8, -1.0)],
                         ids=["positive", "negative"])
def test_uniform_norm_on_narrow_intervals(low, high, q):
    # away from zero the two ends' antiderivatives nearly cancel; against
    # mpmath at 50 digits, to 1e-15 relative
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(low), mpmath.mpf(high)
        moment = (hi * abs(hi) ** q - lo * abs(lo) ** q) / ((q + 1) * (hi - lo))
        exact = float(moment ** (1 / mpmath.mpf(q)))
    assert UniformBounded(low, high).norm(q) == pytest.approx(exact, rel=1e-15, abs=0)


def test_mz_degenerate_constants():
    report = verify_mz(3.0, [Constant(0.7), Constant(-0.2)])
    assert report.lhs == 0.0
    assert report.rhs > 0.0
    assert report.holds
    # lhs exactly at rhs holds; one ulp above does not
    boundary = replace(report, lhs=0.5, rhs=0.5)
    assert boundary.holds
    assert not replace(boundary, lhs=math.nextafter(0.5, 1.0)).holds


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_mz_holds_across_q(q):
    rng = np.random.default_rng(int(q * 10))
    for i in range(4):
        n = int(rng.integers(1, 12))
        dists = []
        for _ in range(n):
            kind = rng.integers(0, 3)
            if kind == 0:
                lo = float(rng.uniform(-2, 0))
                dists.append(UniformBounded(lo, lo + float(rng.uniform(0.5, 3))))
            elif kind == 1:
                dists.append(Rademacher(float(rng.uniform(0.2, 2))))
            else:
                dists.append(Constant(float(rng.uniform(-1, 1))))
        report = verify_mz(q, dists)
        assert report.holds and report.rhs >= 2.0 * (1.0 - 1e-12) * report.lhs, dists


def test_mz_validation():
    with pytest.raises(ValueError):
        verify_mz(0.5, [Constant(1.0)])
    with pytest.raises(ValueError):
        verify_mz(2.0, [])
    with pytest.raises(ValueError, match="need q <= 4"):
        verify_mz(math.nextafter(4.0, 5.0), [Constant(1.0)])
    with pytest.raises(TypeError, match="every law must be one of"):
        verify_mz(2.0, [Rademacher(1.0), 0.5])
    with pytest.raises(ValueError, match="need finite low < high"):
        UniformBounded(0.3, 0.3)


def test_closed_forms_take_large_finite_inputs():
    """Large finite inputs give their numbers, with no overflow warning
    (warnings are errors); only a number beyond the largest double raises."""
    bound = 3.0 * (2.0 * math.log(20.0)) ** (1.0 / 3.0) * 1e300  # n = 1, p = 1.5, about 5.4e300
    assert hoeffding_bound(1.5, [1e300], 0.1) == pytest.approx(bound, rel=1e-14)
    report = verify_hoeffding_p(1.5, [1e300], 0.1)
    assert report.bound == pytest.approx(bound, rel=1e-14)
    assert report.certificate == 2e300 and report.holds  # the range, below sqrt(2 log 20) * 1e300
    # one U(-a, a): lhs^4 = E X^4 = a^4/5, and rhs = c_4 ||X||_4 = 6 a / 5^(1/4)
    report = verify_mz(4.0, [UniformBounded(-1e80, 1e80)])
    assert report.lhs == pytest.approx(1e80 / 5.0**0.25, rel=1e-14)
    assert report.rhs == pytest.approx(6e80 / 5.0**0.25, rel=1e-14)
    report = verify_mz(2.0, [Rademacher(1e200)])  # lhs = 1e200, rhs = c_2 * 1e200
    assert report.lhs == pytest.approx(1e200, rel=1e-15)
    assert report.rhs == pytest.approx(2e200, rel=1e-15)
    # a uniform far below the largest parameter adds (almost) nothing; one
    # whose width vanishes at the common scale is the point it scales to
    report = verify_mz(2.0, [Rademacher(1e300), UniformBounded(0.0, 1e-3)])
    assert report.lhs == pytest.approx(0.5e300, rel=1e-15)
    report = verify_mz(2.0, [Rademacher(1e74), UniformBounded(0.0, 1e-252)])  # both ends to 0
    assert (report.lhs, report.rhs) == (0.5e74, 1e74)
    narrow = UniformBounded(1e-10, 1e-10 + 1e-25)  # both ends to one subnormal
    assert math.ldexp(narrow.low, -997) == math.ldexp(narrow.high, -997) > 0.0
    assert verify_mz(2.0, [Rademacher(1e300), narrow]) == verify_mz(2.0, [Rademacher(1e300), Constant(1e-10)])
    with pytest.raises(OverflowError):  # beyond the largest double: never a silent inf
        hoeffding_bound(1.5, [1e308], 1e-10)


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
def test_closed_forms_are_homogeneous_in_the_scale(monkeypatch, scale):
    """Every default configuration with each input times 2^600 or 2^-600 gives
    its numbers times the same power of two, exactly: the verdicts and the
    ratios bound/certificate and rhs/lhs keep every bit."""
    hoeffding, mz = [], []
    verify_h, verify_q = stats.verify_hoeffding_p, stats.verify_mz
    monkeypatch.setattr(stats, "verify_hoeffding_p", lambda p, b, delta, label:
                        hoeffding.append((p, b, delta)) or verify_h(p, b, delta))
    monkeypatch.setattr(stats, "verify_mz", lambda q, dists, label:
                        mz.append((q, dists)) or verify_q(q, dists))
    hoeffding_default_suite(master_seed=0)
    mz_default_suite()
    assert len(hoeffding) == len(mz) == 20
    for p, b, delta in hoeffding:
        report, scaled = verify_h(p, b, delta), verify_h(p, b * scale, delta)
        assert (scaled.bound, scaled.certificate) == (report.bound * scale, report.certificate * scale)
        assert scaled.holds == report.holds
    for q, dists in mz:
        report = verify_q(q, dists)
        scaled = verify_q(q, [type(law)(*(v * scale for v in astuple(law))) for law in dists])
        assert (scaled.lhs, scaled.rhs) == (report.lhs * scale, report.rhs * scale)
        assert scaled.holds == report.holds


def test_mz_constant_rejects_nan():
    with pytest.raises(ValueError, match="need q >= 1"):
        mz_constant(math.nan)


def test_verify_mz_rejects_nan_q():
    with pytest.raises(ValueError, match="need q >= 1"):
        verify_mz(math.nan, [Rademacher(1.0)])


@pytest.mark.parametrize("bad", [True, 2.5])
def test_histogram_bins_must_be_an_integer(bad):
    with pytest.raises(TypeError, match="bins must be an integer"):
        histogram(_sample(np.array([-1.0, 1.0])), bad)


def test_count_checks_keep_their_lower_bounds():
    with pytest.raises(ValueError, match="need bins >= 1"):
        histogram(_sample(np.array([-1.0, 1.0])), 0)


@pytest.mark.parametrize("make", [
    lambda: Rademacher(math.nan),
    lambda: Rademacher(math.inf),
    lambda: Constant(math.nan),
    lambda: Constant(-math.inf),
    lambda: UniformBounded(0.0, math.inf),
    lambda: UniformBounded(-math.inf, 0.0),
], ids=["rademacher-nan", "rademacher-inf", "constant-nan", "constant-inf",
        "uniform-high-inf", "uniform-low-inf"])
def test_bounded_distributions_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="need (a )?finite"):
        make()


def test_mz_default_suite_passes():
    reports = mz_default_suite()
    assert len(reports) == 20
    assert all(r.holds for r in reports)


def test_suites_draw_only_the_hoeffding_b_vectors(monkeypatch):
    """The moment-bound suite makes no generator; the Hoeffding suite makes
    one per random b vector, every fourth of its twenty checks."""
    made = []
    default_rng = np.random.default_rng

    def counted(seed):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    mz_default_suite()
    assert made == []
    hoeffding_default_suite(master_seed=5)
    assert made == [derive_seed(5, 7, idx) for idx in (3, 7, 11, 15, 19)]


def test_error_sample_shape_validation():
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=2)
    with pytest.raises(ValueError):
        ErrorSample(errors=np.zeros((3, 1)), config=cfg)
