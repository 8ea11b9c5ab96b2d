"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities (run pytest with -s, or read captured output on
failure).  Each criterion asserts what the error analysis predicts on the
data it measures: criterion 3 compares CV with SCV where CV's sup-norm
term separates them (small m, and the constant factor on larger m), and
criterion 5 measures the delta-level quantile on spikes that the
stratified sample hits with probability above delta.  The supplementary
tests show the same phenomena through other statistics.
"""

import math
import time

import numpy as np
import pytest

from scvquad.estimators import EstimatorConfig, Method, run
from scvquad.grid import poly_dim
from scvquad.stats import (
    derive_seed,
    fit_rate,
    hoeffding_default_suite,
    mz_default_suite,
    prob_error,
    replicate,
    tail_fraction,
)
from scvquad.testbed import BumpSpec, bump, corner_bump, random_poly
from scvquad.testbed import test_function_2d as make_benchmark

ACCEPT_SEED = 20250810


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def _method_seed(method: Method, m: int, salt: int = 0) -> int:
    return derive_seed(ACCEPT_SEED, list(Method).index(method), m, salt)


# ---------------------------------------------------------------------------
# shared heavy fixture: 10^5 replications per method at s=2, m=4


@pytest.fixture(scope="module")
def fig2_samples():
    f = make_benchmark()
    t0 = time.time()
    samples = {}
    for method in (Method.SCV, Method.CV, Method.CV_MOM, Method.STRAT):
        cfg = EstimatorConfig(method=method, s=2, m=4)
        samples[method] = replicate(f, cfg, 100_000, master_seed=_method_seed(method, 4))
    return samples, time.time() - t0


def test_criterion_1_polynomial_exactness():
    """SCV/CV/CV_MOM are exact on polynomials of total degree < s."""
    t0 = time.time()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(200):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        f = random_poly(s, d, seed=int(rng.integers(0, 2**32)))
        seed = int(rng.integers(0, 2**63))
        k = min(11, poly_dim(s, d) * m**d)
        for method in (Method.SCV, Method.CV, Method.CV_MOM):
            cfg = EstimatorConfig(method=method, s=s, m=m, k=k, seed=seed)
            err = abs(run(f, cfg).value - f.exact_integral)
            worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("criterion 1 (polynomial exactness)",
            ok, f"worst |error| = {worst:.3e} over 600 runs in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_unbiasedness(fig2_samples):
    """SCV/CV/STRAT means within 3 SE of 1; CV_MOM overestimates beyond 3 SE."""
    samples, build_time = fig2_samples
    results = {}
    for method, sample in samples.items():
        mean = float(sample.errors.mean())
        se = float(sample.errors.std(ddof=1)) / math.sqrt(sample.R)
        results[method] = (mean, se, mean / se)
    unbiased_ok = all(abs(results[m][2]) <= 3.0 for m in (Method.SCV, Method.CV, Method.STRAT))
    biased_ok = results[Method.CV_MOM][2] > 3.0
    detail = ", ".join(
        f"{m.value}: z={results[m][2]:+.2f}" for m in (Method.SCV, Method.CV, Method.STRAT, Method.CV_MOM)
    )
    ok = unbiased_ok and biased_ok and build_time < 120.0
    _report("criterion 2 (unbiasedness at R=1e5)", ok, f"{detail}; build {build_time:.0f}s")
    assert unbiased_ok, detail
    assert biased_ok, detail
    assert build_time < 120.0


def _max_error_points(method: Method, m_values, reps: int):
    f = make_benchmark()
    points = []
    for m in m_values:
        cfg = EstimatorConfig(method=method, s=2, m=m)
        sample = replicate(f, cfg, reps, master_seed=_method_seed(method, m))
        points.append((cfg.budget(2), float(np.abs(sample.errors).max())))
    return points


def test_criterion_3_rate_check():
    """SCV max-of-1000 slope in [-1.7, -1.2] over m in {8,16,32,64}; CV
    shallower than SCV over m in {1,2,4,8} and above SCV at every m in
    {8,16,32,64}.

    On this C^inf integrand both methods share the rate n^-3/2: stratifying
    the residual removes only its between-cell variance, which scales like
    the within-cell part.  What separates CV is its Bernstein term
    ||f-g||_inf log(1/delta)/N, which dominates at small N: it flattens CV's
    slope on m in {1..8} and keeps CV's max error above SCV's on m in {8..64},
    where CV therefore approaches the shared rate from above.
    """
    t0 = time.time()
    scv_points = _max_error_points(Method.SCV, (8, 16, 32, 64), 1000)
    cv_points = _max_error_points(Method.CV, (8, 16, 32, 64), 1000)
    scv_fit = fit_rate(scv_points)
    scv_coarse = fit_rate(_max_error_points(Method.SCV, (1, 2, 4, 8), 1000))
    cv_coarse = fit_rate(_max_error_points(Method.CV, (1, 2, 4, 8), 1000))
    elapsed = time.time() - t0
    ratios = [cv_e / scv_e for (_, scv_e), (_, cv_e) in zip(scv_points, cv_points)]
    clause1 = -1.7 <= scv_fit <= -1.2
    clause2a = cv_coarse > scv_coarse
    clause2b = all(r > 1.0 for r in ratios)
    _report(
        "criterion 3 (rate check)",
        clause1 and clause2a and clause2b and elapsed < 300.0,
        f"scv slope={scv_fit:+.3f} on m in [8,64] (in [-1.7,-1.2]: {clause1}); "
        f"m in [1,8]: cv slope={cv_coarse:+.3f}, scv slope={scv_coarse:+.3f} "
        f"(cv shallower: {clause2a}); m in [8,64]: cv/scv max error="
        + "/".join(f"{r:.2f}" for r in ratios)
        + f" (all above 1: {clause2b}); {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert clause1, f"scv slope {scv_fit:+.3f} outside [-1.7, -1.2]"
    assert clause2a, (
        f"on m in {{1..8}} cv slope {cv_coarse:+.3f} is not shallower than scv "
        f"{scv_coarse:+.3f}: there CV's error should be governed by ||f-g||_inf "
        "and decay slower than SCV's"
    )
    assert clause2b, (
        f"on m in {{8..64}} cv/scv max-error ratios {ratios} are not all above 1: "
        "CV's Bernstein term ||f-g||_inf log(1/delta)/N should keep its max error "
        "above SCV's while both decay at the shared rate"
    )


def test_supplementary_cv_decays_slowly_preasymptotically():
    """On m in {1..8} classical CV's max line decays near the deterministic
    n^-1 while SCV is already substantially faster."""
    scv_fit = fit_rate(_max_error_points(Method.SCV, (1, 2, 4, 8), 1000))
    cv_fit = fit_rate(_max_error_points(Method.CV, (1, 2, 4, 8), 1000))
    ok = cv_fit > scv_fit + 0.1 and cv_fit > -1.2
    _report(
        "supplementary (pre-asymptotic CV decay)",
        ok,
        f"m in [1,8]: cv slope={cv_fit:+.3f}, scv slope={scv_fit:+.3f}",
    )
    assert ok


def test_criterion_4_tail_fractions(fig2_samples):
    """Tail fractions at threshold 2.5: CV in [0.01, 0.04], CV_MOM in
    [0.005, 0.02], and SCV < CV_MOM < CV strictly."""
    samples, build_time = fig2_samples
    frac = {m: tail_fraction(samples[m], 2.5) for m in (Method.SCV, Method.CV_MOM, Method.CV)}
    cv_ok = 0.01 <= frac[Method.CV] <= 0.04
    mom_ok = 0.005 <= frac[Method.CV_MOM] <= 0.02
    order_ok = frac[Method.SCV] < frac[Method.CV_MOM] < frac[Method.CV]
    ok = cv_ok and mom_ok and order_ok and build_time < 180.0
    _report(
        "criterion 4 (tail fractions at 2.5)",
        ok,
        f"scv={frac[Method.SCV]:.5f}, cv_mom={frac[Method.CV_MOM]:.5f}, "
        f"cv={frac[Method.CV]:.5f}",
    )
    assert cv_ok, frac
    assert mom_ok, frac
    assert order_ok, frac
    assert build_time < 180.0


def _cell_spike(m: int, delta: float):
    """Power bump (s=1, d=2, p=1) centred in the corner cell of the m-grid
    with width sqrt(2*delta/pi)/m, so one uniform point in that cell hits
    its support with probability pi*sigma^2*m^2 = 2*delta; the support stays
    inside the cell (sigma*m <= 0.253 < 1/2 for delta <= 0.1)."""
    sigma = math.sqrt(2.0 * delta / math.pi) / m
    return bump(BumpSpec(s=1, d=2, p=1.0, sigma=sigma, center=(0.5 / m,) * 2))


def test_criterion_5_low_smoothness_delta_exponent():
    """Fitted slope of log prob_error(sample, delta) vs log 1/delta in
    [0.3, 0.7] for spikes rebuilt per delta, each hit with probability 2*delta.

    At s=1 a cell's estimate is f at its one residual sample, so a spike of
    height 1/sigma that the sample hits with probability kappa*delta > delta
    puts the delta-level quantile at (1-1/kappa)/(m^2 sigma) - (pi/2) sigma,
    which grows like delta^-(1/p - s/d) = delta^-1/2 as a linear method's
    lower bound requires.  kappa=2 keeps the -(pi/2) sigma term's lift of the
    fitted slope smallest (closed form about 0.61).  `corner_bump` cannot show
    this: its support is hit with probability pi*delta/64 < delta.
    """
    t0 = time.time()
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=8, interpolation_mode="shifted")
    deltas = (0.1, 0.05, 0.02)
    points = []
    details = []
    for i, delta in enumerate(deltas):
        f = _cell_spike(8, delta)
        sample = replicate(f, cfg, 10_000, master_seed=derive_seed(ACCEPT_SEED, 5, i))
        e = prob_error(sample, delta)
        points.append((1.0 / delta, e))
        details.append(f"delta={delta}: prob_error={e:.6f}")
    slope = fit_rate(points)
    elapsed = time.time() - t0
    ok = 0.3 <= slope <= 0.7 and elapsed < 120.0
    _report(
        "criterion 5 (delta exponent via delta-level quantile)",
        ok,
        f"slope={slope:+.4f}; " + "; ".join(details) + f"; {elapsed:.0f}s",
    )
    assert elapsed < 120.0
    assert 0.3 <= slope <= 0.7, (
        f"slope {slope:+.4f} outside [0.3, 0.7]: with each spike hit with "
        "probability 2*delta, the delta-level quantile should grow like "
        "delta^-1/2 (closed-form fitted slope about 0.61)"
    )


def test_supplementary_tail_exponent_via_max_statistic():
    """The delta^-(1/p - s/d) tail of SCV on corner bumps, measured by the
    maximum error over the replications, has exponent near 1/2."""
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=8, interpolation_mode="shifted")
    points = []
    for i, delta in enumerate((0.1, 0.05, 0.02)):
        f = corner_bump(1, 2, 1.0, 8, delta)
        sample = replicate(f, cfg, 10_000, master_seed=derive_seed(ACCEPT_SEED, 5, i))
        points.append((1.0 / delta, float(np.abs(sample.errors).max())))
    slope = fit_rate(points)
    ok = 0.3 <= slope <= 0.7
    _report("supplementary (tail exponent via max-of-R)", ok, f"slope={slope:+.4f}")
    assert ok, slope


def test_criterion_6_inequality_suites():
    """All 20 default Hoeffding configs and all 20 moment-bound configs are
    proved in closed form, for every law they cover, with no slack."""
    t0 = time.time()
    hoeffding = hoeffding_default_suite(master_seed=derive_seed(ACCEPT_SEED, 6, 0))
    mz = mz_default_suite()
    elapsed = time.time() - t0
    h_bad = [r.label for r in hoeffding if not r.holds]
    m_bad = [r.label for r in mz if not r.holds]
    ok = len(hoeffding) == len(mz) == 20 and not h_bad and not m_bad and elapsed < 120.0
    _report(
        "criterion 6 (inequality suites)",
        ok,
        f"hoeffding not proved={h_bad or 'none'}, mz not proved={m_bad or 'none'}; "
        f"{elapsed:.3f}s",
    )
    assert len(hoeffding) == len(mz) == 20
    assert not h_bad, h_bad
    assert not m_bad, m_bad
    assert elapsed < 120.0


def test_criterion_7_budget_and_determinism():
    """Measured SCV evaluation counts equal 2*n0*m^d for 50 random configs;
    replication ensembles are bit-identical at 1, 4 and 8 workers."""
    rng = np.random.default_rng(ACCEPT_SEED + 7)
    mismatches = []
    for _ in range(50):
        s = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        mode = "shifted" if rng.integers(0, 2) else "deterministic"
        f = random_poly(s, d, seed=int(rng.integers(0, 2**32)))
        cfg = EstimatorConfig(
            method=Method.SCV, s=s, m=m, interpolation_mode=mode,
            seed=int(rng.integers(0, 2**63)),
        )
        before = f.evals
        result = run(f, cfg)
        expected = 2 * poly_dim(s, d) * m**d
        if f.evals - before != expected or result.evals != expected:
            mismatches.append((s, d, m, f.evals - before, expected))

    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4)
    baseline = replicate(f, cfg, 200, master_seed=ACCEPT_SEED, workers=1)
    thread_ok = all(
        np.array_equal(
            baseline.errors,
            replicate(f, cfg, 200, master_seed=ACCEPT_SEED, workers=w).errors,
        )
        for w in (4, 8)
    )
    ok = not mismatches and thread_ok
    _report(
        "criterion 7 (budget and determinism)",
        ok,
        f"eval mismatches={mismatches or 'none'}, bit-identical at 1/4/8 workers={thread_ok}",
    )
    assert not mismatches, mismatches
    assert thread_ok
