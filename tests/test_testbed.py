import math

import numpy as np
import pytest

from scvquad.estimators import EstimatorConfig, Method, run
from scvquad.grid import poly_dim
from scvquad.testbed import (
    BumpSpec,
    Integrand,
    ball_bump_integral,
    bump,
    corner_bump,
    poly_integrand,
    random_poly,
)
from scvquad.testbed import test_function_2d as make_benchmark


def test_constant_exactly_integrates():
    f = make_benchmark()
    assert f.exact_integral == 1.0
    assert f.dim == 2


def test_scaling_constant_against_extended_precision():
    import mpmath

    mpmath.mp.dps = 50
    oracle = 75 / ((mpmath.e**15 - 1) * (1 - mpmath.e**-5))
    f = make_benchmark()
    c = f(np.array([[0.0, 0.0]]))[0]  # f(0,0) = c
    assert c == pytest.approx(float(oracle), rel=1e-14)
    assert c == pytest.approx(2.3098e-5, rel=1e-4)


def test_corner_ratio_eliminates_constant():
    f = make_benchmark()
    ratio = f(np.array([[1.0, 0.0]]))[0] / f(np.array([[0.0, 1.0]]))[0]
    assert ratio == pytest.approx(math.exp(20.0), rel=1e-12)


def test_poly_integrand_trivial_cases():
    zero = poly_integrand(np.zeros(poly_dim(3, 2)), 3, 2)
    assert zero.exact_integral == 0.0

    s, d = 4, 1
    coeffs = np.zeros(poly_dim(s, d))
    coeffs[-1] = 1.0  # highest entry is x^(s-1) in the 1-d ordering
    single = poly_integrand(coeffs, s, d)
    assert single.exact_integral == pytest.approx(1.0 / s, abs=1e-15)

    lin = poly_integrand(np.array([1.0, 1.0, 3.0]), 2, 2)
    assert lin.exact_integral == pytest.approx(3.0, abs=1e-12)


def test_random_poly_matches_direct_moment_sum():
    f = random_poly(3, 2, seed=123)
    g = random_poly(3, 2, seed=123)
    x = np.array([[0.3, 0.8]])
    assert f(x)[0] == g(x)[0]
    assert f.exact_integral == g.exact_integral


def test_integrand_counter_and_shapes():
    f = make_benchmark()
    assert f.evals == 0
    assert f(np.array([[0.1, 0.2]])).shape == (1,)
    assert f.evals == 1
    assert f(np.random.default_rng(0).random((17, 2))).shape == (17,)
    assert f.evals == 18
    assert make_benchmark().evals == 0  # each integrand counts its own calls
    with pytest.raises(ValueError):
        f(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        f(np.array([0.1, 0.2]))  # one point is a (1, d) batch, not a (d,) vector
    assert f.evals == 18


def test_integrand_dimension_is_a_positive_integer():
    for dim in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            Integrand(lambda pts: pts[:, 0], dim=dim)
    with pytest.raises(ValueError):
        Integrand(lambda pts: pts[:, 0], dim=0)
    assert Integrand(lambda pts: pts[:, 0], dim=np.int64(2)).dim == 2


def test_integrand_rejects_non_finite_exact_integral():
    for exact in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exact integral must be finite"):
            Integrand(lambda pts: pts[:, 0], dim=1, exact_integral=exact)
    assert Integrand(lambda pts: pts[:, 0], dim=1, exact_integral=np.float32(0.5)).exact_integral == 0.5

def test_integrand_rejects_wrongly_shaped_output():
    scalar = Integrand(lambda pts: 1.0, dim=2)
    with pytest.raises(ValueError, match=r"shape \(\) for 16 points"):
        scalar(np.full((16, 2), 0.5))
    column = Integrand(lambda pts: pts[:, :1], dim=2)
    with pytest.raises(ValueError, match=r"shape \(4, 1\)"):
        column(np.full((4, 2), 0.5))


def test_integrand_rejects_non_finite_output():
    f = Integrand(lambda pts: np.where(pts[:, 0] < 0.5, 1.0, np.nan), dim=2)
    with pytest.raises(ValueError, match="non-finite"):
        run(f, EstimatorConfig(method=Method.SCV, s=2, m=4, seed=1))
    g = Integrand(lambda pts: 1.0 / pts[:, 0], dim=1)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
        g(np.array([[0.0]]))


def test_counter_under_scv_matches_budget():
    f = make_benchmark()
    cfg = EstimatorConfig(method=Method.SCV, s=2, m=4, seed=3)
    run(f, cfg)
    assert f.evals == 2 * 3 * 16


def test_counter_tolerates_concurrent_increments():
    from concurrent.futures import ThreadPoolExecutor

    f = make_benchmark()
    pts = np.random.default_rng(0).random((10, 2))

    def hammer(_):
        for _ in range(200):
            f(pts)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert f.evals == 8 * 200 * 10


def test_bump_center_and_halfway_values():
    spec = BumpSpec(s=2, d=2, p=1.5, sigma=0.25, center=(0.5, 0.5))
    f = bump(spec)
    height = spec.sigma ** (spec.s - spec.d / spec.p)
    assert f(np.array([[0.5, 0.5]]))[0] == pytest.approx(height, rel=1e-13)
    # normalized profile value is exactly 1 at the center
    assert f(np.array([[0.5, 0.5]]))[0] / height == pytest.approx(1.0, abs=1e-13)
    # at radius sigma/2 the profile is (3/4)^s
    x = np.array([[0.5 + spec.sigma / 2, 0.5]])
    assert f(x)[0] == pytest.approx(height * 0.75**spec.s, rel=1e-12)


def test_bump_vanishes_outside_support():
    spec = BumpSpec(s=1, d=2, p=1.0, sigma=0.1, center=(0.5, 0.5))
    f = bump(spec)
    assert f(np.array([[0.5 + 0.11, 0.5]]))[0] == 0.0
    assert f(np.array([[0.0, 0.0]]))[0] == 0.0


def test_ball_bump_integral_closed_form():
    assert ball_bump_integral(1, 2) == pytest.approx(math.pi / 2, rel=1e-14)
    # cross-check by Monte Carlo over the bounding box [-1,1]^2
    rng = np.random.default_rng(99)
    total = 0.0
    chunks = 10
    n_per = 1_000_000
    for _ in range(chunks):
        pts = rng.uniform(-1.0, 1.0, (n_per, 2))
        vals = np.clip(1.0 - (pts**2).sum(axis=1), 0.0, None)
        total += vals.sum()
    estimate = 4.0 * total / (chunks * n_per)
    assert estimate == pytest.approx(math.pi / 2, rel=2e-3)


def test_bump_exact_integral_formula():
    spec = BumpSpec(s=1, d=2, p=1.0, sigma=0.2, center=(0.5, 0.5))
    f = bump(spec)
    assert f.exact_integral == pytest.approx((math.pi / 2) * 0.2, rel=1e-13)


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpSpec(s=1, d=2, p=1.0, sigma=0.6, center=(0.5, 0.5))
    with pytest.raises(ValueError):
        BumpSpec(s=1, d=2, p=1.0, sigma=0.2, center=(0.1, 0.5))  # support leaves the cube
    with pytest.raises(ValueError):
        BumpSpec(s=1, d=2, p=0.5, sigma=0.2, center=(0.5, 0.5))


def test_bump_spec_sizes_are_positive_integers():
    for s, d in [(1.5, 2), (1, 2.0)]:
        with pytest.raises(TypeError, match="must be an integer"):
            BumpSpec(s=s, d=d, p=1.0, sigma=0.2, center=(0.5, 0.5))
    with pytest.raises(ValueError, match="need s >= 1"):
        BumpSpec(s=0, d=2, p=1.0, sigma=0.2, center=(0.5, 0.5))
    assert BumpSpec(s=np.int64(1), d=2, p=1.0, sigma=0.2, center=(0.5, 0.5)).height == 0.2**-1


def test_ball_bump_integral_sizes_are_positive_integers():
    with pytest.raises(TypeError, match="^s must be an integer"):
        ball_bump_integral(1.5, 2)
    with pytest.raises(ValueError, match="need d >= 1"):
        ball_bump_integral(1, 0)


def test_bump_rejects_nan_parameters():
    with pytest.raises(ValueError, match="need p >= 1"):
        BumpSpec(s=1, d=2, p=math.nan, sigma=0.2, center=(0.5, 0.5))
    for center in [(math.nan, 0.5), (0.5, math.nan)]:
        with pytest.raises(ValueError, match="not contained in the unit cube"):
            BumpSpec(s=1, d=2, p=1.0, sigma=0.2, center=center)


def test_bump_boundary_smoothness():
    # the profile and its first s-1 one-sided difference quotients vanish
    # at the support boundary; near the edge the profile is ~ (2h/sigma)^s
    h = 1e-4
    for s in (1, 2, 3):
        spec = BumpSpec(s=s, d=1, p=2.0, sigma=0.5, center=(0.5,))
        f = bump(spec)
        boundary = 1.0  # right edge of the support
        profile = lambda t: f(np.array([[t]]))[0] / spec.height
        assert profile(boundary) == 0.0
        assert abs(profile(boundary - h)) <= (5.0 * h) ** s
        if s >= 2:
            deriv = (profile(boundary) - profile(boundary - h)) / h
            assert abs(deriv) <= 5.0**s * h ** (s - 1)


def test_corner_bump_geometry_and_scaling():
    m, delta = 8, 0.1
    f = corner_bump(1, 2, 1.0, m, delta)
    sigma = 0.125 * delta**0.5 / m
    assert sigma <= 1.0 / (8 * m)
    # support inside [0, 1/(4m)]^2, hence inside the corner cell
    assert f(np.array([[1.0 / (4 * m), 1.0 / (4 * m)]]))[0] == 0.0
    assert f(np.array([[0.125 / m, 0.125 / m]]))[0] == pytest.approx(1.0 / sigma, rel=1e-12)
    assert f.exact_integral == pytest.approx((math.pi / 2) * sigma, rel=1e-12)


def test_corner_bump_center_value_tracks_delta():
    # height scales like ((delta/n)^(1/d))^-(d/p - s) at fixed sigma0
    m = 8
    heights = []
    for delta in (0.1, 0.025):
        f = corner_bump(1, 2, 1.0, m, delta)
        heights.append(f(np.full((1, 2), 0.125 / m))[0])
    assert heights[1] / heights[0] == pytest.approx((0.1 / 0.025) ** 0.5, rel=1e-10)


def test_corner_bump_integral_delta_rate():
    # exact integral shrinks like delta^((s + d(1-1/p))/d)
    m, s, d, p = 4, 1, 2, 1.0
    i1 = corner_bump(s, d, p, m, 0.08).exact_integral
    i2 = corner_bump(s, d, p, m, 0.02).exact_integral
    expected = (0.08 / 0.02) ** ((s + d * (1 - 1 / p)) / d)
    assert i1 / i2 == pytest.approx(expected, rel=1e-12)


def test_corner_bump_regime_validation():
    with pytest.raises(ValueError):
        corner_bump(2, 2, 1.0, 4, 0.1)  # s >= d/p
    with pytest.raises(ValueError):
        corner_bump(1, 2, 1.0, 4, 1.5)


def test_corner_bump_sizes_are_positive_integers():
    # a 2.5-cell grid has no corner cell
    for s, d, m in [(1, 2, 2.5), (1, 2.0, 4), (1.0, 2, 4)]:
        with pytest.raises(TypeError, match="must be an integer"):
            corner_bump(s, d, 1.0, m, 0.1)
    with pytest.raises(ValueError, match="need m >= 1"):
        corner_bump(1, 2, 1.0, 0, 0.1)


def test_corner_bump_rejects_nan_p():
    with pytest.raises(ValueError, match="need p >= 1"):
        corner_bump(1, 2, math.nan, 4, 0.1)


def _old_bump(x, s, p, sigma, center):
    """The bump as it was first written: its radius by numpy's row sum."""
    r2 = np.sum(((x - np.asarray(center)) / sigma) ** 2, axis=1)
    return sigma ** (s - x.shape[1] / p) * np.clip(1.0 - r2, 0.0, None) ** s, r2


def _around(rng, center, sigma, n=600):
    """Points at the center, inside the support, on its edge (radius sigma
    along random directions, and the next doubles either side) and outside."""
    d = len(center)
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    k = n // 3
    radii = np.concatenate([rng.random(k), np.ones(k), 1.0 + rng.random(n - 2 * k)])
    x = np.asarray(center) + sigma * radii[:, None] * u
    edge = x[k : 2 * k]
    return np.concatenate([np.asarray(center)[None, :], x, np.nextafter(edge, 0.0),
                           np.nextafter(edge, 1.0), np.eye(d) * sigma + np.asarray(center)])


@pytest.mark.parametrize("d", range(1, 10))
def test_bump_kernels_match_the_row_sum_formula(d):
    """bump and corner_bump equal the first formula, whose radius is numpy's
    row sum, bit for bit for d <= 7; from d = 8 numpy's row sum adds in
    another order, and each value agrees within height * (d 2^-53 r2 + 2^-52):
    the radius within d 2^-53 r2, then 1 - r2 and the height's product
    each rounded on both sides."""
    rng = np.random.default_rng(100 + d)
    cases = []
    orders = [(1, 1.0), (2, 1.5), (3, 2.0), (1, float(d))] if d <= 7 else [(1, 1.0), (1, float(d))]
    for s, p in orders:
        sigma = float(rng.uniform(0.05, 0.5))
        center = tuple(rng.uniform(sigma, 1.0 - sigma, d))
        spec = BumpSpec(s=s, d=d, p=p, sigma=sigma, center=center)
        cases.append((bump(spec), s, p, sigma, center))
    if d >= 2:  # the low-smoothness regime s < d/p needs d >= 2 at s = 1
        for m, delta in [(8, 0.1), (3, 0.02)]:
            sigma, center = 0.125 * delta ** (1.0 / d) / m, (0.125 / m,) * d
            cases.append((corner_bump(1, d, 1.0, m, delta), 1, 1.0, sigma, center))
    for f, s, p, sigma, center in cases:
        x = _around(rng, center, sigma)
        old, r2 = _old_bump(x, s, p, sigma, center)
        assert (old > 0).any() and (old == 0).any()
        if d <= 7:
            assert f(x).tobytes() == old.tobytes(), (f, s, p)
        else:
            height = sigma ** (s - d / p)
            assert (np.abs(f(x) - old) <= height * (d * 2.0**-53 * r2 + 2.0**-52)).all(), (f, p)


@pytest.mark.parametrize(
    "factory",
    [
        make_benchmark,
        lambda: random_poly(3, 2, seed=5),
        lambda: bump(BumpSpec(s=2, d=2, p=1.5, sigma=0.3, center=(0.5, 0.5))),
    ],
)
def test_exact_integrals_agree_with_stratified_sampling(factory):
    f = factory()
    # 10^6 cells, one sample each; the plain Monte Carlo standard error of
    # 10^6 points bounds the stratified estimator's
    result = run(f, EstimatorConfig(method=Method.STRAT, s=1, m=1000, seed=17))
    rng = np.random.default_rng(18)
    sample = f(rng.random((200_000, f.dim)))
    se = sample.std(ddof=1) / math.sqrt(1_000_000)
    assert abs(result.value - f.exact_integral) <= 4 * se + 1e-9
