import numpy as np
import pytest

from scvquad.grid import (
    locate,
    poly_dim,
    regular_nodes,
    shifted_nodes,
    subcube_indices,
    total_degree_exponents,
)
from scvquad.interp import LocalInterpolator, UnisolvenceError, monomial_means
from scvquad.testbed import random_poly
from scvquad.testbed import test_function_2d as make_benchmark


def _coefficient(solver, coeffs, alpha):
    """Coefficient of the monomial x^alpha in the solver's exponent order."""
    rows = [tuple(row) for row in solver.exponents]
    return coeffs[rows.index(tuple(alpha))]


def test_interpolator_rejects_degenerate_points():
    repeated = [[0.2, 0.2], [0.2, 0.2], [0.4, 0.4]]
    near = [[0.5], [0.5 + 1e-12]]  # rcond 4.0e-13: between RCOND_MIN and 1e-16
    for pts in (repeated, near):
        with pytest.raises(UnisolvenceError):
            LocalInterpolator(np.array(pts), 2)


def test_interpolator_rejects_points_outside_the_cube():
    for bad in (1.5, -0.5, np.nan):
        pts = regular_nodes(2, 2).copy()
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="unit cube"):
            LocalInterpolator(pts, 2)
    with pytest.raises(ValueError, match="unit cube"):
        LocalInterpolator(np.full((3, 2), np.nan), 2)


def test_interpolator_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        LocalInterpolator(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)


def test_interpolate_constants():
    solver = LocalInterpolator(regular_nodes(3, 2), 3)
    coeffs = solver.solve(np.full(len(solver), 4.5))
    assert _coefficient(solver, coeffs, (0, 0)) == pytest.approx(4.5, abs=1e-12)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-12)  # the constant term comes first


def test_interpolate_linear_1d():
    solver = LocalInterpolator(regular_nodes(2, 1), 2)
    values = solver.points[:, 0].copy()  # f(x) = x at the nodes 0 and 1
    coeffs = solver.solve(values)
    assert _coefficient(solver, coeffs, (0,)) == pytest.approx(0.0, abs=1e-12)
    assert _coefficient(solver, coeffs, (1,)) == pytest.approx(1.0, abs=1e-12)


def test_interpolate_2d_hand_oracle():
    # values 1, 2, 4 at (0,0), (1,0), (0,1) -> 1 + x1 + 3 x2
    solver = LocalInterpolator(regular_nodes(2, 2), 2)
    values = np.array([1.0 + p[0] + 3.0 * p[1] for p in solver.points])
    coeffs = solver.solve(values)
    assert _coefficient(solver, coeffs, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert _coefficient(solver, coeffs, (1, 0)) == pytest.approx(1.0, abs=1e-12)
    assert _coefficient(solver, coeffs, (0, 1)) == pytest.approx(3.0, abs=1e-12)


def test_patch_mean_examples():
    # the mean of an interpolant over its cell is moments @ coeffs
    assert LocalInterpolator(regular_nodes(1, 2), 1).moments @ [7.0] == pytest.approx(7.0, abs=0)
    # x1*x2 has coefficient 1 on exponent (1,1) for s=3, d=2
    coeffs = np.zeros(6)
    coeffs[4] = 1.0  # order: (0,0),(1,0),(0,1),(2,0),(1,1),(0,2)
    moments = LocalInterpolator(regular_nodes(3, 2), 3).moments
    assert moments @ coeffs == pytest.approx(0.25, abs=1e-15)
    moments = LocalInterpolator(regular_nodes(2, 2), 2).moments
    assert moments @ [1.0, 1.0, 3.0] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("s,d,npts", [(1, 4, 100_000), (4, 1, 100_000), (2, 2, 100_000)])
def test_patch_mean_against_midpoint_rule(s, d, npts):
    rng = np.random.default_rng(s * 10 + d)
    solver = LocalInterpolator(regular_nodes(s, d), s)
    per_axis = int(round(npts ** (1.0 / d)))
    grid_1d = (np.arange(per_axis) + 0.5) / per_axis
    mesh = np.meshgrid(*([grid_1d] * d), indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, d)
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, poly_dim(s, d))
        quad = (solver.design_matrix(pts) @ coeffs).mean()
        assert solver.moments @ coeffs == pytest.approx(quad, abs=1e-6)


def test_polynomial_reproduction_random():
    rng = np.random.default_rng(11)
    for s, d in [(2, 1), (3, 2), (4, 2), (2, 3)]:
        solver = LocalInterpolator(regular_nodes(s, d), s)
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, len(solver))
            values = solver.design_matrix(solver.points) @ coeffs
            recovered = solver.solve(values)
            assert np.allclose(recovered, coeffs, atol=1e-9)


def test_residual_zero_for_reproduced_polynomial():
    rng = np.random.default_rng(5)
    f = random_poly(3, 2, seed=8)
    solver = LocalInterpolator(regular_nodes(3, 2), 3)
    coeffs = solver.solve(f(solver.points))
    x = rng.random((100, 2))
    assert np.abs(f(x) - solver.design_matrix(x) @ coeffs).max() < 1e-10


def test_residual_vanishes_at_own_nodes():
    # every cell's interpolant at m=4 matches f at that cell's mapped nodes,
    # looked up from the global points as the estimators do; shifted nodes
    # lie inside their cell, so each point belongs to exactly one cell
    f = make_benchmark()
    m = 4
    solver = LocalInterpolator(shifted_nodes(regular_nodes(3, 2), np.array([0.3, 0.6])), 3)
    offsets = subcube_indices(m, 2).astype(float)
    x = ((solver.points[None, :, :] + offsets[:, None, :]) / m).reshape(-1, 2)
    fx = f(x)
    coeffs = solver.solve(fx.reshape(m * m, -1))  # one row per cell
    rows, local = locate(x, m)
    assert np.array_equal(rows, np.repeat(np.arange(m * m), len(solver)))
    gx = np.einsum("ij,ij->i", solver.design_matrix(local), coeffs[rows])
    assert np.allclose(gx, fx, rtol=1e-10, atol=0)


def test_max_residual_shrinks_with_m():
    # scaling consistency: finer grids give smaller local interpolation error
    f = make_benchmark()
    solver = LocalInterpolator(regular_nodes(2, 2), 2)
    rng = np.random.default_rng(2)
    probe = rng.random((200, 2))
    worst = []
    for m in (1, 2, 4, 8):
        offsets = subcube_indices(m, 2).astype(float)
        node_pts = (solver.points[None, :, :] + offsets[:, None, :]) / m
        values = f(node_pts.reshape(-1, 2)).reshape(m * m, -1)
        coeffs = solver.solve(values)  # one row per cell
        sample_pts = (probe[None, :, :] + offsets[:, None, :]) / m
        fx = f(sample_pts.reshape(-1, 2)).reshape(m * m, -1)
        gx = np.einsum("pn,cn->cp", solver.design_matrix(probe), coeffs)
        worst.append(float(np.abs(fx - gx).max()))
    assert worst[0] > worst[1] > worst[2] > worst[3]


def test_shifted_interpolation_reproduces_polynomials():
    rng = np.random.default_rng(9)
    base = regular_nodes(2, 2)
    for _ in range(20):
        solver = LocalInterpolator(shifted_nodes(base, rng.random(2)), 2)
        coeffs = rng.uniform(-1, 1, 3)
        values = solver.design_matrix(solver.points) @ coeffs
        assert np.allclose(solver.solve(values), coeffs, atol=1e-9)


def test_monomial_means_values():
    means = monomial_means(total_degree_exponents(3, 2))
    # order: 1, x1, x2, x1^2, x1 x2, x2^2
    assert np.allclose(means, [1.0, 0.5, 0.5, 1 / 3, 0.25, 1 / 3], atol=1e-15)


def _node_sets(s, d):
    """The regular node set and a stack of five shifted ones, at one (s, d)."""
    shifts = np.random.default_rng(10 * s + d).random((5, d))
    return [regular_nodes(s, d), shifted_nodes(regular_nodes(s, d), shifts)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_solve_agrees_with_a_pivoted_solve(s, d):
    """Each coefficient row of ``values @ swapaxes(inverse)`` lies within
    ``4 * n0 * eps / rcond`` times its norm of ``np.linalg.solve``'s.

    The constant, fixed before any run: both ways are backward stable with a
    normwise backward error of about n0*eps (Higham 2002, §9.3 and §14.1, at
    unit growth), so each lies within n0*eps*cond of the exact solution from
    its factorization and within as much again from its substitutions or its
    product, to first order; two solutions, each 2*n0*eps*cond away, give 4."""
    rng = np.random.default_rng(s * 10 + d)
    for points in _node_sets(s, d):
        solver = LocalInterpolator(points, s)
        n0 = len(solver)
        columns = rng.standard_normal((*solver.points.shape[:-2], n0, 50))
        reference = np.swapaxes(np.linalg.solve(solver.matrix, columns), -1, -2)
        error = np.linalg.norm(solver.solve(np.swapaxes(columns, -1, -2)) - reference, axis=-1)
        bound = 4 * n0 * np.finfo(float).eps / np.asarray(solver.rcond)[..., None]
        assert np.all(error <= bound * np.linalg.norm(reference, axis=-1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_solve_recovers_random_polynomials(s, d):
    """Values of a random polynomial of total degree < s at the nodes give
    back its coefficients to 1e-10, on regular and shifted node sets."""
    rng = np.random.default_rng(s * 10 + d)
    for points in _node_sets(s, d):
        solver = LocalInterpolator(points, s)
        coeffs = rng.uniform(-1, 1, (*solver.points.shape[:-2], len(solver), 3))
        values = np.swapaxes(solver.matrix @ coeffs, -1, -2)  # one row per polynomial
        assert np.abs(solver.solve(values) - np.swapaxes(coeffs, -1, -2)).max() < 1e-10


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("s", [1, 3])
def test_solve_into_out_keeps_the_bits(s, d):
    """With `out`, solve writes its coefficients there, with the bits it
    returns without, for the regular node set and a stack of shifted ones,
    into a half of a larger C-ordered block as the estimators' fit does."""
    rng = np.random.default_rng(s * 10 + d)
    for points in _node_sets(s, d):
        solver = LocalInterpolator(points, s)
        values, out = rng.standard_normal((2, *solver.points.shape[:-2], 40, len(solver)))
        expected = solver.solve(values)
        assert solver.solve(values, out=out) is out
        assert out.tobytes() == expected.tobytes()
