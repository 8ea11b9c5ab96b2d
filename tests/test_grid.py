import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvquad import grid
from scvquad.estimators import _BLOCK_POINTS
from scvquad.grid import (
    locate,
    monomial_matrix,
    poly_dim,
    regular_nodes,
    shifted_nodes,
    subcube_indices,
    total_degree_exponents,
)
from scvquad.interp import LocalInterpolator, UnisolvenceError


@pytest.mark.parametrize("s,d,expected", [(2, 2, 3), (1, 7, 1), (3, 2, 6)])
def test_poly_dim_known_values(s, d, expected):
    assert poly_dim(s, d) == expected


def test_poly_dim_matches_multiindex_enumeration():
    for s in range(1, 7):
        for d in range(1, 6):
            count = sum(
                1
                for alpha in itertools.product(range(s), repeat=d)
                if sum(alpha) <= s - 1
            )
            assert poly_dim(s, d) == count


def test_poly_dim_large_arguments_exact():
    # checked integer arithmetic: no wraparound anywhere below s + d ~ 60
    assert poly_dim(30, 30) == math.comb(59, 30)


@pytest.mark.parametrize("s,d", [(0, 1), (1, 0), (-2, 3)])
def test_poly_dim_rejects_bad_input(s, d):
    with pytest.raises(ValueError):
        poly_dim(s, d)


def test_exponents_order_and_contents():
    exps = total_degree_exponents(3, 2)
    assert [tuple(row) for row in exps] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert exps.shape == (poly_dim(3, 2), 2)


def test_check_sizes_bounds_each_size():
    grid._check_sizes(3, a=1, b=np.int64(3))
    grid._check_sizes(a=2**70)  # no ceiling without `high`
    with pytest.raises(ValueError, match="^need at most 3 b, got 4$"):
        grid._check_sizes(3, a=1, b=4)
    with pytest.raises(ValueError, match="^need a >= 1, got a=0$"):
        grid._check_sizes(3, a=0)
    with pytest.raises(TypeError, match="^a must be an integer, got True$"):
        grid._check_sizes(3, a=True)


def test_check_sizes_takes_a_lower_bound():
    grid._check_sizes(3, 2, a=2, b=np.int64(3))
    grid._check_sizes(low=0, a=0, b=2**70)
    with pytest.raises(ValueError, match="^need a >= 2, got a=1$"):
        grid._check_sizes(3, 2, a=1)
    with pytest.raises(ValueError, match="^need a >= 0, got a=-1$"):
        grid._check_sizes(low=0, a=-1)
    with pytest.raises(TypeError, match="^a must be an integer, got False$"):
        grid._check_sizes(low=0, a=False)


def test_check_probability_takes_the_open_unit_interval():
    grid._check_probability(delta=0.05, level=np.float64(1 - 1e-16))
    for bad in (0.0, 1.0, math.nan, -0.5, 2.0):
        with pytest.raises(ValueError, match=r"^need delta in \(0,1\), got "):
            grid._check_probability(delta=bad)


def test_subcube_index_validation():
    with pytest.raises(ValueError):
        subcube_indices(0, 2)
    with pytest.raises(ValueError):
        subcube_indices(2, 0)
    misses = grid._index_array.cache_info().misses
    for m, d in ((2.5, 2), (2, 2.0), (np.float64(3.0), 2)):
        with pytest.raises(TypeError):
            subcube_indices(m, d)
    assert grid._index_array.cache_info().misses == misses  # rejected before the cache
    assert subcube_indices(np.int64(3), 2).shape == (9, 2)


def test_subcube_index_cache_keeps_four_grids():
    grid._index_array.cache_clear()
    first = subcube_indices(3, 2)
    later = [subcube_indices(m, d) for m, d in ((4, 2), (5, 2), (6, 2), (7, 2))]
    assert grid._index_array.cache_info().currsize == 4
    assert subcube_indices(7, 2) is later[-1]
    assert subcube_indices(3, 2) is not first  # the fifth grid evicted the first
    assert subcube_indices(3, 2).tobytes() == first.tobytes()


def test_subcube_cells_tile_the_cube():
    """Every point of [0,1)^d lies in exactly one cell (i + [0,1]^d)/m,
    and `locate` finds its row in `subcube_indices`."""
    rng = np.random.default_rng(5)
    for m, d in [(1, 1), (2, 3), (3, 2), (4, 2), (7, 1)]:
        cells = subcube_indices(m, d)
        assert cells.shape == (m**d, d)
        x = np.vstack([rng.random((200, d)), np.zeros((1, d)), np.full((1, d), 1 - 2**-53)])
        i = np.floor(x * m).astype(np.int64)
        matches = (cells[None, :, :] == i[:, None, :]).all(axis=2)
        assert (matches.sum(axis=1) == 1).all()
        rows, local = locate(x, m)
        assert np.array_equal(matches.argmax(axis=1), rows)
        assert np.array_equal(local, x * m - cells[rows])
        assert np.all((0.0 <= local) & (local <= 1.0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(m=st.integers(1, 12), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_locate_inverts_the_cell_map(m, d, seed):
    """`locate` returns row i and local u for the point (u + subcube_indices(m, d)[i]) / m,
    up to rounding of u; a coordinate 1 lies in the last cell."""
    cells = subcube_indices(m, d)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(cells), 64)
    u = rng.random((64, d))
    rows, local = locate((u + cells[i]) / m, m)
    assert np.array_equal(rows, i)
    assert np.allclose(local, u, rtol=0, atol=1e-12)
    rows, local = locate(np.ones((1, d)), m)
    assert rows.tolist() == [m**d - 1] and local.tolist() == [[1.0] * d]


@pytest.mark.parametrize("point", [[-0.5, 0.2], [1.5, 0.2], [np.nan, 0.2], [0.2, -1e-300]])
def test_locate_rejects_points_outside_the_cube(point):
    """A point below the cube would get a negative row, which `np.take` wraps
    to a real cell; one above, a row past the grid; NaN, an invalid cast."""
    with pytest.raises(ValueError, match="unit cube"):
        locate(np.array([point]), 4)


def test_subcube_indices_lexicographic():
    arr = subcube_indices(2, 2)
    assert [tuple(r) for r in arr] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_regular_nodes_1d():
    nodes = regular_nodes(2, 1)
    assert sorted(nodes[:, 0].tolist()) == [0.0, 1.0]


def test_regular_nodes_s1_center():
    nodes = regular_nodes(1, 3)
    assert np.array_equal(nodes, [[0.5, 0.5, 0.5]])


def test_regular_nodes_2d_simplex_corners():
    nodes = regular_nodes(2, 2)
    assert {tuple(p) for p in nodes} == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    # unisolvence: the 3x3 system solves cleanly
    mat = LocalInterpolator(nodes, 2).matrix
    sol = np.linalg.solve(mat, np.array([1.0, 2.0, 4.0]))
    assert np.allclose(mat @ sol, [1.0, 2.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_regular_nodes_cardinality_and_conditioning(s, d):
    nodes = LocalInterpolator(regular_nodes(s, d), s)
    assert len(nodes) == poly_dim(s, d)
    assert nodes.rcond >= 1e-10


def test_shifted_nodes_examples():
    base = regular_nodes(2, 1)
    shifted = shifted_nodes(base, np.array([0.0]))
    assert {p[0] for p in shifted} == {0.0, 0.5}

    single = shifted_nodes(regular_nodes(1, 2), np.array([1.0, 1.0]))
    assert np.allclose(single, [[0.75, 0.75]], atol=0)


def test_shifted_nodes_random_shifts_stay_unisolvent():
    rng = np.random.default_rng(3)
    base = regular_nodes(3, 2)
    for _ in range(100):
        shifted = LocalInterpolator(shifted_nodes(base, rng.random(2)), 3)
        # solving against random data reproduces it
        values = rng.standard_normal(len(shifted))
        coeffs = np.linalg.solve(shifted.matrix, values)
        assert np.allclose(shifted.matrix @ coeffs, values, atol=1e-8)


def test_shifted_nodes_validation():
    base = regular_nodes(2, 2)
    with pytest.raises(ValueError):
        shifted_nodes(base, np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        shifted_nodes(base, np.array([0.5]))
    for shift in ([np.nan, 0.5], [[0.5, 0.5], [0.5, np.nan]]):
        with pytest.raises(ValueError, match="unit cube"):
            shifted_nodes(base, np.array(shift))


def test_shifted_node_stack_matches_one_at_a_time():
    """A stack of shifted node sets, its collocation matrices, condition
    estimates and solves are bitwise those of each node set alone."""
    rng = np.random.default_rng(5)
    base, shifts = regular_nodes(3, 2), rng.random((7, 2))
    stack = LocalInterpolator(shifted_nodes(base, shifts), 3)
    # 4 C-ordered rows per node set, as the estimators lay them out
    values = np.ascontiguousarray(np.swapaxes(rng.standard_normal((7, len(stack), 4)), 1, 2))
    coeffs = stack.solve(values)
    assert stack.points.shape == (7, 6, 2) and stack.rcond.shape == (7,)
    for r, shift in enumerate(shifts):
        alone = LocalInterpolator(shifted_nodes(base, shift), 3)
        assert alone.points.tobytes() == stack.points[r].tobytes()
        assert alone.matrix.tobytes() == stack.matrix[r].tobytes()
        assert alone.rcond == stack.rcond[r]
        assert alone.solve(values[r]).tobytes() == coeffs[r].tobytes()


def test_node_stack_rejects_one_degenerate_member():
    stack = np.stack([regular_nodes(2, 2), [[0.2, 0.2], [0.2, 0.2], [0.4, 0.4]]])
    with pytest.raises(UnisolvenceError):
        LocalInterpolator(stack, 2)


def test_nodeset_rejects_degenerate_points():
    repeated = [[0.2, 0.2], [0.2, 0.2], [0.4, 0.4]]
    near = [[0.5], [0.5 + 1e-12]]  # rcond 4.0e-13: between RCOND_MIN and 1e-16
    for pts in (repeated, near):
        with pytest.raises(UnisolvenceError):
            LocalInterpolator(np.array(pts), 2)


def test_nodeset_rejects_points_outside_the_cube():
    for bad in (1.5, -0.5, np.nan):
        pts = regular_nodes(2, 2).copy()
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="unit cube"):
            LocalInterpolator(pts, 2)
    with pytest.raises(ValueError, match="unit cube"):
        LocalInterpolator(np.full((3, 2), np.nan), 2)


def test_nodeset_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        LocalInterpolator(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)


def test_monomial_matrix_shape_and_values():
    exps = total_degree_exponents(2, 2)
    pts = np.array([[0.5, 0.25]])
    row = monomial_matrix(pts, exps)[0]
    assert row.tolist() == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomial_matrix_matches_power_table(s, d):
    """Agrees with the (n, n0, d) power table and product it replaced.

    Bitwise at s <= 2, where every factor is 1 or one coordinate; within
    4 ulp above (2 measured), because x^a is built by a - 1 rounded
    multiplies instead of one pow and the factors combine in another order.
    More rows than one estimator tile, with coordinates of exactly 0 and 1.
    """
    rng = np.random.default_rng(10 * s + d)
    exps = total_degree_exponents(s, d)
    pts = rng.random((_BLOCK_POINTS + 101, d))
    pts[rng.random(pts.shape) < 0.05] = 0.0
    pts[rng.random(pts.shape) < 0.05] = 1.0
    got = monomial_matrix(pts, exps)
    want = np.prod(pts[:, None, :] ** exps[None, :, :], axis=-1)
    assert got.shape == (len(pts), len(exps))
    assert got.dtype == np.float64 and got.flags.c_contiguous
    if s <= 2:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    # any order by degree is a valid build order, and gives the same columns
    perm = np.lexsort((rng.random(len(exps)), exps.sum(axis=1)))
    assert np.array_equal(monomial_matrix(pts, exps[perm]), got[:, perm])


@pytest.mark.parametrize(
    "exps,message",
    [
        ([[1, 0]], "no earlier row"),  # parent (0, 0) missing
        ([[0, 0], [0, 2]], "no earlier row"),  # parent (0, 1) missing
        ([[0, 0], [0, 1], [1, 1], [1, 0]], "no earlier row"),  # (1, 0) comes after (1, 1)
        ([[0, 0], [0, -1]], "no earlier row"),  # negative: parents never reach 0
    ],
)
def test_monomial_matrix_rejects_rows_without_an_earlier_parent(exps, message):
    with pytest.raises(ValueError, match=message):
        monomial_matrix(np.full((3, 2), 0.5), np.array(exps))
