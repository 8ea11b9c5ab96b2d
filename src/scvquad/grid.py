"""Dimension bookkeeping on the unit cube.

Polynomial-space dimensions, monomial design matrices, the lexicographic
index of the ``m^d`` subcube decomposition and each point's cell in it,
and the nodes of unisolvent sets for total-degree interpolation.  Cached
arrays returned from here are read-only and safe to share across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "poly_dim",
    "total_degree_exponents",
    "monomial_matrix",
    "regular_nodes",
    "shifted_nodes",
    "subcube_indices",
    "locate",
]


def _check_sizes(**sizes) -> None:
    """TypeError unless each size is an integer (a bool is not), ValueError unless it is >= 1."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {name}={value}")


def _check_unit_cube(x: np.ndarray, what: str) -> None:
    """ValueError unless every coordinate of `x` lies in [0, 1], which nan does not."""
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError(f"{what} must lie inside the unit cube")


def poly_dim(s: int, d: int) -> int:
    """Dimension of the space of d-variate polynomials of total degree < s.

    Equals ``C(s+d-1, d)``.  Computed in exact integer arithmetic, so the
    result is never silently wrapped.
    """
    _check_sizes(s=s, d=d)
    return math.comb(s + d - 1, d)


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to `total`,
    in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _exponent_array(s: int, d: int) -> np.ndarray:
    rows = [alpha for deg in range(s) for alpha in _compositions(deg, d)]
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    arr.flags.writeable = False
    return arr


def total_degree_exponents(s: int, d: int) -> np.ndarray:
    """Multi-indices alpha with ``|alpha|_1 <= s-1`` as an (n0, d) array.

    Rows are ordered by total degree, descending-lexicographically within
    each degree, so the constant term comes first.  This ordering is the
    layout contract for every coefficient vector in the package.  The
    returned array is read-only and shared between callers.
    """
    _check_sizes(s=s, d=d)
    return _exponent_array(s, d)


# Rows per block of a design-matrix build: a block of columns stays in
# cache while each of its monomials is multiplied out of an earlier one.
_BLOCK_ROWS = 4096


@lru_cache(maxsize=64)
def _multiply_plan(d: int, data: bytes) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """How to build each monomial column from an earlier one.

    `data` holds an (n0, d) int64 exponent array.  Returns the rows whose
    exponent is zero (columns of ones) and, for every other row r, a triple
    ``(r, parent, j)`` where j is the last nonzero coordinate of row r and
    row `parent` is row r less one in coordinate j.  Raises ValueError when
    a parent is not an earlier row, as happens for any row with a negative
    exponent (its chain of parents never reaches the zero row).
    """
    rows = np.frombuffer(data, dtype=np.int64).reshape(-1, d).tolist()
    index: dict[tuple[int, ...], int] = {}
    ones, steps = [], []
    for r, alpha in enumerate(map(tuple, rows)):
        nonzero = [j for j, a in enumerate(alpha) if a]
        if nonzero:
            j = nonzero[-1]
            parent = index.get(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :])
            if parent is None:
                raise ValueError(
                    f"exponent row {r} = {alpha} has no earlier row one lower in coordinate {j}"
                )
            steps.append((r, parent, j))
        else:
            ones.append(r)
        index[alpha] = r
    return tuple(ones), tuple(steps)


def monomial_matrix(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Design matrix ``A[i, r] = prod_j x_ij^alpha_rj`` of the monomials x^alpha.

    `points` has shape (n, d) and `exponents` integer shape (n0, d); the
    result is a C-contiguous (n, n0) float64 array.  Each column is an
    earlier column times one coordinate, one multiply per monomial, so every
    nonzero exponent row must have its parent (itself less one in its last
    nonzero coordinate) in an earlier row, as :func:`total_degree_exponents`
    orders them; otherwise ValueError.
    """
    exponents = np.asarray(exponents)
    points = np.asarray(points, dtype=float)
    if exponents.ndim != 2 or exponents.dtype.kind not in "iu":
        raise ValueError(
            f"exponents must be an (n0, d) integer array, got {exponents.dtype} "
            f"of shape {exponents.shape}"
        )
    if points.ndim != 2 or points.shape[1] != exponents.shape[1]:
        raise ValueError(
            f"points must have shape (n, {exponents.shape[1]}), got {points.shape}"
        )
    data = np.ascontiguousarray(exponents, dtype=np.int64).tobytes()
    ones, steps = _multiply_plan(exponents.shape[1], data)
    out = np.empty((points.shape[0], exponents.shape[0]))
    # a fancy-index fill, out[:, ones], slowed two-thread ensembles of small
    # estimates by 10-16 %; basic indexing did not
    for r in ones:
        out[:, r] = 1.0
    for start in range(0, len(out), _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        x = points[start : start + _BLOCK_ROWS]
        for r, parent, j in steps:
            np.multiply(block[:, parent], x[:, j], out=block[:, r])
    return out


def regular_nodes(s: int, d: int) -> np.ndarray:
    """The principal simplex lattice ``{alpha/(s-1) : |alpha|_1 <= s-1}``
    as an (n0, d) array.

    A classical unisolvent set for interpolation by polynomials of total
    degree < s.  For s = 1 the single node is placed at the cube center.
    """
    _check_sizes(s=s, d=d)
    if s == 1:
        return np.full((1, d), 0.5)
    return total_degree_exponents(s, d).astype(float) / (s - 1)


def shifted_nodes(base: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Replace each base node x_j by ``(x_j + shift) / 2``.

    `shift` has shape (d,), or (..., d) for a stack of shifted node sets of
    shape (..., n0, d).  The result stays inside the unit cube for any
    shift in [0, 1]^d, and unisolvence is preserved because the map is an
    invertible affine contraction of an already unisolvent set.
    """
    base, shift = np.asarray(base, dtype=float), np.asarray(shift, dtype=float)
    if shift.shape[-1:] != base.shape[1:]:
        raise ValueError(f"shift must have shape (..., {base.shape[1]}), got {shift.shape}")
    _check_unit_cube(shift, "shift")
    return (base + shift[..., None, :]) / 2.0


@lru_cache(maxsize=4)  # m^d*d*8 bytes each: keep only the last few grids
def _index_array(m: int, d: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(m)] * d), indexing="ij")
    arr = np.stack(grids, axis=-1).reshape(-1, d).astype(np.int64)
    arr.flags.writeable = False
    return arr


def subcube_indices(m: int, d: int) -> np.ndarray:
    """All m^d subcube indices as an (m^d, d) array in lexicographic order.

    Index i names the cell ``prod_j [i_j/m, (i_j+1)/m]``, which holds the
    points ``(u + i)/m`` for local coordinates u in [0,1]^d.  The
    lexicographic order fixes the traversal (and hence the floating
    summation order) used by every estimator.  Read-only, shared array.
    """
    _check_sizes(m=m, d=d)  # before the cache, which would take 2.5 as a key
    return _index_array(m, d)


def locate(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For points `x` of shape (n, d), the row in :func:`subcube_indices` of each
    point's cell ``i = min(floor(x*m), m-1)`` and its local coordinates ``x*m - i``.
    ValueError unless every point lies in the unit cube."""
    _check_sizes(m=m)
    _check_unit_cube(x, "points")
    d = x.shape[1]
    local = x * m
    cells = np.minimum(local.astype(np.int64), m - 1)
    local -= cells
    return cells @ m ** np.arange(d - 1, -1, -1, dtype=np.int64), local
