"""Local polynomial interpolation on subcubes.

A :class:`LocalInterpolator` is one unisolvent node set together with
everything a cell's interpolation needs: the monomial collocation matrix,
its inverse, the exact cell moments and a batched solve.  Interpolation in
the monomial basis supplies the control variates; their means over the
cell are exact term-by-term moments, which is the reason for staying in
the monomial basis at desk scale (s <= 4, d <= 4) where its conditioning
is acceptable.
Conditioning is checked, and the inverse formed, once, when the interpolator
is built, so one only exists for node sets whose collocation matrix is well
conditioned.
"""

from __future__ import annotations

import numpy as np

from .grid import _check_unit_cube, monomial_matrix, poly_dim, total_degree_exponents

__all__ = ["RCOND_MIN", "UnisolvenceError", "LocalInterpolator", "monomial_means"]

# Node sets whose interpolation matrix has a reciprocal condition estimate
# below this are rejected at construction time.
RCOND_MIN = 1e-10


class UnisolvenceError(ValueError):
    """Node set cannot support unique total-degree interpolation."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def monomial_means(exponents: np.ndarray) -> np.ndarray:
    """Exact means over [0,1]^d of the monomials x^alpha: prod_j 1/(alpha_j+1)."""
    return 1.0 / np.prod(np.asarray(exponents, dtype=float) + 1.0, axis=1)


class LocalInterpolator:
    """Interpolation by polynomials of total degree < s on one node set,
    reused across subcubes, or on a stack of node sets at once.

    `points` has shape (n0, d), or (..., n0, d) for a stack, with
    ``n0 = poly_dim(s, d)`` and all coordinates in [0, 1]; d is read from
    its shape.  Each read-only collocation `matrix` must have a reciprocal
    condition estimate `rcond` of at least ``RCOND_MIN``, otherwise
    :class:`UnisolvenceError` is raised rather than letting later solves
    produce garbage.  Its read-only `inverse` is formed then, one per node
    set, so a batch of value vectors (one row per subcube) resolves into
    coefficient rows by one product, ``values @ inverse.T``, and the mean of
    an interpolant over its cell is ``coeffs @ moments``.
    """

    def __init__(self, points: np.ndarray, s: int):
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        n0 = poly_dim(s, d)
        if pts.shape[-2:] != (n0, d):
            raise ValueError(f"expected points of shape (..., {n0}, {d}), got {pts.shape}")
        _check_unit_cube(pts, "interpolation nodes")
        self.points = _readonly(pts)
        self.exponents = total_degree_exponents(s, d)
        matrix = monomial_matrix(self.points.reshape(-1, d), self.exponents)
        matrix = matrix.reshape(*pts.shape[:-1], n0)
        cond = np.linalg.cond(matrix)
        rcond = np.where(np.isfinite(cond), 1.0 / cond, 0.0)  # 0 if singular or nan
        if rcond.min() < RCOND_MIN:
            raise UnisolvenceError(
                f"node set is not unisolvent for degree < {s}: "
                f"reciprocal condition estimate {rcond.min():.3e} < {RCOND_MIN:.0e}"
            )
        self.matrix = _readonly(matrix)
        self.inverse = _readonly(np.linalg.inv(matrix))
        self.rcond = rcond if rcond.ndim else float(rcond)
        self.moments = monomial_means(self.exponents)

    def __len__(self) -> int:
        return self.points.shape[-2]

    def solve(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of the interpolants matching `values` at the nodes.

        `values` is either a vector of length n0 (for one node set) or an
        (..., batch, n0) stack of rows, one per subcube; the result has the
        same shape, each row's entries in the exponent order, and is written
        into `out` if given.  It is ``values @ swapaxes(inverse)``: one
        product, whose bits do not depend on the other node sets of a stack.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self):
            raise ValueError(f"expected {len(self)} node values, got shape {values.shape}")
        return np.matmul(values, np.swapaxes(self.inverse, -1, -2), out=out)

    def design_matrix(self, points_local: np.ndarray) -> np.ndarray:
        """Monomial values at local points, shape (n, n0)."""
        return monomial_matrix(points_local, self.exponents)
