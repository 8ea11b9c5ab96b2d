"""Local polynomial interpolation on subcubes.

Interpolation in the monomial basis supplies the control variates; their
means over the cell are exact term-by-term moments, which is the reason
for staying in the monomial basis at desk scale (s <= 4, d <= 4) where its
conditioning is acceptable.  Conditioning is checked once, when the
:class:`NodeSet` is built, so a solver only exists for node sets whose
collocation matrix is well conditioned.
"""

from __future__ import annotations

import numpy as np

from .grid import NodeSet, monomial_matrix, total_degree_exponents

__all__ = ["LocalInterpolator", "monomial_means"]


def monomial_means(exponents: np.ndarray) -> np.ndarray:
    """Exact means over [0,1]^d of the monomials x^alpha: prod_j 1/(alpha_j+1)."""
    return 1.0 / np.prod(np.asarray(exponents, dtype=float) + 1.0, axis=1)


class LocalInterpolator:
    """Interpolation engine for one node set, reused across subcubes.

    Precomputes the collocation matrix and the moment vector so that a
    batch of value vectors (one column per subcube) resolves into
    coefficient vectors with a single pivoted solve.  The mean of an
    interpolant over its cell is ``moments @ coeffs``.
    """

    def __init__(self, nodes: NodeSet):
        self.nodes = nodes
        self.exponents = total_degree_exponents(nodes.s, nodes.d)
        self.matrix = nodes.interpolation_matrix
        self.moments = monomial_means(self.exponents)

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the interpolants matching `values` at the nodes.

        `values` is either a vector of length n0 or an (n0, batch) matrix;
        the result has the same shape, rows aligned with the exponent order.
        """
        values = np.asarray(values, dtype=float)
        n0 = len(self.nodes)
        if values.shape[0] != n0:
            raise ValueError(f"expected {n0} node values, got {values.shape[0]}")
        return np.linalg.solve(self.matrix, values)

    def design_matrix(self, points_local: np.ndarray) -> np.ndarray:
        """Monomial values at local points, shape (n, n0)."""
        return monomial_matrix(points_local, self.exponents)
