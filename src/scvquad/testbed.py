"""Reference integrands with known exact integrals.

The steep 2-d exponential benchmark, random polynomials (exactness
oracles), and compactly supported power bumps whose height blows up while
their integral shrinks -- the adversarial inputs for the low-smoothness
tail experiments.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .grid import (_check_probability, _check_seed, _check_sizes, monomial_matrix, poly_dim,
                   total_degree_exponents)
from .interp import monomial_means

__all__ = [
    "Integrand",
    "BumpSpec",
    "test_function_2d",
    "poly_integrand",
    "random_poly",
    "bump",
    "corner_bump",
    "ball_bump_integral",
]


class Integrand:
    """A d-variate function on the unit cube with an evaluation counter.

    Calls take a batch of points of shape (n, d) and return shape (n,);
    every row counts as one evaluation.  The counter is lock-protected so
    concurrent callers can share one instance.  `fn` must return n finite
    values for n points; anything else raises ValueError.  A value must
    depend only on its own point, bits included, not on the rest of the
    batch: ensembles stack many replications into one call.
    """

    def __init__(self, fn, dim: int, exact_integral: float | None = None, label: str = ""):
        _check_sizes(dim=dim)
        self._fn = fn
        self.dim = int(dim)
        self.exact_integral = None if exact_integral is None else float(exact_integral)
        if not (exact_integral is None or math.isfinite(self.exact_integral)):
            raise ValueError(f"exact integral must be finite, got {self.exact_integral}")
        self.label = label
        self._lock = threading.Lock()
        self._count = 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (n, {self.dim}), got {x.shape}")
        with self._lock:
            self._count += x.shape[0]
        out = np.asarray(self._fn(x), dtype=float)
        if out.shape != (x.shape[0],):
            raise ValueError(f"{self!r} returned shape {out.shape} for {x.shape[0]} points")
        if not np.isfinite(out).all():
            raise ValueError(f"{self!r} returned a non-finite value")
        return out

    @property
    def evals(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self) -> str:
        return f"Integrand({self.label or 'anonymous'}, dim={self.dim})"


def test_function_2d() -> Integrand:
    """The steep exponential benchmark ``c * exp(15*x1 - 5*x2)`` on [0,1]^2.

    The constant is fixed so the exact integral is 1.  It is evaluated in
    the product form ``75 e^-15 / ((1 - e^-15)(1 - e^-5))`` which keeps all
    factors of moderate size.
    """
    c = 75.0 * math.exp(-15.0) / ((1.0 - math.exp(-15.0)) * (1.0 - math.exp(-5.0)))

    def fn(pts):
        return c * np.exp(15.0 * pts[:, 0] - 5.0 * pts[:, 1])

    return Integrand(fn, dim=2, exact_integral=1.0, label="c*exp(15x1-5x2)")


def poly_integrand(coeffs, s: int, d: int, label: str = "") -> Integrand:
    """Polynomial of total degree < s with the given coefficient vector.

    Coefficients follow the shared exponent ordering; the exact integral is
    the moment sum ``sum_alpha c_alpha prod_j 1/(alpha_j+1)``.
    """
    exponents = total_degree_exponents(s, d)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (poly_dim(s, d),):
        raise ValueError(f"expected {poly_dim(s, d)} coefficients, got {coeffs.shape}")
    exact = float(monomial_means(exponents) @ coeffs)

    def fn(pts):
        # a row sum, not a BLAS product, whose rounding can depend on a
        # row's place in the batch
        return (monomial_matrix(pts, exponents) * coeffs).sum(axis=1)

    return Integrand(fn, dim=d, exact_integral=exact, label=label or f"poly(s={s},d={d})")


def random_poly(s: int, d: int, seed: int) -> Integrand:
    """Polynomial of total degree < s with iid uniform [-1,1] coefficients."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, poly_dim(s, d))
    return poly_integrand(coeffs, s, d, label=f"poly(s={s},d={d},seed={seed})")


def ball_bump_integral(s: int, d: int) -> float:
    """Integral of ``(1 - |x|^2)^s`` over the d-dimensional unit ball.

    Closed form ``Gamma(s+1) * pi^(d/2) / Gamma(d/2 + s + 1)``.
    """
    _check_sizes(s=s, d=d)
    return math.gamma(s + 1) * math.pi ** (d / 2) / math.gamma(d / 2 + s + 1)


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of a compactly supported power bump on the unit cube.

    The base profile is ``psi(x) = (1 - |x|^2)^s`` on the unit ball and 0
    outside; it equals 1 at the origin and at least ``(3/4)^s`` on the
    half-radius ball.  The spec scales it to width `sigma` around `center`
    with height ``sigma^-(d/p - s)``.
    """

    s: int
    d: int
    p: float
    sigma: float
    center: tuple[float, ...]

    def __post_init__(self):
        _check_sizes(s=self.s, d=self.d)
        if not self.p >= 1.0:  # also rejects nan
            raise ValueError(f"need p >= 1, got p={self.p}")
        if not 0.0 < self.sigma <= 0.5:
            raise ValueError(f"need 0 < sigma <= 1/2, got sigma={self.sigma}")
        center = tuple(float(c) for c in self.center)
        if len(center) != self.d:
            raise ValueError(f"center must have {self.d} coordinates, got {len(center)}")
        if not all(0.0 <= c - self.sigma and c + self.sigma <= 1.0 for c in center):
            raise ValueError(
                f"support ball of radius {self.sigma} around {center} "
                "is not contained in the unit cube"
            )
        object.__setattr__(self, "center", center)

    @property
    def height(self) -> float:
        """Peak value ``sigma^-(d/p - s)``."""
        return self.sigma ** (self.s - self.d / self.p)


def bump(spec: BumpSpec) -> Integrand:
    """Integrand for a power bump.

    Value ``sigma^-(d/p-s) * (1 - |(x-center)/sigma|^2)^s`` inside the
    support ball, 0 outside; exact integral
    ``ball_bump_integral(s, d) * sigma^(s + d(1 - 1/p))``.

    The radius is accumulated along the point axis, one coordinate at a
    time, in coordinate order, with no (n, d) temporaries: the bits of
    numpy's row sum ``np.sum(((x - center) / sigma) ** 2, axis=1)`` for
    d <= 7.  From d = 8 numpy's row sum switches to its 8-way pairwise
    order, and the two agree within ``d * 2^-53 * r2``.
    """
    height = spec.height
    center = spec.center
    sigma = spec.sigma
    s = spec.s

    def fn(pts):
        r2 = ((pts[:, 0] - center[0]) / sigma) ** 2
        for j in range(1, len(center)):
            r2 += ((pts[:, j] - center[j]) / sigma) ** 2
        return height * np.maximum(1.0 - r2, 0.0) ** s

    exact = ball_bump_integral(spec.s, spec.d) * sigma ** (
        spec.s + spec.d * (1.0 - 1.0 / spec.p)
    )
    return Integrand(
        fn,
        dim=spec.d,
        exact_integral=exact,
        label=f"bump(s={spec.s},d={spec.d},p={spec.p:g},sigma={sigma:g})",
    )


def corner_bump(s: int, d: int, p: float, m: int, delta: float) -> Integrand:
    """Adversarial spike for the low-smoothness regime ``s < d/p``.

    A bump centered at ``(1/(8m), ..., 1/(8m))`` with width
    ``sigma = delta^(1/d) / (8m)``, so its support sits inside the corner
    cell of the m-grid and shrinks with the uncertainty level delta.

    One uniform point in the corner cell hits the support with probability
    ``pi*delta/64`` at d=2 (``vol(ball)*delta/8^d`` in general), below
    delta, so the spike shows in the maximum error over replications and
    not in the delta-level quantile (for SCV at s=1 that quantile is
    exactly the spike's integral).
    """
    _check_sizes(s=s, d=d, m=m)
    _check_probability(delta=delta)
    spec = BumpSpec(s=s, d=d, p=p, sigma=0.125 * delta ** (1.0 / d) / m, center=(0.125 / m,) * d)
    if not s < d / p:  # p >= 1 is the spec's check
        raise ValueError(
            f"corner bump requires the low-smoothness regime s < d/p, "
            f"got s={s}, d/p={d / p:g}"
        )
    spike = bump(spec)
    spike.label = f"corner_bump(s={s},d={d},p={p:g},m={m},delta={delta:g})"
    return spike
