"""Fractional population growth: two-type derivative Malthus model.

The classical model N' = lambda N with N(0) = N0 generalizes to

    HD^{mu,nu} N = lambda N,   N(0) = N0,

whose solution through the one-parameter Mittag-Leffler function is

    N(t) = N0 * E_mu( lambda (psi(t) - psi(0))^mu ).

For mu -> 1 (and psi = t) this collapses to N0 exp(lambda t).  Decay
(lambda < 0) is supported at every size of lambda (psi(t) - psi(0))^mu,
even though the eigen relation is usually quoted for growth rates only:
past an argument of -1, ``specfun`` evaluates E_mu by a contour integral
(mu < 1) or by exp (mu = 1), where the alternating series would cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frac_ops import (
    SKIP_BASE_NODES,
    FracParams,
    psi_hilfer_derivative,
)
from .grids import SampledFunction, TransformedGrid, _frozen
from .kernels import PsiKernel, _z
from .spaces import WeightedNormSpec, weighted_norm
from .specfun import _ml_power

__all__ = ["MalthusSpec", "malthus_solution", "malthus_curve", "malthus_residual"]


@dataclass(frozen=True)
class MalthusSpec:
    n0: float
    lam: float
    p: FracParams
    kernel: PsiKernel
    horizon: float

    def __post_init__(self):
        if not 0 < self.n0 < np.inf:
            raise ValueError(f"initial population must be finite and positive, got {self.n0}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (self.kernel.contains(0.0) and self.kernel.contains(self.horizon)):
            raise ValueError("kernel domain must include [0, horizon]")


def malthus_solution(spec: MalthusSpec, t):
    """N(t) = N0 * E_mu(lambda (psi(t) - psi(0))^mu), for a float or an
    array of times, evaluated as one array.  A growth curve whose series
    overflows float64 raises MLConvergenceError, and one where N0 times the
    series overflows raises ValueError at the first such t."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= spec.horizon)):
        raise ValueError(f"t must lie in [0, {spec.horizon:g}]")
    e = _ml_power(spec.p.mu, spec.lam, _z(spec.kernel, 0.0, t))
    with np.errstate(over="ignore"):
        n = spec.n0 * e
    bad = np.flatnonzero(~np.isfinite(n))
    if bad.size:
        raise ValueError(f"N0 * E_mu overflows float64 at t = {np.ravel(t)[bad[0]]:g}")
    return n


def malthus_curve(spec: MalthusSpec, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Solution sampled at steps+1 equally spaced times on [0, horizon]."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ts = np.linspace(0.0, spec.horizon, steps + 1)
    return ts, malthus_solution(spec, ts)


def malthus_residual(spec: MalthusSpec, n_grid: int) -> float:
    """Weighted sup-norm of HD^{mu,nu} N - lambda N on an n_grid grid.

    The weight exponent is 1 - xi and the base node plus its two neighbours
    are excluded, matching the package norm convention (the solution has a
    z^mu cusp at t = 0, so the discrete derivative is least accurate there).
    For types nu < 1 the residual is *not* small: the derivative of the
    constant leading term contributes N0 z^(-mu)/Gamma(1-mu), so the
    Mittag-Leffler curve solves the model only in its type-1 form.
    """
    if n_grid < 64:
        raise ValueError(f"need n_grid >= 64, got {n_grid}")
    grid = TransformedGrid.build(spec.kernel, 0.0, spec.horizon, n_grid)
    n_fn = SampledFunction(grid, _frozen(malthus_solution(spec, grid.x_nodes)))
    deriv = psi_hilfer_derivative(n_fn, spec.p)
    residual = n_fn.with_values(_frozen(deriv.values - spec.lam * n_fn.values))
    return weighted_norm(residual, WeightedNormSpec(1.0 - spec.p.xi), SKIP_BASE_NODES)
