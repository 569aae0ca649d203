"""Discretized fractional operators on grid-sampled functions.

All operators act in the transformed variable ``tau = psi(x)``.  With
``z = tau - tau_a`` the suite is, for order ``mu`` and type ``nu`` (and
``A = (1-nu)(1-mu)``, ``B = nu(1-mu)``):

* integral          ``I^mu f``                (weight ``z^{mu-1}/Gamma(mu)``)
* derivative        ``D^mu f  = d/dtau I^{1-mu} f``
* two-type deriv    ``HD^{mu,nu} f = I^B (d/dtau) I^A f``
* composed integral ``J^{mu,nu} f = D^A I^1 D^B f``

The operators are evaluated *exactly* on the piecewise-linear interpolant,
and compositions are contracted with the exact index algebra of the
piecewise-constant/power classes, so each is one ``DiscreteOp(order)`` of
the quadrature module: ``f(a) z^order/Gamma(1+order) + I^{1+order}[slopes]``,
its power term 0 at the base node.  This removes the h-independent error
that finite differences of weakly singular stage outputs leave near ``a``
(see the quadrature module for the remaining half-power correction).  The
order each operator passes:

* ``I^p f``         ``p``, without the start correction
* ``D^p f``         ``-p``
* ``HD^{mu,nu} f``  ``-mu``, without the f(a) term if ``A = 0`` (the inner
  stage is the identity and d/dtau kills the constant)
* ``J^{mu,nu} f``   ``mu``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _quadrature as quad
from .errors import ResolutionError
from .grids import SampledFunction, _frozen

__all__ = [
    "FracParams",
    "psi_integral",
    "psi_integral_order1",
    "psi_rl_derivative",
    "psi_hilfer_derivative",
    "psi_frac_integral",
    "limit_probe",
    "LimitProbeReport",
    "relative_sup_error",
    "SKIP_BASE_NODES",
]

# error norms skip the base node and the two nodes nearest it, where the
# data's own singular behaviour is below grid resolution
SKIP_BASE_NODES = 3


@dataclass(frozen=True)
class FracParams:
    """Order ``mu`` in (0,1], type ``nu`` in [0,1], derived ``xi``.

    The boundary mu = 1 is admitted for the classical limits (all operators
    degenerate to their order-1 counterparts there).
    """

    mu: float
    nu: float = 0.0
    xi: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must lie in [0, 1], got {self.nu}")
        object.__setattr__(self, "xi", self.mu + self.nu * (1.0 - self.mu))


def _oriented(f: SampledFunction, side: str) -> np.ndarray:
    if side == "left":
        return f.values
    if side == "right":
        return f.values[::-1]
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _emit(f: SampledFunction, out: np.ndarray, side: str) -> SampledFunction:
    # the operator's output is fresh: frozen in place, so it is not copied
    return f.with_values(_frozen(out) if side == "left" else out[::-1])


def _require_resolution(f: SampledFunction):
    if f.grid.n < 4:
        raise ResolutionError(
            f"derivative-type operators need n >= 4 subintervals, got {f.grid.n}"
        )


def psi_integral(f: SampledFunction, p_mu: float, side: str = "left") -> SampledFunction:
    """Fractional integral of order ``p_mu`` with respect to the kernel.

    Product-trapezoidal rule: the piecewise-linear interpolant of
    ``g(tau) = f(x(tau))`` is integrated exactly against
    ``(tau_x - tau)^{p_mu - 1} / Gamma(p_mu)``.  Orders up to 2 are allowed
    so composed checks of order ``1 + mu`` can reuse the same rule.
    """
    if not 0.0 < p_mu <= 2.0:
        raise ValueError(f"integral order must lie in (0, 2], got {p_mu}")
    return _emit(f, quad.DiscreteOp(p_mu, f.grid.n, f.grid.h, corrected=False)(_oriented(f, side)), side)


def psi_integral_order1(f: SampledFunction, side: str = "left") -> SampledFunction:
    """Order-1 integral: cumulative trapezoid in tau."""
    g = _oriented(f, side)
    out = quad.trapezoid_cumulative(g, f.grid.h)
    return _emit(f, out, side)


def psi_rl_derivative(
    f: SampledFunction, p_mu: float, side: str = "left"
) -> SampledFunction:
    """Riemann-Liouville-type derivative of order ``p_mu`` in [0, 1).

    The two-type derivative of type 0 (``nu = 0``, where the inner integral
    has the full order 1 - p_mu): a z^{-p_mu} power term carrying f at the
    base point plus the slope quadrature of order 1 - p_mu.  Order 0 is the
    identity.
    """
    if not 0.0 <= p_mu < 1.0:
        raise ValueError(f"derivative order must lie in [0, 1), got {p_mu}")
    if p_mu == 0.0:
        return f.with_values(f.values)
    return psi_hilfer_derivative(f, FracParams(p_mu, 0.0), side)


def psi_hilfer_derivative(
    f: SampledFunction, p: FracParams, side: str = "left"
) -> SampledFunction:
    """Two-type derivative ``I^{nu(1-mu)} (d/dtau) I^{(1-nu)(1-mu)} f``.

    The three stages are contracted exactly on the interpolant; the type
    ``nu`` decides only the fate of the value at the base point (annihilated
    at nu = 1, where the inner integral is the identity).  At mu = 1 it is
    the backward difference quotient, 0.0 at the base node.
    """
    _require_resolution(f)
    if p.mu == 1.0:  # + 0.0 turns a -0.0 quotient into +0.0
        d = np.diff(_oriented(f, side)) / f.grid.h + 0.0
        return _emit(f, np.concatenate(([0.0], d)), side)
    # the f(a) term stays only where the inner integral's order A is positive
    op = quad.DiscreteOp(-p.mu, f.grid.n, f.grid.h, base=(1.0 - p.nu) * (1.0 - p.mu) > 0.0)
    return _emit(f, op(_oriented(f, side)), side)


def psi_frac_integral(
    f: SampledFunction, p: FracParams, side: str = "left"
) -> SampledFunction:
    """Composed integral ``D^{(1-nu)(1-mu)} I^1 D^{nu(1-mu)} f``.

    Contracting the three stages on the interpolant gives
    ``f(a) z^{mu}/Gamma(1+mu) + I^{1+mu}[slopes]`` for either ordering of
    the outer derivative orders (the right-sided composition mirrors the
    orders, which the contraction absorbs).  The value at the starting
    endpoint is exactly 0.
    """
    _require_resolution(f)
    return _emit(f, quad.DiscreteOp(p.mu, f.grid.n, f.grid.h)(_oriented(f, side)), side)


def relative_sup_error(
    num: SampledFunction,
    ref: SampledFunction | np.ndarray,
    skip_base: int = SKIP_BASE_NODES,
    side: str = "left",
) -> float:
    """sup|num - ref| / sup|ref| over nodes away from the base endpoint."""
    a = num.values
    b = ref.values if isinstance(ref, SampledFunction) else np.asarray(ref)
    if side == "left":
        a, b = a[skip_base:], b[skip_base:]
    else:
        a, b = a[: len(a) - skip_base], b[: len(b) - skip_base]
    scale = float(np.max(np.abs(b)))
    diff = float(np.max(np.abs(a - b)))
    if scale == 0.0:
        return diff
    return diff / scale


@dataclass
class LimitProbeReport:
    """Distances of the composed integral to its limiting operator."""

    regime: str
    parameters: list
    distances: list
    monotone: bool
    reference: str


_MU_TO_1_SEQ = (0.9, 0.99, 0.999)
_IDENTITY_SEQ = tuple((10.0**-k, 1.0 - 10.0**-k) for k in (1, 2, 3))


def limit_probe(f: SampledFunction, regime: str) -> LimitProbeReport:
    """Probe the limits of the composed integral.

    ``mu_to_1``: distances to the order-1 integral along mu = 0.9, 0.99,
    0.999.  ``identity``: distances to f itself along (mu, nu) =
    (1e-k, 1 - 1e-k).  Distances are sup norms away from the base nodes
    and should decrease monotonically.
    """
    if regime == "mu_to_1":
        reference = psi_integral_order1(f)
        params = [(mu, 0.5) for mu in _MU_TO_1_SEQ]
        ref_name = "order-1 integral"
    elif regime == "identity":
        reference = f
        params = list(_IDENTITY_SEQ)
        ref_name = "input function"
    else:
        raise ValueError(f"unknown regime {regime!r}")

    dists = []
    for mu, nu in params:
        out = psi_frac_integral(f, FracParams(mu, nu))
        d = float(
            np.max(np.abs(out.values[SKIP_BASE_NODES:] - reference.values[SKIP_BASE_NODES:]))
        )
        dists.append(d)
    monotone = all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))
    return LimitProbeReport(regime, params, dists, monotone, ref_name)
