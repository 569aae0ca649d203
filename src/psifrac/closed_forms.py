"""Closed-form values of the operators on the power and Mittag-Leffler
families, used as analytic references for the numerical operators.

All formulas are stated in ``z = psi(x) - psi(a)`` (``kernels._z``) and
evaluate lazily at any ``x >= a``, so one oracle serves every grid
resolution; a point before the base raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GammaPoleError
from .frac_ops import FracParams
from .kernels import PsiKernel, _z
from .specfun import _ml_power, gamma

__all__ = [
    "PowerFunctionSpec",
    "power_integral",
    "power_hilfer_derivative",
    "power_psi_frac_integral",
    "m_coefficient",
    "ml_hilfer_eigen",
    "ml_psi_frac_integral",
    "composition_remainder",
]


@dataclass(frozen=True)
class PowerFunctionSpec:
    """The family f(x) = (psi(x) - psi(a))^(delta - 1), delta > 0."""

    delta: float
    kernel: PsiKernel
    a: float

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")


def _zpow(z, exponent: float, coef: float = 1.0):
    """coef * z**exponent with 0.0 at z = 0 for negative exponents; raises
    ValueError where it overflows float64 at a finite z."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        if exponent >= 0:
            out = z**exponent
        else:
            out = np.zeros_like(z)
            np.power(z, exponent, out=out, where=z > 0)
        out = coef * out
    bad = np.flatnonzero(~np.isfinite(out) & np.isfinite(z))
    if bad.size:
        z0 = np.ravel(z)[bad[0]]
        raise ValueError(f"{coef:g} * z^{exponent:g} overflows float64 at z = {z0:g}")
    return out


def power_integral(spec: PowerFunctionSpec, p_mu: float, x):
    """I^mu on the power family:
    Gamma(delta)/Gamma(mu+delta) * z^(mu+delta-1)."""
    coef = gamma(spec.delta) / gamma(p_mu + spec.delta)
    return _zpow(_z(spec.kernel, spec.a, x), p_mu + spec.delta - 1.0, coef)


def power_hilfer_derivative(spec: PowerFunctionSpec, p: FracParams, x):
    """Two-type derivative on the power family:
    Gamma(delta)/Gamma(delta-mu) * z^(delta-mu-1), independent of nu.

    Raises a pole error when delta - mu is a nonpositive integer; under the
    entire 1/Gamma continuation the value there is 0, which is exactly the
    annihilation case delta = xi (e.g. constants at type nu = 1).
    """
    dm = spec.delta - p.mu
    if dm <= 0 and dm == round(dm):
        raise GammaPoleError(
            f"Gamma pole at delta - mu = {dm:g}; the 1/Gamma continuation "
            "gives 0 there (the operator annihilates this power)"
        )
    coef = gamma(spec.delta) / gamma(dm)
    return _zpow(_z(spec.kernel, spec.a, x), dm - 1.0, coef)


def m_coefficient(delta: float, p: FracParams) -> float:
    """The four-Gamma ratio
    M = Gamma(delta) Gamma(delta+B) / (Gamma(delta-B) Gamma(delta+2B+mu)),
    B = nu(1-mu)."""
    b = p.nu * (1.0 - p.mu)
    return (gamma(delta) * gamma(delta + b)) / (
        gamma(delta - b) * gamma(delta + 2.0 * b + p.mu)
    )


def power_psi_frac_integral(spec: PowerFunctionSpec, p: FracParams, x):
    """Tabulated closed form for the composed integral on the power family:
    M * z^(delta - mu + 1) with the four-Gamma coefficient M.

    Note: this tabulated form does not coincide with the value of the
    defining composition D^{(1-nu)(1-mu)} I^1 D^{nu(1-mu)} on continuous
    functions -- index algebra contracts that composition to the plain
    order-mu integral, i.e. to ``power_integral(spec, p.mu, x)``, which both
    exponent and coefficient here contradict except at mu = 1.  The form is
    kept because the bound constants and the figure data are built on it;
    the discrepancy is pinned down in the acceptance tests.
    """
    coef = m_coefficient(spec.delta, p)
    return _zpow(_z(spec.kernel, spec.a, x), spec.delta - p.mu + 1.0, coef)


def ml_hilfer_eigen(lam: float, p: FracParams, kernel: PsiKernel, a: float, x):
    """Eigen relation reference: lambda * E_mu(lambda z^mu).

    The two-type derivative reproduces lambda*f exactly in the type-1
    (Caputo-like) configuration nu = 1; for nu < 1 the true derivative
    gains an extra z^(-mu)/Gamma(1-mu) term from the constant leading
    coefficient of the series, so the eigen relation fails there.
    """
    return lam * _ml_power(p.mu, lam, _z(kernel, a, x))


def ml_psi_frac_integral(p: FracParams, kernel: PsiKernel, a: float, x):
    """Composed integral of E_mu(z^mu):  E_mu(z^mu) - 1."""
    return _ml_power(p.mu, 1.0, _z(kernel, a, x)) - 1.0


def composition_remainder(
    f_at_a_integral: float, p: FracParams, kernel: PsiKernel, a: float, x
):
    """Boundary term of the composition identity:
    z^(xi-1)/Gamma(xi) * I^{1-xi}f(a)."""
    return _zpow(_z(kernel, a, x), p.xi - 1.0) / gamma(p.xi) * f_at_a_integral
