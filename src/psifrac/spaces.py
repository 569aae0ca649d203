"""Weighted sup norms and the explicit boundedness constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frac_ops import FracParams
from .grids import SampledFunction
from .kernels import PsiKernel
from .specfun import gamma

__all__ = [
    "WeightedNormSpec",
    "weighted_norm",
    "bound_constant_s",
    "bound_constant_A",
    "bound_constant_K",
]


@dataclass(frozen=True)
class WeightedNormSpec:
    """Weight (psi(x)-psi(a))^w with w = xi_weight in [0, 1)."""

    xi_weight: float

    def __post_init__(self):
        if not 0.0 <= self.xi_weight < 1.0:
            raise ValueError(f"xi weight must lie in [0, 1), got {self.xi_weight}")


def weighted_norm(
    f: SampledFunction, spec: WeightedNormSpec, skip_base: int = 1
) -> float:
    """max over x_j > a of |(psi(x_j) - psi(a))^w  f(x_j)|.

    The node at ``a`` is always excluded (the weight regularizes a possible
    singularity there); ``skip_base`` > 1 also drops the nodes nearest
    ``a``, matching the package-wide error-norm convention.
    """
    skip = max(1, int(skip_base))
    z = f.grid.tau_nodes - f.grid.tau_nodes[0]
    w = z[skip:] ** spec.xi_weight
    return float(np.max(np.abs(w * f.values[skip:])))


def _span(kernel: PsiKernel, a: float, b: float, e: float) -> float:
    """(psi(b) - psi(a))^e, the power every bound constant is built on."""
    dz = float(kernel.eval(b)) - float(kernel.eval(a))
    if not dz > 0:
        raise ValueError("need b > a inside the kernel domain")
    try:
        span = dz**e
    except OverflowError:
        raise ValueError(f"(psi(b) - psi(a))^{e:g} overflows at psi(b) - psi(a) = {dz:g}") from None
    if span == 0.0:
        raise ValueError(f"(psi(b) - psi(a))^{e:g} underflows at psi(b) - psi(a) = {dz:g}")
    return span


def bound_constant_s(p: FracParams, kernel: PsiKernel, a: float, b: float) -> float:
    """s = (psi(b)-psi(a))^(1+mu) / (Gamma(1+xi) Gamma(2+mu-xi))."""
    return _span(kernel, a, b, 1.0 + p.mu) / (gamma(1.0 + p.xi) * gamma(2.0 + p.mu - p.xi))


def bound_constant_A(p: FracParams, kernel: PsiKernel, a: float, b: float) -> float:
    """A = Gamma(1-B) Gamma(1+2B+mu) / (Gamma(1+B) (psi(b)-psi(a))^(2-mu)),
    with B = nu(1-mu).

    1/A equals the tabulated composed-integral closed form at delta = 1
    evaluated at x = b; that reciprocity is asserted in the tests.
    """
    bb = p.nu * (1.0 - p.mu)
    return (gamma(1.0 - bb) * gamma(1.0 + 2.0 * bb + p.mu)) / (
        gamma(1.0 + bb) * _span(kernel, a, b, 2.0 - p.mu)
    )


def bound_constant_K(p: FracParams, kernel: PsiKernel, a: float, b: float) -> float:
    """K = (psi(b)-psi(a))^(1-mu) / (Gamma(2-xi) Gamma(xi-mu+1))."""
    return _span(kernel, a, b, 1.0 - p.mu) / (gamma(2.0 - p.xi) * gamma(p.xi - p.mu + 1.0))
