"""Gamma and Mittag-Leffler functions.

The two-parameter Mittag-Leffler function is the entire series

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b),      a > 0, b > 0,

which generalizes the exponential (E_{1,1} = exp).  Only real arguments are
supported; the series is summed with a relative-tail truncation rule, which
is sufficient for the moderate |z| this package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GammaPoleError, MLConvergenceError, MLDivergenceError

__all__ = ["MLParams", "gamma", "mittag_leffler", "mittag_leffler_terms"]

# Gamma overflows float64 beyond ~171.62
_GAMMA_OVERFLOW = 171


def gamma(x: float) -> float:
    """Gamma function with explicit pole errors.

    Exact (in floating point) at positive integers; elsewhere delegates to
    the C library implementation, which uses a Lanczos-type approximation
    and the reflection formula for negative non-integer arguments.
    """
    x = float(x)
    if x == math.floor(x):
        if x <= 0.0:
            raise GammaPoleError(f"gamma pole at x = {x:g}")
        if x <= _GAMMA_OVERFLOW:
            return float(math.factorial(int(x) - 1))
    return math.gamma(x)


@dataclass(frozen=True)
class MLParams:
    """Parameters of E_{alpha,beta} plus series truncation controls.

    ``alpha = 0`` is permitted as the documented geometric special case
    (summed in closed form, |z| < 1 required at evaluation time).
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


# terms must keep shrinking for this many consecutive checks before we trust
# the tail; |term_k| can rise before Gamma growth takes over
_MIN_TERMS = 5


def mittag_leffler_terms(params: MLParams, z: float) -> tuple[float, int]:
    """Evaluate E_{alpha,beta}(z) returning (value, number_of_terms).

    Stops at term k once |term_k| <= tol * |partial_sum| and k >= 5; term
    magnitudes are formed in log space.  Raises MLConvergenceError (carrying
    the partial sum, inf if the sum itself overflowed) if max_terms is
    exhausted or a term or the sum overflows float64.
    """
    z = float(z)
    if params.alpha == 0.0:
        if abs(z) >= 1.0:
            raise MLDivergenceError(
                f"E_0 is a geometric series; needs |z| < 1, got z = {z:g}"
            )
        return 1.0 / ((1.0 - z) * gamma(params.beta)), 1

    if z == 0.0:
        return 1.0 / gamma(params.beta), 1

    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    total = 0.0
    term = 0.0
    for k in range(params.max_terms):
        log_mag = k * log_abs_z - math.lgamma(params.alpha * k + params.beta)
        try:
            term = (sign_z ** k) * math.exp(log_mag)
        except OverflowError:
            break
        total += term
        if k >= _MIN_TERMS and abs(term) <= params.tol * abs(total):
            if math.isinf(total):
                break
            return total, k + 1
    else:
        raise MLConvergenceError(
            f"E_{{{params.alpha:g},{params.beta:g}}}({z:g}) did not converge in "
            f"{params.max_terms} terms (last term {term:g})",
            partial_sum=total,
            terms=params.max_terms,
        )
    raise MLConvergenceError(
        f"E_{{{params.alpha:g},{params.beta:g}}}({z:g}) overflows float64 "
        f"at term {k}",
        partial_sum=total,
        terms=k,
    )


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    value, _ = mittag_leffler_terms(params, z)
    return value
