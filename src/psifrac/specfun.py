"""Gamma and Mittag-Leffler functions.

The two-parameter Mittag-Leffler function is the entire series

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b),      a > 0, b > 0,

which generalizes the exponential (E_{1,1} = exp).  Only real arguments are
supported; the series is summed with a relative-tail truncation rule, which
is sufficient for the moderate |z| this package needs.  For large negative
z the alternating terms cancel; where their rounding error could reach the
sum, evaluation raises MLConvergenceError instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


# terms must keep shrinking for this many consecutive checks before we trust
# the tail; |term_k| can rise before Gamma growth takes over
_MIN_TERMS = 5

# the sum is trusted only while 2^-52 max|term| stays below this fraction
# of it; against a 60-digit series the true error ran 1-25x that estimate
_CANCELLATION_LIMIT = 1e-11


def mittag_leffler_terms(params: MLParams, z: float) -> tuple[float, int]:
    """Evaluate E_{alpha,beta}(z) returning (value, number_of_terms).

    A non-finite z raises ValueError.  Stops at term k once
    |term_k| <= tol * |partial_sum| and k >= 5; term magnitudes are formed in
    log space.  Raises MLConvergenceError (carrying the partial sum, inf if
    the sum itself overflowed) if max_terms is exhausted, a term or the sum
    overflows float64, or the terms cancel so far that their rounding error
    2^-52 max|term| exceeds 1e-11 |sum|.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
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
    largest = 0.0
    for k in range(params.max_terms):
        log_mag = k * log_abs_z - math.lgamma(params.alpha * k + params.beta)
        try:
            term = (sign_z ** k) * math.exp(log_mag)
        except OverflowError:
            break
        total += term
        largest = max(largest, abs(term))
        if k >= _MIN_TERMS and abs(term) <= params.tol * abs(total):
            if math.isinf(total):
                break
            if 2.0**-52 * largest > _CANCELLATION_LIMIT * abs(total):
                raise MLConvergenceError(
                    f"E_{{{params.alpha:g},{params.beta:g}}}({z:g}): the series "
                    f"cancelled (largest term {largest:.3g}, sum {total:.3g})",
                    partial_sum=total,
                    terms=k + 1,
                )
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


def mittag_leffler(params: MLParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z); an array z
    gives an array, evaluated element by element with the scalar series."""
    zs = np.asarray(z, dtype=float)
    values = [mittag_leffler_terms(params, v)[0] for v in zs.ravel().tolist()]
    return values[0] if zs.ndim == 0 else np.reshape(values, zs.shape)


def _ml_power(mu: float, lam: float, z):
    """E_mu(lam z^mu) for z >= 0, a float or an array: the output of
    ``kernels._z``, which rejects z < 0 (z^mu would be complex).  The powers
    are taken one at a time: numpy's vectorized power may differ from C pow
    in the last bit."""
    zs = np.asarray(z, dtype=float)
    args = [lam * v**mu for v in zs.ravel().tolist()]
    return mittag_leffler(MLParams(alpha=mu), np.reshape(args, zs.shape))
