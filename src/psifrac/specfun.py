"""Gamma and Mittag-Leffler functions.

The two-parameter Mittag-Leffler function is the entire series

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b),      a > 0, b > 0,

which generalizes the exponential (E_{1,1} = exp).  Only real arguments are
supported.  ``mittag_leffler`` evaluates an array in numpy and routes each
element by (a, b, z) alone:

- a = 0 (the geometric case, |z| < 1 required) and z = 0: closed forms;
- a = b = 1 and z < -1: ``exp(z)``;
- 0 < a < 1, b <= 4 and -100 < z < -1: the trapezoid rule on a parabolic
  contour for the inverse Laplace transform (Weideman & Trefethen, Math.
  Comp. 76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015), within 1e-13
  relative of 60-digit references for b = 1 and 4e-13 up to b = 4; it loses
  accuracy as a -> 1 (1.0e-12 at a = 0.99, 1.3e-11 at a = 0.999), where the
  singularities of the transform approach its branch cut, and as b grows
  past 4;
- 0 < a < 1, b <= 4 and z <= -100: the asymptotic expansion in 1/z;
- everything else: the series, summed with a relative-tail truncation rule.
  For large negative z (a >= 1, or b > 4) the alternating terms cancel;
  where their rounding error could reach the sum, evaluation raises
  MLConvergenceError instead of returning garbage.
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
    """Gamma function with explicit pole and overflow errors.

    Exact (in floating point) at positive integers; elsewhere delegates to
    the C library implementation, which uses a Lanczos-type approximation
    and the reflection formula for negative non-integer arguments.  Past
    x ~ 171.62 the value overflows float64, which raises ValueError, as does
    a non-finite x.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma(x) needs a finite x, got {x}")
    if x == math.floor(x):
        if x <= 0.0:
            raise GammaPoleError(f"gamma pole at x = {x:g}")
        if x <= _GAMMA_OVERFLOW:
            return float(math.factorial(int(x) - 1))
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"gamma({x:g}) overflows float64") from None


@dataclass(frozen=True)
class MLParams:
    """Parameters of E_{alpha,beta} plus series truncation controls.

    ``alpha = 0`` is permitted as the documented geometric special case
    (summed in closed form, |z| < 1 required at evaluation time).  ``tol``
    and ``max_terms`` govern the series only; the contour and the closed
    forms ignore them.
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


# arguments below this take the contour (0 < a < 1) or exp (a = b = 1);
# above it the series cancels at most O(1) terms
_SPLIT = -1.0

# the contour and the asymptotic expansion take only b <= 4.  The contour's
# integrand w^(a-b) is singular at u = i, next to its strip of analyticity,
# so its error grows with b: against 60-digit references (a = 0.05-0.9,
# x 1.0001-99) it is 1.1e-14 at b = 3, 4.0e-13 at b = 4, 1.0e-11 at b = 5 and
# 8e-6 at b = 10.  Larger b keeps the series and its cancellation guard.
_CONTOUR_MAX_BETA = 4.0

# For 0 < a < 1 and x = -z >= 100 the asymptotic expansion
#     E_{a,b}(-x) = -sum_{k=1..K} (-x)^-k / Gamma(b - a k) + O(x^-(K+1))
# with K = 16 is exact to rounding: the first omitted term is below
# 100^-17 Gamma(18) ~ 4e-20, and it came within 7e-16 of 60-digit sums.  It
# also holds where the 1/x term vanishes (b = a), where the contour sum is
# rounding noise relative to the value (2.5e-11 at x = 1e3, a = b = 1/2).
_ASYMPTOTIC = -100.0
_ASYMPTOTIC_TERMS = 16

# terms must keep shrinking for this many consecutive checks before we trust
# the tail; |term_k| can rise before Gamma growth takes over
_MIN_TERMS = 5

# the sum is trusted only while 2^-52 max|term| stays below this fraction
# of it; against a 60-digit series the true error ran 1-25x that estimate
_CANCELLATION_LIMIT = 1e-11

# the contour and the series work on at most this many points at a time, so
# each temporary array stays under 100 kB whatever the input size (contour
# points at 512 raised a curve's peak RSS by 0.5 MB, at 256 by 0.15 MB).  The
# series makes a dozen numpy calls per term, so it needs the larger chunk to
# amortise them: a 65537-point array took 52 ms at 512 and 17 ms at 4096
_CHUNK = 256
_SERIES_CHUNK = 4096

# Contour.  For 0 < a < 1 and x > 0, with t = x^(1/a),
#     E_{a,b}(-x) = t^(1-b) L^-1[s^(a-b) / (s^a + 1)](t),
# inverted by the trapezoid rule on s = (c/t)(1 + iu)^2, u = kh, |k| <= N,
# c = pi N / 12, h = 3 / N.  In w = s t = c (1 + iu)^2, which does not depend
# on t, the rule is
#     E_{a,b}(-x) = Re sum_k g_k w_k^(a-b) / (w_k^a + x),
#     g_k = (h c / pi) e^(w_k) (1 + iu_k),
# so t is never formed, and node -k is the conjugate of node k.  The error is
# rounding, amplified by |e^(w_0)| = e^c, as soon as N >= 16: against 60-digit
# references (b = 1, a = 0.1-0.9, x 1-30) it is 2.5e-14 at N = 16, 7e-14 at
# N = 20 and 4.5e-13 at N = 24.  N = 20 also keeps b = 2 at 3e-15 (6e-13 at
# N = 16).
_CONTOUR_N = 20


def _contour_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes w_k and weights g_k of the contour rule for k = 0..N; the
    weights of k >= 1 are doubled to stand for their conjugates."""
    c, h = math.pi * _CONTOUR_N / 12.0, 3.0 / _CONTOUR_N
    u = h * np.arange(_CONTOUR_N + 1)
    w = c * (1.0 + 1j * u) ** 2
    g = (h * c / math.pi) * np.exp(w) * (1.0 + 1j * u)
    g[1:] *= 2.0
    return w, g


_CONTOUR_W, _CONTOUR_G = _contour_nodes()


def _contour(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) for 0 < alpha < 1 and an array x > 0: one row of
    complex divisions per point, a chunk of points at a time."""
    weights = _CONTOUR_G * _CONTOUR_W ** (alpha - beta)
    poles = _CONTOUR_W**alpha
    values = np.empty_like(x)
    for start in range(0, x.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        values[part] = (weights / (poles + x[part, None])).real.sum(axis=1)
    return values


def _lgamma(v: float) -> float:
    """log Gamma(v), inf where it overflows float64 (v past about 2.5e305),
    so that 1/Gamma(v) = exp(-inf) = 0 there."""
    try:
        return math.lgamma(v)
    except OverflowError:
        return math.inf


def _rgamma(v: float) -> float:
    """1/Gamma(v), 0 at the poles."""
    if v <= 0.0 and v == math.floor(v):
        return 0.0
    return 1.0 / gamma(v) if v < _GAMMA_OVERFLOW else math.exp(-_lgamma(v))


def _asymptotic(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) for 0 < alpha < 1 and an array x >= 100, by Horner's
    rule in y = -1/x."""
    y = -1.0 / x
    total = np.zeros_like(x)
    for k in range(_ASYMPTOTIC_TERMS, 0, -1):
        total = (total + _rgamma(beta - alpha * k)) * y
    return -total


# a term or a partial sum may overflow; each is reported as an error
@np.errstate(over="ignore")
def _series(params: MLParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The series at each nonzero z of a chunk, and its term count.

    Each point has its own stop: term k once k >= 5 and
    |term_k| <= tol |partial_sum|.  Pass k forms term k of every point in log
    space, adds it to the point's partial sum and retires the points that
    stopped.  Raises MLConvergenceError for the lowest-index point whose
    series runs out of ``max_terms``, overflows (a term or the sum), or
    cancels so far that 2^-52 max|term| exceeds 1e-11 |sum|.
    """
    a, b, tol = params.alpha, params.beta, params.tol
    values = np.empty(z.size)
    terms = np.empty(z.size, dtype=np.int64)
    # (index, message, partial sum, term count) per failing point
    failures = []
    log_abs, negative = np.log(np.abs(z)), z < 0
    total = largest = np.zeros(z.size)
    live = np.ones(z.size, dtype=bool)
    for k in range(params.max_terms):
        size = np.exp(k * log_abs - _lgamma(a * k + b))
        overflow = np.isinf(size)
        size[overflow] = 0.0
        term = np.where(negative, -size, size) if k % 2 else size
        total = total + term
        largest = np.maximum(largest, size)
        stop = live & (overflow | (k >= _MIN_TERMS) & (size <= tol * np.abs(total)))
        if not stop.any():
            continue
        cancelled = 2.0**-52 * largest > _CANCELLATION_LIMIT * np.abs(total)
        bad = stop & (overflow | np.isinf(total) | cancelled)
        ok = stop & ~bad
        values[ok], terms[ok] = total[ok], k + 1
        if bad.any():
            i = int(bad.argmax())
            if overflow[i] or math.isinf(total[i]):
                failures.append((i, f" overflows float64 at term {k}", total[i], k))
            else:
                failures.append((i, f": the series cancelled (largest term {largest[i]:.3g}, "
                                 f"sum {total[i]:.3g})", total[i], k + 1))
        live &= ~stop
        if not live.any():
            break
    if live.any():
        i = int(live.argmax())
        failures.append((i, f" did not converge in {params.max_terms} terms "
                         f"(last term {term[i]:g})", total[i], params.max_terms))
    if failures:
        i, message, partial, count = min(failures)
        raise MLConvergenceError(f"E_{{{a:g},{b:g}}}({z[i]:g})" + message,
                                 partial_sum=float(partial), terms=int(count))
    return values, terms


def _evaluate(params: MLParams, z) -> tuple[np.ndarray, np.ndarray]:
    """E_{alpha,beta} at each element of z, and the work each took: series
    terms, contour nodes (N + 1 = 21; the other N are their conjugates),
    asymptotic terms (16), or 1 for a closed form.

    Raises for the first element that cannot be evaluated: ValueError if any
    z is not finite, MLDivergenceError outside the geometric case's |z| < 1,
    MLConvergenceError where the series fails.
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"z must be finite, got {flat[~finite][0]}")
    a, b = params.alpha, params.beta
    values = np.empty(flat.size)
    terms = np.ones(flat.size, dtype=np.int64)
    if a == 0.0:
        outside = np.abs(flat) >= 1.0
        if outside.any():
            raise MLDivergenceError(
                f"E_0 is a geometric series; needs |z| < 1, got z = {flat[outside][0]:g}"
            )
        values = _rgamma(b) / (1.0 - flat)
    else:
        series = flat != 0.0
        values[~series] = _rgamma(b)
        low = flat < _SPLIT
        if a == b == 1.0:
            values[low] = np.exp(flat[low])
            series &= ~low
        elif a < 1.0 and b <= _CONTOUR_MAX_BETA and low.any():
            far = flat <= _ASYMPTOTIC
            near = low & ~far
            if far.any():
                values[far] = _asymptotic(a, b, -flat[far])
                terms[far] = _ASYMPTOTIC_TERMS
            if near.any():
                values[near] = _contour(a, b, -flat[near])
                terms[near] = _CONTOUR_N + 1
            series &= ~low
        series = np.flatnonzero(series)
        for start in range(0, series.size, _SERIES_CHUNK):
            part = series[start:start + _SERIES_CHUNK]
            values[part], terms[part] = _series(params, flat[part])
    return values.reshape(zs.shape), terms.reshape(zs.shape)


def mittag_leffler_terms(params: MLParams, z: float) -> tuple[float, int]:
    """Evaluate E_{alpha,beta}(z) returning (value, terms).

    ``terms`` is the number of series terms summed, of contour nodes
    evaluated (21) or of asymptotic terms (16), or 1 for a closed form.  A
    non-finite z raises ValueError; a failing series raises
    MLConvergenceError carrying its partial sum (inf if the sum itself
    overflowed) and term count.
    """
    value, terms = _evaluate(params, float(z))
    return float(value), int(terms)


def mittag_leffler(params: MLParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z); an array z
    gives an array of the same shape, a scalar a float."""
    values, _ = _evaluate(params, z)
    return float(values) if values.ndim == 0 else values


def _ml_power(mu: float, lam: float, z):
    """E_mu(lam z^mu) for z >= 0, a float or an array: the output of
    ``kernels._z``, which rejects z < 0 (z^mu would be complex).  The
    arguments are formed by one array power and evaluated by one call; an
    argument that overflows to inf is rejected by ``mittag_leffler`` as not
    finite.  lam = 0 gives all-zero arguments, where 0 * z^mu would be NaN
    once z^mu overflows."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        arg = lam * z**mu if lam != 0.0 else np.zeros_like(z)
    return mittag_leffler(MLParams(alpha=mu), arg)
