"""Product-integration rules on uniform tau grids.

Both rules integrate the piecewise-linear interpolant of nodal values
exactly against the weight (tau_i - tau)^{s-1}/Gamma(s):

* ``fracint_slopes``  -- I^s of the interpolant's piecewise-constant
  derivative (the building block for the derivative-type operators),
* ``fracint_values``  -- I^s of the interpolant itself, summed by parts:
  the interpolant is f(a) plus the integral of its slopes, so
  ``I^s[interp] = f(a) z^s/Gamma(s+1) + I^{s+1}[slopes]``.

The slope integral is a causal convolution with the table
m^s - (m-1)^s.  Its first ``_DIRECT_N + 1`` outputs are summed directly
(``np.convolve``); the rest come from one zero-padded real FFT, so the
operator costs O(n log n).  The direct near field keeps the small values
next to the base point accurate to their own size, which an FFT alone,
whose error scales with the largest product, does not.

``fracint_slopes`` additionally carries a starting correction over the
first few cells: nodal data are refit there with a sqrt(z) term and the
residual against the piecewise model is integrated exactly.  Without it any
polynomial cell model keeps an n-independent relative error a few nodes
from the base point whenever the data carry the z^(1/2)-type behaviour that
fractional operators produce.  The correction's chord half is the shared
table, and each cell boundary's incomplete beta is computed once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc

__all__ = [
    "fracint_values",
    "fracint_slopes",
    "trapezoid_cumulative",
    "CORRECTION_CELLS",
]

# cells refit with the sqrt term; fixed, so operators stay linear in f
CORRECTION_CELLS = 8

# outputs 0.._DIRECT_N are the direct sum; also the size from which the FFT
# is used (at n = 1024 both take about 0.1 ms)
_DIRECT_N = 1024


@lru_cache(maxsize=128)
def _pwconst_kernel(s: float, n: int) -> np.ndarray:
    v = np.zeros(n + 1)
    v[1:] = np.diff(np.arange(0, n + 1, dtype=float) ** s)
    v.setflags(write=False)
    return v


def _base_term(f0: float, e: float, n: int, h: float) -> np.ndarray:
    """f0 z^e / Gamma(e + 1), z = tau_j - tau_0: the base-point term of
    every operator.  A finite 0.0 is stored at the base node for negative
    exponents (the true value there is infinite)."""
    z = np.zeros(n + 1)
    z[1:] = (np.arange(1, n + 1, dtype=float) * h) ** e
    return (f0 / math.gamma(e + 1.0)) * z


def _slope_integral(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """I^s of the interpolant's piecewise-constant slopes, s > 0."""
    n = values.size - 1
    d = np.diff(values) / h
    w = _pwconst_kernel(float(s), n)
    m = min(n, _DIRECT_N)
    near = np.convolve(d[:m], w[: m + 1])[: m + 1]
    if n > _DIRECT_N:
        # L >= 2n: no circular wrap-around reaches the kept outputs
        L = 1 << (2 * n - 1).bit_length()
        out = np.fft.irfft(np.fft.rfft(d, L) * np.fft.rfft(w, L), L)[: n + 1]
        out[: m + 1] = near
    else:
        out = near
    out *= h**s / math.gamma(s + 1.0)
    return out


def fracint_values(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """I^s of the piecewise-linear interpolant of ``values``; zero at node 0."""
    out = _slope_integral(values, s + 1.0, h)
    out += _base_term(values[0], s, values.size - 1, h)
    return out


def trapezoid_cumulative(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    np.cumsum((values[1:] + values[:-1]) * (0.5 * h), out=out[1:])
    return out


def _halfpow_correction(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """Exactness correction for sqrt(z) content in the first cells.

    Cell j is refit through nodes {j, j+1, j+2} with  f0 + a sqrt(z) + b z;
    the correction integrates a * d/dz[sqrt(z) - its chord] against the
    weight, leaving the piecewise-constant base rule untouched elsewhere.
    On unit spacing each cell's column is data-independent: the incomplete
    beta at its two ends (each boundary evaluated once) less the chord
    slope times the shared table.  Linear in the data, so operator
    linearity is preserved exactly.
    """
    n = values.size - 1
    cells = min(CORRECTION_CELLS, n - 1)
    corr = np.zeros(n + 1)
    r = np.sqrt(np.arange(cells + 2, dtype=float))
    a = np.diff(values[: cells + 2], 2) / np.diff(r, 2)
    k = np.arange(1, n + 1, dtype=float)
    # int_j^{j+1} (k-v)^{s-1} v^{-1/2} dv = k^{s-1/2} B(1/2,s) [I_{(j+1)/k} - I_{j/k}]
    half_beta = 0.5 * math.gamma(0.5) * math.gamma(s) / math.gamma(0.5 + s)
    scale = half_beta * k ** (s - 0.5)
    w = _pwconst_kernel(float(s), n)
    left = np.zeros(n)
    for j in range(cells):
        right = betainc(0.5, s, (j + 1) / k[j:])
        col = scale[j:] * (right - left) - ((r[j + 1] - r[j]) / s) * w[1 : n - j + 1]
        corr[j + 1 :] += a[j] * col
        left = right[1:]
    corr *= h ** (s - 1.0) / math.gamma(s)
    return corr


def fracint_slopes(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """I^s of the interpolant's derivative (piecewise-constant slopes).

    Up to the start correction, this is the exact tau-derivative of
    ``fracint_values(values, s)`` less its base-point term
    f(a) z^{s-1}/Gamma(s), and the single quadrature behind every
    derivative-type operator.
    """
    if s == 0.0:
        # I^0 of the slope function: backward difference quotients
        out = np.zeros(values.size)
        out[1:] = np.diff(values) / h
        return out
    out = _slope_integral(values, s, h)
    out += _halfpow_correction(values, s, h)
    return out
