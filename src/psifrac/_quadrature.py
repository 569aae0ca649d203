"""Product-integration rules on uniform tau grids.

One ``DiscreteOp`` per order and grid size: I^s of the piecewise-linear
interpolant's piecewise-constant slopes, integrated exactly against the
weight (tau_i - tau)^{s-1}/Gamma(s), optionally start-corrected, plus
optionally the base-point power f(a) z^e/Gamma(e+1).  It is built once and
holds everything that does not depend on the data: the table
m^s - (m-1)^s and its FFT, the correction columns and the base power.

The slope integral is a causal convolution with the table.  Its first
``_DIRECT_N + 1`` outputs are summed directly (``np.convolve``); the rest
come from one zero-padded real FFT, so an application costs O(n log n).
The direct near field keeps the small values next to the base point
accurate to their own size, which an FFT alone, whose error scales with the
largest product, does not.

The start correction refits nodal data over the first few cells with a
sqrt(z) term and integrates the residual against the piecewise model
exactly.  Without it any polynomial cell model keeps an n-independent
relative error a few nodes from the base point whenever the data carry the
z^(1/2)-type behaviour that fractional operators produce.
"""

from __future__ import annotations

import math

import numpy as np

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


def _pwconst_kernel(s: float, n: int) -> np.ndarray:
    v = np.zeros(n + 1)
    v[1:] = np.diff(np.arange(0, n + 1, dtype=float) ** s)
    return v


def _correction_columns(s: float, n: int, w: np.ndarray):
    """Start-correction columns on unit spacing, and the refit's divisors.

    Cell j is refit through nodes {j, j+1, j+2} with  f0 + a sqrt(z) + b z.
    Its column, at nodes j+1..n, integrates d/dz[sqrt(z) - its chord]: the
    incomplete beta at the cell's two ends less the chord slope times ``w``.
    """
    # imported here: scipy.special takes ~0.3 s to import; only this function uses it
    from scipy.special import betainc

    cells = min(CORRECTION_CELLS, n - 1)
    r = np.sqrt(np.arange(cells + 2, dtype=float))
    k = np.arange(1, n + 1, dtype=float)
    # int_j^{j+1} (k-v)^{s-1} v^{-1/2} dv = k^{s-1/2} B(1/2,s) [I_{(j+1)/k} - I_{j/k}]
    half_beta = 0.5 * math.gamma(0.5) * math.gamma(s) / math.gamma(0.5 + s)
    scale = half_beta * k ** (s - 0.5)
    cols = []
    left = np.zeros(n)
    for j in range(cells):
        right = betainc(0.5, s, (j + 1) / k[j:])
        cols.append(scale[j:] * (right - left) - ((r[j + 1] - r[j]) / s) * w[1 : n - j + 1])
        left = right[1:]
    return cols, np.diff(r, 2)


class DiscreteOp:
    """I^s of the slopes of nodal values on n cells of width h; order 0 is
    the backward difference quotient.  ``corrected`` adds the start
    correction, ``base_exponent`` e adds f(a) z^e/Gamma(e+1) (skipped when
    f(a) = 0; 0.0 at the base node, where a negative power is infinite)."""

    def __init__(self, s: float, n: int, h: float, base_exponent=None, corrected=True):
        self.s, self.n, self.h = float(s), n, h
        self._cols = []
        if self.s > 0.0:
            self._table = _pwconst_kernel(self.s, n)
            self._scale = h**self.s / math.gamma(self.s + 1.0)
            if n > _DIRECT_N:
                # L >= 2n: no circular wrap-around reaches the kept outputs
                self._table_fft = np.fft.rfft(self._table, 1 << (2 * n - 1).bit_length())
            if corrected:
                self._cols, self._r_dd = _correction_columns(self.s, n, self._table)
                self._corr_scale = h ** (self.s - 1.0) / math.gamma(self.s)
        self._zpow = None
        if base_exponent is not None:
            self._zpow = np.zeros(n + 1)
            self._zpow[1:] = (np.arange(1, n + 1, dtype=float) * h) ** base_exponent
            self._gamma_e = math.gamma(base_exponent + 1.0)

    def _refit(self, values: np.ndarray) -> np.ndarray:
        """sqrt(z) coefficient of each correction cell's three-point refit."""
        return np.diff(values[: len(self._cols) + 2], 2) / self._r_dd

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The operator at all n + 1 nodes; exactly 0.0 at node 0."""
        n = self.n
        d = np.diff(values) / self.h
        if self.s == 0.0:
            out = np.concatenate(([0.0], d))
        else:
            m = min(n, _DIRECT_N)
            out = np.convolve(d[:m], self._table[: m + 1])[: m + 1]
            if n > _DIRECT_N:
                near, L = out, 2 * (self._table_fft.size - 1)
                out = np.fft.irfft(np.fft.rfft(d, L) * self._table_fft, L)[: n + 1]
                out[: m + 1] = near
            out *= self._scale
        if self._cols:
            corr = np.zeros(n + 1)
            for j, (a, col) in enumerate(zip(self._refit(values), self._cols)):
                corr[j + 1 :] += a * col
            corr *= self._corr_scale
            out += corr
        if self._zpow is not None and values[0] != 0.0:
            out += (values[0] / self._gamma_e) * self._zpow
        out[0] = 0.0
        return out

    def at(self, values: np.ndarray, i: int) -> float:
        """``self(values)[i]`` in O(i), up to the slope integral's summation order."""
        if i == 0:
            return 0.0
        d = np.diff(values[: i + 1]) / self.h
        out = d[-1] if self.s == 0.0 else np.dot(d, self._table[i:0:-1]) * self._scale
        if self._cols:
            cells = enumerate(zip(self._refit(values), self._cols[:i]))
            out += sum(a * col[i - j - 1] for j, (a, col) in cells) * self._corr_scale
        if self._zpow is not None and values[0] != 0.0:
            out += (values[0] / self._gamma_e) * self._zpow[i]
        return float(out)


def fracint_values(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """I^s of the piecewise-linear interpolant of ``values``; zero at node 0."""
    return DiscreteOp(s + 1.0, values.size - 1, h, base_exponent=s, corrected=False)(values)


def fracint_slopes(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """Start-corrected I^s of the interpolant's slopes; zero at node 0."""
    return DiscreteOp(s, values.size - 1, h)(values)


def trapezoid_cumulative(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    np.cumsum((values[1:] + values[:-1]) * (0.5 * h), out=out[1:])
    return out
