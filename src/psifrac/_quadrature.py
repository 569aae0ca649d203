"""Product-integration rules on uniform tau grids.

One ``DiscreteOp`` per order and grid size: I^s of the piecewise-linear
interpolant's piecewise-constant slopes, integrated exactly against the
weight (tau_i - tau)^{s-1}/Gamma(s), optionally start-corrected, plus
optionally the base-point power f(a) z^e/Gamma(e+1).  It is built once and
holds everything that does not depend on the data: the table
m^s - (m-1)^s and its transforms, the start-correction block and the base
column.

The slope integral is a causal convolution with the table.  Its first
``_DIRECT_N + 1`` outputs are summed directly (``np.convolve``), so up to
n = ``_DIRECT_N`` the result is that sum bit for bit.  The rest come in
levels (lo, hi], lo = 128, 512, 2048, ... and hi = min(4 lo, n): each is
one zero-padded real FFT of the slopes up to hi against the table up to hi,
so an application costs O(n log n).  FFT rounding scales with the largest
product it sums, so an output's error scales with the products that reach
its own level, not the whole grid's: on smooth data the relative error at
nodes >= 3 stays below 5e-14 up to n = 65536.  The levels depend on n alone,
so each level's table transform is made once, with the operator, and every
apply (such as a Picard sweep) transforms only its data.

The start correction refits nodal data over the first few cells with a
sqrt(z) term and integrates the residual against the piecewise model
exactly.  Without it any polynomial cell model keeps an n-independent
relative error a few nodes from the base point whenever the data carry the
z^(1/2)-type behaviour that fractional operators produce.  It is linear in
the data's second differences over the first cells, so it is one
(n + 1, cells) block, row k for node k, applied by one matrix-vector product.
One Gauss-Legendre rule per cell builds it: summed directly near the base
point, expanded in 1/k past it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "fracint_values",
    "trapezoid_cumulative",
    "CORRECTION_CELLS",
]

# cells refit with the sqrt term; fixed, so operators stay linear in f
CORRECTION_CELLS = 8

# outputs 0.._DIRECT_N are the direct sum; each FFT level past it reaches
# _LEVEL_RATIO times as far as the one before.  Ratio 2 is more accurate
# pointwise (7e-15 against 5e-14 worst), but its extra levels make an apply
# at n 512-4096 slower
_DIRECT_N = 128
_LEVEL_RATIO = 4

# correction rows 1.._NEAR_K: one _NEAR_NODES-point rule per cell and a
# _NEAR_TERMS-term series; later rows: the rule in 1/k, _FAR_CHUNK at a time
_NEAR_K = 128
_NEAR_NODES = 16
_NEAR_TERMS = 48
# v^m q_j has degree 2m + 3 in u, so the rule integrates m <= _NEAR_NODES - 2
_FAR_TERMS = _NEAR_NODES - 1
_FAR_CHUNK = 2048


def _pwconst_kernel(s: float, n: int) -> np.ndarray:
    v = np.zeros(n + 1)
    v[1:] = np.diff(np.arange(0, n + 1, dtype=float) ** s)
    return v


def _fft_size(m: int) -> int:
    """The smallest 2^k or 3 2^(k-2) that is >= m."""
    p = 1 << (m - 1).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= m else p


def _levels(n: int) -> list[tuple[int, int, int]]:
    """(lo, hi, size) per level: outputs lo+1..hi from the slopes d[:hi] and
    table[1:hi+1] in one FFT of that size >= 2 hi - lo, so the circular
    wrap-around lands below lo."""
    levels, lo = [], _DIRECT_N
    while lo < n:
        hi = min(_LEVEL_RATIO * lo, n)
        levels.append((lo, hi, _fft_size(2 * hi - lo)))
        lo = hi
    return levels


def _rule_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per cell a Gauss-Legendre rule (Newton on the Legendre recurrence) in u =
    sqrt(v), W = w 2u q_j(u): rows k by cells j by nodes k - v = (k-j-1) + (j+1-v)
    and W, zero for k <= j+1; Q[j, m] = sum_i W_ji v_ji^m; cells j >= 1: b_m (m-1)."""
    # numpy.polynomial's leggauss would add ~5 ms to the import
    x = np.cos(np.pi * (np.arange(_NEAR_NODES) + 0.75) / (_NEAR_NODES + 0.5))
    for _ in range(5):
        p0, p1, dp = np.ones_like(x), x, np.ones_like(x)
        for i in range(2, _NEAR_NODES + 1):
            p0, p1, dp = p1, ((2 * i - 1) * x * p1 - (i - 1) * p0) / i, i * p1 + x * dp
        x = x - p1 / dp
    r = np.sqrt(np.arange(CORRECTION_CELLS + 1.0))[:, None]
    chord = 1.0 / (r[1:] + r[:-1])  # sqrt(j+1) - sqrt(j), uncancelled
    u = r[:-1] + 0.5 * chord * (1.0 + x)
    gap = np.arange(1.0, _NEAR_K + 1.0)[:, None] - np.arange(1.0, CORRECTION_CELLS + 1.0)
    base = np.maximum(gap, 0.0)[..., None] + 0.5 * chord * (1.0 - x) * (r[1:] + u)
    # w (1 - x^2) = 2 / P'(x)^2, and q_j(u) = chord^3 (1 - x^2) / 4
    w = 0.5 * chord**4 * u / dp**2
    weights = np.where(gap[..., None] > 0.0, w, 0.0)
    moments = np.einsum("ji,jim->jm", w, (u * u)[..., None] ** np.arange(_FAR_TERMS))
    m = np.arange(2.0, _NEAR_TERMS + 2.0)
    binom = 0.125 * np.cumprod(np.concatenate(([1.0], (m[1:] - 1.5) / m[1:])))  # |C(1/2,m)|
    top = np.arange(2.0, CORRECTION_CELLS + 1.0)[:, None]  # j + 1
    return base, weights, moments, np.sqrt(top) * binom * (m - 1.0) / top**m


_NEAR_BASE, _NEAR_W, _MOMENTS, _NEAR_SERIES = _rule_tables()


def _correction_block(s: float, n: int, h: float) -> np.ndarray:
    """Start correction as one (n + 1, cells) block: row k times the data's
    first ``cells`` second differences is the correction at node k, 0 at k = 0.

    Cell j is refit through nodes {j, j+1, j+2} with f0 + a sqrt(z) + b z, so
    a = Δ²f_j / Δ²sqrt(j) on unit spacing.  Its column at node k > j is, by
    parts, C_j(k) = (s-1) int_j^{j+1} (k-v)^(s-2) q_j(v) dv, q_j = sqrt(v) less
    its chord >= 0; the block holds it divided by Δ²sqrt(j) and scaled by
    h^(s-1)/Gamma(s).  One rule makes it (s-1) sum_i W_ji (k-v_ji)^(s-2), a sum
    of positive terms: direct for j+2 <= k <= _NEAR_K, and past that expanded
    in 1/k, k^(s-2) sum_m (s-1) C(s-2,m) (-1)^m Q[j,m] k^-m, cut after
    _FAR_TERMS terms (v/k <= 8/129: the tail is below 2e-17 of the column).

    At k = j+1 >= 2 the series of sqrt(j+1-t) and q_j(j+1) = 0 give (s-1)/s
    sum_{m>=2} b_m (m-1)/(s+m-1), b_m = sqrt(j+1) |C(1/2,m)| (j+1)^-m.
    sqrt(2v) = sqrt(2) sqrt(v) gives C_0(1) = 2^(1/2-s) [C_0(2) + C_1(2) +
    (2-sqrt(2)) (2^(s-1)-1)/s], three terms of the sign of s-1, where
    B(1/2,s)/2 - 1/s cancels.  Against 40-digit quadrature: within 3.2e-15
    relative for k <= _NEAR_K (adjacent 7.2e-16) and 1.8e-15 past it.
    """
    cells = min(CORRECTION_CELLS, n - 1)
    r = np.sqrt(np.arange(cells + 2, dtype=float))
    col_scale = (h ** (s - 1.0) / math.gamma(s)) / np.diff(r, 2)
    block = np.zeros((n + 1, cells))

    near = min(n, _NEAR_K)
    cols = (s - 1.0) * np.einsum("kji,kji->kj", _NEAR_BASE ** (s - 2.0), _NEAR_W)
    adjacent = (s - 1.0) / s * (_NEAR_SERIES @ (1.0 / (s + np.arange(1.0, _NEAR_TERMS + 1.0))))
    tail = (2.0 - math.sqrt(2.0)) * math.expm1((s - 1.0) * math.log(2.0)) / s
    c00 = 2.0 ** (0.5 - s) * (cols[1, 0] + adjacent[0] + tail)
    np.fill_diagonal(cols, np.concatenate(([c00], adjacent)))
    block[1 : near + 1] = cols[:near, :cells] * col_scale

    if n > near:
        m = np.arange(1.0, _FAR_TERMS)
        # (s-1) C(s-2,m) (-1)^m = (s-1) prod_{i<=m} (i+1-s)/i
        coef = np.cumprod(np.concatenate(([s - 1.0], (m + 1.0 - s) / m)))
        coef = coef[:, None] * _MOMENTS.T * col_scale
        # chunks keep the (terms, rows) powers in cache and the product small
        for lo in range(near, n, _FAR_CHUNK):
            k = np.arange(lo + 1, min(lo + _FAR_CHUNK, n) + 1, dtype=float)
            x = 1.0 / k
            powers = np.empty((_FAR_TERMS, k.size))
            powers[0] = k ** (s - 2.0)
            for i in range(1, _FAR_TERMS):
                np.multiply(powers[i - 1], x, out=powers[i])
            np.matmul(powers.T, coef, out=block[lo + 1 : lo + 1 + k.size])
    return block


class DiscreteOp:
    """I^s (s > 0) of the slopes of nodal values on n cells of width h.
    ``corrected`` adds the start correction, ``base_exponent`` e adds f(a)
    z^e/Gamma(e+1) (0.0 at the base node, where a negative power is infinite).
    Holds the table and its transform at each FFT level, the node-indexed
    correction block (no columns when uncorrected) and the base column."""

    def __init__(self, s: float, n: int, h: float, base_exponent=None, corrected=True):
        self.n, self.h = n, h
        self._table = _pwconst_kernel(s, n)
        try:
            self._scale = float(h) ** s / math.gamma(s + 1.0)
        except OverflowError:
            raise ValueError(f"operator scale h^s overflows at h = {h:g}, s = {s:g}") from None
        # each FFT level and its table transform
        self._levels = [(lo, hi, size, np.fft.rfft(self._table[1 : hi + 1], size))
                        for lo, hi, size in _levels(n)]
        self._block = _correction_block(s, n, h) if corrected else np.zeros((n + 1, 0))
        self._base = None
        if base_exponent is not None:
            self._base = np.zeros(n + 1)
            z = np.arange(1, n + 1, dtype=float) * h
            self._base[1:] = z**base_exponent / math.gamma(base_exponent + 1.0)

    def _second_differences(self, values: np.ndarray) -> np.ndarray:
        # on the data side, so constants give exactly zero
        return np.diff(values[..., : self._block.shape[1] + 2], 2)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The operator at all n + 1 nodes; exactly 0.0 at node 0."""
        d = np.diff(values) / self.h
        m = min(self.n, _DIRECT_N)
        out = np.empty(self.n + 1)
        out[: m + 1] = np.convolve(d[:m], self._table[: m + 1])[: m + 1]
        for lo, hi, size, table_fft in self._levels:
            d_fft = np.fft.rfft(d[:hi], size)
            out[lo + 1 : hi + 1] = np.fft.irfft(d_fft * table_fft, size)[lo:hi]
        out *= self._scale
        # rows 1..n only: the whole block's product rounds differently
        out[1:] += self._block[1:] @ self._second_differences(values)
        if self._base is not None:
            out += values[0] * self._base
        out[0] = 0.0
        return out

    @cached_property
    def _row_weights(self) -> np.ndarray:
        """Row i: node i's scaled slope weights, table[i - j] at column j and zero
        for j >= i, a zero-copy view of the reversed table behind n zeros."""
        padded = np.concatenate(((self._table * self._scale)[::-1], np.zeros(self.n)))
        return sliding_window_view(padded, self.n)[::-1][1:]

    def rows(self, values: np.ndarray, lo: int) -> np.ndarray:
        """Node lo + r of ``self(values[r])`` for each row r of a (rows, n + 1)
        block, in O(rows n), up to the slope integral's summation order."""
        hi = lo + values.shape[0]
        out = np.einsum("ij,ij->i", np.diff(values), self._row_weights[lo:hi]) / self.h
        out += np.einsum("ij,ij->i", self._block[lo:hi], self._second_differences(values))
        if self._base is not None:
            out += values[:, 0] * self._base[lo:hi]
        return out


def fracint_values(values: np.ndarray, s: float, h: float) -> np.ndarray:
    """I^s of the piecewise-linear interpolant of ``values``; zero at node 0."""
    return DiscreteOp(s + 1.0, values.size - 1, h, base_exponent=s, corrected=False)(values)


def trapezoid_cumulative(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    np.cumsum((values[1:] + values[:-1]) * (0.5 * h), out=out[1:])
    return out
