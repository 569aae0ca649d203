"""Product-integration rules on uniform tau grids.

One ``DiscreteOp`` per order and grid size: the operator of that order on
the piecewise-linear interpolant, an integral for order > 0 and a
derivative for -1 < order < 0.  On the interpolant it is the base-point
power f(a) z^order/Gamma(order+1) plus I^s, s = 1 + order, of the
piecewise-constant slopes, integrated exactly against the weight
(tau_i - tau)^{s-1}/Gamma(s) and optionally start-corrected.  It is built
once and holds everything that does not depend on the data: the table
m^s - (m-1)^s and its transforms, the start-correction block and the base
column.

The slope integral is a causal convolution with the table.  Its first
``_DIRECT_N + 1`` outputs are summed directly (``np.convolve``), so up to
n = ``_DIRECT_N`` the result is that sum bit for bit.  Past that it is one
list of stages, sectioned convolution in the block layout of Hairer, Lubich
& Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  Stage (lo, b, count)
makes outputs lo+1..min(n, count b) from the first ``count`` partitions of
length b of the slopes, D_q, and of the table, T_p, each transformed at
length 2b: block m of its outputs is the inverse transform of Z_m =
sum_{p+q=m} D_q T_p, overlap-added with its neighbour's.  The stages start
at lo = 128 and each ends where the next begins.  All but the last are one
partition of b = 4 lo (lo = 128, 512, 2048, ...); the last covers the rest
with at most eight partitions of length top, the smallest power of two
>= n/8, at least 512 and at most n rounded up to a power of two.  So
outputs 0..512 are the same for every n >= 512.  An apply costs
O(n log n).  FFT rounding scales with the largest product it sums, so an
output's error scales with the products that reach its own stage or
partition, not the whole grid's: on smooth data the relative error at nodes
>= 3 stays below 5e-14 up to n = 65536.  The stages depend on n alone, so
the table's transforms are made once, with the operator, in one batched
``rfft`` per stage, and every apply (such as a Picard sweep) transforms
only its data: per stage one batched ``rfft`` and one ``irfft``.  An apply
allocates one complex and one real scratch, fixed when the operator is
built.  The real one holds the slopes, which the last stage zero-pads to
whole partitions; each stage's inverse transforms go at its end, the last
stage's over the slopes and its partition products; then the start
correction's product and the base-point term (``numpy.fft``'s ``out=``,
numpy >= 2.0).  The scratch is the apply's own, so an apply never writes
to the operator.

The start correction refits nodal data over the first few cells with a
sqrt(z) term and integrates the residual against the piecewise model
exactly.  Without it any polynomial cell model keeps an n-independent
relative error a few nodes from the base point whenever the data carry the
z^(1/2)-type behaviour that fractional operators produce.  It is linear in
the data's second differences over the first cells, so it is one
(n + 1, cells) block, row k for node k, applied by one matrix-vector product.
One Gauss-Legendre rule per cell builds it: summed directly near the base
point from the logarithms of its nodes' distances, tabulated at import, and
expanded past it in 1/(k - 4), about the middle of the refit cells.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "trapezoid_cumulative",
    "CORRECTION_CELLS",
]

# cells refit with the sqrt term; fixed, so operators stay linear in f
CORRECTION_CELLS = 8

# outputs 0.._DIRECT_N are the direct sum.  Past it each stage is one
# partition of _LEVEL_RATIO lo, up to the last: at most _MAX_PARTS partitions
# of a power of two >= _MIN_PART, one 2b transform each
_DIRECT_N = 128
_LEVEL_RATIO = 4
_MIN_PART = _LEVEL_RATIO * _DIRECT_N
_MAX_PARTS = 8

# correction rows 1.._NEAR_K: one _NEAR_NODES-point rule per cell and a
# _NEAR_TERMS-term series; later rows: the rule in 1/(k - _FAR_CENTRE), about
# the cells' midpoint, _FAR_CHUNK at a time
_NEAR_K = 68
_NEAR_NODES = 16
_NEAR_TERMS = 48
_FAR_CENTRE = CORRECTION_CELLS / 2
# v^m q_j has degree 2m + 3 in u, so the rule integrates m <= _NEAR_NODES - 2
_FAR_TERMS = _NEAR_NODES - 1
_FAR_CHUNK = 4096


def _pwconst_kernel(s: float, n: int) -> np.ndarray:
    v = np.zeros(n + 1)
    v[1:] = np.diff(np.arange(0, n + 1, dtype=float) ** s)
    return v


def _stages(n: int) -> list[tuple[int, int, int]]:
    """(lo, b, count) per stage: outputs lo+1..min(n, count b) from ``count``
    partitions of length b of the slopes and the table, each transformed at
    2b.  The stages start at lo = _DIRECT_N and each ends where the next
    begins; all but the last are one partition of b = _LEVEL_RATIO lo, and
    the last covers the rest with at most _MAX_PARTS of length ``top``, the
    smallest power of two >= n / _MAX_PARTS, at least _MIN_PART and at most
    n rounded up to a power of two."""
    top = min(max(_MIN_PART, 1 << (-(-n // _MAX_PARTS) - 1).bit_length()), 1 << (n - 1).bit_length())
    stages, lo = [], _DIRECT_N
    while lo < n:
        b = min(_LEVEL_RATIO * lo, top)
        count = -(-n // b) if b == top else 1
        stages.append((lo, b, count))
        lo = count * b
    return stages


def _rule_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per cell a Gauss-Legendre rule (Newton on the Legendre recurrence) in u =
    sqrt(v), W = w 2u q_j(u): rows k by cells j by nodes log(k - v), k - v =
    (k-j-1) + (j+1-v), and W, zero for k <= j+1; Q[j, m] = sum_i W_ji (v_ji -
    _FAR_CENTRE)^m; cells j >= 1: b_m (m-1)."""
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
    moments = np.einsum("ji,jim->jm", w, (u * u - _FAR_CENTRE)[..., None] ** np.arange(_FAR_TERMS))
    m = np.arange(2.0, _NEAR_TERMS + 2.0)
    binom = 0.125 * np.cumprod(np.concatenate(([1.0], (m[1:] - 1.5) / m[1:])))  # |C(1/2,m)|
    top = np.arange(2.0, CORRECTION_CELLS + 1.0)[:, None]  # j + 1
    return np.log(base), weights, moments, np.sqrt(top) * binom * (m - 1.0) / top**m


_NEAR_LOG, _NEAR_W, _MOMENTS, _NEAR_SERIES = _rule_tables()
_D2_SQRT = np.diff(np.sqrt(np.arange(CORRECTION_CELLS + 2.0)), 2)  # Δ²sqrt(j)


def _correction_block(s: float, n: int, h: float) -> np.ndarray:
    """Start correction as one (n + 1, cells) block: row k times the data's
    first ``cells`` second differences is the correction at node k, 0 at k = 0.

    Cell j is refit through nodes {j, j+1, j+2} with f0 + a sqrt(z) + b z, so
    a = Δ²f_j / Δ²sqrt(j) on unit spacing.  Its column at node k > j is, by
    parts, C_j(k) = (s-1) int_j^{j+1} (k-v)^(s-2) q_j(v) dv, q_j = sqrt(v) less
    its chord >= 0; the block holds it divided by Δ²sqrt(j) and scaled by
    h^(s-1)/Gamma(s).  One rule makes it (s-1) sum_i W_ji (k-v_ji)^(s-2), a sum
    of positive terms: direct for j+2 <= k <= _NEAR_K, one exp of the tabulated
    logs, and past that expanded about c = _FAR_CENTRE in 1/(k-c), (k-c)^(s-2)
    sum_m (s-1) C(s-2,m) (-1)^m Q[j,m] (k-c)^-m, cut after _FAR_TERMS terms
    (|v-c|/(k-c) <= 8/129: the tail is below 2e-17 of the column).

    At k = j+1 >= 2 the series of sqrt(j+1-t) and q_j(j+1) = 0 give (s-1)/s
    sum_{m>=2} b_m (m-1)/(s+m-1), b_m = sqrt(j+1) |C(1/2,m)| (j+1)^-m.
    sqrt(2v) = sqrt(2) sqrt(v) gives C_0(1) = 2^(1/2-s) [C_0(2) + C_1(2) +
    (2-sqrt(2)) (2^(s-1)-1)/s], three terms of the sign of s-1, where
    B(1/2,s)/2 - 1/s cancels.  Against 40-digit quadrature: within 3.4e-15
    relative for k <= _NEAR_K (adjacent 7.2e-16) and 1.8e-15 past it.
    """
    cells = min(CORRECTION_CELLS, n - 1)
    col_scale = (h ** (s - 1.0) / math.gamma(s)) / _D2_SQRT[:cells]
    # the near and far passes write every row but node 0's
    block = np.empty((n + 1, cells))
    block[0] = 0.0

    near = min(n, _NEAR_K)
    cols = (s - 1.0) * np.einsum("kji,kji->kj", np.exp((s - 2.0) * _NEAR_LOG), _NEAR_W)
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
        # one (terms, rows) scratch per build, reused by every chunk: two
        # 240 KiB powers arrays freed per n = 4096 build made glibc trim the
        # heap and fault the pages back in on the next build
        scratch = np.empty((_FAR_TERMS, min(n - near, _FAR_CHUNK)))
        for lo in range(near, n, _FAR_CHUNK):
            kc = np.arange(lo + 1 - _FAR_CENTRE, min(lo + _FAR_CHUNK, n) + 1 - _FAR_CENTRE)
            x = 1.0 / kc
            powers = scratch[:, : kc.size]
            np.power(kc, s - 2.0, out=powers[0])
            for i in range(1, _FAR_TERMS):
                np.multiply(powers[i - 1], x, out=powers[i])
            np.matmul(powers.T, coef, out=block[lo + 1 : lo + 1 + kc.size])
    return block


class DiscreteOp:
    """The operator of order ``order`` on the piecewise-linear interpolant of
    nodal values on n cells of width h: I^order for order > 0, the derivative
    of order -order for -1 < order < 0.  On the interpolant it is f(a)
    z^order/Gamma(order+1) (0.0 at the base node, where a negative power is
    infinite) plus I^s of its slopes, s = 1 + order.  ``base`` false drops
    the power term, ``corrected`` adds the start correction.  Holds the
    table's partition transforms per stage, the node-indexed correction block
    (no columns when uncorrected) and the base column."""

    def __init__(self, order: float, n: int, h: float, base=True, corrected=True):
        s = 1.0 + order
        self.n, self.h = n, h
        self._table = _pwconst_kernel(s, n)
        try:
            hs = float(h) ** s
            self._scale = hs / math.gamma(s + 1.0)
        except OverflowError:
            raise ValueError(f"operator scale h^s overflows at h = {h:g}, s = {s:g}") from None
        if hs == 0.0:
            raise ValueError(f"operator scale h^s underflows at h = {h:g}, s = {s:g}")
        # per stage the table's partitions, zero-padded past node n,
        # transformed at 2b in one call
        stages = _stages(n)
        width = max((count * b for _, b, count in stages), default=0)
        table = np.zeros(max(width, n))
        table[:n] = self._table[1:]
        self._stages = [
            (lo, b, count, np.fft.rfft(table[: count * b].reshape(count, b), 2 * b)) for lo, b, count in stages
        ]
        self._spectrum = max((count * (b + 1) for _, b, count in stages), default=0)
        self._signal = max(n + 1, 2 * width)
        self._block = _correction_block(s, n, h) if corrected else np.zeros((n + 1, 0))
        self._base = None
        if base:
            self._base = np.zeros(n + 1)
            z = np.arange(1, n + 1, dtype=float) * h
            self._base[1:] = z**order / math.gamma(order + 1.0)

    def _differences(self, values: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """``np.diff(values)`` (into ``out`` if given) and the second
        differences over the first cells, ``np.diff(values[..., : cells + 2],
        2)``, by the same subtractions without ``np.diff``'s wrapper; on the
        data side, so constants give exactly zero."""
        diff = np.subtract(values[..., 1:], values[..., :-1], out=out)
        cells = self._block.shape[1]
        return diff, diff[..., 1 : cells + 1] - diff[..., :cells]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The operator at all n + 1 nodes; exactly 0.0 at node 0."""
        n = self.n
        # one spectrum and one real scratch per apply.  The real one holds
        # the slopes, which the last stage zero-pads to whole partitions, and
        # each stage's inverse transforms at its end: past the slopes that
        # later stages read, and in the last stage over them and its
        # partition products.  Then it holds the correction and the base term
        spectrum = np.empty(self._spectrum, complex)
        signal = np.empty(self._signal)
        d, second = self._differences(values, out=signal[:n])
        d /= self.h
        m = min(n, _DIRECT_N)
        out = np.empty(n + 1)
        out[: m + 1] = np.convolve(d[:m], self._table[: m + 1])[: m + 1]
        for lo, b, count, parts in self._stages:
            width = count * b
            signal[n:width] = 0.0
            z_fft = spectrum[: count * (b + 1)].reshape(count, b + 1)
            np.fft.rfft(signal[:width].reshape(count, b), 2 * b, out=z_fft)
            # Z_m = sum_{p+q=m} D_q T_p, formed in place from the last row, so
            # row q still holds D_q when it is read; the products go where
            # the slopes were
            products = signal[: 2 * (count - 1) * (b + 1)].view(complex).reshape(count - 1, b + 1)
            z_fft[-1] *= parts[0]
            for q in range(count - 2, -1, -1):
                z_fft[q + 1 :] += np.multiply(parts[1 : count - q], z_fft[q], out=products[: count - 1 - q])
                z_fft[q] *= parts[0]
            z = np.fft.irfft(z_fft, 2 * b, out=signal[signal.size - 2 * width :].reshape(count, 2 * b))
            # output block m is the first half of z_m plus the second of z_m-1
            hi = min(n, width)
            first = min(hi, b)
            out[lo + 1 : first + 1] = z[0, lo:first]
            whole, rest = divmod(hi - first, b)
            np.add(z[1 : whole + 1, :b], z[:whole, b:], out=out[b + 1 : (whole + 1) * b + 1].reshape(whole, b))
            if rest:
                np.add(z[whole + 1, :rest], z[whole, b : b + rest], out=out[(whole + 1) * b + 1 : hi + 1])
        out *= self._scale
        # rows 1..n only: the whole block's product rounds differently
        out[1:] += np.matmul(self._block[1:], second, out=signal[:n])
        if self._base is not None:
            out += np.multiply(self._base, values[0], out=signal[: n + 1])
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
        d, second = self._differences(values)
        out = np.einsum("ij,ij->i", d, self._row_weights[lo:hi]) / self.h
        out += np.einsum("ij,ij->i", self._block[lo:hi], second)
        if self._base is not None:
            out += values[:, 0] * self._base[lo:hi]
        return out


def trapezoid_cumulative(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    np.cumsum((values[1:] + values[:-1]) * (0.5 * h), out=out[1:])
    return out
