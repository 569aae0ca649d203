import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifrac import (
    FracParams,
    ResolutionError,
    SampledFunction,
    TransformedGrid,
    limit_probe,
    make_builtin,
    mittag_leffler,
    MLParams,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
    relative_sup_error,
)
from psifrac import _quadrature
from psifrac._csv import csv_text
from psifrac._quadrature import (
    CORRECTION_CELLS,
    DiscreteOp,
    _DIRECT_N,
    _FAR_CENTRE,
    _FAR_CHUNK,
    _LEVEL_RATIO,
    _MAX_PARTS,
    _MIN_PART,
    _NEAR_K,
    _NEAR_NODES,
    _correction_block,
    _pwconst_kernel,
    _stages,
)
from psifrac.frac_ops import SKIP_BASE_NODES

from conftest import power_values, sample

G = math.gamma


def identity_grid(n=2048, b=1.0):
    kernel = make_builtin("identity", (), (0.0, b))
    return TransformedGrid.build(kernel, 0.0, b, n)


POSITIVITY_ORDERS = (0.1, 0.5, 0.7, 0.9, 1.0, 1.5, 2.0)


class TestFracParams:
    def test_xi_derivation(self):
        p = FracParams(0.5, 0.5)
        assert p.xi == 0.5 + 0.5 * 0.5

    @pytest.mark.parametrize("mu,nu", [(0.0, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.5)])
    def test_rejects_out_of_range(self, mu, nu):
        with pytest.raises(ValueError):
            FracParams(mu, nu)

    def test_boundary_order_admitted(self):
        assert FracParams(1.0, 0.3).xi == 1.0

    @pytest.mark.parametrize("mu,nu", [(0.1, 0.0), (0.5, 0.5), (0.9, 1.0)])
    def test_xi_between_mu_and_one(self, mu, nu):
        p = FracParams(mu, nu)
        assert mu <= p.xi <= 1.0


class TestPsiIntegral:
    def test_zero_function(self):
        grid = identity_grid(64)
        out = psi_integral(SampledFunction(grid, np.zeros(65)), 0.5)
        assert np.all(out.values == 0.0)

    def test_constant_half_order(self):
        # I^0.5 of 1 equals z^0.5 / Gamma(1.5); exact for constant data
        grid = identity_grid(512)
        out = psi_integral(SampledFunction(grid, np.ones(513)), 0.5)
        assert out.values[-1] == pytest.approx(1.1283791670955126, rel=1e-12)
        assert out.values[0] == 0.0

    def test_order_one_reduces_to_plain_integral(self):
        grid = identity_grid(512)
        out = psi_integral(SampledFunction(grid, np.ones(513)), 1.0)
        assert out.values[-1] == pytest.approx(1.0, rel=1e-12)

    def test_order_range_enforced(self):
        grid = identity_grid(16)
        f = SampledFunction(grid, np.ones(17))
        for bad in (0.0, -0.3, 2.5):
            with pytest.raises(ValueError):
                psi_integral(f, bad)

    def test_unknown_side_rejected(self):
        f = SampledFunction(identity_grid(16), np.ones(17))
        with pytest.raises(ValueError, match="side"):
            psi_integral(f, 0.5, side="up")

    def test_right_side_mirror(self):
        grid = identity_grid(512)
        out = psi_integral(SampledFunction(grid, np.ones(513)), 0.5, side="right")
        ref = (1.0 - grid.x_nodes) ** 0.5 / G(1.5)
        assert np.max(np.abs(out.values - ref)) <= 1e-12
        assert out.values[-1] == 0.0

    # n=4096 runs the FFT levels; the n=128 cases keep their old ids
    @pytest.mark.parametrize(
        "s, n",
        [(s, n) for n in (128, 4096) for s in POSITIVITY_ORDERS],
        ids=[f"{s}" for s in POSITIVITY_ORDERS]
        + [f"{s}-n4096" for s in POSITIVITY_ORDERS],
    )
    def test_discrete_positivity(self, s, n):
        rng = np.random.default_rng(7)
        grid = identity_grid(n)
        f = SampledFunction(grid, rng.uniform(0.0, 2.0, n + 1))
        out = psi_integral(f, s)
        assert np.all(out.values >= -1e-14)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.0, 1.5, 2.0])
    def test_weights_nonnegative(self, s):
        # column k is the rule's response to a unit value at node k, i.e.
        # its weight on node k at every evaluation node
        op = DiscreteOp(s, 64, 1.0, corrected=False)
        w = np.column_stack([op(e) for e in np.eye(65)])
        assert np.all(w >= 0.0)

    @settings(deadline=None, derandomize=True)
    @given(
        s=st.floats(0.05, 2.0),
        n=st.integers(1, 96),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_rule_matches_cellwise_reference(self, s, n, seed):
        # per-cell exact integral of the linear model: over cell m, counted
        # back from the evaluation node, the far node gets a_m, the near b_m;
        # both cancel in double precision, so they are formed at 30 digits
        values = np.random.default_rng(seed).standard_normal(n + 1)
        h = 1.0 / n
        a = np.zeros(n)
        b = np.zeros(n)
        with mpmath.workdps(30):
            sm = mpmath.mpf(s)
            for k in range(n):
                m = mpmath.mpf(k + 1)
                dp = m**sm - (m - 1) ** sm
                dp1 = (m ** (sm + 1) - (m - 1) ** (sm + 1)) / (sm + 1)
                a[k] = dp1 - (m - 1) * dp / sm
                b[k] = m * dp / sm - dp1
        assert np.all(a >= 0.0) and np.all(b >= 0.0)
        # row i of w holds the weights of every node at evaluation node i
        w = np.zeros((n + 1, n + 1))
        for i in range(1, n + 1):
            w[i, :i] += a[i - 1 :: -1]
            w[i, 1 : i + 1] += b[i - 1 :: -1]
        w *= h**s / G(s)
        out = DiscreteOp(s, n, h, corrected=False)(values)
        # rounding scales with the summed magnitudes, not with the sum,
        # which mixed-sign data can make small
        assert np.max(np.abs(out - w @ values)) <= 1e-12 * np.max(w @ np.abs(values))

    @settings(deadline=None, derandomize=True, max_examples=20)
    @given(
        order=st.floats(-0.95, 1.0),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slopes_rule_matches_cellwise_reference(self, order, n, seed):
        self._check_slopes_rule(order, n, seed)

    # past _NEAR_K nodes the correction block comes from the moment expansion
    @settings(deadline=None, derandomize=True, max_examples=3)
    @given(
        order=st.floats(-0.95, 1.0),
        n=st.integers(_NEAR_K + 1, _NEAR_K + 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slopes_rule_matches_cellwise_reference_past_near_field(self, order, n, seed):
        self._check_slopes_rule(order, n, seed)

    @staticmethod
    def _check_slopes_rule(order, n, seed):
        # the operator of order s - 1 without its base column is I^s of the
        # slopes, which the slope rule integrates exactly; on each
        # correction cell the three-point refit's sqrt coefficient
        # a scales the exact integral of the weight against
        # d/du[sqrt(u) - its chord].  Formed cell by cell at 30 digits.
        s = 1.0 + order
        values = np.random.default_rng(seed).standard_normal(n + 1)
        ref = np.zeros(n + 1)
        scale = np.zeros(n + 1)
        with mpmath.workdps(30):
            sm = mpmath.mpf(s)
            h = mpmath.mpf(1) / n
            f = [mpmath.mpf(v) for v in values]
            t = [i * h for i in range(n + 1)]
            r = [mpmath.sqrt(ti) for ti in t]
            a = [
                ((f[j + 1] - f[j]) * 2 * h - (f[j + 2] - f[j]) * h)
                / ((r[j + 1] - r[j]) * 2 * h - (r[j + 2] - r[j]) * h)
                for j in range(min(CORRECTION_CELLS, n - 1))
            ]
            for i in range(1, n + 1):
                total = absolute = mpmath.mpf(0)
                for j in range(i):
                    # int over cell j of (t_i - u)^(s-1) du
                    flat = ((t[i] - t[j]) ** sm - (t[i] - t[j + 1]) ** sm) / sm
                    slope = (f[j + 1] - f[j]) / h
                    total += slope * flat
                    absolute += abs(slope) * flat
                    if j < len(a):
                        inv_sqrt = t[i] ** (sm - 0.5) * mpmath.betainc(
                            0.5, sm, t[j] / t[i], t[j + 1] / t[i]
                        )
                        chord = (r[j + 1] - r[j]) / h
                        total += a[j] * (inv_sqrt / 2 - chord * flat)
                ref[i] = total / mpmath.gamma(sm)
                scale[i] = absolute / mpmath.gamma(sm)
        out = DiscreteOp(order, n, 1.0 / n, base=False)(values)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(scale)

    @pytest.mark.parametrize("s", [0.2, 0.5, 1.0, 1.3, 2.0])
    def test_exact_on_linear_data(self, s):
        # the rule integrates its own interpolant exactly, so affine data
        # reproduce the closed form c0 z^s/G(s+1) + c1 z^(s+1)/G(s+2)
        rng = np.random.default_rng(3)
        c0, c1 = rng.standard_normal(2)
        grid = identity_grid(200)
        z = grid.tau_nodes - grid.tau_nodes[0]
        out = psi_integral(SampledFunction(grid, c0 + c1 * z), s)
        ref = c0 * z**s / G(s + 1.0) + c1 * z ** (s + 1.0) / G(s + 2.0)
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("mu,nu", [(0.3, 0.4), (0.7, 1.0)])
    def test_derivative_types_exact_on_linear_data(self, mu, nu):
        rng = np.random.default_rng(4)
        c0, c1 = rng.standard_normal(2)
        grid = identity_grid(200)
        z = grid.tau_nodes - grid.tau_nodes[0]
        f = SampledFunction(grid, c0 + c1 * z)
        out = psi_hilfer_derivative(f, FracParams(mu, nu))
        ref = c1 * z ** (1.0 - mu) / G(2.0 - mu)
        if nu < 1.0:
            ref = ref + c0 * np.where(z > 0, z, 1.0) ** (-mu) / G(1.0 - mu)
            ref[0] = 0.0
        assert np.max(np.abs(out.values[1:] - ref[1:])) <= 1e-12 * max(
            1.0, float(np.max(np.abs(ref[1:])))
        )


# sizes at the stage edges: the direct part alone, the first stage's first
# size, one whole partition of _MIN_PART and the first size with two, two
# whole partitions (1024), and a one-partition stage (128, 512] followed by a
# partial fifth partition of 1024 (5001)
STAGE_EDGES = [_DIRECT_N, _DIRECT_N + 1, _MIN_PART, _MIN_PART + 1, 1024, 5001]


class TestSlopeIntegral:
    """The slope integral (direct part up to node _DIRECT_N, FFT stages past
    it) against the direct causal sum as the reference."""

    @pytest.mark.parametrize("s", [0.05, 0.5, 1.5, 1.95])
    # 1025, 2049, 4097, 8193 and 16385 end in a one-node partition; 3000,
    # 4100 and 5001 in a partial one; 200, 300 and 511 are one partial
    # partition of 256 or 512
    @pytest.mark.parametrize(
        "n", sorted({*STAGE_EDGES, 200, 300, 511, 1025, 2049, 3000, 4097, 4100, 8192, 8193, 16385})
    )
    def test_fft_matches_direct_sum(self, n, s):
        # the operator of order s - 1 without its base column: I^s of the
        # slopes, with the slope order 1 + (s - 1) that it forms
        order = s - 1.0
        s = 1.0 + order
        x = np.linspace(0.0, 1.0, n + 1)
        h = 1.0 / n
        scale = h**s / G(s + 1.0)
        w = _pwconst_kernel(s, n)
        data = {
            "sin": np.sin(x),
            "x^2.5": x**2.5,
            "normal": np.random.default_rng(n).standard_normal(n + 1),
        }
        # one operator for all three: the later applies reuse the table
        # transforms that the first one made
        op = DiscreteOp(order, n, h, base=False, corrected=False)
        for name, values in data.items():
            d = np.diff(values) / h
            fast = op(values)
            ref = np.convolve(d, w)[: n + 1] * scale
            # FFT rounding scales with the summed magnitudes W|d|, not with
            # the sum, which mixed-sign data can make small
            bound = 1e-13 * np.max(np.convolve(np.abs(d), w)[: n + 1]) * scale
            assert np.max(np.abs(fast - ref)) <= bound, name
            if name != "normal":
                k = SKIP_BASE_NODES
                rel = np.abs(fast[k:] - ref[k:]) / np.abs(ref[k:])
                assert np.max(rel) <= 1e-13, name

    @pytest.mark.parametrize("n", [129, 513, 1025, 2049, 4100, 8193])
    def test_applies_share_no_state(self, n):
        # data A, then B, then A: the second A is bit-identical to the first
        # and the first result is left as it was, so no stage's scratch
        # carries data from one apply into the next
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n + 1), 1e6 * rng.standard_normal(n + 1)
        op = DiscreteOp(-0.5, n, 1.0 / n)
        first = op(a)
        kept = first.copy()
        op(b)
        assert np.array_equal(first, kept)
        assert np.array_equal(op(a), kept)

    @pytest.mark.parametrize("s", [0.05, 1.5])
    @pytest.mark.parametrize("n", [513, 2048, 4100, 65536])
    def test_outputs_to_first_level_end_unchanged(self, n, s):
        # outputs 0..512 are the direct sum and the (128, 512] stage's first
        # partition at FFT length 1024, bit for bit, whatever follows.  The
        # table is the operator's own, at s = 1 + (s - 1): below s = 0.5 that
        # differs from s in the last bit
        order = s - 1.0
        s = 1.0 + order
        values = np.random.default_rng(n).standard_normal(n + 1)
        h = 1.0 / n
        d, table = np.diff(values) / h, _pwconst_kernel(s, n)
        ref = np.empty(_MIN_PART + 1)
        ref[: _DIRECT_N + 1] = np.convolve(d[:_DIRECT_N], table[: _DIRECT_N + 1])[: _DIRECT_N + 1]
        level = np.fft.irfft(np.fft.rfft(d[:_MIN_PART], 1024) * np.fft.rfft(table[1 : _MIN_PART + 1], 1024), 1024)
        ref[_DIRECT_N + 1 :] = level[_DIRECT_N:_MIN_PART]
        ref *= h**s / G(s + 1.0)
        ref[0] = 0.0
        out = DiscreteOp(order, n, h, base=False, corrected=False)(values)
        assert out[: _MIN_PART + 1].tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "n", [1, 128, 129, 200, 511, 512, 513, 2048, 4096, 4097, 4100, 8192, 16384, 16385, 65535, 65536]
    )
    def test_partition_rule(self, n):
        # the stages run on from _DIRECT_N, each starting where the last
        # ended, with power-of-two partitions: one of 4 lo per stage, then at
        # most 8 of top, which end at or past n
        stages = _stages(n)
        if n <= _DIRECT_N:
            assert stages == []
        lo = _DIRECT_N
        for start, b, count in stages:
            assert start == lo and b & (b - 1) == 0
            lo = count * b
        if stages:
            *head, (_, top, count) = stages
            assert top == min(max(_MIN_PART, 2 ** math.ceil(math.log2(n / _MAX_PARTS))), 2 ** math.ceil(math.log2(n)))
            assert all(count == 1 and b == _LEVEL_RATIO * start < top for start, b, count in head)
            assert count <= _MAX_PARTS and (count - 1) * top < n <= count * top
        # the operator holds each stage's table partitions, zero-padded past
        # node n, transformed at 2b; a one-partition stage's outputs are
        # one FFT of d[:b] against table[1:b+1] at 2b, bit for bit
        op = DiscreteOp(-0.5, n, 1.0 / n, base=False, corrected=False)
        table = np.concatenate((_pwconst_kernel(0.5, n)[1:], np.zeros(lo)))
        values = np.random.default_rng(n).standard_normal(n + 1)
        d, out = np.diff(values) / (1.0 / n), op(values)
        assert [stage[:3] for stage in op._stages] == stages
        for (start, b, count), (*_, parts) in zip(stages, op._stages):
            assert np.array_equal(parts, np.fft.rfft(table[: count * b].reshape(count, b), 2 * b))
            if count == 1 and b <= n:
                level = np.fft.irfft(np.fft.rfft(d[:b], 2 * b) * np.fft.rfft(table[:b], 2 * b), 2 * b)
                assert out[start + 1 : b + 1].tobytes() == (level[start:b] * op._scale).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 100, _DIRECT_N])
    def test_direct_sum_up_to_crossover(self, n):
        values = np.random.default_rng(n).standard_normal(n + 1)
        h = 1.0 / n
        for order in (-0.95, -0.5, 0.5, 0.95):
            s = 1.0 + order
            ref = np.convolve(np.diff(values) / h, _pwconst_kernel(s, n))[: n + 1]
            ref *= h**s / G(s + 1.0)
            assert np.array_equal(DiscreteOp(order, n, h, base=False, corrected=False)(values), ref)

    @pytest.mark.parametrize("s", [0.05, 0.5, 1.5, 1.95])
    @pytest.mark.parametrize("n", [1024, 4096, 16384, 65536])
    def test_pointwise_against_extended_sum(self, n, s):
        # the same float64 slopes and table summed directly in long double, at
        # log-spaced nodes: the error of the summation alone, relative to each
        # output, which smooth data keep far from zero
        x = np.linspace(0.0, 1.0, n + 1)
        h = 1.0 / n
        nodes = np.unique(np.geomspace(3, n, 120).round().astype(int))
        order = s - 1.0
        s = 1.0 + order
        table = _pwconst_kernel(s, n).astype(np.longdouble)
        for name, values in {"x^2.5": x**2.5, "sin": np.sin(x)}.items():
            out = DiscreteOp(order, n, h, base=False, corrected=False)(values)
            d = (np.diff(values) / h).astype(np.longdouble)
            ref = np.array([np.dot(d[:k], table[k:0:-1]) for k in nodes]) * (h**s / G(s + 1.0))
            rel = np.abs((out[nodes] - ref) / ref)
            assert np.max(rel) <= 1e-13, (name, nodes[np.argmax(rel)], np.max(rel))


class TestStartCorrection:
    """The correction block's columns on unit spacing against 40-digit
    quadratures of int_j^{j+1} (k-v)^(s-1) g_j(v) dv, g_j = v^(-1/2)/2 -
    chord_j.  For k >= j+2 it is taken as int (k-u^2)^(s-1) (1 - 2 u chord_j) du
    over [sqrt(j), sqrt(j+1)] (v = u^2 removes the endpoint singularity); next
    to the cell (k = j+1) as (1/s) int_0^1 g_j(j+1 - r^(1/s)) dr, split at 1/2
    (r = (j+1-v)^s removes the weight's singularity)."""

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 0.999, 1.001, 1.5, 1.95, 2.0])
    def test_columns_match_quadrature(self, s):
        n = 65536
        block = _correction_block(s, n, 1.0)
        # undo the stored scaling G(s)^-1 / Δ²sqrt(j)
        block *= G(s) * np.diff(np.sqrt(np.arange(CORRECTION_CELLS + 2.0)), 2)
        # every adjacent and every k = j+2 entry, the near field's last row, and
        # the moment expansion's rows from its first up to n
        rows = [*range(1, 11), 64, _NEAR_K, _NEAR_K + 1, 128, 129, 200, 5000, n]
        with mpmath.workdps(40):
            sm = mpmath.mpf(s)
            for k in rows:
                for j in range(min(k, CORRECTION_CELLS)):
                    chord = mpmath.sqrt(j + 1) - mpmath.sqrt(j)
                    if k == j + 1:
                        ref = mpmath.quad(
                            lambda r: 1 / (2 * mpmath.sqrt(k - r ** (1 / sm))) - chord,
                            [0, 0.5, 1],
                        ) / sm
                    else:
                        ref = mpmath.quad(
                            lambda u: (k - u * u) ** (sm - 1) * (1 - 2 * u * chord),
                            [mpmath.sqrt(j), mpmath.sqrt(j + 1)],
                            method="gauss-legendre",
                        )
                    assert abs(block[k, j] - ref) <= 1e-14 * abs(ref), (k, j)

    def test_far_field_tail_bound(self):
        # the docstring's 2e-17 tail rests on |v - c| / (k - c) <= 8/129 from
        # the first expanded row on, v in the cells [0, CORRECTION_CELLS]
        assert max(_FAR_CENTRE, CORRECTION_CELLS - _FAR_CENTRE) / (_NEAR_K + 1 - _FAR_CENTRE) <= 8 / 129

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 0.999, 1.001, 1.5, 1.95, 2.0])
    def test_far_rows_match_direct_rule(self, s):
        # past _NEAR_K the block is the near rows' rule expanded in 1/(k - c): it
        # must equal (s-1) sum_i W_ji (k - v_ji)^(s-2) summed directly, with
        # W = w 2u q_j(u) du/dx at the Gauss-Legendre nodes u = sqrt(v); one
        # chunk at n = 600, and a full chunk then a one-row chunk at the other
        # n, so the rows on both sides of the chunk edge are gated
        x, w = np.polynomial.legendre.leggauss(_NEAR_NODES)
        for n in (600, _NEAR_K + _FAR_CHUNK + 1):
            block = _correction_block(s, n, 1.0)
            block *= G(s) * np.diff(np.sqrt(np.arange(CORRECTION_CELLS + 2.0)), 2)
            k = np.arange(_NEAR_K + 1.0, n + 1.0)[:, None]
            for j in range(CORRECTION_CELLS):
                chord = 1.0 / (math.sqrt(j + 1) + math.sqrt(j))
                u = math.sqrt(j) + 0.5 * chord * (1.0 + x)
                # q_j(u) = chord^3 (1 - x^2) / 4, du/dx = chord / 2
                weights = w * u * chord**4 * (1.0 - x) * (1.0 + x) / 4.0
                ref = (s - 1.0) * ((k - u * u) ** (s - 2.0) @ weights)
                assert np.all(np.abs(block[_NEAR_K + 1:, j] - ref) <= 2e-15 * np.abs(ref)), (n, j)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 0.999, 1.001, 1.5, 1.95, 2.0])
    def test_every_entry_written_and_rows_independent_of_n(self, s):
        # the block starts uninitialised and the far rows share one scratch
        # across chunks: an entry left unwritten or a power carried over from
        # the previous chunk shows as a non-finite entry, a nonzero entry at
        # k <= j, or a row that differs from the same row of a longer block
        # built in one pass.  A row's product may round one ulp apart between
        # the two (a one-row chunk is a matrix-vector product), hence 4e-16
        sizes = [*range(2, 12), *range(67, 71), _NEAR_K + _FAR_CHUNK - 1, _NEAR_K + _FAR_CHUNK,
                 _NEAR_K + _FAR_CHUNK + 1, _NEAR_K + 2 * _FAR_CHUNK + 1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_quadrature, "_FAR_CHUNK", 3 * _FAR_CHUNK)
            longer = _correction_block(s, 3 * _FAR_CHUNK, 1.0)
        for n in sizes:
            block = _correction_block(s, n, 1.0)
            assert np.all(np.isfinite(block)), n
            k, j = np.indices(block.shape)
            assert np.all(block[k <= j] == 0.0) and np.all(block[0] == 0.0), n
            ref = longer[: n + 1, : block.shape[1]]
            assert np.all(np.abs(block - ref) <= 4e-16 * np.abs(ref)), n


def _rounding_scale(values, order, n):
    # rounding scales with the summed magnitudes W|d|: the uncorrected slope
    # integral on data whose slopes are |d|
    abs_slope_data = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(values)))))
    return np.max(DiscreteOp(order, n, 1.0 / n, base=False, corrected=False)(abs_slope_data))


class TestDiscreteOp:
    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        order=st.floats(-1.0 + 1e-6, 1.0),
        corrected=st.booleans(),
        base=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    # n above _DIRECT_N takes the FFT stages in the full apply, and above
    # _MIN_PART more than one partition
    @pytest.mark.parametrize(
        "n_range", [(4, 96), (1025, 1025), (3000, 3000), *((n, n) for n in STAGE_EDGES), (4097, 4097), (8193, 8193)]
    )
    def test_single_node_matches_full_apply(self, n_range, order, corrected, base, seed, data):
        n = data.draw(st.integers(*n_range))
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n + 1)
        h = 1.0 / n
        op = DiscreteOp(order, n, h, base=base, corrected=corrected)
        full = op(values)
        # every row holds the same data, so row r gives node lo + r of the
        # full apply.  Every node up to n = 1025; past it, where a row costs
        # O(n), the 33 nodes about node 0, each stage start, each partition
        # boundary and node n
        edges = {0, n}
        for start, b, count in _stages(n):
            edges |= {start, *range(b, count * b, b)}
        windows = [(0, n)] if n <= 1025 else [(max(0, e - 16), min(n, e + 16)) for e in sorted(edges)]
        bound = 1e-14 * _rounding_scale(values, order, n)
        for lo, hi in windows:
            single = op.rows(np.tile(values, (hi + 1 - lo, 1)), lo)
            assert np.max(np.abs(single - full[lo : hi + 1])) <= bound, lo
        assert full[0] == 0.0 and op.rows(values[None], 0)[0] == 0.0

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(
        order=st.floats(-1.0 + 1e-6, 1.0),
        corrected=st.booleans(),
        base=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_read_their_own_data(self, order, corrected, base, seed, data):
        # a block from lo > 0 that ends before node n: node lo + r reads row r
        n = data.draw(st.integers(4, 1100))
        lo = data.draw(st.integers(1, n - 1))
        count = data.draw(st.integers(1, n - lo))
        values = np.random.default_rng(seed).standard_normal((count, n + 1))
        op = DiscreteOp(order, n, 1.0 / n, base=base, corrected=corrected)
        out = op.rows(values, lo)
        assert out.shape == (count,)
        for r, row in enumerate(values):
            ref = op(row)[lo + r]
            assert abs(out[r] - ref) <= 1e-14 * _rounding_scale(row, order, n)

    # n = 1..9: cells = min(CORRECTION_CELLS, n - 1) shrinks the second
    # differences; 129 is one partition of 256 holding one node past the
    # direct part, 513 and 4097 end in a one-node last partition
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 128, 129, 513, 4097])
    @pytest.mark.parametrize("corrected", [False, True])
    # ids name the base column's exponent, the order, or None without one
    @pytest.mark.parametrize(
        "order, base", [pytest.param(0.3, False, id="None"), pytest.param(-0.5, True, id="-0.5")]
    )
    def test_apply_matches_np_diff_formulas(self, n, corrected, order, base):
        # the apply forms its differences by direct subtraction and writes into
        # its own scratch: bit for bit the np.diff formulas with fresh
        # temporaries written out here, and the data are left as they were
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n + 1)
        block = rng.standard_normal((min(n + 1, 300), n + 1))
        kept, kept_block = values.copy(), block.copy()
        h = 1.0 / n
        op = DiscreteOp(order, n, h, base=base, corrected=corrected)
        cells = min(CORRECTION_CELLS, n - 1) if corrected else 0

        d = np.diff(values) / h
        m = min(n, _DIRECT_N)
        ref = np.empty(n + 1)
        ref[: m + 1] = np.convolve(d[:m], op._table[: m + 1])[: m + 1]
        for lo, b, count, table_fft in op._stages:
            # partition q of the zero-padded slopes against partition p of the
            # table, summed from q = m down to 0; output block m is z_m's first
            # half plus z_m-1's second
            parts = np.fft.rfft(np.concatenate((d, np.zeros(count * b)))[: count * b].reshape(count, b), 2 * b)
            z = []
            for m in range(count):
                z_fft = parts[m] * table_fft[0]
                for q in range(m - 1, -1, -1):
                    z_fft = z_fft + table_fft[m - q] * parts[q]
                z.append(np.fft.irfft(z_fft, 2 * b))
            blocks = [z[0][:b]] + [z[m][:b] + z[m - 1][b:] for m in range(1, count)]
            hi = min(n, count * b)
            ref[lo + 1 : hi + 1] = np.concatenate(blocks)[lo:hi]
        ref *= op._scale
        ref[1:] += op._block[1:] @ np.diff(values[:cells + 2], 2)
        if base:
            ref += values[0] * op._base
        ref[0] = 0.0
        assert op(values).tobytes() == ref.tobytes()

        # the block's rows from node 0, and the same rows ending at node n
        for lo in (0, n + 1 - block.shape[0]):
            hi = lo + block.shape[0]
            rows = np.einsum("ij,ij->i", np.diff(block), op._row_weights[lo:hi]) / h
            rows += np.einsum("ij,ij->i", op._block[lo:hi], np.diff(block[:, :cells + 2], 2))
            if base:
                rows += block[:, 0] * op._base[lo:hi]
            assert op.rows(block, lo).tobytes() == rows.tobytes(), lo
        assert np.array_equal(values, kept) and np.array_equal(block, kept_block)

    # n = 3000 takes the FFT levels; the correction reads the data's own
    # second differences, so without the base column a constant gives
    # exactly zero at every node, for every slope order s
    @pytest.mark.parametrize("n", [64, 3000])
    @pytest.mark.parametrize("s", [0.05, 0.5, 1.5, 1.95])
    def test_constant_data_give_exact_zero(self, s, n):
        out = DiscreteOp(s - 1.0, n, 1.0 / n, base=False)(np.ones(n + 1))
        assert np.all(out == 0.0)


class TestOrderOneIntegral:
    def test_constant_identity_kernel(self):
        grid = identity_grid(256)
        out = psi_integral_order1(SampledFunction(grid, np.ones(257)))
        assert out.values[-1] == pytest.approx(1.0, rel=1e-14)

    def test_constant_sqrt_kernel_gives_tau_span(self):
        kernel = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
        f = sample(kernel, 0.0, 3.0, 256, lambda x: np.ones_like(x))
        out = psi_integral_order1(f)
        # integral of psi' over [0,3] is psi(3) - psi(0) = 1
        assert out.values[-1] == pytest.approx(1.0, rel=1e-14)

    def test_linear_function(self):
        grid = identity_grid(256)
        out = psi_integral_order1(SampledFunction(grid, np.array(grid.x_nodes)))
        assert out.values[-1] == pytest.approx(0.5, rel=1e-12)

    def test_right_side(self):
        grid = identity_grid(256)
        out = psi_integral_order1(SampledFunction(grid, np.ones(257)), side="right")
        assert out.values[0] == pytest.approx(1.0, rel=1e-14)
        assert out.values[-1] == 0.0


class TestRlDerivative:
    def test_power_of_matching_order_is_constant(self):
        grid = identity_grid()
        f = power_values(grid, 1.5)  # z^0.5 with derivative order 0.5
        out = psi_rl_derivative(f, 0.5)
        ref = np.full(grid.n + 1, G(1.5))
        assert relative_sup_error(out, ref) <= 5e-3

    def test_constant_gives_exact_singular_power(self):
        grid = identity_grid(512)
        out = psi_rl_derivative(SampledFunction(grid, np.ones(513)), 0.5)
        assert out.values[-1] == pytest.approx(0.5641895835477563, rel=1e-12)
        # base node materialized as 0 (the true value is infinite)
        assert out.values[0] == 0.0

    def test_zero_function(self):
        grid = identity_grid(64)
        out = psi_rl_derivative(SampledFunction(grid, np.zeros(65)), 0.5)
        assert np.all(out.values == 0.0)

    def test_order_zero_is_identity(self):
        grid = identity_grid(64)
        f = SampledFunction(grid, np.sin(grid.x_nodes))
        out = psi_rl_derivative(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_coarse_grid_rejected(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        grid = TransformedGrid.build(kernel, 0.0, 1.0, 3)
        with pytest.raises(ResolutionError):
            psi_rl_derivative(SampledFunction(grid, np.ones(4)), 0.5)

    @pytest.mark.parametrize("order", [-0.1, 1.0, 1.5])
    def test_order_range_enforced(self, order):
        f = SampledFunction(identity_grid(16), np.ones(17))
        with pytest.raises(ValueError, match="derivative order"):
            psi_rl_derivative(f, order)

    def test_inverts_integral_on_smooth_function(self):
        grid = identity_grid()
        f = SampledFunction(grid, np.sin(grid.tau_nodes - grid.tau_nodes[0]))
        roundtrip = psi_rl_derivative(psi_integral(f, 0.5), 0.5)
        assert relative_sup_error(roundtrip, f) <= 5e-3


class TestHilferDerivative:
    def test_power_family_closed_form(self):
        grid = identity_grid()
        f = power_values(grid, 1.5)
        out = psi_hilfer_derivative(f, FracParams(0.5, 0.5))
        ref = np.full(grid.n + 1, G(1.5) / G(1.0))
        assert relative_sup_error(out, ref) <= 2e-2
        assert out.values[-1] == pytest.approx(0.8862269254527580, rel=1e-3)

    def test_type_zero_equals_rl(self):
        grid = identity_grid(256)
        f = SampledFunction(grid, np.cos(grid.x_nodes))
        hil = psi_hilfer_derivative(f, FracParams(0.3, 0.0))
        rl = psi_rl_derivative(f, 0.3)
        assert np.max(np.abs(hil.values - rl.values)) <= 1e-13

    def test_type_independent_when_function_vanishes_at_base(self):
        # for f(a) = 0 the inner integral order never matters
        grid = identity_grid(256)
        f = power_values(grid, 1.5)
        lo = psi_hilfer_derivative(f, FracParams(0.4, 0.2))
        hi = psi_hilfer_derivative(f, FracParams(0.4, 0.9))
        assert np.array_equal(lo.values, hi.values)

    def test_caputo_type_annihilates_constants(self):
        grid = identity_grid(256)
        out = psi_hilfer_derivative(
            SampledFunction(grid, np.ones(257)), FracParams(0.5, 1.0)
        )
        assert np.all(out.values == 0.0)

    def test_eigenfunction_type_one(self):
        # E_mu(z^mu) reproduces itself under the type-1 derivative
        grid = identity_grid(4096)
        params = MLParams(alpha=0.5)
        z = grid.tau_nodes - grid.tau_nodes[0]
        vals = mittag_leffler(params, z**0.5)
        f = SampledFunction(grid, vals)
        out = psi_hilfer_derivative(f, FracParams(0.5, 1.0))
        assert relative_sup_error(out, f) <= 2e-2

    def test_rl_type_keeps_singular_constant_term(self):
        # for nu < 1 a constant maps to z^(-mu)/Gamma(1-mu), not to zero
        grid = identity_grid(512)
        out = psi_hilfer_derivative(
            SampledFunction(grid, np.ones(513)), FracParams(0.5, 0.5)
        )
        z = grid.tau_nodes - grid.tau_nodes[0]
        ref = np.zeros_like(z)
        ref[1:] = z[1:] ** -0.5 / G(0.5)
        assert np.max(np.abs(out.values[1:] - ref[1:])) <= 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_order_one_is_backward_difference(self, nu):
        # at mu = 1 the derivative is d/dtau of the interpolant: backward
        # difference quotients, exact on affine data; the base node holds 0
        grid = identity_grid(64)
        f = SampledFunction(grid, 2.0 + 3.0 * (grid.tau_nodes - grid.tau_nodes[0]))
        left = psi_hilfer_derivative(f, FracParams(1.0, nu)).values
        right = psi_hilfer_derivative(f, FracParams(1.0, nu), side="right").values
        assert left[0] == 0.0 and np.all(left[1:] == 3.0)
        assert right[-1] == 0.0 and np.all(right[:-1] == -3.0)
        # n = 5001 is past the slope integral's FFT levels: the quotients are
        # still np.diff's own, bit for bit, on either side
        grid = identity_grid(5001)
        values = np.random.default_rng(5001).standard_normal(5002)
        f = SampledFunction(grid, values)
        quotients = np.diff(values) / grid.h
        left = psi_hilfer_derivative(f, FracParams(1.0, nu)).values
        right = psi_hilfer_derivative(f, FracParams(1.0, nu), side="right").values
        assert left[0] == 0.0 and np.array_equal(left[1:], quotients)
        assert right[-1] == 0.0 and np.array_equal(right[:-1], -quotients)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_order_one_zero_quotient_is_positive_zero(self, side):
        # -0.0 - 0.0 is a -0.0 quotient; the output holds +0.0, printed as 0
        grid = identity_grid(8)
        values = np.array([0.0, -0.0, 1.0, 2.0, 3.0, 2.0, 1.0, -0.0, 0.0])
        out = psi_hilfer_derivative(SampledFunction(grid, values), FracParams(1.0, 0.5), side)
        zeros = out.values[out.values == 0.0]
        assert zeros.size == 3 and not np.any(np.signbit(zeros))
        cells = csv_text("x,value", grid.x_nodes, out.values).splitlines()[1:]
        assert [c.split(",")[1] for c in cells].count("0") == 3
        assert not any(c.split(",")[1] == "-0" for c in cells)

    def test_right_side_power_family(self):
        grid = identity_grid()
        zr = grid.tau_nodes[-1] - grid.tau_nodes
        f = SampledFunction(grid, zr**0.5)
        out = psi_hilfer_derivative(f, FracParams(0.5, 0.5), side="right")
        ref = np.full(grid.n + 1, G(1.5))
        assert relative_sup_error(out, ref, side="right") <= 2e-2

    def test_right_side_rl_derivative_of_constant(self):
        grid = identity_grid(512)
        out = psi_rl_derivative(SampledFunction(grid, np.ones(513)), 0.5, side="right")
        zr = grid.tau_nodes[-1] - grid.tau_nodes
        ref = np.zeros_like(zr)
        ref[:-1] = zr[:-1] ** -0.5 / G(0.5)
        assert np.max(np.abs(out.values[:-1] - ref[:-1])) <= 1e-12
        assert out.values[-1] == 0.0


class TestPsiFracIntegral:
    def test_zero_function(self):
        grid = identity_grid(64)
        out = psi_frac_integral(SampledFunction(grid, np.zeros(65)), FracParams(0.5, 0.5))
        assert np.all(out.values == 0.0)

    def test_base_value_is_zero(self):
        grid = identity_grid(64)
        out = psi_frac_integral(SampledFunction(grid, np.ones(65)), FracParams(0.5, 0.5))
        assert out.values[0] == 0.0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_composition_contracts_to_plain_integral(self, nu):
        # D^{(1-nu)(1-mu)} I^1 D^{nu(1-mu)} acts as I^mu on continuous data
        grid = identity_grid()
        f = power_values(grid, 1.5)
        out = psi_frac_integral(f, FracParams(0.5, nu))
        ref = G(1.5) / G(2.0) * (grid.tau_nodes - grid.tau_nodes[0])
        assert relative_sup_error(out, ref) <= 5e-3

    def test_near_order_one_approaches_plain_integral(self):
        grid = identity_grid(1024)
        f = SampledFunction(grid, np.ones(1025))
        out = psi_frac_integral(f, FracParams(0.999, 0.3))
        assert abs(out.values[-1] - 1.0) <= 5.0 * (1.0 - 0.999)

    def test_linearity_exact(self):
        rng = np.random.default_rng(11)
        grid = identity_grid(256)
        fv = rng.standard_normal(257)
        gv = rng.standard_normal(257)
        lam = 0.7
        p = FracParams(0.5, 0.5)
        left = psi_frac_integral(SampledFunction(grid, lam * fv - gv), p)
        right = lam * psi_frac_integral(SampledFunction(grid, fv), p).values
        right = right - psi_frac_integral(SampledFunction(grid, gv), p).values
        scale = np.max(np.abs(right)) or 1.0
        assert np.max(np.abs(left.values - right)) <= 1e-12 * scale

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(mu=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("n", [16, 257, 3000])
    @pytest.mark.parametrize(
        "kid,a,b", [("identity", 0.0, 1.0), ("log", 1.0, math.e)], ids=["identity", "log"]
    )
    def test_is_order_mu_integral_plus_start_correction(self, kid, a, b, n, mu, seed):
        # the composed integral does not depend on nu, and it is the order-mu
        # integral plus the half-power start correction at order 1 + mu
        grid = TransformedGrid.build(make_builtin(kid, (), (a, b)), a, b, n)
        f = SampledFunction(grid, np.random.default_rng(seed).standard_normal(n + 1))
        outs = [psi_frac_integral(f, FracParams(mu, nu)).values for nu in (0.0, 0.37, 1.0)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
        s, h = 1.0 + mu, grid.h
        plain = DiscreteOp(mu, n, h, base=False, corrected=False)
        correction = DiscreteOp(mu, n, h, base=False)(f.values) - plain(f.values)
        ref = psi_integral(f, mu).values + correction
        # rounding scales with the summed magnitudes W|d|, not with the sum
        d = np.abs(np.diff(f.values)) / h
        scale = np.max(np.convolve(d, _pwconst_kernel(s, n))[: n + 1]) * h**s / G(s + 1.0)
        assert np.max(np.abs(outs[0] - ref)) <= 1e-15 * scale

    def test_right_side_constant(self):
        grid = identity_grid(512)
        out = psi_frac_integral(
            SampledFunction(grid, np.ones(513)), FracParams(0.5, 0.5), side="right"
        )
        ref = (1.0 - grid.x_nodes) ** 0.5 / G(1.5)
        assert np.max(np.abs(out.values[:-1] - ref[:-1])) <= 1e-12
        assert out.values[-1] == 0.0


class TestOperatorAlgebra:
    def setup_method(self):
        self.grid = identity_grid()
        z = self.grid.tau_nodes - self.grid.tau_nodes[0]
        self.f = SampledFunction(self.grid, np.sin(z))

    def test_semigroup(self):
        lhs = psi_integral(psi_integral(self.f, 0.5), 0.6)
        rhs = psi_integral(self.f, 1.1)
        assert relative_sup_error(lhs, rhs) <= 5e-3

    @pytest.mark.parametrize("mu,nu", [(0.3, 0.0), (0.5, 0.5), (0.7, 1.0)])
    def test_inversion(self, mu, nu):
        lhs = psi_hilfer_derivative(psi_integral(self.f, mu), FracParams(mu, nu))
        assert relative_sup_error(lhs, self.f) <= 2e-2

    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.3, 0.8)])
    def test_composition_with_vanishing_boundary(self, mu, nu):
        # f(a) = 0 makes the boundary term vanish
        p = FracParams(mu, nu)
        lhs = psi_integral(psi_hilfer_derivative(self.f, p), mu)
        assert relative_sup_error(lhs, self.f) <= 2e-2

    def test_integer_mixing(self):
        p = FracParams(0.5, 0.5)
        lhs = psi_frac_integral(psi_integral_order1(self.f), p)
        rhs = psi_integral(self.f, 1.5)
        assert relative_sup_error(lhs, rhs) <= 2e-2

    def test_product_rule_with_shifted_order(self):
        # I^mu(psi f) = psi I^mu f - mu I^{mu+1} f
        mu = 0.5
        psi_vals = self.grid.tau_nodes
        lhs = psi_integral(SampledFunction(self.grid, psi_vals * self.f.values), mu)
        rhs = psi_vals * psi_integral(self.f, mu).values
        rhs = rhs - mu * psi_integral(self.f, mu + 1.0).values
        assert relative_sup_error(lhs, rhs) <= 5e-3

    def test_uniform_convergence_exchange(self):
        p = FracParams(0.5, 0.5)
        base = psi_frac_integral(self.f, p)
        dists = []
        for k in (1, 2, 4, 8):
            z = self.grid.tau_nodes - self.grid.tau_nodes[0]
            fk = SampledFunction(self.grid, self.f.values + np.sin(z) / k)
            dists.append(
                float(np.max(np.abs(psi_frac_integral(fk, p).values - base.values)))
            )
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= dists[0] / 4


class TestRelativeSupError:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_all_zero_reference_gives_absolute_error(self, side):
        # no scale to divide by: the error is sup|num| away from the base node
        grid = identity_grid(16)
        values = np.zeros(17)
        values[0], values[-1] = 100.0, -5.0
        num = SampledFunction(grid, values if side == "left" else values[::-1])
        zero = np.zeros(17)
        assert relative_sup_error(num, zero, side=side) == 5.0
        assert relative_sup_error(num, SampledFunction(grid, zero), side=side) == 5.0


class TestLimitProbe:
    def test_identity_regime_monotone(self):
        grid = identity_grid(1024)
        report = limit_probe(SampledFunction(grid, np.ones(1025)), "identity")
        assert report.monotone
        assert report.distances[-1] < 1e-2

    def test_mu_to_one_regime_monotone(self):
        grid = identity_grid(1024)
        report = limit_probe(SampledFunction(grid, np.ones(1025)), "mu_to_1")
        assert report.monotone

    def test_zero_function_all_distances_zero(self):
        grid = identity_grid(64)
        report = limit_probe(SampledFunction(grid, np.zeros(65)), "identity")
        assert all(d == 0.0 for d in report.distances)

    def test_unknown_regime(self):
        grid = identity_grid(64)
        with pytest.raises(ValueError):
            limit_probe(SampledFunction(grid, np.ones(65)), "nope")


class TestKernelInvariance:
    """The same data in tau must give the same nodal output for any kernel."""

    @pytest.mark.parametrize("kid,a,b", [("sqrt_shift:1", 0.0, 3.0), ("log", 1.0, math.e)])
    def test_power_family_matches_identity_kernel(self, kid, a, b):
        from psifrac import kernel_from_id

        kernel = kernel_from_id(kid, (a, b))
        grid = TransformedGrid.build(kernel, a, b, 512)
        f = power_values(grid, 1.5)
        out = psi_frac_integral(f, FracParams(0.5, 0.5))
        z = grid.tau_nodes - grid.tau_nodes[0]
        ref = G(1.5) / G(2.0) * z
        assert relative_sup_error(out, ref) <= 5e-3
