import math

import numpy as np
import pytest

from psifrac import (
    FracParams,
    MLParams,
    PowerFunctionSpec,
    SampledFunction,
    TransformedGrid,
    WeightedNormSpec,
    bound_constant_A,
    bound_constant_K,
    bound_constant_s,
    make_builtin,
    mittag_leffler,
    power_psi_frac_integral,
    psi_frac_integral,
    weighted_norm,
)

G = math.gamma


def grid_on(b=1.0, n=512):
    kernel = make_builtin("identity", (), (0.0, max(b, 1.0)))
    return TransformedGrid.build(kernel, 0.0, b, n)


class TestWeightedNorm:
    def test_unweighted_constant(self):
        grid = grid_on()
        f = SampledFunction(grid, np.ones(grid.n + 1))
        assert weighted_norm(f, WeightedNormSpec(0.0)) == pytest.approx(1.0)

    def test_weight_cancels_matching_power(self):
        xi = 0.6
        grid = grid_on()
        z = grid.tau_nodes - grid.tau_nodes[0]
        vals = np.zeros(grid.n + 1)
        vals[1:] = z[1:] ** (-xi)
        f = SampledFunction(grid, vals)
        assert weighted_norm(f, WeightedNormSpec(xi)) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_weight_on_wide_interval(self):
        grid = grid_on(b=4.0)
        f = SampledFunction(grid, np.ones(grid.n + 1))
        assert weighted_norm(f, WeightedNormSpec(0.5)) == pytest.approx(2.0, rel=1e-12)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            WeightedNormSpec(1.0)


class TestBoundConstants:
    def test_s_value(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        got = bound_constant_s(FracParams(0.5, 0.5), kernel, 0.0, 1.0)
        assert got == pytest.approx(1.183885992894934, rel=1e-14)

    def test_s_unit_base(self):
        # psi(b) - psi(a) = 1 leaves only the Gamma factors
        kernel = make_builtin("identity", (), (0.0, 2.0))
        p = FracParams(0.3, 0.6)
        got = bound_constant_s(p, kernel, 0.5, 1.5)
        assert got == pytest.approx(
            1.0 / (G(1.0 + p.xi) * G(2.0 + 0.3 - p.xi)), rel=1e-14
        )

    def test_s_classical_boundary(self):
        kernel = make_builtin("identity", (), (0.0, 3.0))
        got = bound_constant_s(FracParams(1.0, 0.7), kernel, 0.0, 3.0)
        assert got == pytest.approx(9.0, rel=1e-12)

    def test_A_value(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        got = bound_constant_A(FracParams(0.5, 0.5), kernel, 0.0, 1.0)
        assert got == pytest.approx(1.3519564801345694, rel=1e-14)

    def test_A_type_zero_collapse(self):
        kernel = make_builtin("identity", (), (0.0, 2.0))
        mu = 0.4
        got = bound_constant_A(FracParams(mu, 0.0), kernel, 0.5, 1.5)
        assert got == pytest.approx(G(1.0 + mu), rel=1e-14)

    def test_A_reciprocity_with_tabulated_form(self):
        rng = np.random.default_rng(5)
        kernel = make_builtin("identity", (), (0.0, 10.0))
        for _ in range(50):
            mu = float(rng.uniform(0.05, 0.95))
            nu = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.2, 9.5))
            p = FracParams(mu, nu)
            a_const = bound_constant_A(p, kernel, 0.0, b)
            spec = PowerFunctionSpec(1.0, kernel, 0.0)
            product = a_const * float(power_psi_frac_integral(spec, p, b))
            assert abs(product - 1.0) <= 1e-12

    def test_K_values(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        got = bound_constant_K(FracParams(0.5, 0.0), kernel, 0.0, 1.0)
        assert got == pytest.approx(1.1283791670955126, rel=1e-14)
        got = bound_constant_K(FracParams(1.0, 0.5), kernel, 0.0, 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_unit_base_K(self):
        kernel = make_builtin("identity", (), (0.0, 2.0))
        p = FracParams(0.25, 0.5)
        got = bound_constant_K(p, kernel, 0.5, 1.5)
        assert got == pytest.approx(
            1.0 / (G(2.0 - p.xi) * G(p.xi - 0.25 + 1.0)), rel=1e-14
        )

    def test_interval_orientation_checked(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        with pytest.raises(ValueError):
            bound_constant_s(FracParams(0.5, 0.5), kernel, 1.0, 0.0)


class TestEmpiricalBoundedness:
    """Composed-integral outputs stay within s times a C1-type input norm."""

    @pytest.mark.parametrize("mu,nu", [(0.3, 0.5), (0.5, 0.5), (0.7, 0.2)])
    def test_battery(self, mu, nu):
        p = FracParams(mu, nu)
        kernel = make_builtin("identity", (), (0.0, 1.0))
        grid = TransformedGrid.build(kernel, 0.0, 1.0, 1024)
        z = grid.tau_nodes - grid.tau_nodes[0]
        ml = MLParams(alpha=mu)
        battery = {
            "one": np.ones(grid.n + 1),
            "sqrt": z**0.5,
            "linear": z,
            "ml": mittag_leffler(ml, z**mu),
            "sin": np.sin(z),
        }
        s_const = bound_constant_s(p, kernel, 0.0, 1.0)
        w = WeightedNormSpec(p.xi) if p.xi < 1.0 else None
        assert w is not None  # xi < 1 whenever nu < 1
        for name, vals in battery.items():
            f = SampledFunction(grid, vals)
            out = psi_frac_integral(f, p)
            lhs = weighted_norm(out, w)
            c1 = float(np.max(np.abs(vals))) + float(
                np.max(np.abs(np.gradient(vals, grid.h)))
            )
            assert lhs <= s_const * c1 * (1.0 + 1e-9), name
