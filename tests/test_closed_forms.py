import math

import numpy as np
import pytest

from psifrac import (
    FracParams,
    GammaPoleError,
    MLParams,
    PowerFunctionSpec,
    composition_remainder,
    m_coefficient,
    make_builtin,
    mittag_leffler,
    ml_hilfer_eigen,
    ml_psi_frac_integral,
    power_hilfer_derivative,
    power_integral,
    power_psi_frac_integral,
)

G = math.gamma


@pytest.fixture
def unit_kernel():
    return make_builtin("identity", (), (0.0, 4.0))


class TestPowerIntegral:
    def test_constant_half_order(self, unit_kernel):
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        assert power_integral(spec, 0.5, 1.0) == pytest.approx(
            1.1283791670955126, rel=1e-15
        )

    def test_order_one(self, unit_kernel):
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        assert power_integral(spec, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_vanishes_at_base(self, unit_kernel):
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        assert power_integral(spec, 0.5, 0.0) == 0.0

    def test_vectorized_evaluation(self, unit_kernel):
        spec = PowerFunctionSpec(1.5, unit_kernel, 0.0)
        xs = np.linspace(0.0, 2.0, 9)
        vals = power_integral(spec, 0.5, xs)
        assert vals.shape == xs.shape
        assert vals[0] == 0.0

    def test_delta_must_be_positive(self, unit_kernel):
        with pytest.raises(ValueError):
            PowerFunctionSpec(0.0, unit_kernel, 0.0)

    def test_delta_must_be_finite(self, unit_kernel):
        with pytest.raises(ValueError, match="finite"):
            PowerFunctionSpec(math.inf, unit_kernel, 0.0)


    def test_overflow_raises_at_the_first_point(self):
        # z^(mu + delta - 1) past float64 once came back as inf with a warning
        spec = PowerFunctionSpec(3.0, make_builtin("identity", (), (0.0, 1e301)), 0.0)
        with pytest.raises(ValueError, match=r"overflows float64 at z = 1e\+200$"):
            power_integral(spec, 0.5, np.array([1.0, 1e200, 1e300]))
        assert power_integral(PowerFunctionSpec(0.5, spec.kernel, 0.0), 0.5, 1e300) == math.sqrt(math.pi)


class TestPowerHilferDerivative:
    def test_midpoint_values(self, unit_kernel):
        spec = PowerFunctionSpec(1.5, unit_kernel, 0.0)
        p = FracParams(0.5, 0.5)
        assert power_hilfer_derivative(spec, p, 1.0) == pytest.approx(
            0.8862269254527580, rel=1e-15
        )
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        assert power_hilfer_derivative(spec, p, 1.0) == pytest.approx(
            0.5641895835477563, rel=1e-15
        )

    def test_type_never_enters(self, unit_kernel):
        spec = PowerFunctionSpec(1.7, unit_kernel, 0.0)
        a = power_hilfer_derivative(spec, FracParams(0.4, 0.0), 2.0)
        b = power_hilfer_derivative(spec, FracParams(0.4, 1.0), 2.0)
        assert a == b

    def test_matching_order_gives_constant(self, unit_kernel):
        mu = 0.3
        spec = PowerFunctionSpec(mu + 1.0, unit_kernel, 0.0)
        vals = [
            power_hilfer_derivative(spec, FracParams(mu, 0.5), x) for x in (0.5, 1.0, 3.0)
        ]
        assert all(v == pytest.approx(G(mu + 1.0), rel=1e-14) for v in vals)

    def test_negative_exponent_overflow_raises(self, unit_kernel):
        # z^(delta - mu - 1) = z^-1.3 near the base passes float64
        spec = PowerFunctionSpec(0.2, unit_kernel, 0.0)
        with pytest.raises(ValueError, match=r"overflows float64 at z = 1e-300$"):
            power_hilfer_derivative(spec, FracParams(0.5, 0.5), 1e-300)
        assert power_hilfer_derivative(spec, FracParams(0.5, 0.5), 0.0) == 0.0

    @pytest.mark.parametrize("delta,mu", [(0.5, 0.5), (1.0, 1.0)])
    def test_pole_reported(self, unit_kernel, delta, mu):
        spec = PowerFunctionSpec(delta, unit_kernel, 0.0)
        with pytest.raises(GammaPoleError):
            power_hilfer_derivative(spec, FracParams(mu, 0.5), 1.0)


class TestPowerPsiFracIntegral:
    def test_constant_family_value(self, unit_kernel):
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        got = power_psi_frac_integral(spec, FracParams(0.5, 0.5), 1.0)
        assert got == pytest.approx(0.7396687797971597, rel=1e-15)

    def test_vanishes_at_base(self, unit_kernel):
        spec = PowerFunctionSpec(1.0, unit_kernel, 0.0)
        assert power_psi_frac_integral(spec, FracParams(0.5, 0.5), 0.0) == 0.0

    def test_m_coefficient_matches_gamma_ratio(self):
        p = FracParams(0.5, 0.5)
        b = 0.25
        expected = G(1.5) * G(1.5 + b) / (G(1.5 - b) * G(1.5 + 2 * b + 0.5))
        assert m_coefficient(1.5, p) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the four-Gamma coefficient is not monotone in the order at z = 1: "
            "M(0.1) = 0.67103 < M(0.3) = 0.67565; only the contracted form "
            "Gamma(1.5)/Gamma(1.5+mu) decreases strictly"
        ),
    )
    def test_tabulated_values_decrease_with_order(self, unit_kernel):
        spec = PowerFunctionSpec(1.5, unit_kernel, 0.0)
        vals = [
            power_psi_frac_integral(spec, FracParams(mu, 0.5), 1.0)
            for mu in (0.1, 0.3, 0.5, 0.8)
        ]
        vals.append(m_coefficient_boundary())
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tabulated_values_frozen(self, unit_kernel):
        spec = PowerFunctionSpec(1.5, unit_kernel, 0.0)
        got = [
            power_psi_frac_integral(spec, FracParams(mu, 0.5), 1.0)
            for mu in (0.1, 0.3, 0.5, 0.8)
        ]
        expected = [
            0.6710332872937257,
            0.675648227124608,
            0.6759782400672847,
            0.6713639030175622,
        ]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_pole_guard(self, unit_kernel):
        # delta - B hits zero for delta = B
        spec = PowerFunctionSpec(0.45, unit_kernel, 0.0)
        with pytest.raises(GammaPoleError):
            power_psi_frac_integral(spec, FracParams(0.1, 0.5), 1.0)


def m_coefficient_boundary() -> float:
    # at the order boundary the coefficient collapses to 1/delta
    return 1.0 / 1.5


class TestMlOracles:
    def test_eigen_at_base_returns_rate(self, unit_kernel):
        p = FracParams(0.5, 1.0)
        assert ml_hilfer_eigen(2.5, p, unit_kernel, 0.0, 0.0) == pytest.approx(
            2.5, rel=1e-15
        )

    def test_eigen_classical_limit(self, unit_kernel):
        p = FracParams(0.999, 1.0)
        lam = 0.7
        got = ml_hilfer_eigen(lam, p, unit_kernel, 0.0, 1.5)
        assert got == pytest.approx(lam * math.exp(lam * 1.5), rel=2e-2)

    def test_eigen_half_order(self, unit_kernel):
        p = FracParams(0.5, 1.0)
        got = ml_hilfer_eigen(1.0, p, unit_kernel, 0.0, 1.0)
        assert got == pytest.approx(mittag_leffler(MLParams(0.5), 1.0), rel=1e-14)
        # independent reference: E_{1/2}(1) = e * erfc(-1)
        assert got == pytest.approx(math.exp(1.0) * math.erfc(-1.0), rel=1e-13)

    def test_composed_ml_at_base(self, unit_kernel):
        assert ml_psi_frac_integral(FracParams(0.5, 0.5), unit_kernel, 0.0, 0.0) == 0.0

    def test_composed_ml_classical_limit(self, unit_kernel):
        got = ml_psi_frac_integral(FracParams(0.999, 0.5), unit_kernel, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=5e-3)

    @pytest.mark.parametrize("mu,lam", [(0.5, 1.0), (0.3, -0.7), (0.9, 2.0)])
    def test_arrays_match_pointwise_calls(self, mu, lam):
        kernel = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
        p = FracParams(mu, 1.0)
        x = np.linspace(0.0, 3.0, 41)
        eigen = [ml_hilfer_eigen(lam, p, kernel, 0.0, v) for v in x]
        composed = [ml_psi_frac_integral(p, kernel, 0.0, v) for v in x]
        assert np.array_equal(ml_hilfer_eigen(lam, p, kernel, 0.0, x), eigen)
        assert np.array_equal(ml_psi_frac_integral(p, kernel, 0.0, x), composed)

    def test_points_before_base_rejected(self):
        # z^mu is complex for z < 0; no real value is returned there
        kernel = make_builtin("log", (), (0.5, 2.0))
        with pytest.raises(ValueError, match="z >= 0"):
            ml_psi_frac_integral(FracParams(0.5, 1.0), kernel, 1.0, 0.5)
        with pytest.raises(ValueError, match="z >= 0"):
            ml_hilfer_eigen(1.0, FracParams(0.5, 1.0), kernel, 1.0, np.array([1.5, 0.5]))

    def test_composed_ml_half_order(self, unit_kernel):
        got = ml_psi_frac_integral(FracParams(0.5, 0.5), unit_kernel, 0.0, 1.0)
        assert got == pytest.approx(
            mittag_leffler(MLParams(0.5), 1.0) - 1.0, rel=1e-14
        )


class TestPointsBeforeBase:
    """Every closed form is stated in z = psi(x) - psi(a) >= 0; one point
    before the base in an array rejects the whole call."""

    @pytest.mark.parametrize(
        "form",
        [
            lambda spec, p, k, x: power_integral(spec, p.mu, x),
            lambda spec, p, k, x: power_hilfer_derivative(spec, p, x),
            lambda spec, p, k, x: power_psi_frac_integral(spec, p, x),
            lambda spec, p, k, x: ml_hilfer_eigen(0.8, p, k, 1.0, x),
            lambda spec, p, k, x: ml_psi_frac_integral(p, k, 1.0, x),
            lambda spec, p, k, x: composition_remainder(0.4, p, k, 1.0, x),
        ],
        ids=["power-int", "power-hilfer", "power-psifrac", "ml-eigen", "ml-psifrac", "remainder"],
    )
    @pytest.mark.parametrize("kid", ["identity", "log"])
    def test_one_point_before_base_rejected(self, form, kid):
        kernel = make_builtin(kid, (), (0.5, 2.0))
        spec = PowerFunctionSpec(1.7, kernel, 1.0)
        x = np.array([1.0, 1.5, 0.5, 2.0])
        with pytest.raises(ValueError, match="z >= 0"):
            form(spec, FracParams(0.5, 0.5), kernel, x)


class TestCompositionRemainder:
    def test_zero_boundary_integral(self, unit_kernel):
        assert composition_remainder(0.0, FracParams(0.5, 0.5), unit_kernel, 0.0, 1.0) == 0.0

    def test_unit_weight_exponent(self, unit_kernel):
        p = FracParams(0.5, 1.0)  # xi = 1
        vals = [
            composition_remainder(3.0, p, unit_kernel, 0.0, x) for x in (0.5, 1.0, 2.0)
        ]
        assert all(v == pytest.approx(3.0, rel=1e-15) for v in vals)

    def test_three_quarters_exponent(self, unit_kernel):
        p = FracParams(0.5, 0.5)  # xi = 0.75
        got = composition_remainder(1.0, p, unit_kernel, 0.0, 1.0)
        assert got == pytest.approx(0.8160489390982628, rel=1e-15)


class TestOracleAlgebra:
    def test_semigroup_closure(self, unit_kernel):
        rng = np.random.default_rng(31)
        for _ in range(100):
            delta = float(rng.uniform(0.2, 3.0))
            mu1 = float(rng.uniform(0.05, 1.0))
            mu2 = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(0.1, 4.0))
            spec = PowerFunctionSpec(delta, unit_kernel, 0.0)
            inner_coef = G(delta) / G(mu1 + delta)
            nested = inner_coef * power_integral(
                PowerFunctionSpec(delta + mu1, unit_kernel, 0.0), mu2, x
            )
            direct = power_integral(spec, mu1 + mu2, x)
            assert nested == pytest.approx(direct, rel=1e-12)

    def test_exponent_bookkeeping(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            mu = float(rng.uniform(0.01, 0.99))
            nu = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(0.1, 5.0))
            a = (1.0 - nu) * (1.0 - mu)
            b = nu * (1.0 - mu)
            assert a + b + delta == pytest.approx(delta - mu + 1.0, rel=1e-12)
