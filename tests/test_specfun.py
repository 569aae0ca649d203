import math

import numpy as np
import pytest

from psifrac import (
    GammaPoleError,
    MLConvergenceError,
    MLDivergenceError,
    MLParams,
    gamma,
    mittag_leffler,
    mittag_leffler_terms,
)


def ml_series_derivative(alpha: float, beta: float, z: float, terms: int = 400) -> float:
    """Term-wise d/dz of E_{alpha,beta}, for the recurrence check."""
    total = 0.0
    sign = 1.0 if z >= 0 else -1.0
    log_abs_z = math.log(abs(z)) if z != 0.0 else None
    for k in range(1, terms):
        if log_abs_z is None:
            term = 1.0 / math.exp(math.lgamma(alpha + beta)) if k == 1 else 0.0
        else:
            mag = math.exp((k - 1) * log_abs_z - math.lgamma(alpha * k + beta))
            term = k * (sign ** (k - 1)) * mag
        total += term
        if k > 5 and abs(term) <= 1e-18 * max(1.0, abs(total)):
            break
    return total


class TestGamma:
    def test_factorials_exact(self):
        for n in range(0, 16):
            assert gamma(n + 1) == float(math.factorial(n))

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -5.0])
    def test_poles_raise(self, x):
        with pytest.raises(GammaPoleError):
            gamma(x)

    def test_negative_noninteger_reflection(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_functional_equation(self):
        for x in np.linspace(0.1, 20.0, 300):
            lhs = gamma(x + 1.0)
            rhs = x * gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert mittag_leffler(MLParams(1.0, 1.0), 1.0) == pytest.approx(
            math.e, rel=1e-14
        )

    def test_geometric_case(self):
        assert mittag_leffler(MLParams(0.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_sinh_case(self):
        assert mittag_leffler(MLParams(2.0, 2.0), 1.0) == pytest.approx(
            math.sinh(1.0), rel=1e-12
        )

    @pytest.mark.parametrize(
        "beta,ref,sign",
        [
            (1.0, np.cosh, 1.0),
            (1.0, np.cos, -1.0),
            (2.0, lambda z: np.sinh(z) / z, 1.0),
            (2.0, lambda z: np.sin(z) / z, -1.0),
        ],
    )
    def test_alpha_two_reductions(self, beta, ref, sign):
        params = MLParams(2.0, beta)
        for z in np.linspace(0.1, 5.0, 50):
            got = mittag_leffler(params, sign * z * z)
            assert abs(got - float(ref(z))) <= 1e-10 * abs(float(ref(z)))

    def test_geometric_sweep(self):
        params = MLParams(0.0)
        for z in np.linspace(-0.9, 0.9, 37):
            assert mittag_leffler(params, float(z)) == pytest.approx(
                1.0 / (1.0 - z), rel=1e-12
            )

    def test_geometric_divergence(self):
        with pytest.raises(MLDivergenceError):
            mittag_leffler(MLParams(0.0), 1.0)

    def test_nonconvergence_carries_partial_sum(self):
        with pytest.raises(MLConvergenceError) as info:
            mittag_leffler(MLParams(0.5, max_terms=3), 2.0)
        assert info.value.terms == 3
        assert math.isfinite(info.value.partial_sum)

    def test_overflow_raises_with_partial_sum(self):
        # the alternating series of E_{1/2}(-30) has terms past 1e308
        with pytest.raises(MLConvergenceError) as info:
            mittag_leffler(MLParams(0.5), -30.0)
        assert math.isfinite(info.value.partial_sum)
        assert 0 < info.value.terms < MLParams(0.5).max_terms

    def test_sum_overflow_raises(self):
        # every term of E_1(712) is finite, their sum is not
        with pytest.raises(MLConvergenceError):
            mittag_leffler(MLParams(1.0), 712.0)

    def test_term_count_reported(self):
        value, terms = mittag_leffler_terms(MLParams(1.0), 1.0)
        assert value == pytest.approx(math.e, rel=1e-14)
        assert 5 < terms < 40

    @pytest.mark.parametrize("mu,nu", [(0.5, 0.8), (1.0, 1.0), (1.5, 0.5), (0.7, 2.0)])
    def test_recurrence_against_termwise_derivative(self, mu, nu):
        # E_{mu,nu}(z) = nu E_{mu,nu+1}(z) + mu z (d/dz) E_{mu,nu+1}(z)
        up = MLParams(mu, nu + 1.0)
        base = MLParams(mu, nu)
        for z in np.linspace(-1.0, 1.0, 21):
            z = float(z)
            lhs = mittag_leffler(base, z)
            rhs = nu * mittag_leffler(up, z) + mu * z * ml_series_derivative(
                mu, nu + 1.0, z
            )
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MLParams(-0.1)
        with pytest.raises(ValueError):
            MLParams(1.0, 0.0)
        with pytest.raises(ValueError):
            MLParams(1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            MLParams(1.0, 1.0, max_terms=0)

    def test_zero_argument(self):
        assert mittag_leffler(MLParams(0.7, 1.3), 0.0) == pytest.approx(
            1.0 / gamma(1.3), rel=1e-15
        )

    def test_large_negative_argument_alternating(self):
        # cos(5) through the alpha = 2 reduction exercises cancellation
        got = mittag_leffler(MLParams(2.0, 1.0), -25.0)
        assert got == pytest.approx(math.cos(5.0), rel=1e-10)
