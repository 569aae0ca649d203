import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfcx

from psifrac import (
    GammaPoleError,
    MLConvergenceError,
    MLDivergenceError,
    MLParams,
    PsifracError,
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


def ml_scalar_series(params: MLParams, z: float):
    """The per-point series loop that ``mittag_leffler`` once ran, kept as the
    reference for its vectorized series: (value, terms, largest term), or the
    (kind, partial sum, terms) of the MLConvergenceError it raised."""
    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    total = largest = term = 0.0
    for k in range(params.max_terms):
        log_mag = k * log_abs_z - math.lgamma(params.alpha * k + params.beta)
        try:
            term = (sign_z**k) * math.exp(log_mag)
        except OverflowError:
            return ("overflow", total, k)
        total += term
        largest = max(largest, abs(term))
        if k >= 5 and abs(term) <= params.tol * abs(total):
            if math.isinf(total):
                return ("overflow", total, k)
            if 2.0**-52 * largest > 1e-11 * abs(total):
                return ("cancelled", total, k + 1)
            return total, k + 1, largest
    return ("did not converge", total, params.max_terms)


def ml_reference(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(-x) for 0 < alpha < 1 and x > 0, to about 45 digits.

    Where t = x^(1/alpha) <= 120 it sums the power series with 50 digits
    beyond its largest term (about e^t), so the cancellation costs nothing.
    Past that it sums the asymptotic expansion -sum_k (-x)^-k/Gamma(beta -
    alpha k), whose error near its smallest term is about e^-t.
    """
    t = math.exp(min(math.log(x) / alpha, 700.0))
    with mpmath.workdps(50 + int(t / 2.3) if t <= 120 else 50):
        a, b, xm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        total, power = mpmath.mpf(0), mpmath.mpf(1)
        tiny = mpmath.mpf(10) ** -45
        if t <= 120:
            for k in range(100000):
                term = power * mpmath.rgamma(a * k + b)
                total += term
                if k > 10 and abs(term) < tiny * abs(total):
                    return float(total)
                power *= -xm
        else:
            for k in range(1, 400):
                power /= -xm
                total -= power * mpmath.rgamma(b - a * k)
                if k > 10 and abs(power) * mpmath.gamma(1 + a * k) < tiny * abs(total):
                    return float(total)
    raise AssertionError(f"reference did not settle at {alpha}, {beta}, {x}")


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

    @pytest.mark.parametrize("x", [171.7, 200.0, 1e6])
    def test_overflow_raises_value_error(self, x):
        with pytest.raises(ValueError, match="overflows"):
            gamma(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises_value_error(self, x):
        # once an OverflowError (inf) or "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="finite"):
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
        # the series of E_{1/2}(100) has terms past 1e308 while the sum of
        # the earlier ones is still finite
        with pytest.raises(MLConvergenceError) as info:
            mittag_leffler(MLParams(0.5), 100.0)
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

    @pytest.mark.parametrize("alpha,z", [(0.7, 0.0), (0.0, 0.5)])
    def test_closed_forms_past_gamma_overflow(self, alpha, z):
        # the z = 0 and alpha = 0 closed forms, 1/Gamma(beta) and
        # 1/((1 - z) Gamma(beta)), underflow past beta ~ 171.6 instead of raising
        ref = float(mpmath.rgamma(172)) / (1.0 - z)
        assert mittag_leffler(MLParams(alpha, 172.0), z) == pytest.approx(ref, rel=1e-12)
        assert mittag_leffler(MLParams(alpha, 200.0), z) == 0.0

    @pytest.mark.parametrize(
        "alpha,beta,z,value,terms",
        [
            (0.5, 1e308, 0.0, 0.0, 1),
            *((0.5, 1e308, z, 0.0, 6) for z in (0.5, -0.5, -5.0, -500.0)),
            *((1e305, 1.0, z, 1.0, 6) for z in (0.5, -0.5, -5.0, -500.0)),
            (0.0, 1e308, 0.5, 0.0, 1),
        ],
    )
    def test_log_gamma_overflow_gives_zero_reciprocal(self, alpha, beta, z, value, terms):
        # lgamma raises OverflowError past about 2.5e305; 1/Gamma is 0 there,
        # so E = 1/Gamma(beta) + z/Gamma(alpha + beta) + ... keeps its finite terms
        assert mittag_leffler_terms(MLParams(alpha, beta), z) == (value, terms)

    @pytest.mark.parametrize(
        "alpha,z", [(0.5, -5.0), (0.5, -10.0), (1.0, -8.0), (1.0, -30.0)]
    )
    def test_former_cancelled_inputs_are_accurate(self, alpha, z):
        # these once raised "cancelled" (and E_{1/2}(-10) before that summed
        # to -1.6e29); they now take the contour or exp
        ref = erfcx(-z) if alpha == 0.5 else math.exp(z)
        assert abs(mittag_leffler(MLParams(alpha), z) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("alpha,beta,z", [(1.0, 2.0, -30.0), (1.5, 1.0, -60.0)])
    def test_cancelled_series_raises(self, alpha, beta, z):
        # alpha >= 1 with beta != 1 still takes the series for every z
        with pytest.raises(MLConvergenceError, match="cancelled") as info:
            mittag_leffler(MLParams(alpha, beta), z)
        assert math.isfinite(info.value.partial_sum)
        assert 0 < info.value.terms < MLParams(alpha).max_terms

    def test_moderate_negative_arguments_stay_accurate(self):
        # E_{1/2}(-x) = erfcx(x) and E_1(-x) = exp(-x) where the guard is quiet
        for x in np.linspace(0.0, 3.0, 61):
            got = mittag_leffler(MLParams(0.5), -float(x))
            assert abs(got - erfcx(x)) <= 1e-10 * erfcx(x)
        for x in np.linspace(0.0, 5.0, 101):
            got = mittag_leffler(MLParams(1.0), -float(x))
            assert abs(got - math.exp(-x)) <= 1e-10 * math.exp(-x)

    def test_array_argument_is_elementwise(self):
        params = MLParams(0.7, 1.2)
        zs = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
        got = mittag_leffler(params, zs)
        assert got.shape == (3, 4)
        ref = [mittag_leffler_terms(params, z)[0] for z in zs.ravel().tolist()]
        assert np.array_equal(got.ravel(), ref)
        assert isinstance(mittag_leffler(params, np.float64(0.5)), float)
        # one array mixing every route, and longer than one series chunk
        for params in (MLParams(0.7, 1.2), MLParams(1.0)):
            zs = np.concatenate([np.linspace(-300.0, 5.0, 600), [0.0, -1.0, -100.0]])
            ref = [mittag_leffler_terms(params, z)[0] for z in zs.tolist()]
            assert np.array_equal(mittag_leffler(params, zs), ref)

    def test_half_order_matches_erfcx(self):
        x = np.linspace(0.0, 40.0, 4001)
        got = mittag_leffler(MLParams(0.5), -x)
        assert np.max(np.abs(got - erfcx(x)) / erfcx(x)) <= 1e-12

    def test_order_one_matches_exp(self):
        x = np.linspace(0.0, 700.0, 7001)
        got = mittag_leffler(MLParams(1.0), -x)
        assert np.max(np.abs(got - np.exp(-x)) / np.exp(-x)) <= 1e-14

    # measured worst relative errors over this grid: 7.2e-14 (beta = 1),
    # 5.7e-13 (beta = 1/2), 1.8e-15 (beta = 2), 3.7e-13 (beta = 4, the
    # largest that takes the contour); beta = 10 takes the series, 6.5e-11
    # where its cancellation guard lets a value through
    @pytest.mark.parametrize(
        "beta,tol", [(1.0, 1e-12), (0.5, 1e-12), (2.0, 1e-14), (4.0, 1e-12), (10.0, 3e-10)]
    )
    def test_negative_arguments_match_mpmath(self, beta, tol):
        params = [MLParams(alpha, beta) for alpha in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for p in params:
            for x in (0.5, 1.01, 1.5, 3.0, 7.0, 15.0, 30.0):
                try:
                    got = mittag_leffler(p, -x)
                except MLConvergenceError:
                    # the series cancels or overflows; the contour never raises
                    assert beta > 4.0, (p.alpha, x)
                    continue
                ref = ml_reference(p.alpha, beta, x)
                assert abs(got - ref) <= tol * abs(ref), (p.alpha, x)

    @pytest.mark.parametrize("beta", [4.5, 10.0, 20.0])
    def test_large_beta_keeps_the_series(self, beta):
        # the contour's error grows with beta (1e-11 at 5, 8e-6 at 10), so
        # past beta = 4 decay is the series loop's, value and error alike
        for alpha in (0.1, 0.5, 0.9):
            params = MLParams(alpha, beta)
            for x in (1.01, 5.0, 30.0, 99.0, 1e3):
                ref = ml_scalar_series(params, -x)
                if isinstance(ref[0], str):
                    with pytest.raises(MLConvergenceError, match=ref[0]):
                        mittag_leffler_terms(params, -x)
                    continue
                value, terms = mittag_leffler_terms(params, -x)
                assert terms == ref[1]
                assert abs(value - ref[0]) <= 50 * 2.0**-52 * ref[2]

    # the contour's known limit: the transform's singularities reach its
    # branch cut as alpha -> 1 (measured 5.4e-13 and 1.3e-11)
    @pytest.mark.parametrize("alpha,tol", [(0.99, 2e-12), (0.999, 3e-11)])
    def test_alpha_near_one(self, alpha, tol):
        for x in (1.5, 3.0, 10.0, 30.0, 99.0):
            ref = ml_reference(alpha, 1.0, x)
            assert abs(mittag_leffler(MLParams(alpha), -x) - ref) <= tol * ref, x

    @pytest.mark.parametrize("alpha,beta", [(0.1, 1.0), (0.5, 1.0), (0.5, 0.5), (0.9, 2.0)])
    def test_huge_negative_arguments(self, alpha, beta):
        # x^(1/alpha) overflows float64 at the top of this range; E_{1/2,1/2}
        # has no 1/x term, so its contour sum is only rounding there
        for x in (100.0, 1e3, 1e6, 1e40, 1e300, 1.7e308):
            ref = ml_reference(alpha, beta, x)
            got = mittag_leffler(MLParams(alpha, beta), -x)
            assert abs(got - ref) <= 1e-14 * abs(ref), x

    def test_every_finite_argument_is_finite_or_raises(self):
        mags = np.logspace(-300, 308, 60)
        for alpha in (0.1, 0.5, 0.9, 0.999, 1.0, 1.5, 2.0):
            for beta in (0.5, 1.0, 2.0, 10.0):
                for z in np.concatenate([-mags, mags, [0.0, -1.0, 1.0]]).tolist():
                    try:
                        value, _ = mittag_leffler_terms(MLParams(alpha, beta), z)
                    except PsifracError:
                        continue
                    assert math.isfinite(value), (alpha, beta, z)

    @pytest.mark.parametrize(
        "alpha,beta,z,terms",
        [(0.5, 1.0, -10.0, 21), (0.5, 1.0, -100.0, 16), (1.0, 1.0, -10.0, 1),
         (0.0, 2.0, 0.5, 1), (0.7, 1.3, 0.0, 1)],
    )
    def test_term_count_by_route(self, alpha, beta, z, terms):
        # contour nodes, asymptotic terms, or 1 for a closed form
        assert mittag_leffler_terms(MLParams(alpha, beta), z)[1] == terms

    @pytest.mark.parametrize(
        "alpha,beta", [(0.3, 1.0), (0.7, 1.2), (1.0, 1.0), (1.0, 2.0), (2.0, 0.5)]
    )
    def test_series_matches_scalar_loop(self, alpha, beta):
        # same stop term, same errors; values move by the rounding of exp
        for tol, max_terms in ((1e-15, 2000), (1e-8, 2000), (1e-15, 30)):
            params = MLParams(alpha, beta, tol, max_terms)
            for z in np.concatenate([np.linspace(-1.0, 1.0, 41), np.linspace(1.0, 50.0, 50),
                                     np.linspace(-60.0, -1.0, 60)]).tolist():
                if z == 0.0 or (z < -1.0 and (alpha < 1.0 or alpha == beta == 1.0)):
                    continue
                ref = ml_scalar_series(params, z)
                if isinstance(ref[0], str):
                    with pytest.raises(MLConvergenceError, match=ref[0]) as info:
                        mittag_leffler_terms(params, z)
                    assert info.value.terms == ref[2]
                    continue
                value, terms = mittag_leffler_terms(params, z)
                assert terms == ref[1]
                assert abs(value - ref[0]) <= 50 * 2.0**-52 * ref[2]

    def test_array_raises_for_first_failing_element(self):
        # E_{1,2}(-30) cancels at term 109, E_{1,2}(800) overflows later on
        params = MLParams(1.0, 2.0)
        with pytest.raises(MLConvergenceError, match=r"\(-30\): the series cancelled"):
            mittag_leffler(params, [0.5, -30.0, 800.0])
        with pytest.raises(MLConvergenceError, match=r"\(800\) overflows"):
            mittag_leffler(params, [800.0, -30.0])
        # E_{1,2}(1e10) overflows at term 35, long before E_{1,2}(20) runs
        # out of terms; the lower index is reported either way
        short = MLParams(1.0, 2.0, max_terms=50)
        with pytest.raises(MLConvergenceError, match=r"\(20\) did not converge in 50 terms"):
            mittag_leffler(short, [20.0, 1e10])
        with pytest.raises(MLConvergenceError, match=r"\(1e\+10\) overflows float64 at term 35"):
            mittag_leffler(short, [1e10, 20.0])
        # failures more than one chunk of points apart
        with pytest.raises(MLConvergenceError, match=r"\(800\) overflows"):
            mittag_leffler(params, [800.0] + [0.5] * 5000 + [-30.0])

    def test_large_negative_argument_alternating(self):
        # cos(5) through the alpha = 2 reduction exercises cancellation
        got = mittag_leffler(MLParams(2.0, 1.0), -25.0)
        assert got == pytest.approx(math.cos(5.0), rel=1e-10)
