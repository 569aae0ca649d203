import math

import numpy as np
import pytest
from scipy.special import erfcx

from psifrac import (
    FracParams,
    MalthusSpec,
    MLParams,
    PowerFunctionSpec,
    make_builtin,
    malthus_curve,
    malthus_residual,
    malthus_solution,
    mittag_leffler,
    power_hilfer_derivative,
)

G = math.gamma


def make_spec(n0=100.0, lam=0.3, mu=0.5, nu=1.0, horizon=2.0, kernel=None):
    kernel = kernel or make_builtin("identity", (), (0.0, horizon))
    return MalthusSpec(n0=n0, lam=lam, p=FracParams(mu, nu), kernel=kernel, horizon=horizon)


class TestSolution:
    def test_initial_population(self):
        spec = make_spec()
        assert malthus_solution(spec, 0.0) == pytest.approx(100.0, rel=1e-15)

    def test_classical_boundary_matches_exponential(self):
        spec = make_spec(mu=1.0)
        got = malthus_solution(spec, 2.0)
        assert got == pytest.approx(182.2118800390509, rel=1e-12)

    def test_half_order_value(self):
        spec = make_spec(n0=1.0, lam=1.0, mu=0.5, horizon=1.0)
        got = malthus_solution(spec, 1.0)
        assert got == pytest.approx(mittag_leffler(MLParams(0.5), 1.0), rel=1e-14)

    def test_monotone_growth(self):
        for mu in (0.3, 0.7, 1.0):
            spec = make_spec(mu=mu)
            _, ns = malthus_curve(spec, 100)
            assert np.all(np.diff(ns) >= -1e-12 * np.abs(ns[1:]))

    def test_decay_rate_supported(self):
        spec = make_spec(lam=-0.5)
        assert malthus_solution(spec, 2.0) < 100.0

    def test_classical_consistency_sweep(self):
        # sup_t |N_(1-eps) - N0 e^(lam t)| decreases with eps
        n0, lam = 100.0, 0.3
        ts = np.linspace(0.0, 2.0, 41)
        exact = n0 * np.exp(lam * ts)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            spec = make_spec(mu=1.0 - eps)
            vals = np.array([malthus_solution(spec, float(t)) for t in ts])
            gaps.append(float(np.max(np.abs(vals - exact))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-2 * n0

    def test_array_of_times_matches_scalar_calls(self):
        kernel = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
        spec = make_spec(lam=-0.5, mu=0.3, horizon=3.0, kernel=kernel)
        ts = np.linspace(0.0, 3.0, 301)
        ref = [malthus_solution(spec, t) for t in ts.tolist()]
        assert np.array_equal(malthus_solution(spec, ts), ref)

    def test_decay_matches_erfcx(self):
        # lambda (psi(t) - psi(0))^mu reaches -3 sqrt(10), where the series
        # once cancelled and raised; N = N0 erfcx(3 sqrt(t)) at mu = 1/2
        spec = make_spec(lam=-3.0, mu=0.5, horizon=10.0)
        ts, ns = malthus_curve(spec, 20)
        ref = 100.0 * erfcx(3.0 * np.sqrt(ts))
        assert np.max(np.abs(ns - ref) / ref) <= 1e-12

    def test_domain_checks(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            malthus_solution(spec, 3.0)
        with pytest.raises(ValueError):
            malthus_solution(spec, np.array([0.0, 1.0, 2.5]))
        with pytest.raises(ValueError):
            make_spec(n0=-1.0)
        with pytest.raises(ValueError):
            make_spec(horizon=0.0)
        # kernels with a valid domain, so the spec's own checks are reached
        wide = make_builtin("identity", (), (-2.0, 1.0))
        for horizon in (0.0, -1.0):
            with pytest.raises(ValueError, match="^horizon must be positive$"):
                make_spec(horizon=horizon, kernel=wide)
        for domain in ((0.0, 1.0), (0.5, 3.0)):
            with pytest.raises(ValueError, match=r"^kernel domain must include \[0, horizon\]$"):
                make_spec(horizon=2.0, kernel=make_builtin("identity", (), domain))


    def test_population_overflow_raises(self):
        # the series is finite; only N0 times it passes float64
        spec = make_spec(n0=1e308, lam=5.0)
        with pytest.raises(ValueError, match=r"^N0 \* E_mu overflows float64 at t = 0\.5$"):
            malthus_solution(spec, np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="at t = 2$"):
            malthus_solution(spec, 2.0)
        assert malthus_solution(spec, 0.0) == 1e308
        assert np.all(np.isfinite(malthus_curve(make_spec(n0=1e308, lam=-5.0), 4)[1]))


class TestCurve:
    def test_shape_and_start(self):
        spec = make_spec()
        ts, ns = malthus_curve(spec, 50)
        assert ts.shape == (51,) and ns.shape == (51,)
        assert ns[0] == pytest.approx(100.0)

    def test_steps_must_not_be_negative(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="steps"):
            malthus_curve(spec, -1)
        ts, ns = malthus_curve(spec, 0)
        assert ts.tolist() == [0.0] and ns.tolist() == [100.0]


class TestResidual:
    def test_zero_rate_equals_derivative_of_constant(self):
        # lam = 0: the residual is exactly the weighted derivative of N0,
        # which the closed form gives as N0 z^(-mu)/Gamma(1-mu)
        spec = make_spec(lam=0.0, mu=0.5, nu=0.5, n0=2.0, horizon=1.0)
        got = malthus_residual(spec, 256)
        kernel = spec.kernel
        power = PowerFunctionSpec(1.0, kernel, 0.0)
        grid_z = np.linspace(0.0, 1.0, 257)
        weights = grid_z[3:] ** (1.0 - spec.p.xi)
        oracle = np.array(
            [power_hilfer_derivative(power, spec.p, float(x)) for x in grid_z[3:]]
        )
        expected = float(np.max(np.abs(weights * oracle * spec.n0)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_classical_limit_residual_small(self):
        # type-1 configuration: for nu < 1 the constant leading term keeps a
        # genuine z^(-mu)/Gamma(1-mu) residue even as mu approaches 1
        spec = make_spec(lam=0.3, mu=0.999, nu=1.0, horizon=1.0)
        res = malthus_residual(spec, 512)
        # close to |N' - lam N| of the exponential, which vanishes
        assert res <= 1e-2 * spec.n0

    def test_type_one_eigen_residual_small(self):
        spec = make_spec(n0=1.0, lam=1.0, mu=0.5, nu=1.0, horizon=1.0)
        res = malthus_residual(spec, 1024)
        scale = spec.lam * malthus_solution(spec, 1.0)
        assert res <= 2e-2 * scale

    def test_rl_type_residual_is_not_small(self):
        # for nu < 1 the Mittag-Leffler curve does not solve the equation:
        # the constant leading term leaves an N0 z^(-mu)/Gamma(1-mu) residue
        spec = make_spec(n0=1.0, lam=1.0, mu=0.5, nu=0.5, horizon=1.0)
        res = malthus_residual(spec, 1024)
        scale = spec.lam * malthus_solution(spec, 1.0)
        assert res > 0.1 * scale

    def test_grid_floor(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            malthus_residual(spec, 32)
