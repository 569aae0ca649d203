import math

import numpy as np
import pytest

from psifrac import (
    ContractionReport,
    DivergenceError,
    FracParams,
    SampledFunction,
    TransformedGrid,
    VolterraProblem,
    contraction_report,
    make_builtin,
    picard_solve,
    psi_frac_integral,
)
from psifrac import _quadrature
from psifrac.frac_ops import _composed_op

G = math.gamma


def make_problem(w, n=256, mu=0.5, nu=0.5, phi=np.sin, t_dependent=False):
    kernel = make_builtin("identity", (), (0.0, 1.0))
    return VolterraProblem(
        phi=phi,
        integrand=w,
        p=FracParams(mu, nu),
        kernel=kernel,
        a=0.0,
        b=1.0,
        n=n,
        t_dependent=t_dependent,
    )


class TestPicardBasics:
    def test_zero_integrand_converges_immediately(self):
        problem = make_problem(lambda t, s, x: np.zeros_like(x))
        trace = picard_solve(problem, tol=1e-12)
        assert trace.converged
        assert trace.iterations == 1
        grid = trace.solution.grid
        assert np.array_equal(trace.solution.values, np.sin(grid.x_nodes))
        assert trace.residual == 0.0

    def test_constant_integrand_closed_form(self):
        c = 0.8
        problem = make_problem(lambda t, s, x: np.full_like(x, c))
        trace = picard_solve(problem, tol=1e-12)
        assert trace.converged
        grid = trace.solution.grid
        # x = phi + c * J(1) and the composed integral of 1 is z^mu/Gamma(1+mu)
        ref = np.sin(grid.x_nodes) + c * grid.x_nodes**0.5 / G(1.5)
        err = np.max(np.abs(trace.solution.values[1:] - ref[1:]))
        assert err <= 1e-10

    def test_scalar_returning_phi_and_integrand(self):
        # constant callables may return a scalar; it is broadcast to the grid
        scalar = make_problem(lambda t, s, x: 0.8, phi=lambda x: 2.0)
        array = make_problem(
            lambda t, s, x: np.full_like(x, 0.8), phi=lambda x: np.full_like(x, 2.0)
        )
        got = picard_solve(scalar, tol=1e-12)
        ref = picard_solve(array, tol=1e-12)
        assert got.converged and got.iterations == ref.iterations
        assert np.array_equal(got.solution.values, ref.solution.values)

    def test_non_finite_phi_rejected(self):
        problem = make_problem(lambda t, s, x: x, phi=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ValueError):
            picard_solve(problem, tol=1e-8)

    def test_tol_must_be_positive(self):
        problem = make_problem(lambda t, s, x: np.zeros_like(x))
        with pytest.raises(ValueError):
            picard_solve(problem, tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_must_be_positive(self, max_iter):
        # no sweep would run and phi would come back as the solution
        problem = make_problem(lambda t, s, x: np.zeros_like(x))
        with pytest.raises(ValueError):
            picard_solve(problem, tol=1e-8, max_iter=max_iter)

    def test_integrand_cannot_write_into_the_iterate(self):
        # phi and every later iterate are read-only, as SampledFunction values
        calls = []

        def w(t, s, x):
            calls.append(t)
            if len(calls) > 1:
                x[0] = 0.0
            return -0.5 * x

        with pytest.raises(ValueError, match="read-only"):
            picard_solve(make_problem(w, n=64), tol=1e-12)
        assert len(calls) == 2

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            make_problem(lambda t, s, x: x, n=4)

    def test_interval_orientation(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        with pytest.raises(ValueError):
            VolterraProblem(
                phi=np.sin,
                integrand=lambda t, s, x: x,
                p=FracParams(0.5, 0.5),
                kernel=kernel,
                a=1.0,
                b=0.0,
                n=64,
            )


class TestLinearProblem:
    LAM = 0.5

    def solve(self, x0=None, tol=1e-8, n=512):
        problem = make_problem(lambda t, s, x: self.LAM * x, n=n)
        return picard_solve(problem, tol=tol, max_iter=60, x0=x0)

    def test_strictly_decreasing_updates(self):
        trace = self.solve()
        assert trace.converged
        diffs = trace.sup_diffs
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_residual_within_twice_tolerance(self):
        trace = self.solve()
        assert trace.residual <= 2e-8

    def test_initial_guess_independence(self):
        trace_phi = self.solve()
        grid = trace_phi.solution.grid
        zero_seed = SampledFunction(grid, np.zeros(grid.n + 1))
        trace_zero = self.solve(x0=zero_seed)
        gap = np.max(np.abs(trace_phi.solution.values - trace_zero.solution.values))
        assert gap <= 1e-8

    def test_update_ratio_below_operator_bound(self):
        # successive updates contract at least as fast as
        # lam * sup J(1) = lam * (psi(b)-psi(a))^mu / Gamma(1+mu)
        trace = self.solve()
        bound = self.LAM * 1.0**0.5 / G(1.5)
        ratios = [b / a for a, b in zip(trace.sup_diffs, trace.sup_diffs[1:])]
        assert all(r <= bound * (1.0 + 1e-9) for r in ratios)
        # the tabulated delta = 1 value also bounds the observed ratios here
        # (empirically: the realized contraction is stronger than either bound)
        from psifrac import FracParams, PowerFunctionSpec, power_psi_frac_integral

        kernel = make_builtin("identity", (), (0.0, 1.0))
        spec = PowerFunctionSpec(1.0, kernel, 0.0)
        tabulated = self.LAM * float(
            power_psi_frac_integral(spec, FracParams(0.5, 0.5), 1.0)
        )
        assert max(ratios) <= tabulated

    def test_grid_refinement_stability(self):
        coarse = self.solve(n=256).solution
        fine = self.solve(n=512).solution
        gap = abs(coarse.values[-1] - fine.values[-1])
        assert gap <= 1e-4

    def test_wrong_seed_grid_rejected(self):
        kernel = make_builtin("identity", (), (0.0, 1.0))
        other = TransformedGrid.build(kernel, 0.0, 1.0, 128)
        seed = SampledFunction(other, np.zeros(129))
        with pytest.raises(ValueError):
            self.solve(x0=seed)


class TestDivergenceHandling:
    def test_runaway_iterates_raise(self):
        problem = make_problem(lambda t, s, x: 1e6 * x + 1e6)
        with pytest.raises(DivergenceError) as info:
            picard_solve(problem, tol=1e-8, max_iter=30)
        assert info.value.iteration >= 1

    def test_nan_integrand_raises(self):
        problem = make_problem(lambda t, s, x: np.full_like(x, np.nan))
        with pytest.raises(DivergenceError):
            picard_solve(problem, tol=1e-8)

    @pytest.mark.parametrize("t_dependent", [False, True], ids=["fast", "t_dependent"])
    def test_finite_integrand_with_nan_operator_output_diverges(self, t_dependent):
        # the slopes +-3.4e308 overflow, so J[W] is NaN; this once raised
        # ValueError from the sampled-function check after numpy warnings
        def w(t, s, x):
            return np.where(np.arange(x.size) % 2, 1.7e308, -1.7e308)

        problem = make_problem(w, n=64, t_dependent=t_dependent)
        with pytest.raises(DivergenceError, match="divergence guard") as info:
            picard_solve(problem, tol=1e-8)
        assert info.value.iteration == 1

    def test_nonconvergence_returns_trace(self):
        problem = make_problem(lambda t, s, x: 0.9 * x)
        trace = picard_solve(problem, tol=1e-15, max_iter=2)
        assert not trace.converged
        assert trace.iterations == 2


class TestTDependentKernel:
    def test_frozen_t_matches_fast_path_for_t_free_kernel(self):
        c = 0.4
        slow = make_problem(
            lambda t, s, x: np.full_like(x, c), n=64, t_dependent=True
        )
        fast = make_problem(lambda t, s, x: np.full_like(x, c), n=64)
        a = picard_solve(slow, tol=1e-12).solution.values
        b = picard_solve(fast, tol=1e-12).solution.values
        assert np.max(np.abs(a - b)) <= 1e-13

    def test_genuinely_t_dependent_kernel(self):
        # W(t, s, x) = t: solution x(t) = phi(t) + t * z^mu/Gamma(1+mu)
        problem = make_problem(
            lambda t, s, x: np.full_like(x, t), n=64, t_dependent=True
        )
        trace = picard_solve(problem, tol=1e-12)
        grid = trace.solution.grid
        ref = np.sin(grid.x_nodes) + grid.x_nodes * grid.x_nodes**0.5 / G(1.5)
        assert np.max(np.abs(trace.solution.values[1:] - ref[1:])) <= 1e-10


    def test_one_sweep_is_the_frozen_row_sum(self):
        # from x0 = phi one sweep gives phi_i + sum_j K[i, j] W(t_i, s_j, phi_j),
        # where column j of K is the composed integral of the j-th unit vector
        def w(t, s, x):
            return np.cos(3.0 * (t - s)) * x + t * s

        problem = make_problem(w, n=48, t_dependent=True)
        trace = picard_solve(problem, tol=1e-12, max_iter=1)
        grid = trace.solution.grid
        k = np.column_stack(
            [psi_frac_integral(SampledFunction(grid, e), problem.p).values for e in np.eye(49)]
        )
        s, phi = grid.x_nodes, np.sin(grid.x_nodes)
        ref = phi + np.array([k[i] @ w(t, s, phi) for i, t in enumerate(s)])
        assert np.max(np.abs(trace.solution.values - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestTDependentContract:
    # 301 nodes: one full block of frozen-t rows and a short one
    def test_blocks_match_per_row_full_apply(self):
        def w(t, s, x):
            return np.cos(t - s) * x * -0.5

        problem = make_problem(w, n=300, t_dependent=True)
        trace = picard_solve(problem, tol=1e-12)
        assert trace.converged
        grid = trace.solution.grid
        op = _composed_op(problem.p, grid)
        phi = x = np.sin(grid.x_nodes)
        for _ in range(trace.iterations):
            x = phi + np.array([op(w(t, grid.x_nodes, x))[i] for i, t in enumerate(grid.x_nodes)])
        assert np.max(np.abs(trace.solution.values - x)) <= 1e-14 * np.max(np.abs(x))

    def test_scalar_return_broadcasts(self):
        scalar = make_problem(lambda t, s, x: 0.4, n=64, t_dependent=True)
        array = make_problem(lambda t, s, x: np.full_like(x, 0.4), n=64, t_dependent=True)
        a = picard_solve(scalar, tol=1e-12).solution.values
        b = picard_solve(array, tol=1e-12).solution.values
        assert np.array_equal(a, b)

    def test_wrong_length_raises(self):
        problem = make_problem(lambda t, s, x: np.ones(5), n=64, t_dependent=True)
        with pytest.raises(ValueError):
            picard_solve(problem, tol=1e-12)

    def test_nan_in_one_row_diverges(self):
        # node 270 lies in the second block of rows
        nodes = make_problem(None, n=300).grid().x_nodes

        def w(t, s, x):
            return np.full_like(x, np.nan) if t == nodes[270] else -0.5 * x

        problem = make_problem(w, n=300, t_dependent=True)
        with pytest.raises(DivergenceError, match=r"non-finite values \(iterate 1\)"):
            picard_solve(problem, tol=1e-12)

    def test_t_is_a_python_float(self):
        seen = set()

        def w(t, s, x):
            seen.add(type(t))
            return math.cos(t) * x * -0.5

        trace = picard_solve(make_problem(w, n=64, t_dependent=True), tol=1e-12)
        assert trace.converged and seen == {float}


class TestOperatorReuse:
    @pytest.mark.parametrize("t_dependent", [False, True], ids=["fast", "t_dependent"])
    def test_one_weight_table_per_solve(self, monkeypatch, t_dependent):
        # every sweep and the residual reuse the operator built at the start
        built = []
        table = _quadrature._pwconst_kernel

        def counting(s, n):
            built.append((s, n))
            return table(s, n)

        monkeypatch.setattr(_quadrature, "_pwconst_kernel", counting)
        problem = make_problem(lambda t, s, x: -0.5 * x, n=64, t_dependent=t_dependent)
        trace = picard_solve(problem, tol=1e-12)
        assert trace.converged and trace.iterations > 1
        assert len(built) == 1


class TestContractionReport:
    def test_zero_lipschitz(self):
        problem = make_problem(lambda t, s, x: np.zeros_like(x))
        report = contraction_report(problem, 0.0)
        assert isinstance(report, ContractionReport)
        assert report.factor == 0.0
        assert report.contractive

    def test_half_lipschitz_factor(self):
        problem = make_problem(lambda t, s, x: 0.5 * x)
        report = contraction_report(problem, 0.5)
        assert report.A == pytest.approx(1.3519564801345694, rel=1e-14)
        assert report.factor == pytest.approx(0.5 / 1.3519564801345694, rel=1e-14)
        assert report.contractive

    def test_noncontractive_verdict_does_not_block_solver(self):
        problem = make_problem(lambda t, s, x: 0.9 * x)
        report = contraction_report(problem, 2.0)
        assert not report.contractive
        trace = picard_solve(problem, tol=1e-10, max_iter=3)
        assert trace.iterations == 3  # solver ran anyway

    def test_negative_lipschitz_rejected(self):
        problem = make_problem(lambda t, s, x: np.zeros_like(x))
        with pytest.raises(ValueError):
            contraction_report(problem, -1.0)
