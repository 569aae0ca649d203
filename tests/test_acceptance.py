"""Acceptance suite: one check (or check family) per numbered criterion,
each printing a PASS/FAIL line (run with ``pytest -s`` to see them all).

Three check families are marked ``xfail(strict=True)``: the tabulated
four-Gamma closed form for the composed integral, the product rule with an
unshifted correction order, and the eigen/residual relations in their
type-nu < 1 reading.  Each of those encodes an identity that contradicts the defining
compositions themselves (the derivations contract to different formulas),
so the numerics -- which converge to the compositions -- cannot and should
not match them.  Every such check is paired with a green companion against
the contraction-consistent form, so the discretization quality is still
pinned at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from psifrac import (
    FracParams,
    MLParams,
    PowerFunctionSpec,
    SampledFunction,
    TransformedGrid,
    VolterraProblem,
    bound_constant_A,
    kernel_from_id,
    limit_probe,
    make_builtin,
    mittag_leffler,
    picard_solve,
    power_hilfer_derivative,
    power_integral,
    power_psi_frac_integral,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    relative_sup_error,
)
from psifrac.cli import main as cli_main

G = math.gamma

KERNEL_CASES = (
    ("identity", 0.0, 1.0),
    ("sqrt_shift:1", 0.0, 3.0),
    ("log", 1.0, math.e),
)
MUS = (0.1, 0.5, 0.9)
NUS = (0.0, 0.5, 1.0)
DELTAS = (1.0, 1.5, 2.0)
N_GRID = 2048


def report(tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}" + (f" ({detail})" if detail else ""))


def power_samples(grid, delta):
    z = grid.tau_nodes - grid.tau_nodes[0]
    vals = z ** (delta - 1.0)
    if delta == 1.0:
        vals = np.ones_like(z)
    return SampledFunction(grid, vals)


def grids_for_cases(n=N_GRID):
    for kid, a, b in KERNEL_CASES:
        kernel = kernel_from_id(kid, (a, b))
        yield kid, kernel, TransformedGrid.build(kernel, a, b, n)


# --------------------------------------------------------------------------
# criterion 1: special functions
# --------------------------------------------------------------------------


def test_c1_special_functions():
    t0 = time.perf_counter()
    for n in range(0, 16):
        assert __import__("psifrac").gamma(n + 1) == float(math.factorial(n))

    reductions = (
        (1.0, np.cosh, 1.0),
        (1.0, np.cos, -1.0),
        (2.0, lambda z: np.sinh(z) / z, 1.0),
        (2.0, lambda z: np.sin(z) / z, -1.0),
    )
    worst = 0.0
    for beta, ref, sign in reductions:
        params = MLParams(2.0, beta)
        for z in np.linspace(0.1, 5.0, 50):
            want = float(ref(z))
            got = mittag_leffler(params, sign * z * z)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10

    geom = MLParams(0.0)
    for z in np.linspace(-0.9, 0.9, 50):
        want = 1.0 / (1.0 - z)
        assert abs(mittag_leffler(geom, float(z)) - want) <= 1e-12 * abs(want)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("C1 special-function suite", True, f"worst ML error {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: power-family equivalence at n = 2048
# --------------------------------------------------------------------------


def test_c2_integral_power_family():
    t0 = time.perf_counter()
    worst = 0.0
    for kid, kernel, grid in grids_for_cases():
        for delta in DELTAS:
            spec = PowerFunctionSpec(delta, kernel, grid.a)
            f = power_samples(grid, delta)
            for mu in MUS:
                num = psi_integral(f, mu)
                ref = power_integral(spec, mu, grid.x_nodes)
                worst = max(worst, relative_sup_error(num, ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3
    report("C2a integral vs power closed form <= 5e-3", ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert ok and elapsed < 120.0


def test_c2_hilfer_power_family_nondegenerate():
    t0 = time.perf_counter()
    worst = 0.0
    for kid, kernel, grid in grids_for_cases():
        for delta in DELTAS:
            spec = PowerFunctionSpec(delta, kernel, grid.a)
            f = power_samples(grid, delta)
            for mu in MUS:
                for nu in NUS:
                    p = FracParams(mu, nu)
                    if abs(p.xi - delta) < 1e-12:
                        continue  # annihilated power, checked separately
                    num = psi_hilfer_derivative(f, p)
                    ref = power_hilfer_derivative(spec, p, grid.x_nodes)
                    worst = max(worst, relative_sup_error(num, ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-2
    report("C2b two-type derivative vs closed form <= 2e-2", ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert ok and elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "delta = xi cells: the two-type derivative annihilates z^(xi-1) "
        "(for delta = 1, nu = 1 the inner stage is the identity and d/dtau "
        "kills constants), while the power formula Gamma(delta)/Gamma(delta-mu) "
        "z^(delta-mu-1) predicts a nonzero singular output; the formula simply "
        "does not extend to these cells"
    ),
)
def test_c2_hilfer_power_family_degenerate_cells():
    worst = 0.0
    for kid, kernel, grid in grids_for_cases():
        spec = PowerFunctionSpec(1.0, kernel, grid.a)
        f = power_samples(grid, 1.0)
        for mu in MUS:
            p = FracParams(mu, 1.0)  # xi = 1 = delta
            num = psi_hilfer_derivative(f, p)
            z = grid.tau_nodes - grid.tau_nodes[0]
            ref = np.zeros_like(z)
            ref[1:] = G(1.0) / G(1.0 - mu) * z[1:] ** (-mu)
            worst = max(worst, relative_sup_error(num, ref))
    report("C2b' degenerate cells vs closed form", worst <= 2e-2, f"worst {worst:.2e}")
    assert worst <= 2e-2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the tabulated four-Gamma form M z^(delta-mu+1) cannot equal the "
        "defining composition D^{(1-nu)(1-mu)} I^1 D^{nu(1-mu)}: applying the "
        "power rules stage by stage contracts the composition to "
        "Gamma(delta)/Gamma(delta+mu) z^(delta+mu-1) for every nu, which "
        "differs in the exponent (delta+mu-1 vs delta-mu+1) except at mu = 1; "
        "the numerics converge to the composition, so the gap is O(1)"
    ),
)
def test_c2_composed_integral_vs_tabulated_form():
    worst = 0.0
    for kid, kernel, grid in grids_for_cases():
        for delta in DELTAS:
            spec = PowerFunctionSpec(delta, kernel, grid.a)
            f = power_samples(grid, delta)
            for mu in MUS:
                for nu in NUS:
                    p = FracParams(mu, nu)
                    num = psi_frac_integral(f, p)
                    ref = power_psi_frac_integral(spec, p, grid.x_nodes)
                    worst = max(worst, relative_sup_error(num, ref))
    report("C2c composed integral vs tabulated form <= 2e-2", worst <= 2e-2, f"worst {worst:.2e}")
    assert worst <= 2e-2


def test_c2_composed_integral_vs_contracted_form():
    t0 = time.perf_counter()
    worst = 0.0
    for kid, kernel, grid in grids_for_cases():
        for delta in DELTAS:
            spec = PowerFunctionSpec(delta, kernel, grid.a)
            f = power_samples(grid, delta)
            for mu in MUS:
                for nu in NUS:
                    num = psi_frac_integral(f, FracParams(mu, nu))
                    ref = power_integral(spec, mu, grid.x_nodes)
                    worst = max(worst, relative_sup_error(num, ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-2
    report(
        "C2c' composed integral vs contracted closed form <= 2e-2",
        ok,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok and elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 3: convergence orders between n = 512 and n = 1024
# --------------------------------------------------------------------------


def far_half_error(num: np.ndarray, ref: np.ndarray) -> float:
    """Relative sup over the half of the grid away from the base point; near
    the base the data's own cusp caps every scheme at first order."""
    k = num.size // 2
    return float(np.max(np.abs(num[k:] - ref[k:])) / np.max(np.abs(ref[k:])))


def observed_order(op, reference) -> float:
    errs = []
    kernel = make_builtin("identity", (), (0.0, 1.0))
    spec = PowerFunctionSpec(1.5, kernel, 0.0)
    for n in (512, 1024):
        grid = TransformedGrid.build(kernel, 0.0, 1.0, n)
        f = power_samples(grid, 1.5)
        num = op(f)
        ref = reference(spec, grid.x_nodes)
        errs.append(far_half_error(num.values, np.asarray(ref)))
    return math.log2(errs[0] / errs[1])


def test_c3_convergence_orders():
    order_int = observed_order(
        lambda f: psi_integral(f, 0.5), lambda s, x: power_integral(s, 0.5, x)
    )
    ok_int = order_int >= 1.5
    report("C3 integral order >= 1.5", ok_int, f"observed {order_int:.3f}")

    p = FracParams(0.5, 0.5)
    order_frac = observed_order(
        lambda f: psi_frac_integral(f, p), lambda s, x: power_integral(s, 0.5, x)
    )
    ok_frac = order_frac >= 0.8
    report("C3 composed-integral order >= 0.8", ok_frac, f"observed {order_frac:.3f}")
    assert ok_int and ok_frac


@pytest.mark.xfail(
    strict=True,
    reason=(
        "order measured against the tabulated four-Gamma form stalls at zero: "
        "the scheme converges to the contracted composition, so the error "
        "against the tabulated form saturates at an O(1) constant"
    ),
)
def test_c3_composed_order_vs_tabulated_form():
    p = FracParams(0.5, 0.5)
    order = observed_order(
        lambda f: psi_frac_integral(f, p),
        lambda s, x: power_psi_frac_integral(s, p, x),
    )
    report("C3' composed order vs tabulated form >= 0.8", order >= 0.8, f"observed {order:.3f}")
    assert order >= 0.8


# --------------------------------------------------------------------------
# criterion 4: operator algebra on f = sin(psi(x) - psi(a)) at n = 2048
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smooth_setup():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, N_GRID)
    z = grid.tau_nodes - grid.tau_nodes[0]
    return grid, SampledFunction(grid, np.sin(z))


def test_c4_semigroup(smooth_setup):
    _, f = smooth_setup
    err = relative_sup_error(
        psi_integral(psi_integral(f, 0.5), 0.6), psi_integral(f, 1.1)
    )
    report("C4 semigroup <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


def test_c4_inversion(smooth_setup):
    _, f = smooth_setup
    p = FracParams(0.5, 0.5)
    err = relative_sup_error(psi_hilfer_derivative(psi_integral(f, 0.5), p), f)
    report("C4 inversion <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


def test_c4_composition_vanishing_boundary(smooth_setup):
    # f(a) = 0 makes the boundary term of the composition identity vanish
    _, f = smooth_setup
    p = FracParams(0.5, 0.5)
    err = relative_sup_error(psi_integral(psi_hilfer_derivative(f, p), 0.5), f)
    report("C4 composition (boundary-free) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2

    err2 = relative_sup_error(psi_frac_integral(psi_hilfer_derivative(f, p), p), f)
    report("C4 composed-integral composition <= 2e-2", err2 <= 2e-2, f"err {err2:.2e}")
    assert err2 <= 2e-2


def test_c4_integer_mixing(smooth_setup):
    _, f = smooth_setup
    p = FracParams(0.5, 0.5)
    err = relative_sup_error(
        psi_frac_integral(psi_integral_order1(f), p), psi_integral(f, 1.5)
    )
    report("C4 integer mixing <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


def test_c4_product_rule_contracted(smooth_setup):
    # I^mu(psi f) = psi I^mu f - mu I^{mu+1} f  (the shifted-order identity
    # that the splitting psi(t) = psi(x) - (psi(x) - psi(t)) produces)
    grid, f = smooth_setup
    mu = 0.5
    psi_vals = grid.tau_nodes
    lhs = psi_integral(SampledFunction(grid, psi_vals * f.values), mu)
    rhs = psi_vals * psi_integral(f, mu).values - mu * psi_integral(f, mu + 1.0).values
    err = relative_sup_error(lhs, rhs)
    report("C4 product rule (shifted order) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "keeping the correction term at order mu cannot hold: the weight "
        "splitting psi(t) = psi(x) - (psi(x) - psi(t)) produces mu I^{mu+1} f, "
        "not mu I^mu f (already the classical mu = 1 case fails: I(t f) "
        "differs from t I f - I f), so the discrepancy is O(1)"
    ),
)
def test_c4_product_rule_unshifted_order(smooth_setup):
    grid, f = smooth_setup
    mu = 0.5
    psi_vals = grid.tau_nodes
    lhs = psi_integral(SampledFunction(grid, psi_vals * f.values), mu)
    rhs = psi_vals * psi_integral(f, mu).values - mu * psi_integral(f, mu).values
    err = relative_sup_error(lhs, rhs)
    report("C4 product rule (unshifted order) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


def test_c4_limit_probes(smooth_setup):
    _, f = smooth_setup
    to_int = limit_probe(f, "mu_to_1")
    to_id = limit_probe(f, "identity")
    ok = to_int.monotone and to_id.monotone
    report(
        "C4 limit probes monotone",
        ok,
        f"to order-1 {to_int.distances[-1]:.2e}, to identity {to_id.distances[-1]:.2e}",
    )
    assert ok


# --------------------------------------------------------------------------
# criterion 5: Mittag-Leffler eigenfunction at n = 4096
# --------------------------------------------------------------------------


def ml_function(grid, mu):
    params = MLParams(alpha=mu)
    z = grid.tau_nodes - grid.tau_nodes[0]
    vals = mittag_leffler(params, z**mu)
    return SampledFunction(grid, vals)


def weighted_relative_error(num, ref, p, grid):
    z = grid.tau_nodes - grid.tau_nodes[0]
    w = np.ones_like(z)
    if p.xi < 1.0:
        w[1:] = z[1:] ** (1.0 - p.xi)
    diff = np.abs(w * (num.values - ref))[3:]
    scale = np.abs(w * ref)[3:]
    return float(np.max(diff) / np.max(scale))


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
def test_c5_eigen_relation_type_one(mu):
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 4096)
    f = ml_function(grid, mu)
    p = FracParams(mu, 1.0)
    num = psi_hilfer_derivative(f, p)
    err = weighted_relative_error(num, f.values, p, grid)  # rate 1: target is f
    report(f"C5 eigen relation (type 1, mu={mu}) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "for type nu < 1 the derivative of the series' constant term survives "
        "as z^(-mu)/Gamma(1-mu), so E_mu(z^mu) is an eigenfunction only in "
        "the type-1 configuration; the weighted residual is O(1)"
    ),
)
def test_c5_eigen_relation_rl_type():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 4096)
    f = ml_function(grid, 0.5)
    p = FracParams(0.5, 0.5)
    num = psi_hilfer_derivative(f, p)
    err = weighted_relative_error(num, f.values, p, grid)
    report("C5' eigen relation (type 0.5) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_c5_composed_integral_of_ml(nu):
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 4096)
    f = ml_function(grid, 0.5)
    num = psi_frac_integral(f, FracParams(0.5, nu))
    err = relative_sup_error(num, f.values - 1.0)
    report(f"C5 composed integral of E_mu (nu={nu}) <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


# --------------------------------------------------------------------------
# criterion 6: Volterra solver
# --------------------------------------------------------------------------


def volterra_problem(w, n=512):
    kernel = make_builtin("identity", (), (0.0, 1.0))
    return VolterraProblem(
        phi=np.sin,
        integrand=w,
        p=FracParams(0.5, 0.5),
        kernel=kernel,
        a=0.0,
        b=1.0,
        n=n,
    )


def test_c6_volterra():
    t0 = time.perf_counter()

    trace = picard_solve(volterra_problem(lambda t, s, x: np.zeros_like(x)), tol=1e-12)
    ok_zero = trace.converged and trace.iterations == 1
    grid = trace.solution.grid
    ok_zero &= bool(np.array_equal(trace.solution.values, np.sin(grid.x_nodes)))
    report("C6 zero integrand converges in one sweep", ok_zero)

    lam = 0.5
    trace = picard_solve(volterra_problem(lambda t, s, x: lam * x), tol=1e-8, max_iter=60)
    diffs = trace.sup_diffs
    ok_dec = trace.converged and all(a > b for a, b in zip(diffs, diffs[1:]))
    report("C6 linear problem: strictly decreasing updates", ok_dec, f"{len(diffs)} sweeps")

    ok_res = trace.residual <= 2e-8
    report("C6 linear problem: residual <= 2 tol", ok_res, f"residual {trace.residual:.2e}")

    seed = SampledFunction(grid, np.zeros(grid.n + 1))
    trace0 = picard_solve(
        volterra_problem(lambda t, s, x: lam * x), tol=1e-8, max_iter=60, x0=seed
    )
    gap = float(np.max(np.abs(trace.solution.values - trace0.solution.values)))
    ok_seed = gap <= 1e-8
    report("C6 linear problem: seed independence <= tol", ok_seed, f"gap {gap:.2e}")

    elapsed = time.perf_counter() - t0
    report("C6 runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")
    assert ok_zero and ok_dec and ok_res and ok_seed and elapsed < 30.0


def test_c6_constant_integrand_vs_contracted_form():
    c = 0.8
    trace = picard_solve(volterra_problem(lambda t, s, x: np.full_like(x, c)), tol=1e-12)
    grid = trace.solution.grid
    ref = np.sin(grid.x_nodes) + c * grid.x_nodes**0.5 / G(1.5)
    err = float(np.max(np.abs(trace.solution.values[3:] - ref[3:])) / np.max(np.abs(ref[3:])))
    ok = err <= 2e-2
    report("C6' constant integrand vs contracted closed form <= 2e-2", ok, f"err {err:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the tabulated delta = 1 closed form predicts phi + c M z^(2-mu) while "
        "the composition gives phi + c z^mu/Gamma(1+mu); same exponent clash "
        "as the power-family check, so the solver output cannot match it"
    ),
)
def test_c6_constant_integrand_vs_tabulated_form():
    c = 0.8
    trace = picard_solve(volterra_problem(lambda t, s, x: np.full_like(x, c)), tol=1e-12)
    grid = trace.solution.grid
    kernel = grid.kernel
    p = FracParams(0.5, 0.5)
    spec = PowerFunctionSpec(1.0, kernel, 0.0)
    ref = np.sin(grid.x_nodes) + c * np.asarray(
        power_psi_frac_integral(spec, p, grid.x_nodes)
    )
    err = float(np.max(np.abs(trace.solution.values[3:] - ref[3:])) / np.max(np.abs(ref[3:])))
    report("C6'' constant integrand vs tabulated form <= 2e-2", err <= 2e-2, f"err {err:.2e}")
    assert err <= 2e-2


# --------------------------------------------------------------------------
# criterion 7: bound constants
# --------------------------------------------------------------------------


def test_c7_constants():
    rng = np.random.default_rng(17)
    kernel = make_builtin("identity", (), (0.0, 10.0))
    worst_id = 0.0
    worst_rec = 0.0
    for _ in range(50):
        mu = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.2, 9.5))
        p = FracParams(mu, nu)
        bb = nu * (1.0 - mu)
        a_const = bound_constant_A(p, kernel, 0.0, b)
        lhs = a_const * b ** (2.0 - mu) * G(1.0 + bb)
        rhs = G(1.0 - bb) * G(1.0 + 2.0 * bb + mu)
        worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))
        spec = PowerFunctionSpec(1.0, kernel, 0.0)
        worst_rec = max(
            worst_rec, abs(a_const * float(power_psi_frac_integral(spec, p, b)) - 1.0)
        )
    ok = worst_id <= 1e-12 and worst_rec <= 1e-12
    report("C7 constant identities <= 1e-12", ok, f"identity {worst_id:.2e}, reciprocity {worst_rec:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 8: figure data
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    assert cli_main(["figures", "--out-dir", str(out)]) == 0
    return out


def read_fig1(figure_dir):
    lines = (figure_dir / "fig1.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return header, rows


def test_c8_figure_files_written(figure_dir):
    for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
        assert (figure_dir / name).exists()
    header, rows = read_fig1(figure_dir)
    assert header[0] == "x" and header[-1] == "numeric_mu_0.5"
    ok = bool(np.all(rows[0, 1:] == 0.0))
    report("C8 figure columns vanish at the base point", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at x = 1 the tabulated values are 0.67103, 0.67565, 0.67598, "
        "0.67136, 0.66667 across the five orders: not monotone (the "
        "four-Gamma coefficient rises before it falls); only the contracted "
        "values Gamma(1.5)/Gamma(1.5+mu) decrease strictly"
    ),
)
def test_c8_tabulated_columns_decrease_at_one(figure_dir):
    _, rows = read_fig1(figure_dir)
    at_one = rows[-1, 1:6]
    ok = bool(np.all(np.diff(at_one) < 0))
    report("C8 tabulated curves strictly decreasing at x=1", ok, str(at_one))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "numeric column converges to the contracted composition "
        "Gamma(1.5)/Gamma(2) z, not to the tabulated M z^2 curve; the "
        "relative gap is about 0.43"
    ),
)
def test_c8_numeric_column_vs_tabulated_column(figure_dir):
    _, rows = read_fig1(figure_dir)
    tab = rows[3:, 3]  # mu = 0.5 column
    num = rows[3:, 6]
    err = float(np.max(np.abs(num - tab)) / np.max(np.abs(tab)))
    report("C8 numeric vs tabulated column <= 5e-3", err <= 5e-3, f"err {err:.2e}")
    assert err <= 5e-3


def test_c8_companions(figure_dir):
    _, rows = read_fig1(figure_dir)
    xs = rows[3:, 0]
    num = rows[3:, 6]
    contracted = G(1.5) / G(2.0) * xs  # identity kernel: z = x
    err = float(np.max(np.abs(num - contracted)) / np.max(np.abs(contracted)))
    ok_num = err <= 5e-3
    report("C8' numeric column vs contracted form <= 5e-3", ok_num, f"err {err:.2e}")

    at_one = [G(1.5) / G(1.5 + mu) for mu in (0.1, 0.3, 0.5, 0.8, 1.0)]
    ok_dec = all(a > b for a, b in zip(at_one, at_one[1:]))
    report("C8' contracted values strictly decreasing at x=1", ok_dec)
    assert ok_num and ok_dec


# --------------------------------------------------------------------------
# criterion 9: Malthus model
# --------------------------------------------------------------------------


def test_c9_classical_curve():
    from psifrac import MalthusSpec, malthus_curve

    kernel = make_builtin("identity", (), (0.0, 2.0))
    spec = MalthusSpec(
        n0=100.0, lam=0.3, p=FracParams(1.0, 1.0), kernel=kernel, horizon=2.0
    )
    ts, ns = malthus_curve(spec, 200)
    exact = 100.0 * np.exp(0.3 * ts)
    err = float(np.max(np.abs(ns - exact) / exact))
    ok = err <= 1e-6
    report("C9 classical curve <= 1e-6", ok, f"err {err:.2e}")
    assert ok


def test_c9_fractional_residual_type_one():
    from psifrac import MalthusSpec, malthus_residual, malthus_solution

    kernel = make_builtin("identity", (), (0.0, 1.0))
    spec = MalthusSpec(
        n0=1.0, lam=1.0, p=FracParams(0.5, 1.0), kernel=kernel, horizon=1.0
    )
    res = malthus_residual(spec, 4096)
    scale = spec.lam * malthus_solution(spec, 1.0)
    ok = res <= 2e-2 * scale
    report("C9 fractional residual (type 1) <= 2e-2", ok, f"ratio {res / scale:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with type nu = 0.5 the Mittag-Leffler curve does not solve the "
        "equation: the constant initial value leaves an exact "
        "N0 z^(-mu)/Gamma(1-mu) residue (weighted ratio about 0.7), so the "
        "residual criterion holds only in the type-1 configuration"
    ),
)
def test_c9_fractional_residual_rl_type():
    from psifrac import MalthusSpec, malthus_residual, malthus_solution

    kernel = make_builtin("identity", (), (0.0, 1.0))
    spec = MalthusSpec(
        n0=1.0, lam=1.0, p=FracParams(0.5, 0.5), kernel=kernel, horizon=1.0
    )
    res = malthus_residual(spec, 4096)
    scale = spec.lam * malthus_solution(spec, 1.0)
    report("C9' fractional residual (type 0.5) <= 2e-2", res <= 2e-2 * scale, f"ratio {res / scale:.2e}")
    assert res <= 2e-2 * scale
