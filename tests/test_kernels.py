import math

import numpy as np
import pytest

from psifrac import KernelError, PsiKernel, kernel_from_id, make_builtin, validate
from psifrac.kernels import BUILTIN_FAMILIES, _z


def test_identity_values():
    k = make_builtin("identity", (), (0.0, 1.0))
    assert k.eval(0.5) == 0.5
    assert k.deriv(0.5) == 1.0
    assert k.inverse(0.25) == 0.25


def test_sqrt_shift_matches_closed_form():
    k = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
    assert k.eval(0.0) == 1.0
    assert k.eval(3.0) == 2.0
    assert k.inverse(2.0) == pytest.approx(3.0, rel=1e-15)


def test_log_inverse_pair():
    k = make_builtin("log", (), (1.0, math.e))
    assert float(k.eval(math.e)) == pytest.approx(1.0, rel=1e-15)
    assert float(k.inverse(1.0)) == pytest.approx(math.e, rel=1e-15)


def test_exp_and_power_families():
    k = make_builtin("exp", (), (-1.0, 1.0))
    assert float(k.eval(0.0)) == 1.0
    k = make_builtin("power", (2.0,), (0.5, 2.0))
    assert float(k.eval(1.5)) == 2.25
    assert float(k.deriv(1.5)) == 3.0
    assert float(k.inverse(4.0)) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize(
    "name,params,domain",
    [
        ("nosuch", (), (0.0, 1.0)),
        ("log", (), (0.0, 1.0)),        # psi(0) = -inf
        ("sqrt_shift", (1.0,), (-1.0, 1.0)),
        ("power", (-2.0,), (0.5, 1.0)),
        ("power", (0.5,), (0.0, 1.0)),  # infinite derivative at 0
        ("sqrt_shift", (), (0.0, 1.0)),  # missing parameter
    ],
)
def test_rejected_families(name, params, domain):
    with pytest.raises(KernelError):
        make_builtin(name, params, domain)


@pytest.mark.parametrize(
    "kid,domain,message",
    [
        ("identity:5", (0.0, 1.0), "identity takes no parameter"),
        ("exp:1:2", (0.0, 1.0), "exp takes no parameter"),
        ("sqrt_shift:1", (-2.0, 1.0), "sqrt_shift:1 needs x_lo > -1 for a finite positive derivative"),
        ("sqrt_shift:nan", (0.0, 1.0), "sqrt_shift:nan needs x_lo > nan for a finite positive derivative"),
        ("log", (0.0, 1.0), "log kernel needs x_lo > 0"),
        ("power:-1", (0.5, 1.0), "power kernel exponent must be positive"),
        ("power:2", (0.0, 1.0), "power:2 needs x_lo > 0"),
        ("nosuch", (0.0, 1.0), "unknown kernel family 'nosuch'; known: identity, sqrt_shift, log, exp, power"),
        ("sqrt_shift", (0.0, 1.0), "sqrt_shift takes one parameter (the shift c)"),
        ("power", (1.0, 2.0), "power takes one parameter (the exponent p)"),
    ],
)
def test_rejected_id_error_text(kid, domain, message):
    with pytest.raises(KernelError) as info:
        kernel_from_id(kid, domain)
    assert str(info.value) == message


# family -> (params, domain, label, psi, psi', psi^-1), the maps in closed form
CLOSED_FORMS = {
    "identity": ((), (0.0, 1.5), "identity", lambda x: x, np.ones_like, lambda u: u),
    "sqrt_shift": (
        (1.0,), (0.0, 1.5), "sqrt_shift:1",
        lambda x: np.sqrt(x + 1.0), lambda x: 0.5 / np.sqrt(x + 1.0), lambda u: u**2 - 1.0,
    ),
    "log": ((), (1.0, 2.5), "log", np.log, lambda x: 1.0 / x, np.exp),
    "exp": ((), (0.0, 1.5), "exp", np.exp, np.exp, np.log),
    "power": (
        (0.5,), (1.0, 2.5), "power:0.5",
        lambda x: x**0.5, lambda x: 0.5 * x**-0.5, lambda u: u**2.0,
    ),
}


def test_every_family_has_closed_forms():
    assert tuple(CLOSED_FORMS) == BUILTIN_FAMILIES


@pytest.mark.parametrize("family", BUILTIN_FAMILIES)
def test_builtin_label_and_maps_bit_for_bit(family):
    params, domain, label, *forms = CLOSED_FORMS[family]
    k = make_builtin(family, params, domain)
    assert k.name == label
    xs = np.linspace(*domain, 11)
    us = forms[0](xs)
    for got, want, arg in zip((k.eval, k.deriv, k.inverse), forms, (xs, xs, us)):
        for a in (arg, float(arg[3])):  # an array and a float
            have, ref = np.asarray(got(a)), np.asarray(want(np.float64(a)))
            assert have.dtype == np.float64 and have.shape == ref.shape
            assert have.tobytes() == ref.tobytes()


def test_kernel_from_id_parses_params():
    k = kernel_from_id("sqrt_shift:1", (0.0, 3.0))
    assert k.eval(3.0) == 2.0
    k = kernel_from_id("power:2", (0.5, 2.0))
    assert float(k.eval(2.0)) == 4.0
    with pytest.raises(KernelError):
        kernel_from_id("bogus:1", (0.0, 1.0))


def test_empty_domain_rejected():
    with pytest.raises(KernelError):
        make_builtin("identity", (), (1.0, 1.0))


@pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 1.0)])
def test_infinite_domain_rejected(domain):
    with pytest.raises(KernelError, match="infinite domain"):
        make_builtin("identity", (), domain)


@pytest.mark.parametrize("kid", ["identity:5", "log:1", "exp:1:2"])
def test_parameterless_families_reject_parameters(kid):
    with pytest.raises(KernelError, match="takes no parameter"):
        kernel_from_id(kid, (1.0, 2.0))


@pytest.mark.parametrize("kid", ["identity", "sqrt_shift:1", "log", "exp", "power:1.7"])
def test_builtin_monotone_and_invertible(kid):
    lo = 0.5 if kid not in ("identity", "sqrt_shift:1", "exp") else 0.0
    k = kernel_from_id(kid, (lo, 3.0))
    xs = np.linspace(k.x_lo, k.x_hi, 1000)
    vals = np.asarray(k.eval(xs))
    assert np.all(np.diff(vals) > 0)
    back = np.asarray(k.inverse(vals))
    assert np.all(np.abs(back - xs) <= 1e-10 * (1.0 + np.abs(xs)))


def test_validate_accepts_builtin():
    report = validate(make_builtin("identity", (), (0.0, 1.0)), 100)
    assert report.ok
    assert report.max_derivative_mismatch <= 1e-6


def test_validate_sqrt_shift_derivative_against_differences():
    report = validate(make_builtin("sqrt_shift", (1.0,), (0.0, 3.0)), 1000)
    assert report.ok
    assert report.max_derivative_mismatch <= 1e-6


def test_validate_derivative_check_matches_pointwise_loop():
    # reference: one central difference per interior sample; sqrt, + and /
    # round correctly, so array and scalar evaluation agree bit for bit
    k = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
    rels = []
    for x in np.linspace(0.0, 3.0, 200)[1:-1]:
        step = min(6e-6 * (1.0 + abs(x)), (3.0 - x) * 0.5, x * 0.5)
        fd = (float(k.eval(x + step)) - float(k.eval(x - step))) / (2 * step)
        d = float(k.deriv(x))
        rels.append(abs(fd - d) / max(abs(d), abs(fd), 1e-300))
    assert validate(k, 200).max_derivative_mismatch == max(rels)


def test_validate_flags_decreasing_function():
    bad = PsiKernel(
        "decreasing",
        eval=lambda x: -np.asarray(x, dtype=float),
        deriv=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        inverse=lambda u: -np.asarray(u, dtype=float),
        x_lo=0.0,
        x_hi=1.0,
    )
    report = validate(bad, 10)
    assert not report.ok
    # every interior step decreases
    assert len(report.monotonicity_violations) == 9


def test_validate_flags_wrong_derivative():
    bad = PsiKernel(
        "wrong-deriv",
        eval=lambda x: np.asarray(x, dtype=float),
        deriv=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
        inverse=lambda u: np.asarray(u, dtype=float),
        x_lo=0.0,
        x_hi=1.0,
    )
    report = validate(bad, 50)
    assert report.derivative_mismatches
    assert not report.monotonicity_violations


def test_validate_needs_three_samples():
    with pytest.raises(ValueError):
        validate(make_builtin("identity", (), (0.0, 1.0)), 2)


def test_validate_flags_nan_kernel():
    # NaN compares false both ways, so every check must fail on it
    nan = PsiKernel(
        "nan",
        eval=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
        deriv=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
        inverse=lambda u: np.asarray(u, dtype=float) + 0.0,
        x_lo=0.0,
        x_hi=1.0,
    )
    report = validate(nan, 10)
    assert not report.ok
    assert len(report.monotonicity_violations) == 9
    assert len(report.derivative_mismatches) == 8
    assert len(report.inverse_errors) == 10
    assert math.isnan(report.max_derivative_mismatch)
    assert math.isnan(report.max_inverse_error)


def test_z_rejects_nan_inside_the_domain():
    # finite at both ends, so the kernel is built; NaN only in between
    holed = PsiKernel(
        "holed",
        eval=lambda x: np.where((0.0 < x) & (x < 1.0), np.nan, x),
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inverse=lambda u: np.asarray(u, dtype=float),
        x_lo=0.0,
        x_hi=1.0,
    )
    assert _z(holed, 0.0, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match=r"^need z >= 0 for z = psi\(x\) - psi\(a\), got z = nan$"):
        _z(holed, 0.0, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="got z = nan$"):
        _z(holed, 0.0, 0.25)
