"""A validity check written ``x <= 0`` lets NaN through, and one written
``not x > 0`` lets +inf through; every input check is written so that NaN
fails it, and those for quantities that must be finite reject inf too."""

import math

import pytest

from psifrac import (
    FracParams,
    MalthusSpec,
    MLParams,
    PowerFunctionSpec,
    VolterraProblem,
    bound_constant_s,
    contraction_report,
    make_builtin,
    mittag_leffler_terms,
    picard_solve,
)
from psifrac._quadrature import DiscreteOp
from psifrac.funcs import resolve_spatial, resolve_state

NAN = math.nan
INF = math.inf


def _unit():
    return make_builtin("identity", (), (0.0, 1.0))


def _problem():
    return VolterraProblem(
        phi=lambda x: 0.0 * x + 1.0,
        integrand=lambda t, s, x: -0.5 * x,
        p=FracParams(0.5, 0.5),
        kernel=_unit(),
        a=0.0,
        b=1.0,
        n=8,
    )


CASES = {
    "power-spec-delta": lambda: PowerFunctionSpec(NAN, _unit(), 0.0),
    "power-id-delta": lambda: resolve_spatial("power:nan", _unit(), 0.0),
    "power-kernel-exponent": lambda: make_builtin("power", (NAN,), (1.0, 2.0)),
    "malthus-n0": lambda: MalthusSpec(NAN, 0.3, FracParams(0.5, 1.0), _unit(), 1.0),
    "span": lambda: bound_constant_s(FracParams(0.5, 0.5), _unit(), 0.0, NAN),
    "ml-alpha": lambda: MLParams(alpha=NAN),
    "ml-beta": lambda: MLParams(alpha=0.5, beta=NAN),
    "ml-tol": lambda: MLParams(alpha=0.5, tol=NAN),
    "ml-argument": lambda: mittag_leffler_terms(MLParams(alpha=0.5), NAN),
    "picard-tol": lambda: picard_solve(_problem(), tol=NAN, max_iter=2),
    "lipschitz-estimate": lambda: contraction_report(_problem(), NAN),
}


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_nan_input_rejected(make):
    with pytest.raises(ValueError):
        make()


INF_CASES = {
    "ml-alpha": lambda: MLParams(alpha=INF),
    "malthus-n0": lambda: MalthusSpec(INF, 0.3, FracParams(0.5, 1.0), _unit(), 1.0),
    "linear-spatial-id": lambda: resolve_spatial("linear:inf", _unit(), 0.0),
    "linear-state-id": lambda: resolve_state("linear:-inf"),
}


@pytest.mark.parametrize("make", INF_CASES.values(), ids=INF_CASES.keys())
def test_infinite_input_rejected(make):
    # ml --alpha inf once summed 2000 terms before reporting non-convergence
    with pytest.raises(ValueError, match="finite"):
        make()


OVERFLOW_CASES = {
    "kernel-exp-end": lambda: make_builtin("exp", (), (0.0, 800.0)),
    "kernel-power-end": lambda: make_builtin("power", (400.0,), (1.0, 10.0)),
    "operator-scale": lambda: DiscreteOp(0.5, 4, 2.0e307),
    "bound-span-power": lambda: bound_constant_s(
        FracParams(0.5, 0.5), make_builtin("exp", (), (0.0, 709.0)), 0.0, 709.0
    ),
}


@pytest.mark.parametrize("make", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
def test_overflow_rejected(make):
    # psi, h^s or the span's power past float64 once gave inf or NaN with a
    # numpy warning, or an OverflowError; the warnings filter is "error"
    with pytest.raises(ValueError, match="overflows"):
        make()


UNDERFLOW_CASES = {
    "operator-scale": lambda: DiscreteOp(0.5, 4, 1e-300),
    "bound-span-power": lambda: bound_constant_s(FracParams(0.5, 0.5), _unit(), 0.0, 1e-250),
}


@pytest.mark.parametrize("make", UNDERFLOW_CASES.values(), ids=UNDERFLOW_CASES.keys())
def test_underflow_rejected(make):
    # h^s or the span's power at 0.0 once gave operator values of 0 and a
    # ZeroDivisionError in the bound constant A
    with pytest.raises(ValueError, match="underflows"):
        make()
