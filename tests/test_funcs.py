import math

import numpy as np
import pytest

from psifrac import MLParams, make_builtin, mittag_leffler
from psifrac.funcs import resolve_spatial, resolve_state


@pytest.fixture
def kernel():
    return make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))


class TestSpatialIds:
    def test_constant_ids(self, kernel):
        xs = np.linspace(0.0, 3.0, 5)
        assert np.all(resolve_spatial("one", kernel, 0.0)(xs) == 1.0)
        assert np.all(resolve_spatial("zero", kernel, 0.0)(xs) == 0.0)

    def test_sin_is_in_the_transformed_variable(self, kernel):
        f = resolve_spatial("sin", kernel, 0.0)
        # z = sqrt(3+1) - 1 = 1 at x = 3
        assert float(f(3.0)) == pytest.approx(math.sin(1.0), rel=1e-15)

    def test_power_id(self, kernel):
        f = resolve_spatial("power:1.5", kernel, 0.0)
        assert float(f(3.0)) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            resolve_spatial("power:0", kernel, 0.0)
        with pytest.raises(ValueError, match="finite"):
            resolve_spatial("power:inf", kernel, 0.0)

    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
    def test_ml_id_needs_finite_rate(self, kernel, lam):
        # inf * 0 at z = 0 once warned before the argument check failed
        f = resolve_spatial(f"ml:0.5:{lam}", kernel, 0.0)
        with pytest.raises(ValueError, match="lambda must be finite"):
            f(np.array([0.0, 3.0]))

    def test_ml_id_default_rate(self, kernel):
        f = resolve_spatial("ml:0.5", kernel, 0.0)
        assert float(f(3.0)) == pytest.approx(
            mittag_leffler(MLParams(0.5), 1.0), rel=1e-14
        )

    def test_ml_id_explicit_rate(self, kernel):
        f = resolve_spatial("ml:0.5:2", kernel, 0.0)
        assert float(f(3.0)) == pytest.approx(
            mittag_leffler(MLParams(0.5), 2.0), rel=1e-14
        )

    def test_linear_id(self, kernel):
        f = resolve_spatial("linear:3", kernel, 0.0)
        assert float(f(3.0)) == pytest.approx(3.0, rel=1e-14)

    def test_unknown_id(self, kernel):
        with pytest.raises(ValueError):
            resolve_spatial("wobble", kernel, 0.0)
        with pytest.raises(ValueError):
            resolve_spatial("sin:1", kernel, 0.0)


@pytest.mark.parametrize(
    "fid", ["one", "zero", "sin", "power:2.5", "power:1", "linear:-0.3"]
)
def test_shared_ids_agree_on_identity_kernel(fid):
    # on psi = x with a = 0, z is x itself, so both resolvers give the same bits
    kernel = make_builtin("identity", (), (0.0, 4.0))
    x = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    spatial = resolve_spatial(fid, kernel, 0.0)(x)
    state = resolve_state(fid)(0.3, np.zeros(6), x)
    assert spatial.dtype == state.dtype
    assert spatial.tobytes() == state.tobytes()


class TestStateIds:
    def test_linear_acts_on_state(self):
        w = resolve_state("linear:0.5")
        x = np.array([0.0, 2.0, 4.0])
        assert np.array_equal(w(0.3, x, x), 0.5 * x)

    @pytest.mark.parametrize(
        "fid,expected",
        [
            ("zero", lambda x: np.zeros_like(x)),
            ("sin", np.sin),
            ("power:2.5", lambda x: x**1.5),
        ],
        ids=["zero", "sin", "power"],
    )
    def test_ids_act_on_state(self, fid, expected):
        x = np.array([0.0, 0.5, 2.0, 4.0])
        got = resolve_state(fid)(0.3, np.zeros(4), x)
        assert np.array_equal(got, expected(x))

    def test_one_is_constant_kernel(self):
        w = resolve_state("one")
        assert np.all(w(0.0, np.zeros(3), np.array([5.0, -1.0, 2.0])) == 1.0)

    def test_unknown_state_id(self):
        with pytest.raises(ValueError):
            resolve_state("ml:0.5")
