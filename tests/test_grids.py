import numpy as np
import pytest

from psifrac import PsiKernel, SampledFunction, TransformedGrid, make_builtin


@pytest.mark.parametrize("kid,a,b", [("identity", 0.0, 1.0), ("sqrt_shift", 0.0, 3.0)])
def test_tau_uniform_and_x_increasing(kid, a, b):
    params = (1.0,) if kid == "sqrt_shift" else ()
    kernel = make_builtin(kid, params, (a, b))
    grid = TransformedGrid.build(kernel, a, b, 128)
    steps = np.diff(grid.tau_nodes)
    assert np.allclose(steps, steps[0], rtol=0, atol=1e-14)
    assert grid.tau_nodes[0] == float(kernel.eval(a))
    assert grid.tau_nodes[-1] == float(kernel.eval(b))
    assert np.all(np.diff(grid.x_nodes) > 0)
    assert grid.x_nodes[0] == a and grid.x_nodes[-1] == b


def test_h_property():
    kernel = make_builtin("identity", (), (0.0, 2.0))
    grid = TransformedGrid.build(kernel, 0.0, 2.0, 8)
    assert grid.h == pytest.approx(0.25, rel=1e-15)


def test_grids_compare_and_hash_by_their_nodes():
    # two builds are distinct objects with equal nodes: one dict key
    kernel = make_builtin("sqrt_shift", (1.0,), (0.0, 3.0))
    first, second = (TransformedGrid.build(kernel, 0.0, 3.0, 64) for _ in range(2))
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert {first: "first", second: "second"} == {first: "second"}
    assert first != TransformedGrid.build(kernel, 0.0, 3.0, 65)


def test_interval_must_sit_in_kernel_domain():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    with pytest.raises(ValueError):
        TransformedGrid.build(kernel, 0.0, 2.0, 16)
    with pytest.raises(ValueError):
        TransformedGrid.build(kernel, 0.5, 0.5, 16)


def test_needs_one_subinterval():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    with pytest.raises(ValueError, match="^need at least one subinterval$"):
        TransformedGrid.build(kernel, 0.0, 1.0, 0)


def test_non_increasing_nodes_rejected():
    # an inverse that maps every tau to one x leaves repeated interior nodes
    flat = PsiKernel(
        "flat",
        eval=lambda x: np.asarray(x, dtype=float),
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        inverse=lambda u: np.full_like(np.asarray(u, dtype=float), 0.5),
        x_lo=0.0,
        x_hi=1.0,
    )
    with pytest.raises(ValueError, match="^kernel 'flat' produced non-increasing x nodes$"):
        TransformedGrid.build(flat, 0.0, 1.0, 4)


def test_sampled_function_shape_and_finiteness():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 16)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.zeros(5))
    bad = np.zeros(17)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        SampledFunction(grid, bad)


def test_sampled_values_are_immutable():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 16)
    f = SampledFunction.from_callable(grid, lambda x: np.sin(x))
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_from_callable_broadcasts_constants():
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 16)
    f = SampledFunction.from_callable(grid, lambda x: 3.0)
    assert np.all(f.values == 3.0)


def test_sampled_functions_compare_and_hash_by_identity():
    # the generated value equality reached the ndarray field and raised
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 16)
    f = SampledFunction.from_callable(grid, np.sin)
    g = SampledFunction(grid, f.values.copy())
    assert f == f and f != g
    assert len({f, f, g}) == 2


def test_wrapping_leaves_the_callers_array_writeable():
    # np.ascontiguousarray returned the caller's own array, which the wrapper
    # then made read-only; the wrapper now keeps a copy of a writeable array
    kernel = make_builtin("identity", (), (0.0, 1.0))
    grid = TransformedGrid.build(kernel, 0.0, 1.0, 8)
    arr = np.linspace(0.0, 1.0, 9)
    f = SampledFunction(grid, arr)
    assert arr.flags.writeable and not f.values.flags.writeable
    arr[3] = 7.0
    assert np.array_equal(f.values, np.linspace(0.0, 1.0, 9))
    # a read-only array, such as another function's values, is shared
    assert f.with_values(f.values).values is f.values
