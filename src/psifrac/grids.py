"""Grids uniform in the transformed variable, and functions sampled on them.

Every operator acts on nodal values over a grid whose nodes are equally
spaced in ``tau = psi(x)``.  That substitution turns the weakly singular
weight ``psi'(t) (psi(x) - psi(t))^{mu-1} dt`` into ``(tau_x - tau)^{mu-1}
dtau`` exactly, so the quadrature never sees the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import PsiKernel

__all__ = ["TransformedGrid", "SampledFunction"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only contiguous float array, frozen in place where it
    already is one: for arrays the package has just made and hands over."""
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TransformedGrid:
    """n+1 nodes on [a, b], uniform in tau = psi(x)."""

    kernel: PsiKernel
    a: float
    b: float
    n: int
    tau_nodes: np.ndarray
    x_nodes: np.ndarray

    @classmethod
    def build(cls, kernel: PsiKernel, a: float, b: float, n: int) -> "TransformedGrid":
        a, b = float(a), float(b)
        if not (kernel.contains(a) and kernel.contains(b) and a < b):
            raise ValueError(
                f"[{a:g}, {b:g}] is not inside the {kernel.name!r} kernel domain "
                f"[{kernel.x_lo:g}, {kernel.x_hi:g}]"
            )
        if n < 1:
            raise ValueError("need at least one subinterval")
        tau = np.linspace(float(kernel.eval(a)), float(kernel.eval(b)), n + 1)
        # psi may underflow to 0 at a, where an inverse such as log warns; the
        # ends are pinned and a non-finite interior node fails the check below
        with np.errstate(all="ignore"):
            x = np.asarray(kernel.inverse(tau), dtype=float)
        x[0], x[-1] = a, b  # pin the endpoints against inverse round-off
        if not np.all(np.diff(x) > 0):
            raise ValueError(f"kernel {kernel.name!r} produced non-increasing x nodes")
        return cls(kernel, a, b, n, _frozen(tau), _frozen(x))

    @property
    def h(self) -> float:
        """Uniform spacing in tau."""
        return (self.tau_nodes[-1] - self.tau_nodes[0]) / self.n

    def __eq__(self, other) -> bool:
        # node-level equality; kernels producing the same transform compare equal
        return (
            isinstance(other, TransformedGrid)
            and self.a == other.a
            and self.b == other.b
            and self.n == other.n
            and np.array_equal(self.tau_nodes, other.tau_nodes)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.n))


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Nodal values of a function on a transformed grid, compared by identity."""

    grid: TransformedGrid
    values: np.ndarray

    def __post_init__(self):
        vals = self.values
        # a writeable array is the caller's: copied, so it stays writeable and
        # a later write to it does not reach these values.  A read-only one,
        # such as another function's values, is shared as it is
        if not isinstance(vals, np.ndarray) or vals.flags.writeable:
            vals = np.array(vals, dtype=float)
        vals = _frozen(vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must all be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(
        cls, grid: TransformedGrid, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "SampledFunction":
        """``fn`` at the grid's nodes.  Its result is taken over, made read-only
        in place rather than copied, so ``fn`` should return a fresh array, as
        every function id does."""
        vals = np.asarray(fn(grid.x_nodes), dtype=float)
        if vals.shape == ():  # constant-returning callables
            vals = np.full(grid.n + 1, float(vals))
        return cls(grid, _frozen(vals))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values)
