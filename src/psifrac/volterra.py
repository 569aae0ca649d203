"""Picard iteration for the nonlinear Volterra equation

    x(t) = phi(t) + J^{mu,nu}[ W(t, s, x(s)) ](t),

where J is the composed fractional integral, built once per solve.  The
t-dependence of W is frozen at each evaluation node (two-variable Volterra
kernel read row-wise), so a sweep costs O(n^2): one W call per node and one
vectorized apply per block of rows.  When W does not depend on t, one
O(n log n) application per sweep suffices and the solver takes that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from ._quadrature import DiscreteOp
from .frac_ops import FracParams
from .grids import SampledFunction, TransformedGrid
from .kernels import PsiKernel
from .spaces import bound_constant_A

__all__ = [
    "VolterraProblem",
    "PicardTrace",
    "ContractionReport",
    "picard_solve",
    "contraction_report",
]

# iterate sup-norms beyond this abort the sweep with a diagnostic
_DIVERGENCE_GUARD = 1e12
# nodes per block of the frozen-t sweep, which holds O(_ROW_BLOCK n) values
_ROW_BLOCK = 256


@dataclass(frozen=True)
class VolterraProblem:
    phi: Callable[[np.ndarray], np.ndarray]
    integrand: Callable[[float, np.ndarray, np.ndarray], np.ndarray]  # W(t, s, x)
    p: FracParams
    kernel: PsiKernel
    a: float
    b: float
    n: int
    t_dependent: bool = False

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.n < 8:
            raise ValueError(f"need n >= 8 subintervals, got {self.n}")

    def grid(self) -> TransformedGrid:
        return TransformedGrid.build(self.kernel, self.a, self.b, self.n)


@dataclass
class PicardTrace:
    solution: SampledFunction
    sup_diffs: list
    converged: bool
    iterations: int
    residual: float = float("nan")


@dataclass(frozen=True)
class ContractionReport:
    A: float
    lipschitz_est: float
    factor: float
    contractive: bool


def _apply_operator(problem: VolterraProblem, op, nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J[W] at every node, a fresh array.  W(t_i, s, x) fills row i of a block (a
    constant broadcasts, other lengths raise ValueError) and node lo + r reads
    row r; a t-free W fills one row (t = NaN, a canary) for the O(n log n) apply."""
    integrand = problem.integrand
    ts = nodes.tolist() if problem.t_dependent else [float("nan")]
    block = np.empty((min(_ROW_BLOCK, len(ts)), nodes.size))
    parts = []
    for lo in range(0, len(ts), _ROW_BLOCK):
        rows = block[: len(ts) - lo]
        # inf or NaN in W or in J[W] is reported here or by the caller's guard
        with np.errstate(over="ignore", invalid="ignore"):
            for i, t in enumerate(ts[lo : lo + _ROW_BLOCK]):
                rows[i] = integrand(t, nodes, x)
            if not np.isfinite(rows).all():
                raise DivergenceError("integrand produced non-finite values", iteration=-1)
            parts.append(op.rows(rows, lo) if problem.t_dependent else op(rows[0]))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def picard_solve(
    problem: VolterraProblem,
    tol: float,
    max_iter: int = 50,
    x0: SampledFunction | None = None,
) -> PicardTrace:
    """Iterate x_k = phi + J[W(., ., x_{k-1})] until the sup-update <= tol.

    The default seed is x_0 = phi, so a state-independent W converges in a
    single sweep.  Divergence (NaN or sup-norm past 1e12) raises; plain
    non-convergence returns the trace with ``converged = False`` and lets
    the caller decide.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = problem.grid()
    op = DiscreteOp(problem.p.mu, grid.n, grid.h)
    nodes = grid.x_nodes
    phi = SampledFunction.from_callable(grid, problem.phi).values
    if x0 is not None and x0.grid != grid:
        raise ValueError("x0 must live on the problem grid")
    # iterates are read-only, as SampledFunction values; the guard keeps them finite
    x = phi if x0 is None else x0.values

    sup_diffs: list[float] = []
    for k in range(1, max_iter + 1):
        try:
            new = _apply_operator(problem, op, nodes, x)
        except DivergenceError as exc:
            raise DivergenceError(
                f"{exc} (iterate {k})", iteration=k
            ) from None
        # the apply's output is fresh, so the iterate is formed in it, and
        # |new| and |new - x| share one work array
        new += phi
        work = np.abs(new)
        sup = float(work.max())
        if not sup <= _DIVERGENCE_GUARD:  # NaN trips it too
            raise DivergenceError(
                f"iterate {k} exceeded the divergence guard (sup = {sup:.3g})",
                iteration=k,
            )
        new.setflags(write=False)
        np.subtract(new, x, out=work)
        sup_diffs.append(float(np.abs(work, out=work).max()))
        x = new
        if sup_diffs[-1] <= tol:
            break

    residual = float(np.max(np.abs(x - (phi + _apply_operator(problem, op, nodes, x)))))
    return PicardTrace(
        solution=SampledFunction(grid, x),
        sup_diffs=sup_diffs,
        converged=sup_diffs[-1] <= tol,
        iterations=len(sup_diffs),
        residual=residual,
    )


def contraction_report(
    problem: VolterraProblem, lipschitz_est: float
) -> ContractionReport:
    """Quantitative contraction check against the constant A.

    The effective factor is lipschitz_est / A; a factor below 1 certifies
    the quantitative contraction condition.  The solver itself is not
    gated on the verdict.
    """
    if not lipschitz_est >= 0:
        raise ValueError("lipschitz_est must be nonnegative")
    a_const = bound_constant_A(problem.p, problem.kernel, problem.a, problem.b)
    factor = lipschitz_est / a_const
    return ContractionReport(
        A=a_const,
        lipschitz_est=lipschitz_est,
        factor=factor,
        contractive=factor < 1.0,
    )
