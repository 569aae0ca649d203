"""Picard iteration for the nonlinear Volterra equation

    x(t) = phi(t) + J^{mu,nu}[ W(t, s, x(s)) ](t),

where J is the composed fractional integral.  The t-dependence of W is
frozen at each evaluation node (two-variable Volterra kernel read
row-wise); when W does not depend on t -- the case every test uses -- a
single operator application per sweep suffices and the solver takes that
fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .frac_ops import FracParams, psi_frac_integral
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


def _integrand_values(problem, grid, t, x_vals) -> np.ndarray:
    w_vals = np.asarray(problem.integrand(t, grid.x_nodes, x_vals), dtype=float)
    if w_vals.shape == ():
        w_vals = np.full(grid.n + 1, float(w_vals))
    if not np.all(np.isfinite(w_vals)):
        raise DivergenceError("integrand produced non-finite values", iteration=-1)
    return w_vals


def _apply_operator(problem: VolterraProblem, grid, x: SampledFunction) -> np.ndarray:
    if not problem.t_dependent:
        # t is frozen per row but unused; NaN is a canary against misuse
        w_vals = _integrand_values(problem, grid, float("nan"), x.values)
        out = psi_frac_integral(SampledFunction(grid, w_vals), problem.p)
        return np.array(out.values)
    # general kernel: freeze t at each node and take that row's value
    out = np.zeros(grid.n + 1)
    for i, t in enumerate(grid.x_nodes):
        w_vals = _integrand_values(problem, grid, float(t), x.values)
        row = psi_frac_integral(SampledFunction(grid, w_vals), problem.p)
        out[i] = row.values[i]
    return out


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
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = problem.grid()
    phi_vals = np.asarray(problem.phi(grid.x_nodes), dtype=float)
    if phi_vals.shape == ():
        phi_vals = np.full(grid.n + 1, float(phi_vals))
    if not np.all(np.isfinite(phi_vals)):
        raise ValueError("phi must be finite on [a, b]")
    phi = SampledFunction(grid, phi_vals)

    x = phi if x0 is None else x0
    if x.grid != grid:
        raise ValueError("x0 must live on the problem grid")

    sup_diffs: list[float] = []
    converged = False
    for k in range(1, max_iter + 1):
        try:
            integral = _apply_operator(problem, grid, x)
        except DivergenceError as exc:
            raise DivergenceError(
                f"{exc} (iterate {k})", iteration=k
            ) from None
        new_vals = phi.values + integral
        sup = float(np.max(np.abs(new_vals)))
        if sup > _DIVERGENCE_GUARD:
            raise DivergenceError(
                f"iterate {k} exceeded the divergence guard (sup = {sup:.3g})",
                iteration=k,
            )
        x_new = SampledFunction(grid, new_vals)
        diff = float(np.max(np.abs(x_new.values - x.values)))
        sup_diffs.append(diff)
        x = x_new
        if diff <= tol:
            converged = True
            break

    residual = float(
        np.max(np.abs(x.values - (phi.values + _apply_operator(problem, grid, x))))
    )
    return PicardTrace(
        solution=x,
        sup_diffs=sup_diffs,
        converged=converged,
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
    if lipschitz_est < 0:
        raise ValueError("lipschitz_est must be nonnegative")
    a_const = bound_constant_A(problem.p, problem.kernel, problem.a, problem.b)
    factor = lipschitz_est / a_const
    return ContractionReport(
        A=a_const,
        lipschitz_est=lipschitz_est,
        factor=factor,
        contractive=factor < 1.0,
    )
