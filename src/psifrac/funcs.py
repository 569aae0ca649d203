"""Builtin test functions addressable by string id.

Spatial ids (for f and phi), all phrased in z = psi(x) - psi(a):

    one            f = 1
    zero           f = 0
    sin            f = sin(z)
    power:<delta>  f = z^(delta-1)
    ml:<mu>[:<lam>]  f = E_mu(lam * z^mu), lam defaults to 1
    linear:<lam>   f = lam * z

State ids (for the Volterra integrand W(t, s, x)) apply the same family to
the state variable x, e.g. ``linear:<lam>`` is W = lam * x and ``one`` is
the constant kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import PsiKernel, _split_id
from .specfun import MLParams, mittag_leffler

__all__ = ["resolve_spatial", "resolve_state", "SPATIAL_IDS", "STATE_IDS"]

SPATIAL_IDS = ("one", "zero", "sin", "power:<delta>", "ml:<mu>[:<lam>]", "linear:<lam>")
STATE_IDS = ("one", "zero", "sin", "linear:<lam>", "power:<delta>")


def resolve_spatial(
    fid: str, kernel: PsiKernel, a: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Function of x for the given kernel and base point."""
    head, args = _split_id(fid)
    tau_a = float(kernel.eval(a))

    def z(x):
        return np.asarray(kernel.eval(x), dtype=float) - tau_a

    if head == "one" and not args:
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if head == "zero" and not args:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if head == "sin" and not args:
        return lambda x: np.sin(z(x))
    if head == "power" and len(args) == 1:
        delta = args[0]
        if delta <= 0:
            raise ValueError("power:<delta> needs delta > 0")
        return lambda x: z(x) ** (delta - 1.0)
    if head == "ml" and len(args) in (1, 2):
        mu = args[0]
        lam = args[1] if len(args) == 2 else 1.0
        params = MLParams(alpha=mu)

        def f(x):
            zz = np.atleast_1d(z(x))
            out = np.array([mittag_leffler(params, lam * v**mu) for v in zz])
            return out if np.ndim(x) else float(out[0])

        return f
    if head == "linear" and len(args) == 1:
        lam = args[0]
        return lambda x: lam * z(x)
    raise ValueError(f"unknown function id {fid!r}; spatial ids: {', '.join(SPATIAL_IDS)}")


def resolve_state(fid: str) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Volterra integrand W(t, s, x) acting on the state x."""
    head, args = _split_id(fid)
    if head == "one" and not args:
        return lambda t, s, x: np.ones_like(np.asarray(x, dtype=float))
    if head == "zero" and not args:
        return lambda t, s, x: np.zeros_like(np.asarray(x, dtype=float))
    if head == "sin" and not args:
        return lambda t, s, x: np.sin(np.asarray(x, dtype=float))
    if head == "linear" and len(args) == 1:
        lam = args[0]
        return lambda t, s, x: lam * np.asarray(x, dtype=float)
    if head == "power" and len(args) == 1:
        delta = args[0]
        return lambda t, s, x: np.asarray(x, dtype=float) ** (delta - 1.0)
    raise ValueError(f"unknown integrand id {fid!r}; state ids: {', '.join(STATE_IDS)}")
