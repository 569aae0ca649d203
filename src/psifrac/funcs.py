"""Builtin test functions addressable by string id.

Spatial ids (for f and phi) apply a family to z = psi(x) - psi(a), so they
are defined for x >= a only:

    one            f = 1
    zero           f = 0
    sin            f = sin(z)
    power:<delta>  f = z^(delta-1), finite delta > 0
    ml:<mu>[:<lam>]  f = E_mu(lam * z^mu), lam defaults to 1
    linear:<lam>   f = lam * z

State ids (for the Volterra integrand W(t, s, x)) apply the same families,
bar ``ml:``, to the state variable x, e.g. ``linear:<lam>`` is W = lam * x
and ``one`` is the constant kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import PsiKernel, _split_id, _z
from .specfun import _ml_power

__all__ = ["resolve_spatial", "resolve_state", "SPATIAL_IDS", "STATE_IDS"]

SPATIAL_IDS = ("one", "zero", "sin", "power:<delta>", "ml:<mu>[:<lam>]", "linear:<lam>")
STATE_IDS = ("one", "zero", "sin", "linear:<lam>", "power:<delta>")


def _power(delta: float) -> Callable[[np.ndarray], np.ndarray]:
    """u -> u^(delta-1).  For delta < 1 that is inf at u = 0, without a numpy
    warning: the caller's finiteness check reports it."""

    def f(u):
        with np.errstate(divide="ignore"):
            return u ** (delta - 1.0)

    return f


# family -> (argument count, maker of the map u -> f(u) from the arguments)
_FAMILIES = {
    "one": (0, lambda: np.ones_like),
    "zero": (0, lambda: np.zeros_like),
    "sin": (0, lambda: np.sin),
    "power": (1, _power),
    "linear": (1, lambda lam: lambda u: lam * u),
}


def _family(head: str, args: tuple) -> Callable[[np.ndarray], np.ndarray] | None:
    """The shared family ``head`` with ``args``, or None if there is none."""
    count, make = _FAMILIES.get(head, (None, None))
    if len(args) == count and not np.all(np.isfinite(args)):
        raise ValueError(f"function id {head!r} needs finite arguments, got {args}")
    return make(*args) if len(args) == count else None


def resolve_spatial(
    fid: str, kernel: PsiKernel, a: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Function of x for the given kernel and base point."""
    head, args = _split_id(fid)
    if head == "ml" and len(args) in (1, 2):
        mu = args[0]
        lam = args[1] if len(args) == 2 else 1.0
        return lambda x: _ml_power(mu, lam, _z(kernel, a, x))
    if head == "power" and len(args) == 1 and not 0 < args[0] < np.inf:
        raise ValueError("power:<delta> needs a finite delta > 0")
    f = _family(head, args)
    if f is None:
        raise ValueError(f"unknown function id {fid!r}; spatial ids: {', '.join(SPATIAL_IDS)}")

    def spatial(x):
        z = _z(kernel, a, x)
        with np.errstate(over="ignore"):  # the caller's finiteness check reports inf
            return f(z)

    return spatial


def resolve_state(fid: str) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Volterra integrand W(t, s, x) acting on the state x."""
    f = _family(*_split_id(fid))
    if f is None:
        raise ValueError(f"unknown integrand id {fid!r}; state ids: {', '.join(STATE_IDS)}")
    return lambda t, s, x: f(np.asarray(x, dtype=float))
