"""Monotone kernel functions that parameterize the fractional operators.

A kernel is a strictly increasing, differentiable map ``psi`` on a closed
interval together with its derivative and inverse.  Every operator in this
package works in the transformed variable ``tau = psi(x)``, so the kernel is
the single point where the choice of ``psi`` enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import KernelError

__all__ = [
    "PsiKernel",
    "KernelReport",
    "make_builtin",
    "kernel_from_id",
    "validate",
    "BUILTIN_FAMILIES",
]


@dataclass(frozen=True)
class PsiKernel:
    """Strictly increasing differentiable kernel on ``[x_lo, x_hi]``.

    ``eval``/``deriv``/``inverse`` must accept floats and numpy arrays.
    Instances are immutable and safe to share across threads.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise KernelError(
                f"kernel {self.name!r}: empty domain [{self.x_lo}, {self.x_hi}]"
            )
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise KernelError(f"kernel {self.name!r}: infinite domain [{self.x_lo}, {self.x_hi}]")
        with np.errstate(all="ignore"):  # a NaN psi is left to ``validate`` to report
            if np.isinf(self.eval(np.array([self.x_lo, self.x_hi]))).any():
                raise KernelError(f"kernel {self.name!r}: psi overflows at an end of its domain")

    def contains(self, x: float) -> bool:
        return self.x_lo <= x <= self.x_hi


def _power_check(x_lo: float, p: float) -> str | None:
    if not p > 0:
        return "power kernel exponent must be positive"
    if p != 1.0 and x_lo <= 0.0:
        return f"power:{p:g} needs x_lo > 0"
    return None


# family -> (its parameters in id order; psi, psi' and psi^-1 as maps of a
# float array and the parameters; a check of x_lo and the parameters that
# returns an error text, or None if the domain is fine)
_FAMILIES = {
    "identity": ((), lambda x: x + 0.0, np.ones_like, lambda u: u + 0.0, lambda x_lo: None),
    "sqrt_shift": (
        ("the shift c",),
        lambda x, c: np.sqrt(x + c),
        lambda x, c: 0.5 / np.sqrt(x + c),
        lambda u, c: u**2 - c,
        lambda x_lo, c: None if x_lo > -c else (
            f"sqrt_shift:{c:g} needs x_lo > {-c:g} for a finite positive derivative"
        ),
    ),
    # psi(0) = -inf, so the transformed left endpoint must stay finite
    "log": (
        (), np.log, lambda x: 1.0 / x, np.exp,
        lambda x_lo: "log kernel needs x_lo > 0" if x_lo <= 0.0 else None,
    ),
    "exp": ((), np.exp, np.exp, np.log, lambda x_lo: None),
    "power": (
        ("the exponent p",),
        lambda x, p: x**p,
        lambda x, p: p * x ** (p - 1.0),
        lambda u, p: u ** (1.0 / p),
        _power_check,
    ),
}
BUILTIN_FAMILIES = tuple(_FAMILIES)


def make_builtin(
    name: str,
    params: Sequence[float] = (),
    domain: tuple[float, float] = (0.0, 1.0),
) -> PsiKernel:
    """Construct a builtin kernel family on the requested domain: ``identity``
    (psi = x), ``sqrt_shift`` with shift c (sqrt(x + c)), ``log`` (ln x, x_lo > 0),
    ``exp`` (e^x) or ``power`` with exponent p > 0 (x^p, x_lo > 0 unless p = 1)."""
    x_lo, x_hi = float(domain[0]), float(domain[1])
    params = tuple(float(p) for p in params)
    if name not in _FAMILIES:
        raise KernelError(f"unknown kernel family {name!r}; known: {', '.join(BUILTIN_FAMILIES)}")
    wanted, psi, deriv, inverse, check = _FAMILIES[name]
    if len(params) != len(wanted):
        count = f"one parameter ({wanted[0]})" if wanted else "no parameter"
        raise KernelError(f"{name} takes {count}")
    problem = check(x_lo, *params)
    if problem is not None:
        raise KernelError(problem)

    def on_floats(f):
        return lambda x: f(np.asarray(x, dtype=float), *params)

    label = name + "".join(f":{p:g}" for p in params)
    maps = (on_floats(f) for f in (psi, deriv, inverse))
    return PsiKernel(label, *maps, x_lo, x_hi)


def _split_id(text: str) -> tuple[str, tuple[float, ...]]:
    """Split a kernel or function id ``head:arg:arg`` into head and float args."""
    head, _, tail = text.partition(":")
    return head, (tuple(float(tok) for tok in tail.split(":")) if tail else ())


def kernel_from_id(kernel_id: str, domain: tuple[float, float]) -> PsiKernel:
    """Parse a string id like ``identity``, ``sqrt_shift:1`` or ``power:2``."""
    return make_builtin(*_split_id(kernel_id), domain)


def _z(kernel: PsiKernel, a: float, x):
    """z = psi(x) - psi(a) for a float or an array x, the variable of every
    closed form, function id and the Malthus curve; raises ValueError if a z
    is negative (x before the base a) or NaN.  psi increases, so x >= a is
    checked first and psi is never evaluated before the base."""
    if not (np.asarray(x) >= a).all():
        raise ValueError(f"need z >= 0 for z = psi(x) - psi(a), got x = {np.min(x):g} < a = {a:g}")
    z = np.asarray(kernel.eval(x), dtype=float) - float(kernel.eval(a))
    if not (z >= 0.0).all():
        raise ValueError(f"need z >= 0 for z = psi(x) - psi(a), got z = {np.min(z):g}")
    return z


@dataclass
class KernelReport:
    """Result of sampling-based kernel validation.

    Violation lists hold ``(x, measured)`` pairs; an accepted kernel has all
    three lists empty.
    """

    kernel_name: str
    n_samples: int
    monotonicity_violations: list = field(default_factory=list)
    derivative_mismatches: list = field(default_factory=list)
    inverse_errors: list = field(default_factory=list)
    max_derivative_mismatch: float = 0.0
    max_inverse_error: float = 0.0

    @property
    def ok(self) -> bool:
        return not (
            self.monotonicity_violations
            or self.derivative_mismatches
            or self.inverse_errors
        )


DERIV_RTOL = 1e-6
INVERSE_RTOL = 1e-10


@np.errstate(all="ignore")  # a map's inf or NaN is a finding of the report
def validate(kernel: PsiKernel, n_samples: int) -> KernelReport:
    """Check monotonicity, the derivative and the inverse on a sample sweep.

    The derivative is compared against central finite differences at
    interior points (relative tolerance ``1e-6``); the inverse round trip
    must satisfy ``|inverse(eval(x)) - x| <= 1e-10 * (1 + |x|)``.  The
    function never raises: user-supplied kernels are accepted or rejected
    based on the report.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    report = KernelReport(kernel_name=kernel.name, n_samples=n_samples)
    xs = np.linspace(kernel.x_lo, kernel.x_hi, n_samples)
    values = np.asarray(kernel.eval(xs), dtype=float)

    # NaN fails every check: each is written as "not within tolerance"
    for i in np.nonzero(~(np.diff(values) > 0))[0]:
        report.monotonicity_violations.append((float(xs[i + 1]), float(values[i + 1])))

    # central differences with a cube-root-of-eps step, clipped to the domain
    x = xs[1:-1]
    step = np.minimum(6e-6 * (1.0 + np.abs(x)), np.minimum(kernel.x_hi - x, x - kernel.x_lo) * 0.5)
    x, step = x[step > 0.0], step[step > 0.0]
    up, down = (np.asarray(kernel.eval(x + dx), dtype=float) for dx in (step, -step))
    fd = (up - down) / (2 * step)
    d = np.asarray(kernel.deriv(x), dtype=float)
    rel = np.abs(fd - d) / np.maximum(np.maximum(np.abs(d), np.abs(fd)), 1e-300)
    report.max_derivative_mismatch = float(np.max(rel, initial=0.0))
    for i in np.nonzero(~(rel <= DERIV_RTOL))[0]:
        report.derivative_mismatches.append((float(x[i]), float(rel[i])))

    back = np.asarray(kernel.inverse(values), dtype=float)
    err = np.abs(back - xs) / (1.0 + np.abs(xs))
    report.max_inverse_error = float(np.max(err))
    for i in np.nonzero(~(err <= INVERSE_RTOL))[0]:
        report.inverse_errors.append((float(xs[i]), float(err[i])))
    return report
