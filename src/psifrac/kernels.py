"""Monotone kernel functions that parameterize the fractional operators.

A kernel is a strictly increasing, differentiable map ``psi`` on a closed
interval together with its derivative and inverse.  Every operator in this
package works in the transformed variable ``tau = psi(x)``, so the kernel is
the single point where the choice of ``psi`` enters.
"""

from __future__ import annotations

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

    def contains(self, x: float) -> bool:
        return self.x_lo <= x <= self.x_hi


BUILTIN_FAMILIES = ("identity", "sqrt_shift", "log", "exp", "power")


def make_builtin(
    name: str,
    params: Sequence[float] = (),
    domain: tuple[float, float] = (0.0, 1.0),
) -> PsiKernel:
    """Construct a builtin kernel family on the requested domain.

    Families: ``identity`` (psi = x), ``sqrt_shift`` with shift c
    (psi = sqrt(x + c)), ``log`` (psi = ln x, requires x_lo > 0), ``exp``
    (psi = e^x) and ``power`` with exponent p > 0 (psi = x^p, x_lo > 0
    unless p = 1).
    """
    x_lo, x_hi = float(domain[0]), float(domain[1])
    params = tuple(float(p) for p in params)

    if name == "identity":
        kern = PsiKernel(
            "identity",
            lambda x: np.asarray(x, dtype=float) + 0.0,
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda u: np.asarray(u, dtype=float) + 0.0,
            x_lo,
            x_hi,
        )
    elif name == "sqrt_shift":
        if len(params) != 1:
            raise KernelError("sqrt_shift takes one parameter (the shift c)")
        c = params[0]
        if x_lo <= -c:
            raise KernelError(
                f"sqrt_shift:{c:g} needs x_lo > {-c:g} for a finite positive derivative"
            )
        kern = PsiKernel(
            f"sqrt_shift:{c:g}",
            lambda x, c=c: np.sqrt(np.asarray(x, dtype=float) + c),
            lambda x, c=c: 0.5 / np.sqrt(np.asarray(x, dtype=float) + c),
            lambda u, c=c: np.asarray(u, dtype=float) ** 2 - c,
            x_lo,
            x_hi,
        )
    elif name == "log":
        # psi(0) = -inf, so the transformed left endpoint must stay finite
        if x_lo <= 0.0:
            raise KernelError("log kernel needs x_lo > 0")
        kern = PsiKernel(
            "log",
            lambda x: np.log(np.asarray(x, dtype=float)),
            lambda x: 1.0 / np.asarray(x, dtype=float),
            lambda u: np.exp(np.asarray(u, dtype=float)),
            x_lo,
            x_hi,
        )
    elif name == "exp":
        kern = PsiKernel(
            "exp",
            lambda x: np.exp(np.asarray(x, dtype=float)),
            lambda x: np.exp(np.asarray(x, dtype=float)),
            lambda u: np.log(np.asarray(u, dtype=float)),
            x_lo,
            x_hi,
        )
    elif name == "power":
        if len(params) != 1:
            raise KernelError("power takes one parameter (the exponent p)")
        p = params[0]
        if p <= 0:
            raise KernelError("power kernel exponent must be positive")
        if p != 1.0 and x_lo <= 0.0:
            raise KernelError(f"power:{p:g} needs x_lo > 0")
        kern = PsiKernel(
            f"power:{p:g}",
            lambda x, p=p: np.asarray(x, dtype=float) ** p,
            lambda x, p=p: p * np.asarray(x, dtype=float) ** (p - 1.0),
            lambda u, p=p: np.asarray(u, dtype=float) ** (1.0 / p),
            x_lo,
            x_hi,
        )
    else:
        raise KernelError(
            f"unknown kernel family {name!r}; known: {', '.join(BUILTIN_FAMILIES)}"
        )
    return kern


def _split_id(text: str) -> tuple[str, tuple[float, ...]]:
    """Split a kernel or function id ``head:arg:arg`` into head and float args."""
    head, _, tail = text.partition(":")
    return head, (tuple(float(tok) for tok in tail.split(":")) if tail else ())


def kernel_from_id(kernel_id: str, domain: tuple[float, float]) -> PsiKernel:
    """Parse a string id like ``identity``, ``sqrt_shift:1`` or ``power:2``."""
    return make_builtin(*_split_id(kernel_id), domain)


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

    for i in np.nonzero(np.diff(values) <= 0)[0]:
        report.monotonicity_violations.append((float(xs[i + 1]), float(values[i + 1])))

    # central differences with a cube-root-of-eps step, clipped to the domain
    for x in xs[1:-1]:
        step = 6e-6 * (1.0 + abs(x))
        step = min(step, (kernel.x_hi - x) * 0.5, (x - kernel.x_lo) * 0.5)
        if step <= 0.0:
            continue
        fd = (float(kernel.eval(x + step)) - float(kernel.eval(x - step))) / (2 * step)
        d = float(kernel.deriv(x))
        rel = abs(fd - d) / max(abs(d), abs(fd), 1e-300)
        report.max_derivative_mismatch = max(report.max_derivative_mismatch, rel)
        if rel > DERIV_RTOL:
            report.derivative_mismatches.append((float(x), rel))

    back = np.asarray(kernel.inverse(values), dtype=float)
    err = np.abs(back - xs) / (1.0 + np.abs(xs))
    report.max_inverse_error = float(np.max(err))
    for i in np.nonzero(err > INVERSE_RTOL)[0]:
        report.inverse_errors.append((float(xs[i]), float(err[i])))
    return report
