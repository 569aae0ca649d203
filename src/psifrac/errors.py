"""Exception types shared across the package."""

__all__ = [
    "PsifracError",
    "KernelError",
    "GammaPoleError",
    "MLConvergenceError",
    "MLDivergenceError",
    "ResolutionError",
    "DivergenceError",
]


class PsifracError(Exception):
    """Base class for all package-specific errors."""


class KernelError(PsifracError, ValueError):
    """Invalid kernel family, parameters, or domain."""


class GammaPoleError(PsifracError, ValueError):
    """Gamma evaluated at a nonpositive integer.

    Surfaced explicitly instead of returning +/-inf so that convergence
    studies never silently average infinities.
    """


class MLConvergenceError(PsifracError, ArithmeticError):
    """Mittag-Leffler series did not meet the truncation rule in max_terms.

    Carries the partial sum and the number of terms accumulated so far.
    """

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


class MLDivergenceError(PsifracError, ValueError):
    """Geometric special case (alpha = 0) evaluated outside |z| < 1."""


class ResolutionError(PsifracError, ValueError):
    """Grid too coarse for the requested operator."""


class DivergenceError(PsifracError, ArithmeticError):
    """Picard iteration produced NaN/overflowing iterates."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
