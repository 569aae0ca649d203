"""psifrac: fractional integrals and derivatives with respect to a kernel.

Numerical operators (product integration on grids uniform in the
transformed variable), closed-form references on the power and
Mittag-Leffler families, weighted-space bound constants, a Picard solver
for fractional Volterra integral equations, and a CSV-emitting CLI.
"""

from .closed_forms import (
    PowerFunctionSpec,
    composition_remainder,
    m_coefficient,
    ml_hilfer_eigen,
    ml_psi_frac_integral,
    power_hilfer_derivative,
    power_integral,
    power_psi_frac_integral,
)
from .errors import (
    DivergenceError,
    GammaPoleError,
    KernelError,
    MLConvergenceError,
    MLDivergenceError,
    PsifracError,
    ResolutionError,
)
from .frac_ops import (
    FracParams,
    LimitProbeReport,
    limit_probe,
    psi_frac_integral,
    psi_hilfer_derivative,
    psi_integral,
    psi_integral_order1,
    psi_rl_derivative,
    relative_sup_error,
)
from .grids import SampledFunction, TransformedGrid
from .kernels import KernelReport, PsiKernel, kernel_from_id, make_builtin, validate
from .models import MalthusSpec, malthus_curve, malthus_residual, malthus_solution
from .spaces import (
    WeightedNormSpec,
    bound_constant_A,
    bound_constant_K,
    bound_constant_s,
    weighted_norm,
)
from .specfun import MLParams, gamma, mittag_leffler, mittag_leffler_terms
from .volterra import (
    ContractionReport,
    PicardTrace,
    VolterraProblem,
    contraction_report,
    picard_solve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "PsiKernel",
    "KernelReport",
    "make_builtin",
    "kernel_from_id",
    "validate",
    # grids
    "TransformedGrid",
    "SampledFunction",
    # special functions
    "MLParams",
    "gamma",
    "mittag_leffler",
    "mittag_leffler_terms",
    # operators
    "FracParams",
    "psi_integral",
    "psi_integral_order1",
    "psi_rl_derivative",
    "psi_hilfer_derivative",
    "psi_frac_integral",
    "limit_probe",
    "LimitProbeReport",
    "relative_sup_error",
    # closed forms
    "PowerFunctionSpec",
    "power_integral",
    "power_hilfer_derivative",
    "power_psi_frac_integral",
    "m_coefficient",
    "ml_hilfer_eigen",
    "ml_psi_frac_integral",
    "composition_remainder",
    # spaces
    "WeightedNormSpec",
    "weighted_norm",
    "bound_constant_s",
    "bound_constant_A",
    "bound_constant_K",
    # volterra
    "VolterraProblem",
    "PicardTrace",
    "ContractionReport",
    "picard_solve",
    "contraction_report",
    # models
    "MalthusSpec",
    "malthus_solution",
    "malthus_curve",
    "malthus_residual",
    # errors
    "PsifracError",
    "KernelError",
    "GammaPoleError",
    "MLConvergenceError",
    "MLDivergenceError",
    "ResolutionError",
    "DivergenceError",
]
