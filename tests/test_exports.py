import importlib

import psifrac

# the package's public names as its hand-written list stated them
LISTED = [
    "__version__",
    "PsiKernel", "KernelReport", "make_builtin", "kernel_from_id", "validate",
    "TransformedGrid", "SampledFunction",
    "MLParams", "gamma", "mittag_leffler", "mittag_leffler_terms",
    "FracParams", "psi_integral", "psi_integral_order1", "psi_rl_derivative",
    "psi_hilfer_derivative", "psi_frac_integral", "limit_probe", "LimitProbeReport",
    "relative_sup_error",
    "PowerFunctionSpec", "power_integral", "power_hilfer_derivative",
    "power_psi_frac_integral", "m_coefficient", "ml_hilfer_eigen", "ml_psi_frac_integral",
    "composition_remainder",
    "WeightedNormSpec", "weighted_norm", "bound_constant_s", "bound_constant_A",
    "bound_constant_K",
    "VolterraProblem", "PicardTrace", "ContractionReport", "picard_solve",
    "contraction_report",
    "MalthusSpec", "malthus_solution", "malthus_curve", "malthus_residual",
    "PsifracError", "KernelError", "GammaPoleError", "MLConvergenceError",
    "MLDivergenceError", "ResolutionError", "DivergenceError",
]
MODULES = (
    "closed_forms", "errors", "frac_ops", "grids", "kernels", "models", "spaces",
    "specfun", "volterra",
)


def test_package_exports_each_module_all_once():
    # the modules' own __all__ lists, which also declare BUILTIN_FAMILIES and
    # SKIP_BASE_NODES public
    assert len(LISTED) == 50
    names = psifrac.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(LISTED + ["BUILTIN_FAMILIES", "SKIP_BASE_NODES"])
    for module in map(importlib.import_module, (f"psifrac.{m}" for m in MODULES)):
        for name in module.__all__:
            assert getattr(psifrac, name) is getattr(module, name), (module.__name__, name)
