"""Numerical analysis of approximate pairwise-ratio kernels.

Computes composition defects of finite kernels, extracts point-map
factorizations with their gauge and residual errors, checks the defect
bound chain, and sweeps classical inner-product inequalities on sampled
vector families.
"""

import importlib
import sys

# The public names resolve at their first use (PEP 562), so `import sincov`
# imports no submodule and so not numpy: the command line decides its
# process's BLAS threads before numpy starts them (see cli.py).  Where numpy
# is loaded already there is nothing to decide, and the submodules are
# imported at once, as code that finds them in sys.modules expects (the
# benchmark's tracer, say).
_EXPORTS = {
    "analysis": (
        "BoundCheck", "DefectReport", "Factorization", "bound_suite", "diagonal_report",
        "factorize", "gauge_bound", "gauge_error_bound", "gm_factorize", "growth_witness",
        "is_exact", "render_report", "sincov_defect", "slice_residual", "unit_diag_bound",
    ),
    "ipspace": (
        "InequalityMargin", "IPVector", "SweepResult", "VectorError", "buzano_margin",
        "cauchy_schwarz_margin", "margin_sweep", "normalized_gram", "richard_margin",
        "sample_vectors",
    ),
    "kernel": (
        "AlgebraValue", "FiniteKernel", "GeneratorSpec", "KernelError", "KernelFormatError",
        "KindMismatchError", "UnknownLabelError", "defect_term", "generate", "load_kernel",
        "point_label", "save_kernel",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
if "numpy" in sys.modules:
    from . import analysis, ipspace, kernel  # noqa: F401


def __getattr__(name: str):
    """An exported name, or a submodule, imported at its first use and kept."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "AlgebraValue",
    "BoundCheck",
    "DefectReport",
    "Factorization",
    "FiniteKernel",
    "GeneratorSpec",
    "InequalityMargin",
    "IPVector",
    "KernelError",
    "KernelFormatError",
    "KindMismatchError",
    "SweepResult",
    "UnknownLabelError",
    "VectorError",
    "bound_suite",
    "buzano_margin",
    "cauchy_schwarz_margin",
    "defect_term",
    "diagonal_report",
    "factorize",
    "gauge_bound",
    "gauge_error_bound",
    "generate",
    "gm_factorize",
    "growth_witness",
    "is_exact",
    "load_kernel",
    "margin_sweep",
    "normalized_gram",
    "point_label",
    "render_report",
    "richard_margin",
    "sample_vectors",
    "save_kernel",
    "sincov_defect",
    "slice_residual",
    "unit_diag_bound",
]
