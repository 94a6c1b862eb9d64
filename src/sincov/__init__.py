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
_SUBMODULES = ("kernel", "analysis", "ipspace")  # each imports the ones before it
if "numpy" in sys.modules:
    from . import analysis, ipspace, kernel  # noqa: F401


def __getattr__(name: str):
    """A submodule, or an exported name from the first submodule that holds
    it, imported at its first use and kept."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for module in _SUBMODULES:
            home = vars(importlib.import_module(f"{__name__}.{module}"))
            if name in home:
                globals()[name] = home[name]
                return home[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
