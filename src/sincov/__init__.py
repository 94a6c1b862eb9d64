"""Numerical analysis of approximate pairwise-ratio kernels.

Computes composition defects of finite kernels, extracts point-map
factorizations with their gauge and residual errors, checks the defect
bound chain, and sweeps classical inner-product inequalities on sampled
vector families.
"""

from .analysis import (
    BoundCheck,
    DefectReport,
    Factorization,
    bound_suite,
    diagonal_report,
    factorize,
    gauge_bound,
    gauge_error_bound,
    gm_factorize,
    growth_witness,
    is_exact,
    render_report,
    sincov_defect,
    slice_residual,
    unit_diag_bound,
)
from .ipspace import (
    InequalityMargin,
    IPVector,
    SweepResult,
    VectorError,
    buzano_margin,
    cauchy_schwarz_margin,
    margin_sweep,
    normalized_gram,
    richard_margin,
    sample_vectors,
)
from .kernel import (
    AlgebraValue,
    FiniteKernel,
    GeneratorSpec,
    KernelError,
    KernelFormatError,
    KindMismatchError,
    UnknownLabelError,
    defect_term,
    generate,
    load_kernel,
    point_label,
    save_kernel,
)

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
