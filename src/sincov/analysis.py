"""Defect reports, reference-point and geometric-mean factorizations, bound checks.

The central quantity is the composition defect of a kernel: the maximum of
|F(a, x) * F(x, b) - F(a, b)| over all label triples.  Every bound check in
this module compares a derived quantity against that defect (or an explicit
constant) and reports the two sides plus a witness.

Triple enumeration runs one x-slab at a time as vectorized array work; the
SINCOV_THREADS environment variable caps how many slabs are processed
concurrently (0 = auto).  The max reduction breaks ties toward the
lexicographically smallest (a, x, b) index triple, so results are identical
for any chunking or thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernel import _ALGEBRA, COMPLEX, FiniteKernel, KernelError, _cmul, _components

TOL_SCALE = 1e-12
_PARALLEL_MIN_SIZE = 64


def thread_limit() -> int:
    """Analysis parallelism cap from SINCOV_THREADS (0 or unset = auto)."""
    raw = os.environ.get("SINCOV_THREADS", "0").strip()
    try:
        value = int(raw)
    except ValueError:
        raise KernelError(f"SINCOV_THREADS must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise KernelError("SINCOV_THREADS must be a nonnegative integer")
    if value == 0:
        return os.cpu_count() or 1
    return value


def check_tolerance(kernel: FiniteKernel, tol: float | None = None) -> float:
    """Absolute tolerance for "must hold" checks: 1e-12 scaled by the largest
    entry norm (floored at one so near-zero kernels keep a usable slack)."""
    if tol is not None:
        if tol < 0:
            raise KernelError("tolerance must be nonnegative")
        return float(tol)
    return TOL_SCALE * max(1.0, kernel.max_norm())


@dataclass(frozen=True)
class DefectReport:
    """Worst and mean composition defect over all |X|^3 triples."""

    defect: float
    argmax_triple: tuple[str, str, str]
    triple_count: int
    mean_defect: float

    def to_dict(self) -> dict:
        return {
            "defect": self.defect,
            "argmax_triple": list(self.argmax_triple),
            "triple_count": self.triple_count,
            "mean_defect": self.mean_defect,
        }


@dataclass(frozen=True)
class Factorization:
    """Point maps f, g extracted from a kernel plus their quality metrics.

    gauge_error = max |f(x) g(x) - 1|; residual = max |F(u, v) - f(u)/f(v)|,
    infinite when f has a zero entry.  reference is None for factorizations
    that are not anchored at a single point.
    """

    reference: str | None
    f: dict[str, complex]
    g: dict[str, complex]
    gauge_error: float
    residual: float

    def to_dict(self) -> dict:
        def cmap(values: dict[str, complex]) -> dict:
            return {k: [v.real, v.imag] for k, v in values.items()}

        return {
            "reference": self.reference,
            "f": cmap(self.f),
            "g": cmap(self.g),
            "gauge_error": self.gauge_error,
            "residual": "inf" if math.isinf(self.residual) else self.residual,
        }


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs + tol, with the attaining labels."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    witness: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "witness": list(self.witness),
        }


def _label_checks(family: str, labels, lhs, rhs, tolv: float, witnesses) -> list[BoundCheck]:
    """The checks family[label] for all labels from whole-array sides; a
    scalar side is shared by every label."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, np.float64), np.asarray(rhs, np.float64))
    holds = (lhs <= rhs + tolv).tolist()
    return [
        BoundCheck(f"{family}[{lab}]", *sides)
        for lab, *sides in zip(labels, lhs.tolist(), rhs.tolist(), holds, witnesses)
    ]


def _slab_function(kernel: FiniteKernel):
    """slab(x): the defect terms |F(a, x) F(x, b) - F(a, b)| for all (a, b)."""
    mul, norm = _ALGEBRA[kernel.value_kind]
    parts = _components(kernel.table, kernel.value_kind)

    def slab(x: int) -> np.ndarray:
        products = mul(*(p[:, x][:, None] for p in parts), *(p[x, :][None, :] for p in parts))
        return norm(*(q - p for q, p in zip(products, parts)))

    return slab


def sincov_defect(kernel: FiniteKernel) -> DefectReport:
    """Exhaustive maximum of the composition defect over all triples.

    Deterministic: ties in the argmax go to the lexicographically smallest
    (a, x, b) index triple regardless of chunking or thread count.  A term
    that is not finite (the kernel's products or norms leave float64 range)
    raises KernelError naming its triple.
    """
    n = kernel.n
    labels = kernel.labels
    slab = _slab_function(kernel)
    sums = np.empty(n, dtype=np.float64)

    def scan(xs: range) -> tuple[float, int]:
        best_val, best_flat = -1.0, n * n * n
        # numpy's error state is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            for x in xs:
                D = slab(x)
                flat_ab = int(D.argmax())  # the first NaN, if there is one
                val = float(D.flat[flat_ab])
                a, b = divmod(flat_ab, n)
                if not math.isfinite(val):
                    raise KernelError(
                        f"non-finite defect term at ({labels[a]}, {labels[x]}, {labels[b]}): "
                        "products or norms of the kernel values overflow float64"
                    )
                flat = (a * n + x) * n + b
                if val > best_val or (val == best_val and flat < best_flat):
                    best_val, best_flat = val, flat
                sums[x] = D.sum()
        return best_val, best_flat

    workers = min(thread_limit(), n)
    if workers > 1 and n >= _PARALLEL_MIN_SIZE:
        step = -(-n // workers)
        chunks = [range(lo, min(lo + step, n)) for lo in range(0, n, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(scan, chunks))
    else:
        results = [scan(range(n))]

    best_val, best_flat = -1.0, n * n * n
    for val, flat in results:
        if val > best_val or (val == best_val and flat < best_flat):
            best_val, best_flat = val, flat

    ax, b = divmod(best_flat, n)
    a, x = divmod(ax, n)
    total = float(np.sum(sums))
    mean = min(total / (n * n * n), best_val)
    return DefectReport(
        defect=best_val,
        argmax_triple=(labels[a], labels[x], labels[b]),
        triple_count=n * n * n,
        mean_defect=mean,
    )


def is_exact(kernel: FiniteKernel, tol: float) -> bool:
    """Whether the kernel composes exactly, up to tol."""
    if tol < 0:
        raise KernelError("tol must be nonnegative")
    return sincov_defect(kernel).defect <= tol


def _resolve_defect(kernel: FiniteKernel, defect: float | None) -> float:
    return sincov_defect(kernel).defect if defect is None else float(defect)


def slice_residual(
    kernel: FiniteKernel,
    x0: str,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> BoundCheck:
    """The x = x0 slice of the defect: max |F(a, b) - F(a, x0) F(x0, b)|.

    Always bounded by the full defect, since every slice term is one of the
    enumerated triples.
    """
    i0 = kernel.index(x0)
    D = _slab_function(kernel)(i0)
    flat = int(D.argmax())
    a, b = divmod(flat, kernel.n)
    lhs = float(D.flat[flat])
    rhs = _resolve_defect(kernel, defect)
    tolv = check_tolerance(kernel, tol)
    return BoundCheck(
        name="slice_residual",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + tolv,
        witness=(kernel.labels[a], kernel.labels[b]),
    )


def _require_complex(kernel: FiniteKernel, operation: str) -> None:
    if kernel.value_kind != COMPLEX:
        raise KernelError(f"{operation} requires a complex-valued kernel")


def factorize(kernel: FiniteKernel, x0: str) -> Factorization:
    """Reference-point factorization: f = F(., x0), g = F(x0, .).

    The f values are the kernel column at x0 verbatim.  residual is the
    worst deviation of F from the pairwise ratio f(u)/f(v); it is reported
    as infinity when f vanishes somewhere.
    """
    _require_complex(kernel, "factorize")
    i0 = kernel.index(x0)
    return _factorization(kernel, x0, kernel.table[:, i0], kernel.table[i0, :])


def _gauge_deviation(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|f(x) g(x) - 1| for every x, with the product in component form."""
    re, im = _cmul(f.real, f.imag, g.real, g.imag)
    dev = (re - 1.0).astype(np.complex128)
    dev.imag = im
    return np.abs(dev)


def _factorization(kernel: FiniteKernel, reference, f_vec, g_vec) -> Factorization:
    """The Factorization of point maps f, g: gauge_error is the largest gauge
    check lhs, and residual is infinite when f vanishes somewhere."""
    if float(np.abs(f_vec).min()) == 0.0:
        residual = math.inf
    else:
        residual = float(np.abs(kernel.table - f_vec[:, None] / f_vec[None, :]).max())
    labels = kernel.labels
    return Factorization(
        reference=reference,
        f={lab: complex(v) for lab, v in zip(labels, f_vec)},
        g={lab: complex(v) for lab, v in zip(labels, g_vec)},
        gauge_error=float(_gauge_deviation(f_vec, g_vec).max()),
        residual=residual,
    )


def _gauge_sides(kernel: FiniteKernel, i0: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """|g(x) f(x) - 1| and its defect-driven bound (see gauge_error_bound)
    for every x at once, with f = F(., x0) and g = F(x0, .)."""
    if c < 0:
        raise KernelError("c must be nonnegative")
    f, g = kernel.table[:, i0], kernel.table[i0, :]
    absf, absg = np.abs(f), np.abs(g)
    if float(absf.min()) == 0.0 or float(absg.min()) == 0.0:
        raise KernelError("gauge_error_bound: slice maps must not vanish")
    fmax, gmax = float(absf.max()), float(absg.max())
    rhs = (c * c + 2.0 * c) / (fmax * gmax) + (c * absf) / fmax + (c * absg) / gmax
    return _gauge_deviation(f, g), rhs


def _gauge_checks(kernel: FiniteKernel, i0: int, c: float, tolv: float) -> list[BoundCheck]:
    labels = kernel.labels
    lhs, rhs = _gauge_sides(kernel, i0, c)
    return _label_checks("gauge", labels, lhs, rhs, tolv, [(lab,) for lab in labels])


def gauge_error_bound(kernel: FiniteKernel, x0: str, x: str, c: float) -> float:
    """Smallest over (a, b) of the defect-driven bound on |g(x) f(x) - 1|:

        (c^2 + 2c) / (|f(a)| |g(b)|) + c |f(x)|/|f(a)| + c |g(x)|/|g(b)|

    with f = F(., x0) and g = F(x0, .).  Requires nonvanishing slices.

    Every term is non-increasing in |f(a)| and in |g(b)|, and IEEE multiply,
    divide and add round monotonically, so the minimum over the (a, b) grid
    is the expression at a = argmax |f|, b = argmax |g|, bit for bit.  The
    bound for all x is therefore one O(n) vector.
    """
    _require_complex(kernel, "gauge_error_bound")
    i0, ix = kernel.index(x0), kernel.index(x)
    return float(_gauge_sides(kernel, i0, c)[1][ix])


def gauge_bound(
    kernel: FiniteKernel,
    x0: str,
    x: str,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> BoundCheck:
    """Check |g(x) f(x) - 1| against its defect-driven bound at (x0, x)."""
    _require_complex(kernel, "gauge_bound")
    i0, ix = kernel.index(x0), kernel.index(x)
    c = _resolve_defect(kernel, defect)
    return _gauge_checks(kernel, i0, c, check_tolerance(kernel, tol))[ix]


def _pair_argmax(grid: np.ndarray, labels: tuple[str, ...]) -> tuple[float, tuple[str, str]]:
    flat = int(grid.argmax())
    i, j = divmod(flat, grid.shape[1])
    return float(grid.flat[flat]), (labels[i], labels[j])


def diagonal_report(
    kernel: FiniteKernel,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> list[BoundCheck]:
    """Three diagonal consequences of the defect bound, any value kind:

      diag_spread   max |F(a,a) - F(x,x)|            <= 2c
      diag_product  max |F(a,x) F(x,a) - F(a,a)|     <= c
      diag_bound    max |F(x,x)| <= min |F(a,a)| + 2c

    diag_product is itself a defect term.  The other two follow by the
    triangle inequality when values commute; for mat2 kernels they are
    computed and reported all the same.
    """
    c = _resolve_defect(kernel, defect)
    tolv = check_tolerance(kernel, tol)
    labels = kernel.labels
    mul, norm = _ALGEBRA[kernel.value_kind]
    parts = _components(kernel.table, kernel.value_kind)
    diag = tuple(np.diagonal(p) for p in parts)
    spread = norm(*(d[:, None] - d[None, :] for d in diag))
    products = mul(*parts, *(p.T for p in parts))
    product = norm(*(q - d[:, None] for q, d in zip(products, diag)))
    diag_norm = norm(*diag)

    spread_lhs, spread_wit = _pair_argmax(spread, labels)
    prod_lhs, prod_wit = _pair_argmax(product, labels)
    mag_lhs = float(diag_norm.max())
    mag_wit = (labels[int(diag_norm.argmax())],)
    mag_rhs = float(diag_norm.min()) + 2.0 * c

    return [
        BoundCheck("diag_spread", spread_lhs, 2.0 * c, spread_lhs <= 2.0 * c + tolv, spread_wit),
        BoundCheck("diag_product", prod_lhs, c, prod_lhs <= c + tolv, prod_wit),
        BoundCheck("diag_bound", mag_lhs, mag_rhs, mag_lhs <= mag_rhs + tolv, mag_wit),
    ]


def unit_diag_bound(
    kernel: FiniteKernel,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> list[BoundCheck]:
    """Per reference point x0: a slice can only be large if F(x0, x0) is
    close to one, i.e. max |F(x0, b)| * |F(x0, x0) - 1| <= c, and the same
    for the column slice F(., x0)."""
    _require_complex(kernel, "unit_diag_bound")
    c = _resolve_defect(kernel, defect)
    tolv = check_tolerance(kernel, tol)
    T = kernel.table
    labels = kernel.labels
    absT = np.abs(T)
    dev = np.abs(np.diagonal(T) - 1.0)
    row_arg, col_arg = absT.argmax(axis=1).tolist(), absT.argmax(axis=0).tolist()
    return _label_checks(
        "unit_diag_row", labels, absT.max(axis=1) * dev, c, tolv,
        [(lab, labels[j]) for lab, j in zip(labels, row_arg)],
    ) + _label_checks(
        "unit_diag_col", labels, absT.max(axis=0) * dev, c, tolv,
        [(labels[i], lab) for lab, i in zip(labels, col_arg)],
    )


def growth_witness(
    kernel: FiniteKernel,
    y0: str,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> list[BoundCheck]:
    """Finite form of the growth argument: the largest |F(., y0)| value,
    less the defect, never exceeds |F(y, y0)| * max |F(., y)| for any y."""
    _require_complex(kernel, "growth_witness")
    j0 = kernel.index(y0)
    c = _resolve_defect(kernel, defect)
    tolv = check_tolerance(kernel, tol)
    absT = np.abs(kernel.table)
    col0 = absT[:, j0]
    a_star = kernel.labels[int(col0.argmax())]
    return _label_checks(
        "growth", kernel.labels, float(col0.max()) - c, col0 * absT.max(axis=0), tolv,
        [(a_star,)] * kernel.n,
    )


def gm_factorize(kernel: FiniteKernel) -> Factorization:
    """Geometric-mean factorization for strictly positive real kernels.

    f(u) = exp(mean over v of ln F(u, v)), the row geometric mean; g = 1/f.
    For an exact positive ratio kernel this recovers f up to one
    multiplicative constant.
    """
    _require_complex(kernel, "gm_factorize")
    T = kernel.table
    bad = (T.imag != 0.0) | (T.real <= 0.0)
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        raise KernelError(
            f"gm_factorize: non-positive or non-real entry at "
            f"({kernel.labels[i]!r}, {kernel.labels[j]!r})"
        )
    f_vec = np.exp(np.log(T.real).mean(axis=1))
    return _factorization(kernel, None, f_vec, 1.0 / f_vec)


def bound_suite(
    kernel: FiniteKernel,
    ref: str,
    *,
    defect: float | None = None,
    tol: float | None = None,
) -> list[BoundCheck]:
    """All applicable bound checks for one kernel, sharing one defect pass
    and one tolerance.

    mat2 kernels get the kind-agnostic checks (slice residual, diagonal
    report); complex kernels additionally get the unit-diagonal, growth,
    and gauge checks.  Gauge checks need nonvanishing slices at ref and are
    skipped otherwise.  Each family is built from whole arrays, and the
    gauge bounds come in closed form at argmax |f| and argmax |g| (see
    gauge_error_bound), so after the defect scan the suite costs O(n^2).
    """
    c = _resolve_defect(kernel, defect)
    tolv = check_tolerance(kernel, tol)
    checks = [slice_residual(kernel, ref, defect=c, tol=tolv)]
    checks.extend(diagonal_report(kernel, defect=c, tol=tolv))
    if kernel.value_kind == COMPLEX:
        checks.extend(unit_diag_bound(kernel, defect=c, tol=tolv))
        checks.extend(growth_witness(kernel, ref, defect=c, tol=tolv))
        i0 = kernel.index(ref)
        if kernel.table[:, i0].all() and kernel.table[i0, :].all():
            checks.extend(_gauge_checks(kernel, i0, c, tolv))
    return checks


def render_report(doc: dict) -> bytes:
    """Deterministic JSON bytes for a report document."""
    return (json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")
