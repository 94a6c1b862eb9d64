"""Defect reports, reference-point and geometric-mean factorizations, bound checks.

The central quantity is the composition defect of a kernel: the maximum of
|F(a, x) * F(x, b) - F(a, b)| over all label triples.  Every bound check in
this module compares a derived quantity against that defect (or an explicit
constant) and reports the two sides plus a witness.

Each family of checks (slice, diagonal, unit-diagonal, growth, gauge) is one
sides function (kernel, i0, c) -> (names, lhs, rhs, witnesses) of whole
arrays, with i0 the index of the reference label.  One runner, _run_checks,
builds the checks of any list of families: it alone resolves the tolerance,
the reference label and the defect c.  A given tolerance or defect must be
finite and nonnegative, else KernelError; when none is given, the tolerance
is check_tolerance's default and c comes from a defect pass, which runs
after every input has been checked.

Triple enumeration runs one x-slab at a time as vectorized array work, in
one function, _scan, that reduces each slab; SINCOV_THREADS caps how many slabs
are processed concurrently (0 = auto: the usable CPUs).  sincov_defect keeps
each slab's argmax, maximum and sum; its argmax breaks ties toward the
lexicographically smallest (a, x, b) index triple, so results are identical
for any chunking or thread count.  The checks need the defect alone, and
_defect makes one pass per kernel that keeps each slab's maximum: of the
squared moduli for a complex kernel whose components are in range (below),
and of the kind's norm for every other kernel.

Range policy: every norm of a kernel value is the kind's declared norm
(kernel._KINDS), which is finite whenever the exact norm is inside float64
range: its fast closed form is recomputed at a power-of-two scale wherever
its squares could have overflowed or underflowed.  On a kernel whose
components are 0 or of modulus in [2^-150, 2^150] the guard would keep every
defect term, so the scan evaluates the bare form alone.  Array work runs with
numpy's overflow warnings off.  A quantity that leaves float64 range (a
defect term, the tolerance, a check side, a gauge error) is detected by
value and raises KernelError; only a factorization's residual reports
infinity, where f vanishes somewhere.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .kernel import (
    _KINDS, COMPLEX, FiniteKernel, KernelError, _cmul, _cnorm, _components, _finite_sides, _in_range,
    _ratio_table, _scan_dot, _squared_modulus,
)

TOL_SCALE = 1e-12
_PARALLEL_MIN_SIZE = 64


def thread_limit() -> int:
    """Analysis parallelism cap from SINCOV_THREADS (0 or unset = auto): the CPUs usable."""
    raw = os.environ.get("SINCOV_THREADS", "0").strip()
    try:
        value = int(raw)
    except ValueError:
        raise KernelError(f"SINCOV_THREADS must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise KernelError("SINCOV_THREADS must be a nonnegative integer")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores if value == 0 else min(value, cores)


@_in_range
def check_tolerance(kernel: FiniteKernel, tol: float | None = None) -> float:
    """Absolute tolerance for "must hold" checks: 1e-12 scaled by the largest
    entry norm (floored at one so near-zero kernels keep a usable slack).  A
    given or computed tolerance must be finite and nonnegative."""
    if tol is None:
        tol = TOL_SCALE * float(np.maximum(kernel.max_norm(), 1.0))  # unlike max(), keeps NaN
    if not (math.isfinite(tol) and tol >= 0):
        raise KernelError(f"tolerance must be finite and nonnegative, got {float(tol)!r}")
    return float(tol)


@dataclass(frozen=True)
class DefectReport:
    """Worst and mean composition defect over all |X|^3 triples."""

    defect: float
    argmax_triple: tuple[str, str, str]
    triple_count: int
    mean_defect: float

    def to_dict(self) -> dict:
        return {**asdict(self), "argmax_triple": list(self.argmax_triple)}


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
        doc = {**vars(self), "residual": "inf" if math.isinf(self.residual) else self.residual}
        return doc | {key: {k: [v.real, v.imag] for k, v in doc[key].items()} for key in "fg"}


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs + tol, with the attaining labels."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    witness: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "witness": list(self.witness)}  # asdict's deep copy is 10x slower


def _checks(names, lhs, rhs, witnesses, tolv: float) -> list[BoundCheck]:
    """The checks names[k]: lhs[k] <= rhs[k] + tolv, from whole-array sides; a
    scalar side is shared by every check.  A side that is not finite means the
    kernel values left float64 range and raises KernelError."""
    lhs, rhs = (np.broadcast_to(np.asarray(s, np.float64), (len(names),)) for s in (lhs, rhs))
    _finite_sides(KernelError, lambda k: f"check {names[k]}", lhs, rhs)
    holds = (lhs <= rhs + tolv).tolist()
    return [BoundCheck(*c) for c in zip(names, lhs.tolist(), rhs.tolist(), holds, witnesses)]


def _norm_in_place(kernel: FiniteKernel, formula=None):
    """(norm, buffers): norm(diffs, out) evaluates the kind's norm, or a given
    formula, on the component arrays diffs, which lie in the product buffers
    out[0] of out = buffers().  A formula, and on a kernel whose terms need no
    range guard (kernel._components_in_range) the norm's bare formula, runs in
    place over the diffs; only the guarded norm takes buffers of its own,
    out[1].  The result is one of the buffers, so the next use of the same out
    overwrites it."""
    algebra = _KINDS[kernel.value_kind]
    if formula is None and kernel._in_component_range:
        formula = algebra.norm.__wrapped__

    def norm(diffs, out) -> np.ndarray:
        product_buffers, norm_buffers = out
        if formula is None:
            return algebra.norm(*diffs, out=norm_buffers)
        return formula(*diffs, out=product_buffers)

    return norm, functools.partial(_slab_buffers, kernel.n, algebra.outs, formula is None)


def _slab_buffers(n: int, outs, guarded: bool):
    """One set of buffers for _norm_in_place, all made here: (n, n) float64
    arrays under the indices that the kind's product writes and, for the
    guarded norm, under those that the norm writes (kernel._KINDS's outs)."""
    product, norm = outs
    return ({k: np.empty((n, n)) for k in product}, {k: np.empty((n, n)) for k in norm if guarded})


def _slab_function(kernel: FiniteKernel, formula=None):
    """(slab, buffers): slab(x, out) gives the defect terms
    |F(a, x) F(x, b) - F(a, b)| for all (a, b), under the kind's norm or a
    given formula, in the buffers of out = buffers() (see _norm_in_place)."""
    algebra = _KINDS[kernel.value_kind]
    norm, buffers = _norm_in_place(kernel, formula)
    parts = _components(kernel.table, kernel.value_kind)
    dot = _scan_dot()

    def slab(x: int, out) -> np.ndarray:
        products = algebra.mul(*(p[:, x] for p in parts), *(p[x, :] for p in parts),
                               out=out[0], dot=dot)
        return norm([np.subtract(q, p, out=q) for q, p in zip(products, parts)], out)

    return slab, buffers


def _scan(kernel: FiniteKernel, reduce, formula=None) -> list:
    """[reduce(D) for each slab x], D its terms (see _slab_function), in chunks
    of slabs on up to thread_limit() threads.  The calling thread scans the
    first chunk; the first failed chunk's error is raised."""
    n = kernel.n
    slab, buffers = _slab_function(kernel, formula)
    workers = min(thread_limit(), n)
    step = -(-n // workers) if n >= _PARALLEL_MIN_SIZE else n
    chunks = [range(lo, min(lo + step, n)) for lo in range(0, n, step)]
    # Every chunk's buffers are made here, in the calling thread, and reused
    # for each of the chunk's slabs.  glibc's malloc gives each thread an
    # arena of its own, and what a thread frees goes back to its arena:
    # buffers made in a worker would leave their pages there when it exits,
    # and the calling thread's later arrays would need fresh ones.
    outs = [buffers() for _ in chunks]
    results = [None] * n
    errors: list[BaseException | None] = [None] * len(chunks)

    @_in_range
    def scan(i: int) -> None:
        try:
            for x in chunks[i]:
                results[x] = reduce(slab(x, outs[i]))
        except BaseException as exc:  # kept for the caller, which re-raises it
            errors[i] = exc

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(1, len(chunks))]
    for thread in threads:
        thread.start()
    scan(0)  # the calling thread scans the first chunk
    for thread in threads:
        thread.join()
    # a failed chunk left its slots of results unwritten
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _report(D: np.ndarray, k: int = 0):
    """sincov_defect's slab reduction: argmax, its value (the first NaN), sum of the terms 2^-k."""
    i = D.argmax()
    return i, D.flat[i], (np.ldexp(D, -k, out=D) if k else D).sum()


@_in_range
def sincov_defect(kernel: FiniteKernel) -> DefectReport:
    """Exhaustive maximum of the composition defect over all triples.

    Deterministic: ties in the argmax go to the lexicographically smallest
    (a, x, b) index triple regardless of chunking or thread count.  A term
    that is not finite (the kernel's products or norms leave float64 range)
    raises KernelError naming its triple.
    """
    n, labels = kernel.n, kernel.labels
    args, vals, sums = (np.array(r) for r in zip(*_scan(kernel, _report)))  # per slab x
    # Rank each slab: -1 if its maximum is not finite, its flat (a, x, b)
    # index if it reaches the overall maximum, n^3 otherwise; the least wins.
    a, b = np.divmod(args, n)
    flat = (a * n + np.arange(n)) * n + b
    x = int(np.where(np.isfinite(vals), np.where(vals == vals.max(), flat, n**3), -1).argmin())
    a, b = int(a[x]), int(b[x])
    if not math.isfinite(vals[x]):
        raise KernelError(
            f"non-finite defect term at ({labels[a]}, {labels[x]}, {labels[b]}): "
            "products or norms of the kernel values overflow float64"
        )
    best_val = float(vals[x])
    mean = float(np.sum(sums)) / n**3
    if not math.isfinite(mean):  # a sum overflowed: sum the n^3 terms again at 2^-k < n^-3
        k = (n**3).bit_length()
        sums = np.array([r[2] for r in _scan(kernel, functools.partial(_report, k=k))])
        mean = float(np.ldexp(np.sum(sums) / n**3, k))
    mean = min(mean, best_val)
    return DefectReport(
        defect=best_val,
        argmax_triple=(labels[a], labels[x], labels[b]),
        triple_count=n * n * n,
        mean_defect=mean,
    )


def _defect(kernel: FiniteKernel) -> float:
    """sincov_defect(kernel).defect, bit for bit, from one pass that keeps each
    slab's maximum alone, in the form that the range test picks.  A complex
    kernel whose components are in range (kernel._components_in_range) keeps
    the squared moduli, and the largest is rooted once: sqrt is correctly
    rounded and monotone, and there the bare modulus is the norm.  Every other
    kernel keeps the kind's norm, bare in range and guarded outside it (see
    _norm_in_place).  A term that is not finite makes the report's pass raise
    the error that names it."""
    if kernel.value_kind == COMPLEX and kernel._in_component_range:
        c = float(np.sqrt(np.max(_scan(kernel, np.max, _squared_modulus))))
    else:
        c = float(np.max(_scan(kernel, np.max)))  # np.max propagates NaN, which is not finite
    return c if math.isfinite(c) else sincov_defect(kernel).defect


def is_exact(kernel: FiniteKernel, tol: float) -> bool:
    """Whether the kernel composes exactly, up to tol."""
    tol = check_tolerance(kernel, tol)
    return _defect(kernel) <= tol


@_in_range
def _run_checks(kernel, families, ref=None, *, defect=None, tol=None, at=None) -> list[BoundCheck]:
    """Each family's checks in turn, against one tolerance and one defect c.
    A family is a sides function (kernel, i0, c) -> (names, lhs, rhs,
    witnesses), i0 the index of ref; at keeps only the check of that label.
    The inputs are checked cheapest first (tolerance, labels, a given
    defect), so the defect pass for a missing defect runs last."""
    tolv = check_tolerance(kernel, tol)
    i0 = None if ref is None else kernel.index(ref)
    ix = None if at is None else kernel.index(at)
    if defect is not None and not (math.isfinite(defect) and defect >= 0):
        raise KernelError(f"defect must be finite and nonnegative, got {float(defect)!r}")
    c = _defect(kernel) if defect is None else float(defect)
    checks = [check for sides in families for check in _checks(*sides(kernel, i0, c), tolv)]
    return checks if ix is None else [checks[ix]]


def _slice_sides(kernel: FiniteKernel, i0: int, c: float):
    slab, buffers = _slab_function(kernel)
    D = slab(i0, buffers())
    a, b = divmod(int(D.argmax()), kernel.n)
    return ["slice_residual"], D[a, b], c, [(kernel.labels[a], kernel.labels[b])]


def slice_residual(
    kernel: FiniteKernel, x0: str, *, defect: float | None = None, tol: float | None = None
) -> BoundCheck:
    """The x = x0 slice of the defect: max |F(a, b) - F(a, x0) F(x0, b)|.

    Always bounded by the full defect, since every slice term is one of the
    enumerated triples.
    """
    return _run_checks(kernel, [_slice_sides], x0, defect=defect, tol=tol)[0]


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
    return _cnorm(re - 1.0, im)


@_in_range
def _factorization(kernel: FiniteKernel, reference, f_vec, g_vec) -> Factorization:
    """The Factorization of point maps f, g: gauge_error is the largest gauge
    check lhs, and residual is infinite when f vanishes somewhere.  Any other
    non-finite value raises KernelError."""
    residual = math.inf
    if f_vec.all():
        dev = kernel.table - _ratio_table(f_vec)
        residual = float(_cnorm(dev.real, dev.imag).max())
    gauge_error = float(_gauge_deviation(f_vec, g_vec).max())
    if not (math.isfinite(gauge_error) and (math.isfinite(residual) or not f_vec.all())):
        raise KernelError(
            f"non-finite factorization: gauge_error {gauge_error!r}, residual {residual!r}; "
            "a value leaves float64 range"
        )
    labels = kernel.labels
    return Factorization(
        reference=reference,
        f={lab: complex(v) for lab, v in zip(labels, f_vec)},
        g={lab: complex(v) for lab, v in zip(labels, g_vec)},
        gauge_error=gauge_error,
        residual=residual,
    )


def _gauge_sides(kernel: FiniteKernel, i0: int, c: float, *, operation: str | None = None):
    """|g(x) f(x) - 1| and its defect-driven bound (see gauge_error_bound)
    for every x at once, with f = F(., x0) and g = F(x0, .).  Slices that
    vanish somewhere give no checks, or raise KernelError naming operation."""
    f, g = kernel.table[:, i0], kernel.table[i0, :]
    if not (f.all() and g.all()):
        if operation is None:
            return [], [], [], []
        raise KernelError(f"{operation}: slice maps must not vanish")
    norms = kernel.entry_norms()
    absf, absg = norms[:, i0], norms[i0, :]
    fmax, gmax = absf.max(), absg.max()
    # each product of c with a modulus is taken after a quotient: fmax * gmax
    # underflows, and c * |f(x)| overflows, on kernels whose bound is in range
    rhs = (c / fmax) * ((c + 2.0) / gmax) + c * (absf / fmax) + c * (absg / gmax)
    names = [f"gauge[{lab}]" for lab in kernel.labels]
    return names, _gauge_deviation(f, g), rhs, [(lab,) for lab in kernel.labels]


def gauge_error_bound(kernel: FiniteKernel, x0: str, x: str, c: float) -> float:
    """Smallest over (a, b) of the defect-driven bound on |g(x) f(x) - 1|:

        (c^2 + 2c) / (|f(a)| |g(b)|) + c |f(x)|/|f(a)| + c |g(x)|/|g(b)|

    with f = F(., x0) and g = F(x0, .), evaluated as
    (c / |f(a)|) ((c + 2) / |g(b)|) + c (|f(x)|/|f(a)|) + c (|g(x)|/|g(b)|).
    It is the rhs of gauge_bound's check, so it requires nonvanishing slices,
    and a side of that check beyond float64 range raises KernelError.

    Every term is non-increasing in |f(a)| and in |g(b)|, and IEEE multiply,
    divide and add round monotonically, so the minimum over the (a, b) grid
    is the expression at a = argmax |f|, b = argmax |g|, bit for bit.  The
    bound for all x is therefore one O(n) vector.
    """
    _require_complex(kernel, "gauge_error_bound")
    sides = functools.partial(_gauge_sides, operation="gauge_error_bound")
    return _run_checks(kernel, [sides], x0, defect=c, tol=0.0, at=x)[0].rhs


def gauge_bound(
    kernel: FiniteKernel, x0: str, x: str, *, defect: float | None = None, tol: float | None = None
) -> BoundCheck:
    """Check |g(x) f(x) - 1| against its defect-driven bound at (x0, x)."""
    _require_complex(kernel, "gauge_bound")
    sides = functools.partial(_gauge_sides, operation="gauge_bound")
    return _run_checks(kernel, [sides], x0, defect=defect, tol=tol, at=x)[0]


def _diagonal_sides(kernel: FiniteKernel, i0, c: float):
    labels, n, algebra = kernel.labels, kernel.n, _KINDS[kernel.value_kind]
    norm, buffers = _norm_in_place(kernel)
    out = buffers()
    parts = _components(kernel.table, kernel.value_kind)
    diag = tuple(np.diagonal(p) for p in parts)
    products = algebra.mul(*parts, *(p.T for p in parts), out=out[0])
    product = norm([np.subtract(q, d[:, None], out=q) for q, d in zip(products, diag)], out)
    k, m = divmod(int(product.argmax()), n)
    worst = product[k, m]  # a copy: the spread below reuses the buffers
    if kernel.value_kind != COMPLEX:  # the other two need commuting values
        return ["diag_product"], worst, c, [(labels[k], labels[m])]
    # A difference of two components in range is 0 or a multiple of 2^-202
    # of modulus at most 2^151 (see kernel._components_in_range), so the
    # spread's moduli lie inside the norm's window too, or are 0.
    spread = norm([np.subtract(d[:, None], d[None, :], out=out[0][j]) for j, d in enumerate(diag)], out)
    diag_norm = np.diagonal(kernel.entry_norms())
    i, j = divmod(int(spread.argmax()), n)
    return (
        ["diag_spread", "diag_product", "diag_bound"],
        [spread[i, j], worst, diag_norm.max()],
        [2.0 * c, c, diag_norm.min() + 2.0 * c],
        [(labels[i], labels[j]), (labels[k], labels[m]), (labels[int(diag_norm.argmax())],)],
    )


def diagonal_report(
    kernel: FiniteKernel, *, defect: float | None = None, tol: float | None = None
) -> list[BoundCheck]:
    """The diagonal consequences of the defect bound:

      diag_spread   max |F(a,a) - F(x,x)|            <= 2c   (complex only)
      diag_product  max |F(a,x) F(x,a) - F(a,a)|     <= c
      diag_bound    max |F(x,x)| <= min |F(a,a)| + 2c        (complex only)

    diag_product is itself a defect term, so it holds for any value kind.
    The other two follow by the triangle inequality only when values
    commute, and fail on exact mat2 kernels, so mat2 kernels get
    diag_product alone.
    """
    return _run_checks(kernel, [_diagonal_sides], defect=defect, tol=tol)


def _unit_diag_sides(kernel: FiniteKernel, i0, c: float):
    labels = kernel.labels
    absT = kernel.entry_norms()
    diag = np.diagonal(kernel.table)
    dev = _cnorm(diag.real - 1.0, diag.imag)
    rows, cols = absT.argmax(axis=1).tolist(), absT.argmax(axis=0).tolist()
    names = [f"unit_diag_{side}[{lab}]" for side in ("row", "col") for lab in labels]
    witnesses = [(lab, labels[j]) for lab, j in zip(labels, rows)]
    witnesses += [(labels[i], lab) for lab, i in zip(labels, cols)]
    return names, np.concatenate([absT.max(axis=1) * dev, absT.max(axis=0) * dev]), c, witnesses


def unit_diag_bound(
    kernel: FiniteKernel, *, defect: float | None = None, tol: float | None = None
) -> list[BoundCheck]:
    """Per reference point x0: a slice can only be large if F(x0, x0) is
    close to one, i.e. max |F(x0, b)| * |F(x0, x0) - 1| <= c, and the same
    for the column slice F(., x0)."""
    _require_complex(kernel, "unit_diag_bound")
    return _run_checks(kernel, [_unit_diag_sides], defect=defect, tol=tol)


def _growth_sides(kernel: FiniteKernel, j0: int, c: float):
    absT = kernel.entry_norms()
    col0 = absT[:, j0]
    a_star = kernel.labels[int(col0.argmax())]
    names = [f"growth[{lab}]" for lab in kernel.labels]
    return names, float(col0.max()) - c, col0 * absT.max(axis=0), [(a_star,)] * kernel.n


def growth_witness(
    kernel: FiniteKernel, y0: str, *, defect: float | None = None, tol: float | None = None
) -> list[BoundCheck]:
    """Finite form of the growth argument: the largest |F(., y0)| value,
    less the defect, never exceeds |F(y, y0)| * max |F(., y)| for any y."""
    _require_complex(kernel, "growth_witness")
    return _run_checks(kernel, [_growth_sides], y0, defect=defect, tol=tol)


@_in_range
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
    kernel: FiniteKernel, ref: str, *, defect: float | None = None, tol: float | None = None
) -> list[BoundCheck]:
    """All applicable bound checks for one kernel, sharing one defect pass
    and one tolerance.

    mat2 kernels get the kind-agnostic checks (slice residual and
    diag_product); complex kernels get the whole diagonal report and, in
    addition, the unit-diagonal, growth, and gauge checks.  Gauge checks
    need nonvanishing slices at ref and are skipped otherwise.  Each family
    is built from whole arrays, and the gauge bounds come in closed form at
    argmax |f| and argmax |g| (see gauge_error_bound), so after the defect
    scan the suite costs O(n^2).
    """
    families = [_slice_sides, _diagonal_sides]
    if kernel.value_kind == COMPLEX:
        families += [_unit_diag_sides, _growth_sides, _gauge_sides]
    return _run_checks(kernel, families, ref, defect=defect, tol=tol)


def render_report(doc: dict) -> bytes:
    """Deterministic JSON bytes for a report document, with a final newline.
    A float that is not finite raises ValueError."""
    return (json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")
