import os

import mpmath
import numpy as np

from sincov import DefectReport, FiniteKernel
from sincov.kernel import _KINDS, _cnorm, _components


def brute_force_defect(kernel: FiniteKernel) -> float:
    """Independent defect oracle: plain triple loop, numpy SVD for matrix norms."""
    n = kernel.n
    worst = 0.0
    if kernel.value_kind == "complex":
        t = [[complex(kernel.table[i, j]) for j in range(n)] for i in range(n)]
        for a in range(n):
            for x in range(n):
                for b in range(n):
                    worst = max(worst, abs(t[a][x] * t[x][b] - t[a][b]))
    else:
        t = kernel.table
        for a in range(n):
            for x in range(n):
                for b in range(n):
                    m = t[a, x] @ t[x, b] - t[a, b]
                    worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def unbuffered_slabs(kernel: FiniteKernel) -> list[np.ndarray]:
    """Reference slabs without buffers: for every x, the terms
    |F(a, x) F(x, b) - F(a, b)| from the _KINDS functions on fresh arrays."""
    mul, norm = _KINDS[kernel.value_kind].mul, _KINDS[kernel.value_kind].norm
    parts = _components(kernel.table, kernel.value_kind)
    slabs = []
    for x in range(kernel.n):
        products = mul(*(p[:, x][:, None] for p in parts), *(p[x, :][None, :] for p in parts))
        slabs.append(norm(*(q - p for q, p in zip(products, parts))))
    return slabs


def unbuffered_defect_report(kernel: FiniteKernel) -> DefectReport:
    """Reference scan over unbuffered_slabs, one slab at a time in x order.
    The maximum goes to the smallest (a, x, b) triple attaining it; the mean
    is the scan's reduction, the sum of the slab sums over n^3."""
    n = kernel.n
    slabs = unbuffered_slabs(kernel)
    best = max(float(D.max()) for D in slabs)
    a, x, b = min(
        (int(a), x, int(b)) for x, D in enumerate(slabs) for a, b in np.argwhere(D == best)
    )
    sums = np.array([D.sum() for D in slabs])
    labels = kernel.labels
    return DefectReport(
        defect=best,
        argmax_triple=(labels[a], labels[x], labels[b]),
        triple_count=n**3,
        mean_defect=min(float(np.sum(sums)) / n**3, best),
    )


def decreasing_slab_kernel(kind: str, n: int, seed: int = 0) -> FiniteKernel:
    """F(u, v) = w(u) w(v) (1 + eps R(u, v)) with w falling from 3 to 1.5 and
    small noise R, so the largest defect term of slab x, about
    w_max^2 (w(x)^2 - 1), falls strictly with x.  A slab that reuses a value
    left over from an earlier slab then reports too large a term."""
    rng = np.random.default_rng(seed)
    w = np.linspace(3.0, 1.5, n)
    scale = w[:, None] * w[None, :]
    if kind == "complex":
        noise = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        table = scale * (1.0 + 1e-3 * noise)
    else:
        table = scale[..., None, None] * (np.eye(2) + 1e-3 * rng.uniform(-1, 1, (n, n, 2, 2)))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)


def brute_force_gauge_bound(kernel: FiniteKernel, x0: str, x: str, c: float) -> tuple[float, float]:
    """Independent gauge oracle, label by label: |g(x) f(x) - 1| from the numpy
    scalar product, and its bound as the minimum over the whole (a, b) grid,
    in the evaluation order of gauge_error_bound.  Moduli are _cnorm of the
    components, the complex kind's declared norm."""
    T = kernel.table
    i0, ix = kernel.index(x0), kernel.index(x)
    absf, absg = (_cnorm(v.real, v.imag) for v in (T[:, i0], T[i0, :]))
    grid = (
        (c / absf)[:, None] * ((c + 2.0) / absg)[None, :]
        + c * (absf[ix] / absf[:, None])
        + c * (absg[ix] / absg[None, :])
    )
    product = T[ix, i0] * T[i0, ix]
    return float(_cnorm(product.real - 1.0, product.imag)), float(grid.min())


def usable_cpus(monkeypatch, count: int) -> None:
    """Make the scan see count CPUs that the process may run on, on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def random_complex_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    table = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), "complex", table)


def random_mat2_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    table = rng.standard_normal((n, n, 2, 2))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), "mat2", table)


def _identity_mat2_with_large_first_diagonal(scale: float) -> FiniteKernel:
    table = np.zeros((3, 3, 2, 2))
    table[..., 0, 0] = table[..., 1, 1] = 1.0
    table[0, 0] *= scale  # the term at (a, a, a) is about scale^2
    return FiniteKernel(("a", "b", "c"), "mat2", table)


def _full(kind: str, n: int, value: float) -> FiniteKernel:
    shape = (n, n) if kind == "complex" else (n, n, 2, 2)
    return FiniteKernel(tuple("ab"[:n]), kind, np.full(shape, value))


def ones_mat2_with_large_column(scale: float) -> FiniteKernel:
    """64 points (enough for the threaded scan), all entries the all-ones
    matrix, the column F(., p40) scaled by scale: the largest term, about
    4 scale^2, is F(a, p40) F(p40, p40) - F(a, p40)."""
    table = np.ones((64, 64, 2, 2))
    table[:, 40] = scale
    return FiniteKernel(tuple(f"p{i}" for i in range(64)), "mat2", table)


# Kernels with finite entries whose defect terms are not finite in float64.
OVERFLOWING_KERNELS = {
    "complex-1e200": _full("complex", 2, 1e200),
    "mat2-1e200": _full("mat2", 2, 1e200),
    "mat2-1e160-diagonal": _identity_mat2_with_large_first_diagonal(1e160),
}

# Kernels whose entries and exact defect terms are inside float64 range,
# although squares of their entries or terms are not.
IN_RANGE_KERNELS = {
    "mat2-1e60-diagonal": _identity_mat2_with_large_first_diagonal(1e60),
    "mat2-1e70-column": ones_mat2_with_large_column(1e70),
    "mat2-1e77": _full("mat2", 2, 1e77),
    "mat2-1e78-one-point": _full("mat2", 1, 1e78),
    "complex-1e-170": _full("complex", 2, 1e-170),
}


# Exact oracle, for tests only: each value's float64 components are taken
# exactly as mpmath numbers, whose exponent range is unbounded, and every
# product, difference and norm is evaluated at 60 significant digits (the
# mat2 closed form then keeps about 30 where its singular values are close).

def _mp_parts(kind: str, value) -> list:
    return [mpmath.mpf(p.item()) for p in _components(value, kind)]


def _mp_mul(kind: str, a: list, b: list) -> list:
    if kind == "complex":
        return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]
    return [a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]]


def _mp_norm(kind: str, p: list):
    if kind == "complex":
        return mpmath.sqrt(p[0] ** 2 + p[1] ** 2)
    q = sum(v * v for v in p)
    det = p[0] * p[3] - p[1] * p[2]
    return mpmath.sqrt((q + mpmath.sqrt(max(q * q - 4 * det * det, 0))) / 2)


def exact_norm(kind: str, a, b=None):
    """|a - b|, or |a| without b, at 60 digits."""
    with mpmath.workdps(60):
        parts = _mp_parts(kind, a)
        if b is not None:
            parts = [p - q for p, q in zip(parts, _mp_parts(kind, b))]
        return _mp_norm(kind, parts)


def exact_term(kind: str, ax, xb, ab):
    """|ax * xb - ab| at 60 digits."""
    with mpmath.workdps(60):
        prod = _mp_mul(kind, _mp_parts(kind, ax), _mp_parts(kind, xb))
        return _mp_norm(kind, [p - q for p, q in zip(prod, _mp_parts(kind, ab))])


def exact_defect(kernel: FiniteKernel):
    """The exact defect, at 60 digits: the largest |F(a,x) F(x,b) - F(a,b)|
    over the distinct triples of values, so kernels of few distinct values
    are cheap at any size."""
    n, kind = kernel.n, kernel.value_kind
    flat = np.stack(_components(kernel.table, kind), axis=-1).reshape(n * n, -1)
    _, first, ids = np.unique(flat, axis=0, return_index=True, return_inverse=True)
    ids = ids.reshape(n, n)
    triples = np.stack(np.broadcast_arrays(
        ids[:, :, None], ids[None, :, :], ids[:, None, :]), axis=-1).reshape(-1, 3)
    values = kernel.table.reshape(n * n, *kernel.table.shape[2:])[first]
    return max(exact_term(kind, *values[t]) for t in np.unique(triples, axis=0))
