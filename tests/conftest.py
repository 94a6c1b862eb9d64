import numpy as np

from sincov import DefectReport, FiniteKernel
from sincov.kernel import _ALGEBRA, _components


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
    |F(a, x) F(x, b) - F(a, b)| from the _ALGEBRA functions on fresh arrays."""
    mul, norm = _ALGEBRA[kernel.value_kind]
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
    scalar product, and its bound as the minimum over the whole (a, b) grid.
    Moduli are np.hypot of the components, the complex kind's declared norm."""
    T = kernel.table
    i0, ix = kernel.index(x0), kernel.index(x)
    absf, absg = (np.hypot(v.real, v.imag) for v in (T[:, i0], T[i0, :]))
    grid = (
        (c * c + 2.0 * c) / np.outer(absf, absg)
        + (c * absf[ix]) / absf[:, None]
        + (c * absg[ix]) / absg[None, :]
    )
    product = T[ix, i0] * T[i0, ix]
    return float(np.hypot(product.real - 1.0, product.imag)), float(grid.min())


def random_complex_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    table = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), "complex", table)


def random_mat2_kernel(rng: np.random.Generator, n: int) -> FiniteKernel:
    table = rng.standard_normal((n, n, 2, 2))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), "mat2", table)


def _identity_mat2_with_large_first_diagonal() -> FiniteKernel:
    table = np.zeros((3, 3, 2, 2))
    table[..., 0, 0] = table[..., 1, 1] = 1.0
    table[0, 0] *= 1e60  # the term at (a, a, a) is about 1e120; its squared norms overflow
    return FiniteKernel(("a", "b", "c"), "mat2", table)


# Kernels with finite entries whose defect terms are not finite in float64.
OVERFLOWING_KERNELS = {
    "complex-1e200": FiniteKernel(("a", "b"), "complex", np.full((2, 2), 1e200 + 0j)),
    "mat2-1e200": FiniteKernel(("a", "b"), "mat2", np.full((2, 2, 2, 2), 1e200)),
    "mat2-1e60-diagonal": _identity_mat2_with_large_first_diagonal(),
}
