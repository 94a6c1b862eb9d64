import numpy as np

from sincov import FiniteKernel


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


def brute_force_gauge_bound(kernel: FiniteKernel, x0: str, x: str, c: float) -> tuple[float, float]:
    """Independent gauge oracle, label by label: |g(x) f(x) - 1| from the numpy
    scalar product, and its bound as the minimum over the whole (a, b) grid."""
    T = kernel.table
    i0, ix = kernel.index(x0), kernel.index(x)
    absf, absg = np.abs(T[:, i0]), np.abs(T[i0, :])
    grid = (
        (c * c + 2.0 * c) / np.outer(absf, absg)
        + (c * absf[ix]) / absf[:, None]
        + (c * absg[ix]) / absg[None, :]
    )
    return float(np.abs(T[ix, i0] * T[i0, ix] - 1.0)), float(grid.min())


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
