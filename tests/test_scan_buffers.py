"""The defect scan evaluates every slab in per-worker buffers; its reports must
equal those of an unbuffered reference scan bit for bit."""

import numpy as np
import pytest

from conftest import (
    decreasing_slab_kernel,
    random_complex_kernel,
    random_mat2_kernel,
    unbuffered_defect_report,
    unbuffered_slabs,
)
from sincov import slice_residual, sincov_defect

SIZES = (1, 2, 63, 64, 65, 130)  # around the smallest size scanned in parallel
RANDOM = {"complex": random_complex_kernel, "mat2": random_mat2_kernel}


def _kernels(kind: str, n: int):
    return {
        "random": RANDOM[kind](np.random.default_rng(n), n),
        "decreasing": decreasing_slab_kernel(kind, n, seed=n),
    }


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_buffered_scan_equals_unbuffered_reference(monkeypatch, kind, n, threads):
    monkeypatch.setattr("os.cpu_count", lambda: 4)  # so the thread count is not capped
    monkeypatch.setenv("SINCOV_THREADS", threads)
    for name, kernel in _kernels(kind, n).items():
        expected = unbuffered_defect_report(kernel)
        got = sincov_defect(kernel)
        assert got == expected, name
        assert got.mean_defect.hex() == expected.mean_defect.hex(), name


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_slab_maxima_fall_with_x(kind):
    kernel = decreasing_slab_kernel(kind, 65)
    c = sincov_defect(kernel).defect
    maxima = [slice_residual(kernel, lab, defect=c).lhs for lab in kernel.labels]
    assert maxima[0] == c
    assert all(later < earlier for earlier, later in zip(maxima, maxima[1:]))


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_slice_residual_equals_the_reference_slab(kind):
    kernel = RANDOM[kind](np.random.default_rng(5), 7)
    for lab, D in zip(kernel.labels, unbuffered_slabs(kernel)):
        check = slice_residual(kernel, lab, defect=0.0)
        a, b = divmod(int(D.argmax()), kernel.n)
        assert check.lhs == D.max()
        assert check.witness == (kernel.labels[a], kernel.labels[b])
