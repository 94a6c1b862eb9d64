import numpy as np
import pytest

from conftest import (
    OVERFLOWING_KERNELS,
    brute_force_defect,
    random_complex_kernel,
    random_mat2_kernel,
)
from sincov import FiniteKernel, GeneratorSpec, defect_term, generate, is_exact, sincov_defect
from sincov.analysis import thread_limit
from sincov.kernel import KernelError

ORACLE_KERNELS = [
    ("constant-1", generate(GeneratorSpec("constant", value=-1.0, size=3))),
    ("e1", generate(GeneratorSpec("e1", n=2, c=1.0))),
    ("ratio", generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))),
    ("e0", generate(GeneratorSpec("e0", samples=(1.0, 2.0, 10.0, 100.0)))),
    ("moszner", generate(GeneratorSpec("moszner", n=4, size=3))),
    ("perturbed", generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 7)), eps=0.3, seed=5))),
    ("mat2_ratio", generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0, 3.0)))),
    ("random-complex", random_complex_kernel(np.random.default_rng(3), 7)),
    ("random-mat2", random_mat2_kernel(np.random.default_rng(4), 5)),
]


@pytest.mark.parametrize("name,kernel", ORACLE_KERNELS, ids=[n for n, _ in ORACLE_KERNELS])
def test_defect_matches_brute_force(name, kernel):
    want = brute_force_defect(kernel)
    got = sincov_defect(kernel).defect
    assert abs(got - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("name,kernel", ORACLE_KERNELS, ids=[n for n, _ in ORACLE_KERNELS])
def test_argmax_reproduces_defect_exactly(name, kernel):
    report = sincov_defect(kernel)
    a, x, b = report.argmax_triple
    term = defect_term(kernel.value_at(a, x), kernel.value_at(x, b), kernel.value_at(a, b))
    assert term == report.defect


@pytest.mark.parametrize("name,kernel", ORACLE_KERNELS, ids=[n for n, _ in ORACLE_KERNELS])
def test_report_invariants(name, kernel):
    report = sincov_defect(kernel)
    assert report.triple_count == kernel.n ** 3
    assert 0.0 <= report.mean_defect <= report.defect


def test_constant_kernel_defect_value():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    report = sincov_defect(kernel)
    assert report.defect == 2.0
    # every triple ties; lexicographically smallest index triple wins
    assert report.argmax_triple == ("x0", "x0", "x0")


def test_e1_defect_value():
    report = sincov_defect(generate(GeneratorSpec("e1", n=2, c=1.0)))
    assert abs(report.defect - 4.0 / 9.0) <= 1e-12
    assert report.argmax_triple == ("4", "2", "2")


def test_exact_ratio_kernel_has_zero_defect():
    # dyadic sample points make the composition exact in floating point
    report = sincov_defect(generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0))))
    assert report.defect == 0.0
    assert report.mean_defect == 0.0


def test_single_point_kernel():
    report = sincov_defect(generate(GeneratorSpec("constant", value=-1.0, size=1)))
    assert report.defect == 2.0  # |F(a,a)^2 - F(a,a)|
    assert report.triple_count == 1
    exact = sincov_defect(generate(GeneratorSpec("constant", value=1.0, size=1)))
    assert exact.defect == 0.0


def test_is_exact():
    assert is_exact(generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0))), 0.0)
    assert not is_exact(generate(GeneratorSpec("constant", value=-1.0, size=3)), 1e-9)
    assert is_exact(generate(GeneratorSpec("e0", samples=(1.0, 2.0, 10.0, 100.0))), 1e-12)
    with pytest.raises(KernelError):
        is_exact(generate(GeneratorSpec("constant", value=1.0, size=1)), -1.0)


def test_determinism_across_thread_counts(monkeypatch):
    kernel = random_complex_kernel(np.random.default_rng(8), 80)
    reports = []
    for threads in ("1", "3", "0"):
        monkeypatch.setenv("SINCOV_THREADS", threads)
        reports.append(sincov_defect(kernel))
    assert reports[0] == reports[1] == reports[2]

    kernel_m = random_mat2_kernel(np.random.default_rng(9), 70)
    got = []
    for threads in ("1", "4"):
        monkeypatch.setenv("SINCOV_THREADS", threads)
        got.append(sincov_defect(kernel_m))
    assert got[0] == got[1]


def test_repeated_runs_identical():
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 13)), eps=0.2, seed=17))
    assert sincov_defect(kernel) == sincov_defect(kernel)


def test_thread_limit_env(monkeypatch):
    monkeypatch.setenv("SINCOV_THREADS", "2")
    assert thread_limit() == 2
    monkeypatch.setenv("SINCOV_THREADS", "0")
    assert thread_limit() >= 1
    monkeypatch.setenv("SINCOV_THREADS", "banana")
    with pytest.raises(KernelError):
        thread_limit()
    monkeypatch.setenv("SINCOV_THREADS", "-1")
    with pytest.raises(KernelError):
        thread_limit()


@pytest.mark.parametrize("name", sorted(OVERFLOWING_KERNELS))
def test_non_finite_defect_terms_raise_kernel_error(name):
    with pytest.raises(KernelError, match=r"non-finite defect term at \(a, a, a\)"):
        sincov_defect(OVERFLOWING_KERNELS[name])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_non_finite_defect_terms_raise_in_every_worker(monkeypatch, threads):
    # 64 points take the threaded path.  Only products F(a, p40) F(p40, p40)
    # of two large entries overflow, so the first non-finite slab is x = 40.
    table = np.ones((64, 64, 2, 2))
    table[:, 40] = 1e70
    kernel = FiniteKernel(tuple(f"p{i}" for i in range(64)), "mat2", table)
    monkeypatch.setenv("SINCOV_THREADS", threads)
    with pytest.raises(KernelError, match=r"non-finite defect term at \(p0, p40, p40\)"):
        sincov_defect(kernel)
