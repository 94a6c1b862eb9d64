import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    IN_RANGE_KERNELS,
    OVERFLOWING_KERNELS,
    brute_force_defect,
    exact_defect,
    ones_mat2_with_large_column,
    random_complex_kernel,
    random_mat2_kernel,
    usable_cpus,
)
from sincov import FiniteKernel, GeneratorSpec, defect_term, generate, is_exact, sincov_defect
from sincov import analysis
from sincov.analysis import thread_limit
from sincov.kernel import KernelError, _components_in_range, _squared_modulus


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_is_exact_rejects_a_non_finite_tolerance(tol):
    # inf would pass every kernel, and nan would fail every kernel, silently
    with pytest.raises(KernelError, match="tolerance must be finite and nonnegative"):
        is_exact(generate(GeneratorSpec("constant", value=-1.0, size=3)), tol)


def test_determinism_across_thread_counts(monkeypatch):
    usable_cpus(monkeypatch, 8)  # 3 and 4 workers on any machine
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ties_go_to_the_smallest_triple(monkeypatch, threads):
    # Entries in {-1, 0, 1} make every term an exact small integer, so the
    # maximum is reached by many triples, in many slabs.
    rng = np.random.default_rng(5)
    usable_cpus(monkeypatch, 8)  # 2 workers on any machine
    monkeypatch.setenv("SINCOV_THREADS", threads)
    for n in (6, 70):
        for _ in range(5):
            table = rng.integers(-1, 2, (n, n)).astype(np.complex128)
            kernel = FiniteKernel(tuple(f"p{i}" for i in range(n)), "complex", table)
            terms = np.abs(table[:, :, None] * table[None, :, :] - table[:, None, :])
            a, x, b = np.unravel_index(terms.argmax(), terms.shape)  # first in (a, x, b) order
            report = sincov_defect(kernel)
            assert report.argmax_triple == (f"p{a}", f"p{x}", f"p{b}")
            assert report.defect == terms.max()


def test_thread_limit_env(monkeypatch):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("SINCOV_THREADS", "2")
    assert thread_limit() == 2
    monkeypatch.setenv("SINCOV_THREADS", "8")  # capped at the core count; starts no thread
    assert thread_limit() == 2
    monkeypatch.setenv("SINCOV_THREADS", "0")
    assert thread_limit() >= 1
    monkeypatch.setenv("SINCOV_THREADS", "banana")
    with pytest.raises(KernelError):
        thread_limit()
    monkeypatch.setenv("SINCOV_THREADS", "-1")
    with pytest.raises(KernelError):
        thread_limit()


def test_auto_thread_limit_counts_the_cpus_the_process_may_run_on(monkeypatch):
    # a container pinned to one CPU of a 64-CPU machine scans in one thread
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    for threads in ("0", "4"):
        monkeypatch.setenv("SINCOV_THREADS", threads)
        assert thread_limit() == 1


@pytest.mark.parametrize("name", sorted(OVERFLOWING_KERNELS))
def test_non_finite_defect_terms_raise_kernel_error(name):
    with pytest.raises(KernelError, match=r"non-finite defect term at \(a, a, a\)"):
        sincov_defect(OVERFLOWING_KERNELS[name])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_non_finite_defect_terms_raise_in_every_worker(monkeypatch, threads):
    # 64 points take the threaded path.  Only products F(a, p40) F(p40, p40)
    # of two large entries leave range (1e320), so the first non-finite slab
    # is x = 40.
    kernel = ones_mat2_with_large_column(1e160)
    usable_cpus(monkeypatch, 8)  # 2 workers on any machine
    monkeypatch.setenv("SINCOV_THREADS", threads)
    with pytest.raises(KernelError, match=r"non-finite defect term at \(p0, p40, p40\)"):
        sincov_defect(kernel)


@pytest.mark.parametrize("fail_at, first", [((40,), 40), ((10, 40), 10)])
def test_a_failing_scan_chunk_raises_its_error_in_chunk_order(monkeypatch, fail_at, first):
    # 64 points on 2 threads: the caller scans slabs 0-31 and a worker thread
    # 32-63.  A failed chunk leaves its slots of the scan's results unwritten,
    # so its error must reach the caller, the first chunk's error first, in
    # the report's pass and in the checks' maximum-only pass, of either kind.
    slab_function = analysis._slab_function
    threads = {}

    def failing_slab_function(kernel, *formula):
        slab, buffers = slab_function(kernel, *formula)

        def failing_slab(x, out):
            if x in fail_at:
                threads[x] = threading.current_thread()
                raise MemoryError(f"slab {x}")
            return slab(x, out)

        return failing_slab, buffers

    monkeypatch.setattr("sincov.analysis._slab_function", failing_slab_function)
    usable_cpus(monkeypatch, 8)  # 2 workers on any machine
    monkeypatch.setenv("SINCOV_THREADS", "2")
    kernels = [random_complex_kernel(np.random.default_rng(1), 64),
               random_mat2_kernel(np.random.default_rng(1), 64)]
    for scan in (sincov_defect, analysis._defect):
        for kernel in kernels:
            threads.clear()
            with pytest.raises(MemoryError, match=f"slab {first}$"):
                scan(kernel)
            assert threads[40] is not threading.main_thread()
            assert threads.get(10, threading.main_thread()) is threading.main_thread()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(IN_RANGE_KERNELS))
def test_in_range_defect_matches_the_exact_oracle(monkeypatch, name, threads):
    # squares of these entries or terms overflow or underflow, the defect does not
    kernel = IN_RANGE_KERNELS[name]
    usable_cpus(monkeypatch, 8)
    monkeypatch.setenv("SINCOV_THREADS", threads)
    report = sincov_defect(kernel)
    exact = exact_defect(kernel)
    assert abs(report.defect - exact) <= 1e-15 * exact
    a, x, b = (kernel.index(lab) for lab in report.argmax_triple)
    assert defect_term(kernel.entry(a, x), kernel.entry(x, b), kernel.entry(a, b)) == report.defect


def test_mean_defect_when_a_slab_sum_overflows():
    # three terms near 1e308: their sum leaves float64 range, their mean does not
    table = np.full((8, 8), 1e-3 + 0j)
    table[0, 1] = table[1, 0] = table[2, 1] = 1e154
    kernel = FiniteKernel(tuple("abcdefgh"), "complex", table)
    terms = [defect_term(kernel.entry(a, x), kernel.entry(x, b), kernel.entry(a, b))
             for a in range(8) for x in range(8) for b in range(8)]
    mean = float(sum(map(Fraction, terms)) / len(terms))
    assert mean == 5.859375e305
    assert sincov_defect(kernel).mean_defect == mean


def test_mean_defect_when_the_sum_of_finite_slab_sums_overflows():
    # each slab's sum is finite, their total is not: the re-sum runs without
    # an overflow warning
    table = np.full((2, 2), 1e-3 + 0j)
    table[0, 1] = table[1, 0] = 1.2e154
    kernel = FiniteKernel(("a", "b"), "complex", table)
    slabs = [[defect_term(kernel.entry(a, x), kernel.entry(x, b), kernel.entry(a, b))
              for a in range(2) for b in range(2)] for x in range(2)]
    assert all(math.isfinite(sum(slab)) for slab in slabs)
    assert math.isinf(sum(slabs[0]) + sum(slabs[1]))
    terms = slabs[0] + slabs[1]
    assert sincov_defect(kernel).mean_defect == float(sum(map(Fraction, terms)) / len(terms))


def _drawn_kernel(kind: str, n: int, seed: int, center: int, spread: int, zeros: float) -> FiniteKernel:
    """Components m 2^e, m in [1, 2) with a random sign and e within spread of
    center; a share zeros of them are 0 and as many again subnormal."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if kind == "complex" else (n, n, 2, 2)
    parts = []
    for _ in range(2 if kind == "complex" else 1):
        e = np.clip(center + rng.integers(-spread, spread + 1, shape), -1100, 1023)
        v = np.ldexp(rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape), e)
        pick = rng.uniform(size=shape)
        v[pick < zeros] = 0.0
        subnormal = (pick >= zeros) & (pick < 2 * zeros)
        v[subnormal] = np.ldexp(rng.integers(1, 2**52, shape).astype(float), -1074)[subnormal]
        parts.append(v)
    table = parts[0] + 1j * parts[1] if kind == "complex" else parts[0]
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)


def _outcome(pass_, kernel) -> str:
    try:
        return float(pass_(kernel)).hex()
    except KernelError as exc:
        return f"KernelError: {exc}"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["complex", "mat2"]),
    st.sampled_from([1, 2, 5, 63, 64, 70]),  # both sides of the smallest size scanned in threads
    st.integers(0, 2**32 - 1),
    st.integers(-40, 40) | st.integers(-1100, 1023),  # exponents near 1, or across float64 range
    st.sampled_from([0, 3, 30, 300, 2000]),
    st.sampled_from([0.0, 0.1, 0.5]),
)
def test_maximum_pass_equals_the_report_defect_bit_for_bit(kind, n, seed, center, spread, zeros):
    kernel = _drawn_kernel(kind, n, seed, center, spread, zeros)
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, 2)
            mp.setenv("SINCOV_THREADS", threads)
            want = _outcome(lambda k: sincov_defect(k).defect, kernel)
            assert _outcome(analysis._defect, kernel) == want


# kernels whose components are 0 or in range, among them exact kernels whose
# defect is 0: the maximum pass needs no second pass for them either
POWERS_OF_TWO = tuple(2.0**k for k in range(70))
MAXIMUM_PASS_KERNELS = {
    "complex": random_complex_kernel(np.random.default_rng(2), 70),
    "mat2": random_mat2_kernel(np.random.default_rng(2), 70),
    "constant-1": generate(GeneratorSpec("constant", value=1.0, size=70)),
    "ratio": generate(GeneratorSpec("ratio", samples=POWERS_OF_TWO)),
    "mat2_ratio": generate(GeneratorSpec("mat2_ratio", c0=1.0, samples=POWERS_OF_TWO)),
}


@pytest.mark.parametrize("kind", sorted(MAXIMUM_PASS_KERNELS))
def test_maximum_pass_needs_no_report_on_kernels_in_range(monkeypatch, kind):
    kernel = MAXIMUM_PASS_KERNELS[kind]
    want = sincov_defect(kernel).defect

    def no_report(kernel):
        raise AssertionError("fell back to the report's pass")

    monkeypatch.setattr("sincov.analysis.sincov_defect", no_report)
    assert analysis._defect(kernel) == want
    assert is_exact(kernel, want)
    if kind in ("complex", "mat2"):
        assert not is_exact(kernel, want * (1 - 2**-52))
    else:
        assert want == 0.0


def _with_tiny_component(kernel: FiniteKernel) -> FiniteKernel:
    table = kernel.table.copy()
    table[3, 5] = complex(table[3, 5].real, 1e-200)
    return FiniteKernel(kernel.labels, kernel.value_kind, table)


def _one_column_kernel() -> FiniteKernel:
    """1e-160 but for a column of ones at p5: the terms of slab p5 are all 0,
    and every other slab has terms near 1."""
    table = np.full((70, 70), 1e-160 + 0j)
    table[:, 5] = 1.0
    return FiniteKernel(tuple(f"p{i}" for i in range(70)), "complex", table)


def _constant(value: float) -> FiniteKernel:
    return generate(GeneratorSpec("constant", value=value, size=70))


# complex kernels with a component below the range: one tiny component among
# terms near 1, an all-zero slab among terms near 1, and every component at or
# just above 2^-490
OUT_OF_RANGE_KERNELS = {
    "constant-1e-160": _constant(1e-160),
    "constant-2^-490": _constant(2.0**-490),
    "above-2^-490": _constant(np.nextafter(2.0**-490, 1.0)),
    "one-column": _one_column_kernel(),
    "tiny-component": _with_tiny_component(random_complex_kernel(np.random.default_rng(3), 70)),
}
# the form of the one scan: squared moduli for a complex kernel in range, and
# the kind's norm (None) for every other kernel
SQUARES, NORM = _squared_modulus, None
SCAN_FORMS = {
    **{name: NORM for name in OUT_OF_RANGE_KERNELS},
    "complex": SQUARES, "constant-1": SQUARES, "ratio": SQUARES,
    "mat2": NORM, "mat2_ratio": NORM,
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SCAN_FORMS))
def test_maximum_pass_scans_once_in_the_form_the_range_test_picks(monkeypatch, name, threads):
    kernel = {**MAXIMUM_PASS_KERNELS, **OUT_OF_RANGE_KERNELS}[name]
    assert _components_in_range(kernel.table) == (name in MAXIMUM_PASS_KERNELS)
    want = sincov_defect(kernel).defect
    scans = []

    def counted(kernel, reduce, formula=None):
        scans.append(formula)
        return scan(kernel, reduce, formula)

    def no_report(kernel):
        raise AssertionError("fell back to the report's pass")

    scan = analysis._scan
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("SINCOV_THREADS", threads)
    monkeypatch.setattr("sincov.analysis._scan", counted)
    monkeypatch.setattr("sincov.analysis.sincov_defect", no_report)
    assert analysis._defect(kernel).hex() == want.hex()
    assert scans == [SCAN_FORMS[name]]
