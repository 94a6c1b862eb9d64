import numpy as np
import pytest

from conftest import brute_force_gauge_bound, random_complex_kernel
from sincov import (
    GeneratorSpec,
    bound_suite,
    diagonal_report,
    gauge_bound,
    gauge_error_bound,
    generate,
    growth_witness,
    normalized_gram,
    sample_vectors,
    sincov_defect,
    slice_residual,
    unit_diag_bound,
)
from sincov.analysis import check_tolerance
from sincov.kernel import FiniteKernel, KernelError, UnknownLabelError


def test_slice_residual_exact_kernel():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))
    for x0 in kernel.labels:
        check = slice_residual(kernel, x0)
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


def test_slice_residual_constant_kernel_equality():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    check = slice_residual(kernel, "x1")
    assert check.lhs == 2.0 and check.rhs == 2.0 and check.holds


def test_slice_residual_mat2():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0, 4.0)))
    for x0 in kernel.labels:
        check = slice_residual(kernel, x0)
        assert check.lhs == 2.0 and check.rhs == 2.0 and check.holds


def test_slice_never_exceeds_defect_exactly():
    # the slice is a sub-maximum of the same terms; no tolerance needed
    rng = np.random.default_rng(14)
    for _ in range(20):
        kernel = random_complex_kernel(rng, 12)
        c = sincov_defect(kernel).defect
        for x0 in kernel.labels:
            assert slice_residual(kernel, x0, defect=c).lhs <= c


def test_slice_residual_unknown_label():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0)))
    with pytest.raises(UnknownLabelError):
        slice_residual(kernel, "9")


def test_diagonal_report_exact_ratio():
    checks = diagonal_report(generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0))))
    by_name = {c.name: c for c in checks}
    assert by_name["diag_spread"].lhs == 0.0
    assert by_name["diag_spread"].rhs == 0.0
    assert all(c.holds for c in checks)


def test_diagonal_report_e1_values():
    kernel = generate(GeneratorSpec("e1", n=2, c=1.0))
    by_name = {c.name: c for c in diagonal_report(kernel)}
    # diagonal is a/(a+1): {2/3, 3/4, 4/5}
    assert abs(by_name["diag_spread"].lhs - 2.0 / 15.0) <= 1e-12
    assert abs(by_name["diag_spread"].rhs - 8.0 / 9.0) <= 1e-12
    assert all(c.holds for c in diagonal_report(kernel))


def test_diagonal_report_constant_kernel():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    by_name = {c.name: c for c in diagonal_report(kernel)}
    assert by_name["diag_spread"].lhs == 0.0
    assert by_name["diag_spread"].rhs == 4.0
    # |F(a,x) F(x,a) - F(a,a)| = |1 + 1| = 2 = c, equality
    assert by_name["diag_product"].lhs == 2.0
    assert by_name["diag_product"].rhs == 2.0
    assert all(c.holds for c in diagonal_report(kernel))


def test_diagonal_report_holds_on_mat2_generator_family():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=3.0, samples=(1.0, 2.0, 5.0)))
    assert all(c.holds for c in diagonal_report(kernel))


def test_unit_diag_values():
    kernel = generate(GeneratorSpec("e1", n=2, c=1.0))
    checks = {c.name: c for c in unit_diag_bound(kernel)}
    row = checks["unit_diag_row[2]"]
    assert abs(row.lhs - 2.0 / 9.0) <= 1e-12  # (2/3) * (1/3)
    assert abs(row.rhs - 4.0 / 9.0) <= 1e-12
    assert all(c.holds for c in checks.values())

    constant = generate(GeneratorSpec("constant", value=-1.0, size=3))
    for check in unit_diag_bound(constant):
        assert check.lhs == 2.0 and check.rhs == 2.0 and check.holds


def test_unit_diag_rejects_mat2():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0)))
    with pytest.raises(KernelError, match="complex"):
        unit_diag_bound(kernel)


def test_growth_witness_exact_identity_ratio():
    kernel = generate(GeneratorSpec("ratio", samples=tuple(range(1, 11))))
    checks = growth_witness(kernel, "1")
    for check in checks:
        # lhs = max_a a = 10; rhs = y * (10/y): equality up to rounding
        assert check.holds
        assert abs(check.lhs - 10.0) <= 1e-12
        assert abs(check.rhs - 10.0) <= 1e-11
        assert check.witness == ("10",)


def test_growth_witness_constant_kernel():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    for check in growth_witness(kernel, "x0"):
        assert check.lhs == -1.0 and check.rhs == 1.0 and check.holds


def test_growth_witness_perturbed():
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 21)), eps=0.05, seed=3))
    assert all(c.holds for c in growth_witness(kernel, "1"))


def test_gauge_bound_exact_ratio_is_tight_zero():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))
    for x0 in kernel.labels:
        for x in kernel.labels:
            check = gauge_bound(kernel, x0, x)
            assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


def test_gauge_bound_constant_kernel_value():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    check = gauge_bound(kernel, "x0", "x1")
    assert check.lhs == 0.0
    assert check.rhs == 12.0  # (4+4)/1 + 2 + 2 with c = 2
    assert check.holds


def test_gauge_bound_perturbed_example():
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 21)), eps=0.01, seed=7))
    assert gauge_bound(kernel, "1", "5").holds


def test_gauge_bound_requires_nonvanishing_slices():
    table = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    kernel = FiniteKernel(("a", "b"), "complex", table)
    with pytest.raises(KernelError, match="vanish"):
        gauge_error_bound(kernel, "a", "b", 1.0)


def test_gauge_error_bound_shrinks_with_domain_size():
    values = []
    for size in (10, 100, 1000):
        kernel = generate(GeneratorSpec("ratio", samples=tuple(range(1, size + 1))))
        values.append(gauge_error_bound(kernel, "1", "1", 1.0))
    assert values[0] > values[1] > values[2]
    # identity ratio with x0 = x = 1 gives exactly 1 + 4/M
    for size, val in zip((10, 100, 1000), values):
        assert abs(val - (1.0 + 4.0 / size)) <= 1e-12


def test_bound_suite_holds_on_perturbed_family():
    rng = np.random.default_rng(100)
    for trial in range(40):
        size = int(rng.integers(5, 17))
        eps = float(rng.uniform(0.0, 0.5))
        f = tuple(float(v) for v in rng.uniform(0.5, 2.0, size))
        kernel = generate(GeneratorSpec(
            "perturbed_ratio",
            samples=tuple(float(i) for i in range(1, size + 1)),
            f_values=f,
            eps=eps,
            seed=int(rng.integers(2 ** 31)),
        ))
        checks = bound_suite(kernel, kernel.labels[0])
        failed = [c for c in checks if not c.holds]
        assert not failed, f"trial {trial}: {[c.name for c in failed]}"


def test_bound_suite_holds_on_random_complex_kernels():
    rng = np.random.default_rng(101)
    for _ in range(10):
        kernel = random_complex_kernel(rng, 10)
        assert all(c.holds for c in bound_suite(kernel, kernel.labels[0]))


def test_bound_suite_all_pairs_gauge_small_kernel():
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 7)), eps=0.4, seed=23))
    c = sincov_defect(kernel).defect
    for x0 in kernel.labels:
        for x in kernel.labels:
            assert gauge_bound(kernel, x0, x, defect=c).holds


def _gauge_oracle_kernels():
    rng = np.random.default_rng(102)
    for k in range(-50, 51, 5):
        kernel = random_complex_kernel(rng, int(rng.integers(2, 25)))
        yield FiniteKernel(kernel.labels, "complex", kernel.table * 10.0 ** k)
    for trial in range(10):
        size = int(rng.integers(3, 25))
        yield generate(GeneratorSpec(
            "perturbed_ratio",
            samples=tuple(float(i) for i in range(1, size + 1)),
            f_values=tuple(float(v) for v in rng.uniform(0.5, 2.0, size)),
            eps=float(rng.uniform(0.0, 0.5)),
            seed=trial,
        ))
    yield normalized_gram(sample_vectors(8, 40, "complex", seed=3))


def test_gauge_checks_match_brute_force_oracle_bit_for_bit():
    for kernel in _gauge_oracle_kernels():
        c = sincov_defect(kernel).defect
        tolv = check_tolerance(kernel)
        ref = kernel.labels[-1]
        gauges = [chk for chk in bound_suite(kernel, ref) if chk.name.startswith("gauge[")]
        assert [chk.witness for chk in gauges] == [(lab,) for lab in kernel.labels]
        for lab, check in zip(kernel.labels, gauges):
            lhs, rhs = brute_force_gauge_bound(kernel, ref, lab, c)
            assert (check.lhs, check.rhs) == (lhs, rhs), (kernel.n, lab)
            assert check.holds == (lhs <= rhs + tolv)
            assert gauge_error_bound(kernel, ref, lab, c) == rhs


def test_bound_suite_equals_the_per_family_checks():
    for kernel in _gauge_oracle_kernels():
        ref = kernel.labels[0]
        expected = [
            slice_residual(kernel, ref),
            *diagonal_report(kernel),
            *unit_diag_bound(kernel),
            *growth_witness(kernel, ref),
            *(gauge_bound(kernel, ref, lab) for lab in kernel.labels),
        ]
        assert bound_suite(kernel, ref) == expected


def test_bound_suite_on_mat2_runs_kind_applicable_subset():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0, 3.0)))
    names = [c.name for c in bound_suite(kernel, "1")]
    assert names == ["slice_residual", "diag_spread", "diag_product", "diag_bound"]


def test_check_serialization_fields():
    kernel = generate(GeneratorSpec("e1", n=2, c=1.0))
    doc = slice_residual(kernel, "2").to_dict()
    assert list(doc.keys()) == ["name", "lhs", "rhs", "holds", "witness"]
    rep = sincov_defect(kernel).to_dict()
    assert list(rep.keys()) == ["defect", "argmax_triple", "triple_count", "mean_defect"]
