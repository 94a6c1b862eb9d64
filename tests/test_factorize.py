import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_complex_kernel
from sincov import (
    FiniteKernel,
    GeneratorSpec,
    UnknownLabelError,
    bound_suite,
    factorize,
    generate,
    gm_factorize,
    sincov_defect,
)
from sincov.kernel import KernelError, _ratio_table


def test_exact_ratio_recovery():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))
    fac = factorize(kernel, "1")
    assert [fac.f[lab] for lab in kernel.labels] == [1.0, 2.0, 4.0]
    assert fac.gauge_error == 0.0
    assert fac.residual == 0.0
    assert fac.reference == "1"


def test_constant_kernel_factorization():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=3))
    fac = factorize(kernel, "x0")
    assert all(v == -1.0 for v in fac.f.values())
    assert fac.gauge_error == 0.0  # (-1)(-1) = 1
    assert fac.residual == 2.0  # |-1 - 1|


def test_e1_factorization_values():
    kernel = generate(GeneratorSpec("e1", n=2, c=1.0))
    fac = factorize(kernel, "2")
    want_f = {"2": 2.0 / 3.0, "3": 1.0, "4": 4.0 / 3.0}
    for lab, val in want_f.items():
        assert abs(fac.f[lab] - val) <= 1e-15
    assert abs(fac.gauge_error - 5.0 / 9.0) <= 1e-12
    assert abs(fac.residual - 2.0 / 3.0) <= 1e-12


def test_f_values_are_kernel_entries_verbatim():
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 9)), eps=0.2, seed=2))
    fac = factorize(kernel, "3")
    for lab in kernel.labels:
        assert fac.f[lab] == kernel.value_at(lab, "3").as_complex()
        assert fac.g[lab] == kernel.value_at("3", lab).as_complex()
    assert fac.f["3"] == fac.g["3"] == kernel.value_at("3", "3").as_complex()


def test_factorize_rejects_mat2():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0)))
    with pytest.raises(KernelError, match="complex"):
        factorize(kernel, "1")


def test_factorize_unknown_reference():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0)))
    with pytest.raises(UnknownLabelError):
        factorize(kernel, "7")


def test_vanishing_f_gives_infinite_residual():
    table = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    kernel = FiniteKernel(("a", "b"), "complex", table)
    fac = factorize(kernel, "a")  # f = column at "a" contains 0
    assert math.isinf(fac.residual)
    assert math.isfinite(fac.gauge_error)
    doc = fac.to_dict()
    assert doc["residual"] == "inf"
    assert list(doc.keys()) == ["reference", "f", "g", "gauge_error", "residual"]
    assert doc["f"]["b"] == [0.0, 0.0]  # complex values serialize as [re, im]


def test_residual_bound_for_small_defect():
    # residual <= defect + gauge_error * max|f| / min|f| (derived bound)
    kernel = generate(GeneratorSpec(
        "perturbed_ratio", samples=tuple(range(1, 11)), eps=0.05, seed=12))
    c = sincov_defect(kernel).defect
    fac = factorize(kernel, "1")
    absf = np.abs(np.array([fac.f[lab] for lab in kernel.labels]))
    bound = c + fac.gauge_error * float(absf.max() / absf.min())
    assert fac.residual <= bound + 1e-9


def test_recovered_ratios_unique_up_to_constant():
    rng = np.random.default_rng(31)
    pts = tuple(float(i) for i in range(1, 21))
    f = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    f[np.abs(f) < 1e-3] = 1.0
    kernel = generate(GeneratorSpec("ratio", samples=pts, f_values=tuple(f)))
    fac = factorize(kernel, "5")
    fhat = np.array([fac.f[lab] for lab in kernel.labels])
    got = fhat[:, None] / fhat[None, :]
    want = f[:, None] / f[None, :]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_gm_square_ratio():
    spec = GeneratorSpec("ratio", samples=(1.0, 2.0, 3.0), f_values=(1.0, 4.0, 9.0))
    fac = gm_factorize(generate(spec))
    assert fac.reference is None
    fhat = np.array([fac.f[lab] for lab in ("1", "2", "3")]).real
    want = np.array([1.0, 4.0, 9.0])
    np.testing.assert_allclose(
        fhat[:, None] / fhat[None, :], want[:, None] / want[None, :], rtol=1e-12
    )
    assert fac.residual <= 1e-12


def test_gm_constant_kernel():
    fac = gm_factorize(generate(GeneratorSpec("moszner", n=4, size=3)))
    fhat = np.array(list(fac.f.values()))
    np.testing.assert_allclose(fhat, 0.25, rtol=1e-15)
    assert abs(fac.residual - 0.75) <= 1e-12  # |1/4 - 1|
    assert fac.gauge_error <= 1e-15


def test_gm_on_e1_is_finite_and_positive():
    fac = gm_factorize(generate(GeneratorSpec("e1", n=2, c=1.0)))
    assert math.isfinite(fac.residual)
    assert all(v.real > 0.0 and v.imag == 0.0 for v in fac.f.values())


def test_gm_rejects_non_positive_and_non_real():
    with pytest.raises(KernelError, match="non-positive or non-real"):
        gm_factorize(generate(GeneratorSpec("constant", value=-1.0, size=2)))
    complex_kernel = generate(GeneratorSpec(
        "ratio", samples=(1.0, 2.0), f_values=(1.0, 1.0j)))
    with pytest.raises(KernelError, match="non-positive or non-real"):
        gm_factorize(complex_kernel)
    with pytest.raises(KernelError, match="complex"):
        gm_factorize(generate(GeneratorSpec("mat2_ratio", c0=1.0, samples=(1.0, 2.0))))


def test_gm_on_underflowing_kernel_raises_without_a_warning():
    # f = 1e-320 has no finite reciprocal; 1.0 / f used to warn before the error
    kernel = FiniteKernel(("a", "b"), "complex", np.full((2, 2), 1e-320 + 0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelError, match="non-finite factorization"):
            gm_factorize(kernel)


def test_gauge_error_is_the_largest_gauge_check_lhs():
    rng = np.random.default_rng(3)
    compared = 0
    for _ in range(200):
        kernel = random_complex_kernel(rng, 30)
        ref = kernel.labels[0]
        checks = bound_suite(kernel, ref, defect=0.0)
        gauge = [c.lhs for c in checks if c.name.startswith("gauge[")]
        if gauge:
            assert factorize(kernel, ref).gauge_error == max(gauge)
            compared += 1
    assert compared == 200


def test_factorize_with_a_subnormal_reference_column():
    # f = (1e-310, 2e-310): numpy's complex division by a subnormal gives
    # inf+nanj, though every ratio f(u)/f(v) is 1, 0.5 or 2
    kernel = FiniteKernel(("a", "b"), "complex", [[1e-310, 1.0], [2e-310, 1.0]])
    fac = factorize(kernel, "a")
    assert fac.residual == 2.0  # |F(b, a) - f(b)/f(a)| = |2e-310 - 2|
    assert fac.gauge_error == 1.0


def _exact_ratio(a: complex, b: complex) -> tuple[Fraction, Fraction]:
    ar, ai, br, bi = map(Fraction, (a.real, a.imag, b.real, b.imag))
    d = br * br + bi * bi
    return (ar * br + ai * bi) / d, (ai * br - ar * bi) / d


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, FINITE, FINITE), min_size=1, max_size=4), st.booleans())
@example([1e-310, 2e-310], False)
@example([5e-324, 1.0], False)
@example([1e-200j, 1e200], False)
@example([1e-310, 2e-310], True)
def test_ratio_table_is_the_plain_quotient_wherever_that_is_finite(values, real):
    f = np.array([v.real for v in values] if real else values)
    assume(f.all())
    with np.errstate(all="ignore"):
        plain = f[:, None] / f[None, :]
    q = _ratio_table(f)
    assert q.dtype == f.dtype
    finite = np.isfinite(plain)
    assert q[finite].tobytes() == plain[finite].tobytes()
    # where the plain quotient is not finite, an in-range ratio is recomputed
    # to within a few units in the last place, normwise
    for u, v in zip(*np.nonzero(~finite)):
        re, im = _exact_ratio(complex(f[u]), complex(f[v]))
        size = max(abs(re), abs(im))
        if 2.0**-1000 < size < 2.0**1000:
            got = complex(q[u, v])
            err = max(abs(Fraction(got.real) - re), abs(Fraction(got.imag) - im))
            assert err <= Fraction(2.0**-50) * size
