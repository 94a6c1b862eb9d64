"""Property tests of the declared norms: a fast closed form, recomputed at an
exact power-of-two scale wherever its squares could leave float64 range."""

import math
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    IN_RANGE_KERNELS,
    brute_force_defect,
    exact_defect,
    exact_norm,
    unbuffered_defect_report,
    unbuffered_slabs,
)
from sincov import AlgebraValue, FiniteKernel, defect_term, save_kernel, sincov_defect
from sincov.cli import main
from sincov.kernel import _cnorm, _norm2x2

NORMS = {"complex": (_cnorm, 2), "mat2": (_norm2x2, 4)}
KINDS = st.sampled_from(sorted(NORMS))

REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
)
# zero, or a modulus in [2^-30, 2^30): nonzero components within 2^60 of each other
CLOSE_REALS = st.just(0.0) | st.builds(
    lambda sign, m, e: sign * math.ldexp(m, e),
    st.sampled_from((-1.0, 1.0)),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-30, 29),
)


def _value(kind: str, parts) -> AlgebraValue:
    if kind == "complex":
        return AlgebraValue("complex", complex(*parts))
    return AlgebraValue("mat2", [parts[:2], parts[2:]])


@settings(max_examples=300, deadline=None)
@given(KINDS, st.lists(CLOSE_REALS, min_size=4, max_size=4), st.integers(-900, 900))
# scaled by 2^-600, the norm is about 1.5 2^-480 and the smaller modulus, a,
# has a square below 2^-1022 that rounds; a + 3 2^-480 lies next to a rounding
# boundary, so without the rescale the lost bits of that square decide it
@example("mat2", [math.ldexp(2048.5 * 2.0**-531 + 2.0**-572, 600), 1.5 * 2.0**120, 1.5 * 2.0**120, 0.0], -600)
def test_norms_scale_by_powers_of_two_bit_for_bit(kind, parts, k):
    norm, width = NORMS[kind]
    parts = parts[:width]
    scaled = norm(*(math.ldexp(p, k) for p in parts))
    assert float(scaled) == math.ldexp(float(norm(*parts)), k)


@settings(max_examples=300, deadline=None)
@given(REALS, REALS)
def test_complex_norm_is_within_one_ulp_of_hypot(re, im):
    got = float(_cnorm(re, im))
    with np.errstate(over="ignore"):
        want = np.hypot(re, im)
        ulp = min(np.spacing(want), 2.0**971)  # the ulp of the largest float, not inf
    if math.isinf(want):  # one ulp beyond the largest float, where rounding may still give it
        assert got >= np.finfo(float).max
    else:
        assert abs(got - want) <= ulp


@settings(max_examples=200, deadline=None)
@given(KINDS, st.lists(st.lists(REALS, min_size=4, max_size=4), min_size=1, max_size=12))
def test_scalar_and_array_norms_agree_bit_for_bit(kind, values):
    # values of every magnitude: many leave the fast form's window
    norm, width = NORMS[kind]
    values = [v[:width] for v in values]
    arrays = [np.array(column) for column in zip(*values)]
    assert [_value(kind, v).norm for v in values] == norm(*arrays).tolist()


# mat2 values with component exponents in about +-300 decimal: independent
# components, and near-rotations and near-reflections (a scaled rotation or
# reflection plus relative noise of 2^-60 to 2^-10), whose two singular values
# are close; there the old Frobenius-invariant form lost half its digits
def _near_conformal(scale: int, angle: float, reflect: bool, noise, j: int) -> list:
    c, s = math.cos(angle), math.sin(angle)
    base = (c, s, s, -c) if reflect else (c, -s, s, c)
    return [math.ldexp(b + math.ldexp(e, -j), scale) for b, e in zip(base, noise)]


EXPONENT = st.integers(-996, 996)  # 2^996 is about 10^300
MAT2_VALUES = st.lists(
    st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0), EXPONENT), min_size=4, max_size=4
) | st.builds(
    _near_conformal, EXPONENT, st.floats(0.0, 2 * math.pi), st.booleans(),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.integers(10, 60),
)
GAMMA_4 = 4 * 2.0**-53 / (1 - 4 * 2.0**-53)


def _svd_norm(parts) -> mpmath.mpf:
    """The largest singular value, from mpmath's SVD at 40 digits."""
    with mpmath.workdps(40):
        m = mpmath.matrix([[mpmath.mpf(parts[0]), mpmath.mpf(parts[1])],
                           [mpmath.mpf(parts[2]), mpmath.mpf(parts[3])]])
        return max(mpmath.svd_r(m, compute_uv=False))


@settings(max_examples=400, deadline=None)
@given(MAT2_VALUES)
# a near-rotation that the Frobenius-invariant form got 1.1e-8 wrong
@example([-4.281430777820452, -0.36805166151587115, 0.36805166427718494, -4.281430775759278])
@example([2.0 + 1e-8, 0.0, 0.0, 2.0])
@example([1.0, 0.0, 0.0, 1.0])
@example([math.ldexp(1.0, -421), 0.0, 0.0, math.ldexp(-1.0, -421)])  # a reflection below the window
def test_mat2_norm_is_within_gamma_4_of_the_exact_norm(parts):
    # the bound derived in _norm2x2's docstring, wherever the norm is normal
    exact = _svd_norm(parts)
    assume(exact > 2.0**-1022)
    got = mpmath.mpf(float(_norm2x2(*parts)))
    assert abs(got - exact) <= GAMMA_4 * exact


def _scaled_kernel(kind: str, n: int, seed: int, k: int) -> FiniteKernel:
    """Random entries of moduli about 2^(k + j), j uniform in [-20, 20]."""
    rng = np.random.default_rng(seed)
    shape = (n, n) if kind == "complex" else (n, n, 2, 2)
    table = np.ldexp(rng.uniform(-1.0, 1.0, shape), k + rng.integers(-20, 21, shape))
    if kind == "complex":
        table = table + 1j * np.ldexp(rng.uniform(-1.0, 1.0, shape), k + rng.integers(-20, 21, shape))
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)


SCALED_KERNELS = st.builds(
    _scaled_kernel, KINDS, st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(-480, 480)
)


@settings(max_examples=60, deadline=None)
@given(SCALED_KERNELS)
# every term outside the fast form's window: about 2^-600, or 2^600
@example(_scaled_kernel("complex", 5, seed=7, k=-600))
@example(_scaled_kernel("complex", 5, seed=7, k=300))
@example(_scaled_kernel("mat2", 5, seed=7, k=-600))
@example(_scaled_kernel("mat2", 5, seed=7, k=300))
def test_scan_terms_equal_the_scalar_defect_terms_at_any_scale(kernel):
    report = sincov_defect(kernel)
    assert report == unbuffered_defect_report(kernel)
    F = kernel.entry
    for x, slab in enumerate(unbuffered_slabs(kernel)):
        for (a, b), term in np.ndenumerate(slab):
            assert defect_term(F(a, x), F(x, b), F(a, b)) == term
    a, x, b = (kernel.index(lab) for lab in report.argmax_triple)
    assert defect_term(F(a, x), F(x, b), F(a, b)) == report.defect
    # relative to the largest products and entries, M^2 + M: a few roundings
    # for complex.  For mat2, with u = 2^-53, the computed product and
    # difference are within 2 gamma_2 M^2 + sqrt(2) u (M^2 + M) of the exact
    # matrix in the Frobenius norm, and the norm adds gamma_4, so a term is
    # within 10u (M^2 + M) of the exact one; the brute-force oracle's matmul
    # and LAPACK SVD have errors of the same order, so 32u bounds both
    rel = 1e-14 if kernel.value_kind == "complex" else 2.0**-48
    slack = rel * (kernel.max_norm() ** 2 + kernel.max_norm())
    assert abs(report.defect - brute_force_defect(kernel)) <= slack
    assert abs(report.defect - exact_defect(kernel)) <= slack


@settings(max_examples=25, deadline=None)
@given(SCALED_KERNELS)
def test_kernels_with_in_range_defect_terms_never_exit_three(kernel):
    # entries stay within 2^500, so every exact term and check side is in range
    with tempfile.TemporaryDirectory() as tmp:
        kpath, out = str(Path(tmp, "k.json")), str(Path(tmp, "out.json"))
        Path(kpath).write_bytes(save_kernel(kernel))
        assert main(["defect", "-i", kpath, "-o", out]) == 0
        assert main(["check", "-i", kpath, "-o", out]) in (0, 1)


@pytest.mark.parametrize("name", sorted(IN_RANGE_KERNELS))
def test_max_norm_is_exact_and_silent_on_in_range_kernels(name):
    shared = IN_RANGE_KERNELS[name]
    kernel = FiniteKernel(shared.labels, shared.value_kind, shared.table)  # norms not yet cached
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # outside any np.errstate of the caller
        got = kernel.max_norm()
    want = max(exact_norm(kernel.value_kind, v) for v in kernel.table.reshape(-1, *kernel.table.shape[2:]))
    assert abs(got - want) <= 1e-15 * want
