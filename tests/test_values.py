import warnings

import numpy as np
import pytest

from sincov import AlgebraValue, FiniteKernel, KindMismatchError, defect_term
from sincov.kernel import KernelError, _components


def _random_complex_value(rng):
    return AlgebraValue("complex", complex(rng.standard_normal(), rng.standard_normal()))


def _random_mat2_value(rng):
    return AlgebraValue("mat2", rng.standard_normal((2, 2)))


def test_one_has_unit_norm():
    assert AlgebraValue.one("complex").norm == 1.0
    assert AlgebraValue.one("mat2").norm == 1.0


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_norm_axioms_random_pairs(kind):
    # submultiplicative, triangle inequality, absolute homogeneity
    rng = np.random.default_rng(42 if kind == "complex" else 43)
    make = _random_complex_value if kind == "complex" else _random_mat2_value
    for _ in range(10_000):
        v, w = make(rng), make(rng)
        scale = max(1.0, v.norm, w.norm)
        assert (v * w).norm <= v.norm * w.norm + 1e-12 * scale * scale
        assert (v + w).norm <= v.norm + w.norm + 1e-12 * scale
        lam = float(rng.standard_normal())
        scaled = AlgebraValue(kind, lam * np.asarray(v.payload))
        assert abs(scaled.norm - abs(lam) * v.norm) <= 1e-12 * scale * max(1.0, abs(lam))


def test_mat2_norm_matches_svd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-3, 4)
        got = AlgebraValue("mat2", m).norm
        want = float(np.linalg.norm(m, 2))
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_mat2_diagonal_norm_is_max_abs_diagonal():
    # dyadic entries keep the closed form exact
    for d1 in (-2.0, -0.5, 0.0, 0.25, 1.0, 4.0):
        for d2 in (-1.0, 0.5, 2.0, 8.0):
            v = AlgebraValue("mat2", [[d1, 0.0], [0.0, d2]])
            assert v.norm == max(abs(d1), abs(d2))


def test_complex_norm_is_modulus():
    v = AlgebraValue("complex", 3 + 4j)
    assert v.norm == 5.0


def test_algebra_arithmetic():
    a = AlgebraValue("complex", 1 + 2j)
    b = AlgebraValue("complex", 3 - 1j)
    assert (a * b).as_complex() == (1 + 2j) * (3 - 1j)
    assert (a + b).as_complex() == 4 + 1j
    assert (a - b).as_complex() == -2 + 3j

    m = AlgebraValue("mat2", [[1.0, 2.0], [3.0, 4.0]])
    k = AlgebraValue("mat2", [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal((m * k).as_mat2(), [[2.0, 1.0], [4.0, 3.0]])
    np.testing.assert_array_equal((m + m).as_mat2(), [[2.0, 4.0], [6.0, 8.0]])
    np.testing.assert_array_equal((m - k).as_mat2(), [[1.0, 1.0], [2.0, 4.0]])


def test_kind_mismatch_raises():
    z = AlgebraValue("complex", 1.0)
    m = AlgebraValue.one("mat2")
    with pytest.raises(KindMismatchError):
        _ = z * m
    with pytest.raises(KindMismatchError):
        defect_term(z, z, m)
    with pytest.raises(KindMismatchError):
        z.as_mat2()
    with pytest.raises(KindMismatchError):
        m.as_complex()


def test_invalid_values_rejected():
    with pytest.raises(KernelError):
        AlgebraValue("complex", complex(float("nan"), 0.0))
    with pytest.raises(KernelError):
        AlgebraValue("complex", complex(0.0, float("inf")))
    with pytest.raises(KernelError):
        AlgebraValue("mat2", [[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(KernelError):
        AlgebraValue("mat2", [[1.0, 2.0, 3.0]])
    with pytest.raises(KernelError):
        AlgebraValue("quaternion", 1.0)
    with pytest.raises(KernelError, match="unknown value kind"):
        AlgebraValue.one("quaternion")


def test_defect_term_constant_negative_one():
    v = AlgebraValue("complex", -1.0)
    assert defect_term(v, v, v) == 2.0


def test_defect_term_exact_solution_point():
    v = AlgebraValue("complex", 1.0)
    assert defect_term(v, v, v) == 0.0


def test_defect_term_mat2_diagonal_example():
    # diag(a/x, 2), diag(x/b, 2), diag(a/b, 2) with a=1, x=2, b=4
    ax = AlgebraValue("mat2", [[0.5, 0.0], [0.0, 2.0]])
    xb = AlgebraValue("mat2", [[0.5, 0.0], [0.0, 2.0]])
    ab = AlgebraValue("mat2", [[0.25, 0.0], [0.0, 2.0]])
    assert defect_term(ax, xb, ab) == 2.0


def _reference_components(kind, values):
    """The components of one value or a table of values, written out per kind."""
    t = np.asarray(values)
    if kind == "complex":
        return t.real, t.imag
    return t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]


def _samples(kind, rng):
    """Random tables of several sizes, a strided slice of one, and single values."""
    make = {
        "complex": lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s),
        "mat2": lambda *s: rng.standard_normal(s + (2, 2)),
    }[kind]
    tables = [make(n, n) for n in (1, 2, 5)]
    return tables + [tables[-1][:, 1], tables[-1][::2, ::-1], make()]


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_components_match_the_per_kind_reference(kind):
    rng = np.random.default_rng(12)
    for values in _samples(kind, rng):
        got = _components(values, kind)
        want = _reference_components(kind, values)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.dtype == np.float64
            assert g.shape == w.shape and g.tobytes() == np.ascontiguousarray(w).tobytes()


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_components_of_a_value_payload(kind):
    values = _samples(kind, np.random.default_rng(13))[-1]
    want = [float(w) for w in _reference_components(kind, values)]
    assert [p.item() for p in _components(AlgebraValue(kind, values).payload, kind)] == want


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_one_is_the_identity(kind):
    rng = np.random.default_rng(14)
    make = _random_complex_value if kind == "complex" else _random_mat2_value
    one = AlgebraValue.one(kind)
    for _ in range(200):
        v = make(rng)
        assert one * v == v * one == v


# Each of these is not a value of its kind: a complex number for a real kind,
# text, booleans, and numbers beyond float64.
NOT_VALUES = [
    ("mat2", [[1j, 0.0], [0.0, 1.0]]),
    ("mat2", [["1", 0.0], [0.0, 1.0]]),
    ("mat2", [[10**30, True], [0.0, 1.0]]),  # a boolean among Python objects
    ("complex", "1+2j"),
    ("complex", True),
    ("complex", 10**400),
    ("complex", "x"),
    ("complex", None),
    ("mat2", [[1.0, True], [0.0, 1.0]]),  # a boolean among floats
    ("mat2", [np.array([1.0, 0.0]), [np.True_, 1.0]]),
    ("complex", [1.0, True]),  # rejected for its boolean before its shape
]


@pytest.mark.parametrize("kind,value", NOT_VALUES)
def test_a_value_is_a_finite_number_of_its_kind(kind, value):
    with pytest.raises(KernelError, match="numbers"):
        AlgebraValue(kind, value)
    with pytest.raises(KernelError, match="numbers"):
        FiniteKernel(("a",), kind, [[value]])


def test_large_python_integers_are_values():
    # numpy holds 10**30 as a Python object, not as a number type
    assert FiniteKernel(("a",), "complex", [[10**30]]).table[0, 0] == 1e30
    assert AlgebraValue("complex", 10**30).as_complex() == 1e30
    assert AlgebraValue("mat2", [[10**30, 0], [0, 1]]).as_mat2()[0, 0] == 1e30


def test_value_shape_and_finiteness_messages():
    with pytest.raises(KernelError, match=r"mat2 data has shape \(1, 3\), need \(2, 2\)"):
        AlgebraValue("mat2", [[1.0, 2.0, 3.0]])
    with pytest.raises(KernelError, match="non-finite mat2 value"):
        AlgebraValue("mat2", [[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(KernelError, match=r"non-finite entry at index \(1, 0\)"):
        FiniteKernel(("a", "b"), "mat2", np.where(np.arange(16).reshape(2, 2, 2, 2) == 9, np.nan, 1.0))


# Every component -0.0, and every component +0.0.
ZEROS = {
    "complex": (complex(-0.0, -0.0), 0.0),
    "mat2": ([[-0.0, -0.0], [-0.0, -0.0]], [[0.0, 0.0], [0.0, 0.0]]),
}


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_computed_values_equal_and_hash_as_constructed_ones(kind):
    rng = np.random.default_rng(15)
    make = _random_complex_value if kind == "complex" else _random_mat2_value
    neg, pos = (AlgebraValue(kind, z) for z in ZEROS[kind])
    values = [make(rng) for _ in range(20)] + [neg, pos]
    for v in values:
        for w in values[-4:]:
            for got in (v + w, v - w, v * w):
                built = AlgebraValue(kind, got.payload)
                assert got == built and hash(got) == hash(built)
    both = neg + neg  # the sign of zero is kept, and equal zeros are one value
    assert all(np.signbit(p) for p in _components(both.payload, kind))
    assert both == pos and hash(both) == hash(pos)


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_arithmetic_beyond_float64_raises(kind):
    big = AlgebraValue(kind, 1e308 * np.asarray(AlgebraValue.one(kind).payload))
    minus_big = AlgebraValue(kind, -1e308 * np.asarray(AlgebraValue.one(kind).payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent, like Python floats
        for op in (lambda: big + big, lambda: big - minus_big, lambda: big * big):
            with pytest.raises(KernelError, match=f"non-finite {kind} value"):
                op()
