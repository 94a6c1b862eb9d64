import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincov import (
    IPVector,
    VectorError,
    buzano_margin,
    cauchy_schwarz_margin,
    margin_sweep,
    normalized_gram,
    richard_margin,
    sample_vectors,
    sincov_defect,
)

E1 = IPVector("real", (1.0, 0.0))
E2 = IPVector("real", (0.0, 1.0))
DIAG = IPVector("real", (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))


def test_richard_margin_examples():
    m = richard_margin(E1, E1, E1)
    assert (m.lhs, m.rhs, m.margin) == (0.5, 0.5, 0.0)

    m = richard_margin(E1, E2, E1)
    assert (m.lhs, m.rhs) == (0.0, 0.5)

    m = richard_margin(E1, E2, DIAG)
    assert abs(m.lhs - 0.5) <= 1e-15
    assert abs(m.rhs - 0.5) <= 1e-15


def test_buzano_margin_examples():
    m = buzano_margin(E1, E1, E1)
    assert (m.lhs, m.rhs, m.margin) == (1.0, 1.0, 0.0)

    m = buzano_margin(E1, E2, DIAG)
    assert abs(m.lhs - 0.5) <= 1e-15 and abs(m.rhs - 0.5) <= 1e-15

    m = buzano_margin(E1, E2, E1)
    assert (m.lhs, m.rhs) == (0.0, 0.5)


def test_cauchy_schwarz_margin_examples():
    m = cauchy_schwarz_margin(E1, E1)
    assert (m.lhs, m.rhs, m.margin) == (2.0, 2.0, 0.0)

    m = cauchy_schwarz_margin(E1, E2)
    assert (m.lhs, m.margin) == (0.0, 2.0)

    m = cauchy_schwarz_margin(IPVector("real", (1.0, 1.0)), IPVector("real", (1.0, 0.0)))
    assert abs(m.lhs - math.sqrt(2.0)) <= 1e-15
    assert abs(m.margin - (2.0 - math.sqrt(2.0))) <= 1e-15


def test_zero_x_allowed_in_richard_and_buzano():
    zero = IPVector("real", (0.0, 0.0))
    m = richard_margin(E1, E2, zero)
    assert m.lhs == 0.0 and m.rhs == 0.0
    assert buzano_margin(zero, E2, E1).margin >= 0.0


def test_cs_margin_rejects_zero_vector():
    zero = IPVector("real", (0.0, 0.0))
    with pytest.raises(VectorError, match="zero"):
        cauchy_schwarz_margin(E1, zero)


def test_mismatch_errors():
    with pytest.raises(VectorError, match="dimension"):
        richard_margin(E1, E2, IPVector("real", (1.0, 0.0, 0.0)))
    with pytest.raises(VectorError, match="field"):
        richard_margin(E1, E2, IPVector("complex", (1.0, 0.0)))


def test_vector_validation():
    with pytest.raises(VectorError):
        IPVector("real", ())
    with pytest.raises(VectorError, match="non-real"):
        IPVector("real", (1.0 + 1.0j,))
    with pytest.raises(VectorError, match="finite"):
        IPVector("real", (float("nan"),))
    with pytest.raises(VectorError, match="field"):
        IPVector("rational", (1.0,))
    # a TypeError and an OverflowError of complex(), and what the value rule
    # rejects although complex() would parse it: text, bytes and booleans
    for field, coords in (
        ("real", ((1, 2),)), ("real", (1.0, "x")), ("real", (10**400,)),
        ("real", ("1.5",)), ("real", (1.5, True)), ("complex", ("1+2j",)),
        ("complex", (1.0, b"1")), ("real", (False,)), ("real", (np.True_,)),
        ("complex", (1.0, np.bool_(False))),
    ):
        with pytest.raises(VectorError, match=f"coordinate {len(coords) - 1}: not a number"):
            IPVector(field, coords)
    assert IPVector("complex", (1.0 + 2.0j, 3.0)).dim == 2
    numpy_scalars = (np.float32(1.5), np.int64(2), np.complex64(1j))
    assert IPVector("complex", numpy_scalars).coords == (1.5, 2.0, 1j)


def test_complex_margins_use_conjugation():
    a = IPVector("complex", (1.0 + 1.0j, 0.5j))
    b = IPVector("complex", (0.5, -1.0j))
    x = IPVector("complex", (1.0j, 1.0))
    for m in (richard_margin(a, b, x), buzano_margin(a, b, x), cauchy_schwarz_margin(a, b)):
        assert m.margin >= -1e-12


def test_normalized_gram_orthonormal_pair():
    kernel = normalized_gram([E1, E2])
    np.testing.assert_array_equal(kernel.table, np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert kernel.labels == ("v0", "v1")
    assert sincov_defect(kernel).defect == 2.0


def test_normalized_gram_single_vector():
    kernel = normalized_gram([E1])
    assert kernel.table[0, 0] == 2.0
    assert sincov_defect(kernel).defect == 2.0  # |2*2 - 2|


def test_normalized_gram_oblique_pair():
    kernel = normalized_gram([E1, DIAG])
    assert abs(kernel.table[0, 1] - math.sqrt(2.0)) <= 1e-15
    assert abs(kernel.table[1, 0] - math.sqrt(2.0)) <= 1e-15


@pytest.mark.parametrize("field", ["real", "complex"])
def test_normalized_gram_random_families(field):
    vectors = sample_vectors(6, 40, field, seed=5)
    kernel = normalized_gram(vectors)
    mags = np.abs(kernel.table)
    assert float(mags.max()) <= 2.0 + 1e-12
    if field == "real":
        assert np.all(np.diag(kernel.table) == 2.0)
    else:
        assert np.all(np.abs(np.diag(kernel.table) - 2.0) <= 1e-12)
    assert sincov_defect(kernel).defect <= 2.0 + 1e-9


def test_normalized_gram_scale_invariance():
    rng = np.random.default_rng(6)
    vectors = sample_vectors(5, 12, "real", seed=8)
    scaled = []
    for v in vectors:
        lam = float(rng.uniform(0.1, 10.0))
        scaled.append(IPVector("real", tuple(lam * c for c in v.coords)))
    k1, k2 = normalized_gram(vectors), normalized_gram(scaled)
    np.testing.assert_allclose(k2.table, k1.table, rtol=1e-12, atol=1e-12)


def test_normalized_gram_rejects_bad_input():
    with pytest.raises(VectorError, match="at least one"):
        normalized_gram([])
    with pytest.raises(VectorError, match="norm"):
        normalized_gram([E1, IPVector("real", (1e-9, 0.0))])
    with pytest.raises(VectorError, match="norm"):  # rows are scaled, the test is not
        normalized_gram([E1, IPVector("real", (1e-300, 0.0))])
    with pytest.raises(VectorError, match="dimension"):
        normalized_gram([E1, IPVector("real", (1.0,))])


@pytest.mark.parametrize("s", [1e100, 1e160])
def test_normalized_gram_of_vectors_far_from_one(s):
    # squares of 1e100 underflowed the normalization to an all-zero kernel,
    # and those of 1e160 overflowed it to a non-finite one
    kernel = normalized_gram([IPVector("real", (s, 0.0)), IPVector("real", (s, s))])
    r2 = math.sqrt(2.0)
    np.testing.assert_allclose(kernel.table, [[2.0, r2], [r2, 2.0]], rtol=1e-15)
    assert sincov_defect(kernel).defect == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("s", [1e155, 1e-160, 1e-165])
def test_cauchy_schwarz_margin_far_from_one(s):
    # gave lhs nan at 1e155, an inexact lhs at 1e-160 and "zero vector" at 1e-165
    want = cauchy_schwarz_margin(IPVector("real", (1.0, 0.3)), IPVector("real", (1.0, 1.0)))
    m = cauchy_schwarz_margin(IPVector("real", (s, 0.3 * s)), IPVector("real", (s, s)))
    assert m.lhs == pytest.approx(want.lhs, rel=1e-15)
    assert m.rhs == 2.0


def test_richard_and_buzano_sides_far_from_one():
    # <a|b> = 1e400 and |x|^2 = 5e-300 leave float64 range, the sides do not:
    # they were inf, inf, with a nan margin
    a, b = IPVector("real", (1e200, 0.0)), IPVector("real", (1e200, 1e200))
    x = IPVector("real", (1e-150, 2e-150))
    m = richard_margin(a, b, x)
    assert m.lhs == pytest.approx(5e99, rel=1e-14)
    assert m.rhs == pytest.approx(2.5e100 * math.sqrt(2.0), rel=1e-14)
    m = buzano_margin(a, b, x)
    assert m.lhs == pytest.approx(3e100, rel=1e-14)
    assert m.rhs == pytest.approx(2.5e100 * (1.0 + math.sqrt(2.0)), rel=1e-14)
    # exact sides near 5e619 and 3.5e620: no float64 can hold them
    with pytest.raises(VectorError, match="richard.*float64 range"):
        richard_margin(IPVector("real", (1e300, 0.0)), IPVector("real", (1e300, 1e300)),
                       IPVector("real", (1e10, 2e10)))


def test_vector_norm_far_from_one():
    assert IPVector("real", (1e160, 0.0)).norm == 1e160  # was inf
    assert IPVector("complex", (3e300 + 4e300j,)).norm == pytest.approx(5e300, rel=1e-15)
    assert IPVector("real", (3e-320, 4e-320)).norm == 5e-320
    assert math.isinf(IPVector("real", (1.7e308, 1.7e308)).norm)  # the exact norm is too


# zero, or a modulus in [2^-20, 2^20): scaled by 2^k with |k| <= 1000 every
# component stays a normal float
COMPONENTS = st.just(0.0) | st.builds(
    lambda sign, m, e: sign * math.ldexp(m, e),
    st.sampled_from((-1.0, 1.0)),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-20, 19),
)


def _vector(field: str, comps: list[float]) -> IPVector:
    if field == "real":
        return IPVector(field, tuple(comps[0::2]))
    return IPVector(field, tuple(complex(re, im) for re, im in zip(comps[0::2], comps[1::2])))


def _ldexp(x: float, k: int) -> float:
    """x * 2^k rounded once; inf where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("real", "complex")),
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(COMPONENTS, min_size=2 * d, max_size=2 * d),
                           min_size=3, max_size=3)
    ),
    st.integers(0, 2),
    st.integers(-1000, 1000),
)
def test_vector_quantities_scale_by_powers_of_two_bit_for_bit(field, comps, which, k):
    base = [_vector(field, c) for c in comps]
    scaled = list(base)
    scaled[which] = _vector(field, [math.ldexp(c, k) for c in comps[which]])

    assert scaled[which].norm == _ldexp(base[which].norm, k)

    tables = set()
    for vectors in (base, scaled):
        if min(v.norm for v in vectors) <= 1e-6:
            with pytest.raises(VectorError, match="norm below"):
                normalized_gram(vectors)
        else:
            tables.add(normalized_gram(vectors).table.tobytes())
    assert len(tables) <= 1

    if any(base[0].coords) and any(base[1].coords):
        want = cauchy_schwarz_margin(base[0], base[1])
        assert cauchy_schwarz_margin(scaled[0], scaled[1]) == want

    shift = 2 * k if which == 2 else k  # degree 1 in a and b, 2 in x
    for margin in (richard_margin, buzano_margin):
        m = margin(*base)
        lhs, rhs = _ldexp(m.lhs, shift), _ldexp(m.rhs, shift)
        if math.isinf(lhs) or math.isinf(rhs):
            with pytest.raises(VectorError, match="float64 range"):
                margin(*scaled)
        else:
            got = margin(*scaled)
            assert (got.lhs, got.rhs) == (lhs, rhs)


def test_sample_vectors_determinism_and_contract():
    a = sample_vectors(3, 5, "real", seed=1)
    b = sample_vectors(3, 5, "real", seed=1)
    assert a == b
    assert all(v.dim == 3 and v.norm >= 1e-6 for v in a)
    c = sample_vectors(2, 4, "complex", seed=2)
    assert all(any(z.imag != 0.0 for z in v.coords) for v in c)
    assert sample_vectors(3, 5, "real", seed=2) != a
    with pytest.raises(VectorError):
        sample_vectors(0, 5, "real", seed=1)
    with pytest.raises(VectorError, match="seed"):
        sample_vectors(3, 5, "real", seed=-1)
    with pytest.raises(VectorError, match="seed"):
        sample_vectors(3, 5, "real", seed=1.5)


def test_margin_spot_checks_on_sampled_vectors():
    vecs = sample_vectors(2, 300, "complex", seed=2)
    for a, b, x in zip(vecs[0::3], vecs[1::3], vecs[2::3]):
        m = richard_margin(a, b, x)
        assert m.margin >= -1e-9 * (1.0 + m.rhs)


def test_buzano_follows_from_richard_pointwise():
    # |<a|x><x|b>| <= |<a|x><x|b> - <a|b>|x|^2/2| + |<a|b>| |x|^2/2
    rng = np.random.default_rng(9)
    for _ in range(500):
        a, b, x = (IPVector("real", tuple(rng.standard_normal(3))) for _ in range(3))
        r = richard_margin(a, b, x)
        bu = buzano_margin(a, b, x)
        iab = float(np.dot(a.as_array(), b.as_array()))
        half_term = abs(iab) * x.norm ** 2 / 2.0
        assert bu.lhs <= r.lhs + half_term + 1e-9 * (1.0 + bu.rhs)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_margin_sweep(field):
    result = margin_sweep(dim=2, count=10_000, field=field, seed=2)
    assert result.margins_hold
    assert result.gram_defect_holds
    assert set(result.min_margins) == {"richard", "buzano", "cauchy_schwarz"}
    assert result.gram_size == 64
    again = margin_sweep(dim=2, count=10_000, field=field, seed=2)
    assert again == result


def test_margin_sweep_validation():
    with pytest.raises(VectorError):
        margin_sweep(0, 10, "real", 1)
    with pytest.raises(VectorError):
        margin_sweep(2, 10, "quaternion", 1)
    with pytest.raises(VectorError, match="seed"):
        margin_sweep(2, 10, "real", -1)
