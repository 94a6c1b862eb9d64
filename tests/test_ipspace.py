import math

import numpy as np
import pytest

from sincov import (
    IPVector,
    VectorError,
    buzano_margin,
    cauchy_schwarz_margin,
    load_vectors,
    margin_sweep,
    normalized_gram,
    richard_margin,
    sample_vectors,
    save_vectors,
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
    assert IPVector("complex", (1.0 + 2.0j, 3.0)).dim == 2


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
    with pytest.raises(VectorError, match="dimension"):
        normalized_gram([E1, IPVector("real", (1.0,))])


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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_vector_file_roundtrip(field):
    vectors = sample_vectors(4, 7, field, seed=3)
    data = save_vectors(vectors)
    assert load_vectors(data) == vectors
    assert save_vectors(vectors) == data


def test_vector_file_layout():
    import json

    doc = json.loads(save_vectors([IPVector("complex", (1.0 + 2.0j, 3.0))]))
    assert list(doc.keys()) == ["field", "dim", "vectors"]
    assert doc == {"field": "complex", "dim": 2, "vectors": [[[1.0, 2.0], [3.0, 0.0]]]}
    doc = json.loads(save_vectors([E1]))
    assert doc == {"field": "real", "dim": 2, "vectors": [[1.0, 0.0]]}


def test_vector_file_validation():
    with pytest.raises(VectorError, match="keys"):
        load_vectors(b'{"field": "real", "vectors": [[1.0]]}')
    with pytest.raises(VectorError, match="field"):
        load_vectors(b'{"field": "f2", "dim": 1, "vectors": [[1.0]]}')
    with pytest.raises(VectorError, match="coordinates"):
        load_vectors(b'{"field": "real", "dim": 2, "vectors": [[1.0]]}')
    with pytest.raises(VectorError, match=r"\[re, im\]"):
        load_vectors(b'{"field": "complex", "dim": 1, "vectors": [[1.0]]}')
    with pytest.raises(VectorError, match="invalid"):
        load_vectors(b"{broken")


@pytest.mark.parametrize(
    "doc, location",
    [
        (b'{"field": "real", "dim": 2, "vectors": [["1.5", true]]}', r"vectors\[0\]\[0\]"),
        (b'{"field": "real", "dim": 2, "vectors": [[1.0, true]]}', r"vectors\[0\]\[1\]"),
        (b'{"field": "real", "dim": 2.0, "vectors": [[1.0, 2.0]]}', "dim"),
        (b'{"field": "real", "dim": 0, "vectors": [[]]}', "dim"),
        (b'{"field": "real", "dim": 2, "vectors": [[{"a": 1}, 2]]}', r"vectors\[0\]\[0\]"),
        (b'{"field": "real", "dim": 1, "vectors": [[1e999]]}', r"vectors\[0\]\[0\]"),
        (b'{"field": "real", "dim": 1, "vectors": [[1' + b"0" * 400 + b']]}',
         r"vectors\[0\]\[0\]"),
        (b'{"field": "real", "dim": 1, "vectors": [[NaN]]}', "NaN"),
        (b'{"field": "complex", "dim": 1, "vectors": [[["1", "2"]]]}', r"vectors\[0\]\[0\]\[0\]"),
        (b'{"field": "complex", "dim": 1, "vectors": [[[true, null]]]}',
         r"vectors\[0\]\[0\]\[0\]"),
        (b'{"field": "complex", "dim": 1, "vectors": [[[1.0, null]]]}',
         r"vectors\[0\]\[0\]\[1\]"),
        (b'{"field": "real", "dim": 3, "vectors": [[1, 2, 3], [4, 5, 6], [7, null, 9]]}',
         r"vectors\[2\]\[1\]: expected"),
        (b'{"field": "real", "dim": 3, "vectors": [[1, 2, 3], [4, 5, 1e999], [7, 8, 9]]}',
         r"vectors\[1\]\[2\]: non-finite"),
        (b'{"field": "complex", "dim": 3, "vectors": [[[1, 0], [2, 0], [3, 0]], '
         b'[[4, 0], [5, 0], [6, 0]], [[7, 0], [8, "0"], [9, 0]]]}',
         r"vectors\[2\]\[1\]\[1\]: expected"),
        (b'{"field": "complex", "dim": 3, "vectors": [[[1, 0], [2, 0], [3, 0]], '
         b'[[4, 0], [5, 0], [1e999, 0]], [[7, 0], [8, 0], [9, 0]]]}',
         r"vectors\[1\]\[2\]\[0\]: non-finite"),
    ],
)
def test_vector_file_rejects_non_numbers(doc, location):
    with pytest.raises(VectorError, match=location):
        load_vectors(doc)
