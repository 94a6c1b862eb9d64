"""Property tests of the kernel and vector file readers."""

import copy
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sincov import (
    FiniteKernel,
    IPVector,
    KernelFormatError,
    VectorError,
    load_kernel,
    load_vectors,
    save_kernel,
    save_vectors,
)

# signed zero, subnormals, the smallest normal and the edges of float range
EDGE_REALS = (
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308,
)
REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_REALS)

# any JSON value, including the literals the readers reject
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10 ** 400, -(10 ** 400)])
    | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(["complex", "mat2"]))
    n = draw(st.integers(1, 4))
    width = 2 if kind == "complex" else 4
    reals = np.array(draw(st.lists(REALS, min_size=n * n * width, max_size=n * n * width)))
    if kind == "complex":
        table = reals.view(np.complex128).reshape(n, n)
    else:
        table = reals.reshape(n, n, 2, 2)
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)


@st.composite
def vector_lists(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    dim = draw(st.integers(1, 4))
    width = dim if field == "real" else 2 * dim
    rows = draw(st.lists(st.lists(REALS, min_size=width, max_size=width), min_size=1, max_size=4))
    if field == "complex":
        rows = [np.array(row).view(np.complex128).tolist() for row in rows]
    return [IPVector(field, tuple(row)) for row in rows]


def _nodes(doc, path=()):
    """Every (path, value) in a parsed JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one node replaced or removed, or its text cut short."""
    doc = json.loads(data)
    action = draw(st.sampled_from(["replace", "remove", "truncate"]))
    if action == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    path, _ = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return json.dumps(draw(JSON_VALUES)).encode()
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "replace":
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        del parent[path[-1]]
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None)
@given(kernels())
def test_kernel_round_trip_is_bit_identical(kernel):
    back = load_kernel(save_kernel(kernel))
    assert back.labels == kernel.labels and back.value_kind == kernel.value_kind
    assert back.table.dtype == kernel.table.dtype
    assert back.table.tobytes() == kernel.table.tobytes()


@settings(max_examples=100, deadline=None)
@given(vector_lists())
def test_vector_round_trip_is_bit_identical(vectors):
    back = load_vectors(save_vectors(vectors))
    assert [v.field for v in back] == [v.field for v in vectors]
    assert all(a.as_array().tobytes() == b.as_array().tobytes() for a, b in zip(back, vectors))


@settings(max_examples=150, deadline=None)
@given(st.data(), kernels())
def test_mutated_kernel_documents_raise_only_format_errors(data, kernel):
    document = data.draw(mutated(save_kernel(kernel)))
    try:
        load_kernel(document)
    except KernelFormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.data(), vector_lists())
def test_mutated_vector_documents_raise_only_vector_errors(data, vectors):
    document = data.draw(mutated(save_vectors(vectors)))
    try:
        load_vectors(document)
    except VectorError:
        pass
