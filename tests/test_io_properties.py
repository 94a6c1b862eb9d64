"""Property tests of the kernel file reader and writer."""

import copy
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sincov import FiniteKernel, KernelFormatError, load_kernel, save_kernel
from sincov import kernel as kernel_module

# signed zero, subnormals, the smallest normal and the edges of float range
EDGE_REALS = (
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308,
)
REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_REALS)

# any JSON value, including the literals the reader rejects
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


# reals where repr changes form (1e16, 1e-4) and integral floats, with the edges
WRITER_REALS = REALS | st.sampled_from(EDGE_REALS + (
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
    1.0001e-4, 0.0, 1.0, -3.0, 2.0 ** 52, 2.0 ** 53 + 2.0, 123456789.0,
))
# quotes, backslashes, control characters, non-ASCII and non-BMP text
LABELS = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1fé€\U0001f600'), max_size=6)
LAYOUTS = {
    "contiguous": lambda t: t,
    "transposed": lambda t: t.swapaxes(0, 1),
    "reversed": lambda t: t[::-1, ::-1],
}


@st.composite
def writer_kernels(draw):
    """Kernels with any finite reals and labels, built from tables of any layout."""
    kind = draw(st.sampled_from(["complex", "mat2"]))
    n = draw(st.integers(1, 4))
    width = 2 if kind == "complex" else 4
    reals = np.array(draw(st.lists(WRITER_REALS, min_size=n * n * width, max_size=n * n * width)))
    table = reals.view(np.complex128).reshape(n, n) if kind == "complex" else reals.reshape(n, n, 2, 2)
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    return FiniteKernel(tuple(labels), kind, LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](table))


def reference_save_kernel(kernel: FiniteKernel) -> bytes:
    """The kernel file as json.dumps writes it from a tree of entry objects."""
    if kernel.value_kind == "complex":
        entries = [
            [{"re": re, "im": im} for re, im in zip(row_re, row_im)]
            for row_re, row_im in zip(kernel.table.real.tolist(), kernel.table.imag.tolist())
        ]
    else:
        entries = [[{"m": m} for m in row] for row in kernel.table.tolist()]
    doc = {"labels": list(kernel.labels), "value_kind": kernel.value_kind, "entries": entries}
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


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


@settings(max_examples=200, deadline=None)
@given(writer_kernels())
def test_save_kernel_writes_the_bytes_of_the_reference_writer(kernel):
    assert save_kernel(kernel) == reference_save_kernel(kernel)


@settings(max_examples=150, deadline=None)
@given(st.data(), kernels())
def test_mutated_kernel_documents_raise_only_format_errors(data, kernel):
    document = data.draw(mutated(save_kernel(kernel)))
    try:
        load_kernel(document)
    except KernelFormatError:
        pass


# Kernel documents written in other ways than save_kernel's.  load_kernel reads
# a document in save_kernel's layout one row at a time and any other whole;
# both must give the same kernel, or the same error.
SPACE = st.text(" \t\n\r", max_size=3)


def _items(items: list, space) -> str:
    return ",".join(space() + item + space() for item in items) or space()


def _object(pairs, space, key) -> str:
    """An object of (key, value) pairs, in order and repeats allowed."""
    return "{%s}" % _items([key(k) + space() + ":" + space() + _json(v, space, key) for k, v in pairs], space)


def _json(value, space, key) -> str:
    """value as JSON text with space() around the items of each array and
    object and around each colon, and each key written by key."""
    if isinstance(value, dict):
        return _object(value.items(), space, key)
    if isinstance(value, list):
        return "[%s]" % _items([_json(v, space, key) for v in value], space)
    return json.dumps(value, ensure_ascii=False)


def _written(draw, pairs, *, spaced: bool, escaped: bool) -> str:
    """An object of (key, value) pairs; spaced, with JSON whitespace between
    any two tokens; escaped, with each ASCII letter of a key spelled as itself
    or as a \\u escape."""
    space = (lambda: draw(SPACE)) if spaced else str
    if escaped:
        key = lambda k: '"%s"' % "".join(
            "\\u%04x" % ord(c) if c.isascii() and c.isalpha() and draw(st.booleans())
            else json.dumps(c, ensure_ascii=False)[1:-1]
            for c in k
        )
    else:
        key = json.dumps
    return space() + _object(pairs, space, key) + space()


@st.composite
def in_saved_layout(draw, data: bytes) -> list[bytes]:
    """The kernel document in data as saved, through json.dumps(indent=1), and
    with JSON whitespace between any two tokens and keys spelled with escapes."""
    doc = json.loads(data)
    return [data, json.dumps(doc, indent=1).encode(),
            _written(draw, doc.items(), spaced=True, escaped=True).encode("utf-8")]


@st.composite
def in_other_layouts(draw, data: bytes) -> list[bytes]:
    """The kernel document in data written, spaced or not and with escapes or
    not, with its top-level keys in another order, with one of them twice, and
    with text after it; and the document with one defect."""
    pairs = list(json.loads(data).items())
    key, value = draw(st.sampled_from(pairs))
    twice = pairs[:]
    twice.insert(draw(st.integers(0, len(pairs))), (key, draw(st.just(value) | JSON_VALUES)))
    write = lambda pairs: _written(draw, pairs, spaced=draw(st.booleans()), escaped=draw(st.booleans()))
    texts = [write(draw(st.permutations(pairs))), write(twice), write(pairs) + draw(st.text(min_size=1, max_size=3))]
    return [text.encode("utf-8") for text in texts] + [draw(mutated(data))]


def _outcome(data: bytes):
    """The saved bytes of the kernel load_kernel reads from data, so that -0.0
    counts, or the type and message of the error it raises."""
    try:
        return save_kernel(load_kernel(data))
    except Exception as exc:  # compared with the document path's, never hidden
        return type(exc), str(exc)


def _document_outcome(data: bytes):
    """_outcome with the row reader declining every document."""
    with mock.patch.object(kernel_module, "_by_rows", return_value=None):
        return _outcome(data)


@settings(max_examples=150, deadline=None)
@given(st.data(), writer_kernels())
def test_every_kernel_document_loads_as_the_whole_document_does(data, kernel):
    saved = save_kernel(kernel)
    for document in data.draw(in_saved_layout(saved)) + data.draw(in_other_layouts(saved)):
        assert _outcome(document) == _document_outcome(document), document


def _unparsed(data):
    raise AssertionError("the whole document was parsed")


@settings(max_examples=100, deadline=None)
@given(st.data(), writer_kernels())
def test_documents_in_the_saved_layout_are_read_row_by_row(data, kernel):
    """The save_kernel bytes among them: the whole document is never parsed."""
    saved = save_kernel(kernel)
    with mock.patch.object(kernel_module, "_parse", _unparsed):
        for document in data.draw(in_saved_layout(saved)):
            assert save_kernel(load_kernel(document)) == saved, document


def test_key_sorted_documents_are_read_whole():
    kernel = FiniteKernel(("a", "b"), "complex", np.array([[1.0, -0.0j], [2.5, 1j]]))
    data = json.dumps(json.loads(save_kernel(kernel)), sort_keys=True).encode()
    with mock.patch.object(kernel_module, "_parse", wraps=kernel_module._parse) as parse:
        assert load_kernel(data) == kernel
    assert parse.call_count == 1
