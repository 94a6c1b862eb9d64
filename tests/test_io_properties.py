"""Property tests of the kernel file reader and writer, and of the report writer."""

import copy
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincov import FiniteKernel, KernelFormatError, load_kernel, render_report, save_kernel
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
def kernels(draw, max_points=4):
    kind = draw(st.sampled_from(["complex", "mat2"]))
    n = draw(st.integers(1, max_points))
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
# the bytes save_kernel writes one row at a time and any other document whole;
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
def saved_and_reformatted(draw, data: bytes) -> list[bytes]:
    """The kernel document in data as saved, which is read row by row, and two
    copies of it that are parsed whole: through json.dumps(indent=1), and with
    JSON whitespace between any two tokens and keys spelled with escapes."""
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
    for document in data.draw(saved_and_reformatted(saved)) + data.draw(in_other_layouts(saved)):
        assert _outcome(document) == _document_outcome(document), document


def _unparsed(data):
    raise AssertionError("the whole document was parsed")


class RecordedBytes(bytes):
    """A kernel document that counts the decodes of its whole text."""

    def decode(self, *args, **kwargs):
        self.decodes += 1
        return super().decode(*args, **kwargs)


def _recorded(data: bytes) -> RecordedBytes:
    recorded = RecordedBytes(data)
    recorded.decodes = 0
    return recorded


@settings(max_examples=100, deadline=None)
@given(writer_kernels())
def test_saved_bytes_are_read_row_by_row(kernel):
    """With or without the final newline, and with the labels' text raw or
    escaped: the whole document is never decoded or parsed."""
    saved = save_kernel(kernel)
    with mock.patch.object(kernel_module, "_parse", _unparsed):
        for document in (saved, saved[:-1], _copies(saved)["escaped"]):
            recorded = _recorded(document)
            assert save_kernel(load_kernel(recorded)) == saved, document
            assert recorded.decodes == 0, document


def test_key_sorted_documents_are_read_whole():
    kernel = FiniteKernel(("a", "b"), "complex", np.array([[1.0, -0.0j], [2.5, 1j]]))
    data = _recorded(json.dumps(json.loads(save_kernel(kernel)), sort_keys=True).encode())
    with mock.patch.object(kernel_module, "_parse", wraps=kernel_module._parse) as parse:
        assert load_kernel(data) == kernel
    assert parse.call_count == 1
    assert data.decodes == 1


# A row written as save_kernel writes it is read from one flat JSON array of
# its reals; a row in any other form, or with a defect, is not.  The edits
# below come near that form: each document must load as the whole document
# does.
N_EDIT = 3
PLACES = {"first": 0, "middle": 1, "last": N_EDIT - 1}  # entry k of row k
TEMPLATES = {"complex": '{"re":%s,"im":%s}', "mat2": '{"m":[[%s,%s],[%s,%s]]}'}


def _edit_kernel(kind: str) -> FiniteKernel:
    reals = np.arange(N_EDIT * N_EDIT * (2 if kind == "complex" else 4)) + 0.25
    shape = (N_EDIT, N_EDIT) if kind == "complex" else (N_EDIT, N_EDIT, 2, 2)
    table = reals.view(np.complex128).reshape(shape) if kind == "complex" else reals.reshape(shape)
    return FiniteKernel(tuple(f"p{i}" for i in range(N_EDIT)), kind, table)


def _edited(kind: str, k: int, template=None, literal=None, moved=None, entries=N_EDIT) -> bytes:
    """The saved kernel of _edit_kernel(kind) with entry k of row k written
    from template (the kind's own by default) and its first real written as
    literal if one is given; moved ("front" or "back") moves the row's first
    real in front of the row's opening bracket or behind its closing one;
    row k keeps its first entries entries, or repeats its first one after its
    last to make them up."""
    kernel = _edit_kernel(kind)
    head = save_kernel(kernel).decode().split('"entries":', 1)[0]
    rows = []
    for r, row in enumerate(kernel.table.reshape(N_EDIT, N_EDIT, -1).view(np.float64).tolist()):
        texts = [[repr(x) for x in entry] for entry in np.reshape(row, (N_EDIT, -1)).tolist()]
        forms = [TEMPLATES[kind]] * N_EDIT
        front = back = ""
        if r == k:
            forms[k] = template or forms[k]
            if literal is not None:
                texts[k][0] = literal
            if moved == "front":
                front, texts[0][0] = texts[0][0], ""
            elif moved == "back":
                back, texts[0][0] = texts[0][0], ""
            forms, texts = (forms * 2)[:entries], (texts * 2)[:entries]
        row = ",".join(form % tuple(t) for form, t in zip(forms, texts))
        rows.append(front + "[" + row + "]" + back)
    return (head + '"entries":[' + ",".join(rows) + "]}\n").encode()


def _moved_in_front(template: str) -> str:
    return "%s" + template.replace("%s", "", 1)


TEMPLATE_EDITS = {
    "complex": {
        "real in front of its entry": _moved_in_front(TEMPLATES["complex"]),
        "real in the inner separator": '{"re":%s,%s"im":}',
        "number in the separator in front": '5{"re":%s,"im":%s}',
        "im before re": '{"im":%s,"re":%s}',
        "re escaped": '{"\\u0072e":%s,"im":%s}',
        **{f"key {key}": TEMPLATES["complex"].replace('"re"', key)
           for key in ('"r"', '"ree"', '"er"', '"5re"')},
    },
    "mat2": {
        "real in front of its entry": _moved_in_front(TEMPLATES["mat2"]),
        "real behind the first bracket": '{"m":[[%s,]%s,[%s,%s]]}',
        "real behind the last bracket": '{"m":[[%s,%s],[%s,]%s]}',
        "m split 3 + 1": '{"m":[[%s,%s,%s],[%s]]}',
        "m escaped": '{"\\u006d":[[%s,%s],[%s,%s]]}',
        **{f"key {key}": TEMPLATES["mat2"].replace('"m"', key)
           for key in ('""', '"5m"', '"m5"', '"me"', '"em"')},
    },
}
LITERALS = ["+1", "01", "1.", ".5", "-", "", "-0", "1e999", "7" * 400, "7" * 5000]
VALID_EDITS = {"im before re", "re escaped", "m escaped", "-0"}
EDITS = [
    (kind, name, {"template": template})
    for kind, edits in TEMPLATE_EDITS.items() for name, template in edits.items()
] + [
    (kind, f"{len(literal)} digits" if len(literal) > 8 else literal or "empty slot",
     {"literal": literal})
    for kind in TEMPLATES for literal in LITERALS
] + [
    (kind, f"real {side} the row", {"moved": side}) for kind in TEMPLATES for side in ("front", "back")
] + [  # n - 2 and n separators between the entries of a row
    (kind, f"{count} entries", {"entries": count}) for kind in TEMPLATES for count in (N_EDIT - 1, N_EDIT + 1)
]


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("kind, name, edit", EDITS, ids=[f"{k}-{n}" for k, n, _ in EDITS])
def test_edited_compact_rows_load_as_the_whole_document_does(kind, name, edit, place):
    data = _edited(kind, PLACES[place], **edit)
    outcome = _outcome(data)
    assert outcome == _document_outcome(data)
    assert isinstance(outcome, bytes) == (name in VALID_EDITS)


@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_a_negative_zero_integer_reads_as_positive_zero(kind):
    kernel = load_kernel(_edited(kind, 1, literal="-0"))  # entry (1, 1)
    first = kernel.table[1, 1].real if kind == "complex" else kernel.table[1, 1, 0, 0]
    assert first == 0.0 and math.copysign(1.0, first) == 1.0


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_an_integer_past_float_range_in_a_flat_row_loads_as_the_whole_document_does(kind, sign):
    """The flat reader decodes the row, whose integer 10^309 (past the
    largest float, about 1.8 10^308) converts to no float, and declines; the
    whole document names the entry."""
    n = 16  # a row long enough for the literal among float reprs
    reals = np.full(n * n * (2 if kind == "complex" else 4), 0.25)
    table = reals.view(np.complex128).reshape(n, n) if kind == "complex" else reals.reshape(n, n, 2, 2)
    kernel = FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)
    literal = sign + "1" + "0" * 309
    data = save_kernel(kernel).replace(b"0.25", literal.encode(), 1)
    decoder = mock.Mock(wraps=kernel_module._DECODER)
    with mock.patch.object(kernel_module, "_DECODER", decoder):
        outcome = _outcome(data)
    assert any(call.args[0].startswith("[" + literal + ",") for call in decoder.decode.call_args_list)
    assert outcome == _document_outcome(data)
    assert outcome == (KernelFormatError, "entries[0][0].re: non-finite value" if kind == "complex"
                       else "entries[0][0].m[0][0]: non-finite value")


# one real of a row moved to any other place in it, or characters of the
# kernel document's grammar inserted, deleted, swapped or moved
REAL = re.compile(r"(?<=[:\[,])[-0-9][0-9.eE+-]*")
GRAMMAR = '0123456789+-.eE,[]{}":rim '


@st.composite
def edited_entries(draw, data: bytes) -> bytes:
    text = data.decode()
    lo = text.index('"entries":') + len('"entries":')
    hi = len(text) - 2  # before "}\n"
    entries = text[lo:hi]
    if draw(st.booleans()):  # move one real within its row
        rows = [(m.start(), m.end()) for m in re.finditer(r"\[\{.*?\}\](?=,\[\{|\]$)", entries)]
        start, end = draw(st.sampled_from(rows))
        row = entries[start:end]
        real = draw(st.sampled_from(list(REAL.finditer(row))))
        rest = row[:real.start()] + row[real.end():]
        at = draw(st.integers(0, len(rest)))
        entries = entries[:start] + rest[:at] + real.group() + rest[at:] + entries[end:]
    else:
        k = draw(st.integers(1, 3))
        a = draw(st.integers(0, len(entries) - k))
        chunk = entries[a:a + k]
        op = draw(st.sampled_from(["insert", "delete", "swap", "move"]))
        if op == "insert":
            entries = entries[:a] + draw(st.text(GRAMMAR, min_size=k, max_size=k)) + entries[a:]
        elif op == "swap" and a + 2 * k <= len(entries):
            entries = entries[:a] + entries[a + k:a + 2 * k] + chunk + entries[a + 2 * k:]
        else:
            entries = entries[:a] + entries[a + k:]
            if op == "move":
                at = draw(st.integers(0, len(entries)))
                entries = entries[:at] + chunk + entries[at:]
    return (text[:lo] + entries + text[hi:]).encode()


@settings(max_examples=400, deadline=None)
@given(st.data(), kernels(max_points=3))
def test_randomly_edited_entries_load_as_the_whole_document_does(data, kernel):
    document = data.draw(edited_entries(save_kernel(kernel)))
    assert _outcome(document) == _document_outcome(document), document


@pytest.mark.parametrize("n", [1, 2, 70])
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_saved_rows_are_read_from_flat_arrays(kind, n):
    rng = np.random.default_rng(n)
    shape = (n, n) if kind == "complex" else (n, n, 2, 2)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if kind == "complex":
        table = table + 1j * rng.standard_normal(shape)
    kernel = FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)
    with mock.patch.object(kernel_module, "_parse", _unparsed):
        back = load_kernel(save_kernel(kernel))
    assert back.table.tobytes() == kernel.table.tobytes()


def _rows(kernel: FiniteKernel, real: str = "%r") -> list[str]:
    """The rows of kernel's entries as save_kernel writes them, with each
    real written by the format real."""
    reals = kernel.table.reshape(kernel.n, kernel.n, -1).view(np.float64).tolist()
    template = TEMPLATES[kernel.value_kind]
    return ["[%s]" % ",".join(template % tuple(real % x for x in entry) for entry in row) for row in reals]


def _with_rows(kernel: FiniteKernel, rows: list[str]) -> bytes:
    """The document of save_kernel's head of kernel and rows."""
    head = json.dumps({"labels": list(kernel.labels), "value_kind": kernel.value_kind},
                      ensure_ascii=False, separators=(",", ":"))
    return (head[:-1] + ',"entries":[' + ",".join(rows) + "]}\n").encode()


def _respaced_row(kernel: FiniteKernel) -> bytes:
    rows = _rows(kernel)
    rows[kernel.n // 2] = json.dumps(json.loads(rows[kernel.n // 2]), indent=1)
    return _with_rows(kernel, rows)


def _escaped_key(key: str) -> str:
    """An entry's key with every character as a \\u escape; a top-level key as saved."""
    if key in ("labels", "value_kind", "entries"):
        return json.dumps(key)
    return '"%s"' % "".join("\\u%04x" % ord(c) for c in key)


def _keys_reordered(saved: bytes, kernel: FiniteKernel) -> bytes:
    """saved with the keys of each complex entry in the other order, or, as a
    mat2 entry has one key, with the top-level keys in the other order."""
    size = 3 if kernel.value_kind == "mat2" else 2  # of the objects to reorder
    doc = json.loads(saved, object_pairs_hook=lambda pairs: dict(pairs[::-1] if len(pairs) == size else pairs))
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode()


# Copies of a saved document in other layouts.  All but the first two keep
# save_kernel's head, up to the mat2 copy with its keys reordered, so the row
# reader declines them at a row.  Reals of 41 significant digits, longer than
# any float repr, read back as the same floats.
OTHER_LAYOUTS = {
    "indented": lambda saved, kernel: json.dumps(json.loads(saved), indent=1, ensure_ascii=False).encode(),
    "spaced": lambda saved, kernel: json.dumps(json.loads(saved), ensure_ascii=False).encode(),
    "keys escaped": lambda saved, kernel: _json(json.loads(saved), str, _escaped_key).encode(),
    "one row re-spaced": lambda saved, kernel: _respaced_row(kernel),
    "keys reordered": _keys_reordered,
    "reals longer than float reprs": lambda saved, kernel: _with_rows(kernel, _rows(kernel, "%.40e")),
}


@pytest.mark.parametrize("layout", OTHER_LAYOUTS)
@settings(max_examples=50, deadline=None)
@given(writer_kernels())
def test_other_layouts_are_parsed_whole_once(layout, kernel):
    saved = save_kernel(kernel)
    assert _with_rows(kernel, _rows(kernel)) == saved
    document = OTHER_LAYOUTS[layout](saved, kernel)
    with mock.patch.object(kernel_module, "_parse", wraps=kernel_module._parse) as parse:
        assert save_kernel(load_kernel(document)) == saved, document
    assert parse.call_count == 1, document


# Labels that hold non-ASCII text or pieces of the layout: the row reader
# finds the head's end by the JSON grammar, not by searching for a key.
LAYOUT_LABELS = ["é", "\U0001f600€", "entries", '"entries":[', 'x"entries":[[', '\\"', '"', "}]", '"}]']


def _copies(data: bytes) -> dict:
    """A saved document and copies of it: indented, with every non-ASCII
    character escaped, and key-sorted."""
    doc = json.loads(data)
    return {
        "saved": data,
        "indented": json.dumps(doc, indent=1, ensure_ascii=False).encode(),
        "escaped": json.dumps(doc, separators=(",", ":")).encode(),
        "sorted": json.dumps(doc, sort_keys=True, ensure_ascii=False).encode(),
    }


@pytest.mark.parametrize("label", LAYOUT_LABELS)
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_labels_holding_layout_text_load_as_the_whole_document_does(kind, label):
    kernel = _edit_kernel(kind)
    kernel = FiniteKernel((label,) + kernel.labels[1:], kind, kernel.table)
    saved = save_kernel(kernel)
    for name, document in _copies(saved).items():
        assert _outcome(document) == _document_outcome(document) == saved, name
        assert _outcome(document.decode()) == saved, name  # text is parsed whole
        with mock.patch.object(kernel_module, "_parse", wraps=kernel_module._parse) as parse:
            assert save_kernel(load_kernel(document)) == saved, name
        assert parse.call_count == (name in ("indented", "sorted")), name  # read whole once, or by rows


# bytes that are not UTF-8: a stray continuation byte, a lead byte without
# its continuation, an encoded surrogate and an overlong encoding
BAD_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"]
BAD_PLACES = {
    "head": lambda data, bad: data.replace(b'"p1"', b'"p1' + bad + b'"', 1),
    "row": lambda data, bad: data.replace(b"1.25", b"1.2" + bad + b"5", 1),
    "after the closing brace": lambda data, bad: data.rstrip() + bad + b"\n",
}


@pytest.mark.parametrize("bad", BAD_UTF8, ids=[b.hex() for b in BAD_UTF8])
@pytest.mark.parametrize("place", BAD_PLACES)
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_bytes_that_are_not_utf8_load_as_the_whole_document_does(kind, place, bad):
    saved = save_kernel(_edit_kernel(kind))
    for name, copy_ in _copies(saved).items():
        document = BAD_PLACES[place](copy_, bad)
        assert document != copy_, name
        outcome = _outcome(document)
        assert outcome == _document_outcome(document), name
        assert outcome[0] is KernelFormatError and outcome[1].startswith("not valid UTF-8: "), name


# report documents: floats where repr changes form, also as numpy float64,
# which json writes with float.__repr__; integers past int64; bools, None and
# text with quotes, backslashes, control and non-ASCII characters, as values
# and as keys (json writes a key that is not a str as the string of its text)
REPORT_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 30, -(10 ** 400)])
    | WRITER_REALS | WRITER_REALS.map(np.float64) | LABELS
)
REPORT_DOCS = st.recursive(
    REPORT_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(LABELS, kids, max_size=3) | st.dictionaries(REPORT_SCALARS, kids, max_size=2),
    max_leaves=12,
)


def _json_report(doc) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(REPORT_DOCS)
def test_reports_are_the_bytes_of_json_dumps(doc):
    assert render_report(doc) == _json_report(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_in_reports_raise_value_error(bad):
    for doc in (bad, {"lhs": [1.0, bad]}, {"checks": [{"rhs": np.float64(bad)}]}, {bad: 1.0}):
        for write in (render_report, _json_report):
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                write(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 3}, {"a": object()}, [{1j}]], ids=["key", "object", "set"])
def test_what_json_cannot_write_raises_type_error_in_both_writers(doc):
    for write in (render_report, _json_report):
        with pytest.raises(TypeError):
            write(doc)
