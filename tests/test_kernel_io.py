import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_complex_kernel, random_mat2_kernel
from sincov import (
    FiniteKernel,
    GeneratorSpec,
    KernelError,
    KernelFormatError,
    UnknownLabelError,
    generate,
    load_kernel,
    normalized_gram,
    sample_vectors,
    save_kernel,
)

ALL_SPECS = [
    GeneratorSpec("constant", value=-1.0, size=2),
    GeneratorSpec("constant", value=0.5 + 0.25j, size=3),
    GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)),
    GeneratorSpec("e1", n=2, c=1.0),
    GeneratorSpec("e0", samples=(1.0, 2.0, 10.0, 100.0)),
    GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0, 3.0)),
    GeneratorSpec("moszner", n=4, size=3),
    GeneratorSpec("perturbed_ratio", samples=(1.0, 2.0, 3.0), eps=0.1, seed=9),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
def test_roundtrip_on_generator_outputs(spec):
    kernel = generate(spec)
    data = save_kernel(kernel)
    assert load_kernel(data) == kernel
    assert save_kernel(kernel) == data  # determinism


def test_roundtrip_random_tables():
    rng = np.random.default_rng(11)
    for kernel in (random_complex_kernel(rng, 5), random_mat2_kernel(rng, 4)):
        assert load_kernel(save_kernel(kernel)) == kernel


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize(
    "path", sorted(p for p in GOLDEN.glob("*.json") if p.name != "expected.json"), ids=lambda p: p.stem
)
def test_golden_kernel_files_resave_to_their_own_bytes(path):
    data = path.read_bytes()
    assert save_kernel(load_kernel(data)) == data


@pytest.mark.parametrize("kind", ["complex", "mat2"])
@pytest.mark.parametrize(
    "layout", [lambda t: t.swapaxes(0, 1), lambda t: t[::-1, ::-1]], ids=["transposed", "reversed"]
)
def test_non_contiguous_tables_are_stored_c_ordered_and_saved(kind, layout):
    rng = np.random.default_rng(5)
    source = random_complex_kernel(rng, 4) if kind == "complex" else random_mat2_kernel(rng, 4)
    table = layout(source.table)
    assert not table.flags.c_contiguous
    kernel = FiniteKernel(source.labels, kind, table)
    assert kernel.table.flags.c_contiguous
    data = save_kernel(kernel)
    assert data == save_kernel(FiniteKernel(source.labels, kind, np.ascontiguousarray(table)))
    assert load_kernel(data) == kernel


def test_loading_a_saved_kernel_holds_one_row_of_parsed_json_at_a_time():
    """The load holds the table and one row of parsed JSON beside the
    document: its peak stays below the document's size plus three table sizes."""
    kernel = random_mat2_kernel(np.random.default_rng(7), 96)
    data = save_kernel(kernel)
    tracemalloc.start()
    try:
        assert load_kernel(data) == kernel
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 3 * kernel.table.nbytes


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_a_loaded_kernel_keeps_the_table_that_the_loader_filled(kind):
    """No copy of the table is made: besides it the loader holds one row."""
    rng = np.random.default_rng(8)
    kernel = random_complex_kernel(rng, 64) if kind == "complex" else random_mat2_kernel(rng, 64)
    data = save_kernel(kernel)
    tracemalloc.start()
    try:
        loaded = load_kernel(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == kernel
    assert peak < 1.6 * kernel.table.nbytes


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_the_constructor_keeps_a_copy_of_its_data(kind):
    rng = np.random.default_rng(3)
    source = random_complex_kernel(rng, 3) if kind == "complex" else random_mat2_kernel(rng, 3)
    data = source.table.copy()
    kernel = FiniteKernel(source.labels, kind, data)
    assert data.flags.writeable and not kernel.table.flags.writeable
    data[...] = 0.0
    assert kernel == source


def test_tables_that_sincov_builds_are_read_only():
    rng = np.random.default_rng(6)
    kernels = [generate(spec) for spec in ALL_SPECS]
    kernels += [load_kernel(save_kernel(random_complex_kernel(rng, 3))),
                load_kernel(save_kernel(random_mat2_kernel(rng, 3)).decode()),  # parsed whole
                normalized_gram(sample_vectors(3, 4, "real", 0)),
                normalized_gram(sample_vectors(3, 4, "complex", 0))]
    for kernel in kernels:
        assert not kernel.table.flags.writeable
        assert kernel.table.flags.c_contiguous


def test_saved_document_shape():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=2))
    doc = json.loads(save_kernel(kernel))
    assert list(doc.keys()) == ["labels", "value_kind", "entries"]
    assert doc["labels"] == ["x0", "x1"]
    assert doc["value_kind"] == "complex"
    flat = [e for row in doc["entries"] for e in row]
    assert len(flat) == 4
    assert all(e == {"re": -1.0, "im": 0.0} for e in flat)


def test_ratio_entries_on_two_points():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0)))
    doc = json.loads(save_kernel(kernel))
    values = [e["re"] for row in doc["entries"] for e in row]
    assert values == [1.0, 0.5, 2.0, 1.0]


def _doc(**overrides):
    base = {
        "labels": ["a", "b"],
        "value_kind": "complex",
        "entries": [
            [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}],
            [{"re": 0.5, "im": 0.0}, {"re": 1.0, "im": 0.0}],
        ],
    }
    base.update(overrides)
    return json.dumps(base).encode()


def test_load_rejects_non_square():
    bad = _doc(entries=[
        [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}, {"re": 3.0, "im": 0.0}],
        [{"re": 0.5, "im": 0.0}, {"re": 1.0, "im": 0.0}, {"re": 3.0, "im": 0.0}],
    ])
    with pytest.raises(KernelFormatError, match=r"entries\[0\]"):
        load_kernel(bad)
    with pytest.raises(KernelFormatError, match="entries"):
        load_kernel(_doc(entries=[[{"re": 1.0, "im": 0.0}]]))


def test_load_rejects_duplicate_labels():
    with pytest.raises(KernelFormatError, match="duplicate"):
        load_kernel(_doc(labels=["a", "a"]))


def test_load_rejects_non_finite():
    with pytest.raises(KernelFormatError, match="NaN"):
        load_kernel(_doc().replace(b"1.0", b"NaN", 1))
    # 1e999 parses to infinity and must be caught by range validation
    with pytest.raises(KernelFormatError, match=r"entries\[0\]\[0\]\.re"):
        load_kernel(_doc().replace(b'"re": 1.0', b'"re": 1e999', 1))
    # so must an integer literal too large for a float
    with pytest.raises(KernelFormatError, match=r"entries\[0\]\[0\]\.re"):
        load_kernel(_doc().replace(b'"re": 1.0', b'"re": 1' + b"0" * 400, 1))


def _three_point_doc(kind: str, i: int, j: int, slot, token: bytes) -> bytes:
    """A 3-point kernel document with the literal token at entries[i][j] slot."""
    if kind == "complex":
        kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 3.0)))
    else:
        kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0, 3.0)))
    doc = json.loads(save_kernel(kernel))
    if kind == "complex":
        doc["entries"][i][j][slot] = "BAD"
    else:
        doc["entries"][i][j]["m"][slot[0]][slot[1]] = "BAD"
    return json.dumps(doc).encode().replace(b'"BAD"', token)


@pytest.mark.parametrize(
    "kind, i, j, slot, location",
    [
        ("complex", 2, 1, "im", r"entries\[2\]\[1\]\.im: "),
        ("complex", 1, 2, "re", r"entries\[1\]\[2\]\.re: "),
        ("mat2", 2, 1, (1, 0), r"entries\[2\]\[1\]\.m\[1\]\[0\]: "),
        ("mat2", 1, 2, (0, 1), r"entries\[1\]\[2\]\.m\[0\]\[1\]: "),
        ("mat2", 2, 2, (1, 1), r"entries\[2\]\[2\]\.m\[1\]\[1\]: "),
    ],
)
@pytest.mark.parametrize(
    "token, message",
    [
        (b'"1.5"', "expected a real number"),
        (b"true", "expected a real number"),
        (b"null", "expected a real number"),
        (b"[1.0]", "expected a real number"),
        (b"1e999", "non-finite value"),
        (b"-1" + b"0" * 400, "non-finite value"),
        pytest.param(b"1" * 5000, "non-finite value", id="5000-digits"),  # past int()'s limit
    ],
)
def test_load_names_the_bad_real(kind, i, j, slot, location, token, message):
    with pytest.raises(KernelFormatError, match=location + message):
        load_kernel(_three_point_doc(kind, i, j, slot, token))


@pytest.mark.parametrize("sort_keys", [False, True], ids=["saved-order", "key-sorted"])
def test_integer_literals_past_the_int_string_limit_are_format_errors(sort_keys):
    """int() refuses more than 4,300 digits by default.  Such a literal is a
    format error wherever it stands, in either key order, and in an entry it
    is named as a 400-digit literal is."""

    def error(doc, literal=b"1" * 5000) -> str:
        data = json.dumps(doc, sort_keys=sort_keys).encode().replace(b'"BAD"', literal)
        with pytest.raises(KernelFormatError) as info:
            load_kernel(data)
        return str(info.value)

    doc = json.loads(_doc())
    doc["entries"][1][0]["im"] = "BAD"
    assert error(doc) == error(doc, b"1" * 400) == "entries[1][0].im: non-finite value"
    for key in ("labels", "value_kind", "entries", "extra"):
        error(dict(json.loads(_doc()), **{key: "BAD"}))
    error("BAD")


def test_load_reads_integer_literals_as_reals():
    data = _three_point_doc("mat2", 1, 2, (1, 0), b"-7")
    assert load_kernel(data).table[1, 2, 1, 0] == -7.0
    big = 2 ** 80 + 1  # rounds to 2 ** 80, as float() does
    data = _three_point_doc("complex", 2, 1, "im", str(big).encode())
    assert load_kernel(data).table[2, 1].imag == float(big)


def test_load_rejects_unknown_value_kind():
    with pytest.raises(KernelFormatError, match="value_kind"):
        load_kernel(_doc(value_kind="quaternion"))
    for kind in (["complex"], {"mat2": 1}, None, 1):  # not hashable, or not text
        with pytest.raises(KernelFormatError, match="value_kind"):
            load_kernel(_doc(value_kind=kind))


def test_load_rejects_unknown_top_level_key():
    raw = json.loads(_doc())
    raw["comment"] = "hi"
    with pytest.raises(KernelFormatError, match="unknown top-level"):
        load_kernel(json.dumps(raw).encode())


def test_load_rejects_missing_key():
    raw = json.loads(_doc())
    del raw["entries"]
    with pytest.raises(KernelFormatError, match="missing"):
        load_kernel(json.dumps(raw).encode())


def test_load_rejects_bad_entry_shape():
    with pytest.raises(KernelFormatError, match=r"entries\[0\]\[1\]"):
        load_kernel(_doc(entries=[
            [{"re": 1.0, "im": 0.0}, {"re": 2.0}],
            [{"re": 0.5, "im": 0.0}, {"re": 1.0, "im": 0.0}],
        ]))
    with pytest.raises(KernelFormatError, match="real number"):
        load_kernel(_doc(entries=[
            [{"re": True, "im": 0.0}, {"re": 2.0, "im": 0.0}],
            [{"re": 0.5, "im": 0.0}, {"re": 1.0, "im": 0.0}],
        ]))


def test_load_rejects_mat2_schema_errors():
    doc = {
        "labels": ["a"],
        "value_kind": "mat2",
        "entries": [[{"m": [[1.0, 0.0], [0.0]]}]],
    }
    with pytest.raises(KernelFormatError, match=r"entries\[0\]\[0\]\.m"):
        load_kernel(json.dumps(doc).encode())
    doc["entries"] = [[{"re": 1.0, "im": 0.0}]]
    with pytest.raises(KernelFormatError, match="mat2 entry"):
        load_kernel(json.dumps(doc).encode())


def test_load_rejects_garbage():
    with pytest.raises(KernelFormatError, match="JSON"):
        load_kernel(b"not json at all")
    with pytest.raises(KernelFormatError, match="UTF-8"):
        load_kernel(b"\xff\xfe\x00")
    with pytest.raises(KernelFormatError, match="object"):
        load_kernel(b"[1, 2, 3]")
    # json.loads names a leading byte order mark, where JSONDecoder.decode says "Expecting value"
    with pytest.raises(KernelFormatError, match="^invalid JSON: Unexpected UTF-8 BOM"):
        load_kernel("\ufeff".encode() + save_kernel(FiniteKernel(("a",), "complex", [[1.0]])))


def test_kernel_constructor_validation():
    with pytest.raises(KernelError, match="label"):
        FiniteKernel((), "complex", np.zeros((0, 0)))
    with pytest.raises(KernelError, match="duplicate"):
        FiniteKernel(("a", "a"), "complex", np.zeros((2, 2)))
    with pytest.raises(KernelError, match="shape"):
        FiniteKernel(("a", "b"), "complex", np.zeros((2, 3)))
    with pytest.raises(KernelError, match="non-finite"):
        FiniteKernel(("a",), "complex", np.array([[np.nan]]))
    with pytest.raises(KernelError, match="value kind"):
        FiniteKernel(("a",), "octonion", np.zeros((1, 1)))


def test_kernel_is_immutable_and_indexable():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))
    with pytest.raises(ValueError):
        kernel.table[0, 0] = 5.0
    assert kernel.index("4") == 2
    assert kernel.value_at("4", "2").as_complex() == 2.0
    with pytest.raises(UnknownLabelError):
        kernel.index("17")


def test_entry_norms_are_computed_once_and_read_only():
    rng = np.random.default_rng(4)
    for kernel in (random_complex_kernel(rng, 5), random_mat2_kernel(rng, 4)):
        norms = kernel.entry_norms()
        assert kernel.entry_norms() is norms
        assert not norms.flags.writeable
        for i in range(kernel.n):
            for j in range(kernel.n):
                assert norms[i, j] == kernel.entry(i, j).norm
