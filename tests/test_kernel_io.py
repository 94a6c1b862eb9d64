import json

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
    ],
)
def test_load_names_the_bad_real(kind, i, j, slot, location, token, message):
    with pytest.raises(KernelFormatError, match=location + message):
        load_kernel(_three_point_doc(kind, i, j, slot, token))


def test_load_reads_integer_literals_as_reals():
    data = _three_point_doc("mat2", 1, 2, (1, 0), b"-7")
    assert load_kernel(data).table[1, 2, 1, 0] == -7.0
    big = 2 ** 80 + 1  # rounds to 2 ** 80, as float() does
    data = _three_point_doc("complex", 2, 1, "im", str(big).encode())
    assert load_kernel(data).table[2, 1].imag == float(big)


def test_load_rejects_unknown_value_kind():
    with pytest.raises(KernelFormatError, match="value_kind"):
        load_kernel(_doc(value_kind="quaternion"))


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
