"""The loaders check shapes with whole-level passes and name the first bad
entry with a per-entry walk.  On documents with one defect both paths must
agree: the same error type, message and location wherever the defect sits.
The loaders pause the cyclic garbage collector and restore it after."""

import copy
import gc
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from sincov import KernelFormatError, load_kernel, load_vectors
from sincov.ipspace import VectorError
from sincov.kernel import _entry_errors, _entry_reals

N = 4
PLACES = {"first": (0, 0), "middle": (1, 2), "last": (N - 1, N - 1)}
COMPLEX_FORM = 'complex entry must be {"re": ..., "im": ...}'
MAT2_FORM = 'mat2 entry must be {"m": [[a, b], [c, d]]}'
M_SHAPE = "m must be a 2x2 array"
NOT_REAL = "expected a real number"
NON_FINITE = "non-finite value"

# kind -> (entry that replaces entries[i][j], message, location suffix)
ENTRY_DEFECTS = {
    "complex": [
        ([1.0, 2.0], COMPLEX_FORM, ""),
        (1.0, COMPLEX_FORM, ""),
        ("ab", COMPLEX_FORM, ""),
        (None, COMPLEX_FORM, ""),
        ({}, COMPLEX_FORM, ""),
        ({"re": 1.0}, COMPLEX_FORM, ""),
        ({"re": 1.0, "img": 2.0}, COMPLEX_FORM, ""),
        ({"re": 1.0, "im": 2.0, "x": 0.0}, COMPLEX_FORM, ""),
        ({"re": "1", "im": 2.0}, NOT_REAL, ".re"),
        ({"re": 1.0, "im": [2.0]}, NOT_REAL, ".im"),
        ({"re": True, "im": 2.0}, NOT_REAL, ".re"),
        ({"re": 1.0, "im": None}, NOT_REAL, ".im"),
        ({"re": 10**400, "im": 2.0}, NON_FINITE, ".re"),
    ],
    "mat2": [
        ([[1.0, 2.0], [3.0, 4.0]], MAT2_FORM, ""),
        (1.0, MAT2_FORM, ""),
        ({}, MAT2_FORM, ""),
        ({"n": [[1.0, 2.0], [3.0, 4.0]]}, MAT2_FORM, ""),
        ({"m": [[1.0, 2.0], [3.0, 4.0]], "x": 0.0}, MAT2_FORM, ""),
        ({"m": 1.0}, M_SHAPE, ".m"),
        ({"m": "ab"}, M_SHAPE, ".m"),
        ({"m": {"a": [1.0, 2.0], "b": [3.0, 4.0]}}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0]]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], 3.0]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], "ab"]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], {"a": 3.0, "b": 4.0}]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], [3.0]]}, M_SHAPE, ".m"),
        ({"m": [[1.0, 2.0], [3.0, 4.0, 5.0]]}, M_SHAPE, ".m"),
        ({"m": [[1.0, "2"], [3.0, 4.0]]}, NOT_REAL, ".m[0][1]"),
        ({"m": [[1.0, 2.0], [3.0, [4.0]]]}, NOT_REAL, ".m[1][1]"),
        ({"m": [[False, 2.0], [3.0, 4.0]]}, NOT_REAL, ".m[0][0]"),
        ({"m": [[1.0, 2.0], [-(10**400), 4.0]]}, NON_FINITE, ".m[1][0]"),
    ],
}
# a row that replaces entries[i]; "short" and "long" stand for the row one
# entry short or long, and the string and the dict have N elements
ROW_DEFECTS = [{"a": 1, "b": 2, "c": 3, "d": 4}, "abcd", None, [], "short", "long"]


def _entry(kind: str, i: int, j: int):
    value = float(i * N + j) + 0.5
    if kind == "complex":
        return {"re": value, "im": -value}
    return {"m": [[value, 1.0], [2.0, -value]]}


def _kernel_doc(kind: str) -> dict:
    return {
        "labels": [f"p{i}" for i in range(N)],
        "value_kind": kind,
        "entries": [[_entry(kind, i, j) for j in range(N)] for i in range(N)],
    }


def _bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _paths_agree(entries: list, kind: str) -> bool:
    """The whole-level passes reject exactly the entries the walk finds fault with."""
    rejected = _entry_reals(entries, kind, N) is None
    return rejected == (next(_entry_errors(entries, kind, N), None) is not None)


def _load_error(load, data: bytes):
    with pytest.raises((KernelFormatError, VectorError)) as info:
        load(data)
    return info.value


def _bad_row(row: list, defect):
    return row[:-1] if defect == "short" else row + row[:1] if defect == "long" else defect


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize(
    "kind, defect, message, suffix",
    [(kind, *case) for kind, cases in ENTRY_DEFECTS.items() for case in cases],
)
def test_kernel_entry_defect_is_named(kind, defect, message, suffix, place):
    i, j = PLACES[place]
    doc = _kernel_doc(kind)
    doc["entries"][i][j] = copy.deepcopy(defect)
    assert _paths_agree(doc["entries"], kind)
    error = _load_error(load_kernel, _bytes(doc))
    location = f"entries[{i}][{j}]{suffix}"
    assert type(error) is KernelFormatError
    assert error.location == location
    assert str(error) == f"{location}: {message}"


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("defect", range(len(ROW_DEFECTS)))
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_row_defect_is_named(kind, defect, place):
    i = PLACES[place][0]
    doc = _kernel_doc(kind)
    doc["entries"][i] = _bad_row(doc["entries"][i], ROW_DEFECTS[defect])
    assert _paths_agree(doc["entries"], kind)
    error = _load_error(load_kernel, _bytes(doc))
    assert type(error) is KernelFormatError
    assert error.location == f"entries[{i}]"
    assert str(error) == f"entries[{i}]: row must have {N} entries"


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_reals_come_in_storage_order(kind):
    entries = _kernel_doc(kind)["entries"]
    if kind == "complex":
        expected = [v for row in entries for e in row for v in (e["re"], e["im"])]
    else:
        expected = [v for row in entries for e in row for r in e["m"] for v in r]
    assert _entry_reals(entries, kind, N) == expected
    assert _paths_agree(entries, kind)


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_errors_come_in_walk_order(kind):
    bad = ENTRY_DEFECTS[kind][0][0]
    doc = _kernel_doc(kind)
    doc["entries"][0][1] = bad
    doc["entries"][2][0] = bad
    assert _load_error(load_kernel, _bytes(doc)).location == "entries[0][1]"
    doc["entries"][N - 1] = doc["entries"][N - 1][:-1]  # any bad row is named before any entry
    assert _load_error(load_kernel, _bytes(doc)).location == f"entries[{N - 1}]"
    doc = _kernel_doc(kind)
    doc["entries"][0][0] = ENTRY_DEFECTS[kind][-1][0]  # a bad real
    doc["entries"][N - 1][N - 1] = bad  # a bad shape is named before any real
    assert _load_error(load_kernel, _bytes(doc)).location == f"entries[{N - 1}][{N - 1}]"


# field -> (coordinate that replaces vectors[i][j], message, location suffix
# after vectors[i], with [j] for the coordinate's index)
DIM = 3
VECTOR_PLACES = {"first": (0, 0), "middle": (1, 1), "last": (N - 1, DIM - 1)}
COORDINATE_DEFECTS = {
    "real": [
        ("1", NOT_REAL, "[j]"),
        (True, NOT_REAL, "[j]"),
        (None, NOT_REAL, "[j]"),
        ([1.0], NOT_REAL, "[j]"),
        (10**400, NON_FINITE, "[j]"),
    ],
    "complex": [
        (1.0, "complex coordinates must be [re, im]", ""),
        ("ab", "complex coordinates must be [re, im]", ""),
        ({"a": 1.0, "b": 2.0}, "complex coordinates must be [re, im]", ""),
        ([1.0], "complex coordinates must be [re, im]", ""),
        ([1.0, 2.0, 3.0], "complex coordinates must be [re, im]", ""),
        ([1.0, "2"], NOT_REAL, "[j][1]"),
        ([None, 2.0], NOT_REAL, "[j][0]"),
        ([1.0, -(10**400)], NON_FINITE, "[j][1]"),
    ],
}
VECTOR_ROW_DEFECTS = ["abc", {"a": 1, "b": 2, "c": 3}, None, [], "short", "long"]  # as ROW_DEFECTS


def _vector_doc(field: str) -> dict:
    def coord(i, j):
        value = float(i * DIM + j) + 0.25
        return value if field == "real" else [value, -value]

    return {"field": field, "dim": DIM, "vectors": [[coord(i, j) for j in range(DIM)] for i in range(N)]}


@pytest.mark.parametrize("place", VECTOR_PLACES)
@pytest.mark.parametrize(
    "field, defect, message, suffix",
    [(field, *case) for field, cases in COORDINATE_DEFECTS.items() for case in cases],
)
def test_vector_coordinate_defect_is_named(field, defect, message, suffix, place):
    i, j = VECTOR_PLACES[place]
    doc = _vector_doc(field)
    doc["vectors"][i][j] = copy.deepcopy(defect)
    error = _load_error(load_vectors, _bytes(doc))
    assert type(error) is VectorError
    assert str(error) == f"vectors[{i}]{suffix.replace('[j]', f'[{j}]')}: {message}"


@pytest.mark.parametrize("place", VECTOR_PLACES)
@pytest.mark.parametrize("defect", range(len(VECTOR_ROW_DEFECTS)))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_vector_row_defect_is_named(field, defect, place):
    i = VECTOR_PLACES[place][0]
    doc = _vector_doc(field)
    doc["vectors"][i] = _bad_row(doc["vectors"][i], VECTOR_ROW_DEFECTS[defect])
    error = _load_error(load_vectors, _bytes(doc))
    assert type(error) is VectorError
    assert str(error) == f"vectors[{i}]: expected {DIM} coordinates"


def _documents():
    """(loader, document) pairs for a success and every kind of error."""
    for kind in ENTRY_DEFECTS:
        yield load_kernel, _bytes(_kernel_doc(kind))
        for defect, _, _ in ENTRY_DEFECTS[kind]:
            doc = _kernel_doc(kind)
            doc["entries"][1][2] = defect
            yield load_kernel, _bytes(doc)
        doc = _kernel_doc(kind)
        doc["entries"][1] = None
        yield load_kernel, _bytes(doc)
    for data in (b"\xff", b"{", b"[]", b'{"labels": []}', b'{"x": NaN}'):
        yield load_kernel, data
    for field in COORDINATE_DEFECTS:
        yield load_vectors, _bytes(_vector_doc(field))
        for defect, _, _ in COORDINATE_DEFECTS[field]:
            doc = _vector_doc(field)
            doc["vectors"][1][1] = defect
            yield load_vectors, _bytes(doc)
        doc = _vector_doc(field)
        doc["vectors"][1] = None
        yield load_vectors, _bytes(doc)
    for data in (b"\xff", b"{", b"[]", b'{"field": "real", "dim": 0, "vectors": []}'):
        yield load_vectors, data


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_restore_the_callers_gc_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        outcomes = set()
        for load, data in _documents():
            try:
                load(data)
                outcomes.add("ok")
            except (KernelFormatError, VectorError):
                outcomes.add("error")
            assert gc.isenabled() is enabled, data[:60]
        assert outcomes == {"ok", "error"}
    finally:
        (gc.enable if was else gc.disable)()


def test_concurrent_loads_leave_the_gc_enabled():
    """Loads on more threads than cores, switching often: each load's result
    is right and the collector is on again once all are done."""
    data = {kind: _bytes(_kernel_doc(kind)) for kind in ENTRY_DEFECTS}
    expected = {kind: load_kernel(blob) for kind, blob in data.items()}
    was, interval = gc.isenabled(), sys.getswitchinterval()
    gc.enable()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            kinds = list(data) * 40
            results = list(pool.map(lambda kind: load_kernel(data[kind]), kinds, timeout=60))
        assert all(got == expected[kind] for got, kind in zip(results, kinds))
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()


def test_deeply_nested_documents_are_format_errors():
    deep = b"[" * 100_000
    with pytest.raises(KernelFormatError, match="nesting too deep"):
        load_kernel(deep)
    with pytest.raises(VectorError, match="nesting too deep"):
        load_vectors(deep)
