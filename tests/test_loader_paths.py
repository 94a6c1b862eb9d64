"""The kernel loader checks each level of nesting in full, in storage order,
before the next level and before any real, and names the first bad item of
the first bad level.  A document with one defect is named by the same error
type, message and location wherever the defect sits; one with several
follows that level order.  The loader leaves the cyclic garbage collector's
setting to its caller."""

import copy
import gc
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from sincov import KernelFormatError, load_kernel
from sincov.kernel import _by_rows

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
    """doc in save_kernel's layout, without the final newline: the row reader
    reads it, or declines at its defect."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _key_sorted(doc) -> bytes:
    """doc with its keys sorted: entries comes first, so the row reader
    declines it at once and the whole document is parsed."""
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _load_error(data: bytes):
    with pytest.raises(KernelFormatError) as info:
        load_kernel(data)
    return info.value


def _bad_row(row: list, defect):
    return row[:-1] if defect == "short" else row + row[:1] if defect == "long" else defect


ENTRY_CASES = [(kind, *case) for kind, cases in ENTRY_DEFECTS.items() for case in cases]


def _check_entry_defect(dump, kind, defect, message, suffix, place):
    i, j = PLACES[place]
    doc = _kernel_doc(kind)
    doc["entries"][i][j] = copy.deepcopy(defect)
    error = _load_error(dump(doc))
    location = f"entries[{i}][{j}]{suffix}"
    assert type(error) is KernelFormatError
    assert error.location == location
    assert str(error) == f"{location}: {message}"


def _check_row_defect(dump, kind, defect, place):
    i = PLACES[place][0]
    doc = _kernel_doc(kind)
    doc["entries"][i] = _bad_row(doc["entries"][i], ROW_DEFECTS[defect])
    error = _load_error(dump(doc))
    assert type(error) is KernelFormatError
    assert error.location == f"entries[{i}]"
    assert str(error) == f"entries[{i}]: row must have {N} entries"


# Documents in the written key order go to the row reader first, which
# declines at the defect; key-sorted ones are parsed whole from the start.
# Both must name the defect alike.
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("kind, defect, message, suffix", ENTRY_CASES)
def test_kernel_entry_defect_is_named(kind, defect, message, suffix, place):
    _check_entry_defect(_bytes, kind, defect, message, suffix, place)


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("kind, defect, message, suffix", ENTRY_CASES)
def test_kernel_entry_defect_is_named_in_a_key_sorted_document(kind, defect, message, suffix, place):
    _check_entry_defect(_key_sorted, kind, defect, message, suffix, place)


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("defect", range(len(ROW_DEFECTS)))
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_row_defect_is_named(kind, defect, place):
    _check_row_defect(_bytes, kind, defect, place)


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("defect", range(len(ROW_DEFECTS)))
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_row_defect_is_named_in_a_key_sorted_document(kind, defect, place):
    _check_row_defect(_key_sorted, kind, defect, place)


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_reals_come_in_storage_order(kind):
    entries = _kernel_doc(kind)["entries"]
    table = load_kernel(_bytes(_kernel_doc(kind))).table.ravel().tolist()
    if kind == "complex":
        expected = [v for row in entries for e in row for v in (e["re"], e["im"])]
        table = [v for z in table for v in (z.real, z.imag)]
    else:
        expected = [v for row in entries for e in row for r in e["m"] for v in r]
    assert table == expected


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_kernel_errors_come_in_level_order(kind):
    bad = ENTRY_DEFECTS[kind][0][0]
    doc = _kernel_doc(kind)
    doc["entries"][0][1] = bad
    doc["entries"][2][0] = bad
    assert _load_error(_bytes(doc)).location == "entries[0][1]"
    doc["entries"][N - 1] = doc["entries"][N - 1][:-1]  # any bad row is named before any entry
    assert _load_error(_bytes(doc)).location == f"entries[{N - 1}]"
    doc = _kernel_doc(kind)
    doc["entries"][0][0] = ENTRY_DEFECTS[kind][-1][0]  # a bad real
    doc["entries"][N - 1][N - 1] = bad  # a bad shape is named before any real
    assert _load_error(_bytes(doc)).location == f"entries[{N - 1}][{N - 1}]"


def test_mat2_entry_forms_are_named_before_any_m():
    doc = _kernel_doc("mat2")
    doc["entries"][0][1] = {"m": [[1.0, 2.0], [3.0]]}
    doc["entries"][2][0] = {"n": [[1.0, 2.0], [3.0, 4.0]]}
    error = _load_error(_bytes(doc))
    assert str(error) == f"entries[2][0]: {MAT2_FORM}"
    doc["entries"][2][0] = {"m": 1.0}  # an m that is not a pair is named before an m row
    assert str(_load_error(_bytes(doc))) == f"entries[2][0].m: {M_SHAPE}"


def _documents():
    """Kernel documents: a success and every kind of error."""
    for kind in ENTRY_DEFECTS:
        yield _bytes(_kernel_doc(kind))
        for defect, _, _ in ENTRY_DEFECTS[kind]:
            doc = _kernel_doc(kind)
            doc["entries"][1][2] = defect
            yield _bytes(doc)
        doc = _kernel_doc(kind)
        doc["entries"][1] = None
        yield _bytes(doc)
    yield from (b"\xff", b"{", b"[]", b'{"labels": []}', b'{"x": NaN}')


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_restore_the_callers_gc_state(enabled):
    """A load, successful or not, leaves the collector on or off as the
    caller set it."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        outcomes = set()
        for data in _documents():
            try:
                load_kernel(data)
                outcomes.add("ok")
            except KernelFormatError:
                outcomes.add("error")
            assert gc.isenabled() is enabled, data[:60]
        assert outcomes == {"ok", "error"}
    finally:
        (gc.enable if was else gc.disable)()


def test_concurrent_loads_leave_the_gc_enabled():
    """Loads on more threads than cores, switching often: each load's result
    is right and the collector is still on once all are done."""
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


def test_a_gc_change_made_during_a_load_survives_it(monkeypatch):
    """Code that turns the collector off while a load runs, on another
    thread, say, owns the setting: the load does not turn it back on."""
    def disabling(text):
        gc.disable()
        return _by_rows(text)

    monkeypatch.setattr("sincov.kernel._by_rows", disabling)
    was = gc.isenabled()
    try:
        gc.enable()
        load_kernel(_bytes(_kernel_doc("mat2")))
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_deeply_nested_documents_are_format_errors():
    with pytest.raises(KernelFormatError, match="nesting too deep"):
        load_kernel(b"[" * 100_000)
