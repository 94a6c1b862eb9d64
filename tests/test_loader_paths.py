"""The kernel loader checks each level of nesting in full, in storage order,
before the next level and before any real, and names the first bad item of
the first bad level.  A document with one defect is named by the same error
type, message and location wherever the defect sits; one with several
follows that level order.  The loader leaves the cyclic garbage collector's
setting to its caller.  Read in blocks on forked processes, a document gives
the same kernel, or the same error, and leaves no process behind."""

import copy
import gc
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_complex_kernel, random_mat2_kernel
from sincov import KernelError, KernelFormatError, load_kernel, save_kernel
from sincov.kernel import _by_rows, _chunks

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
    def disabling(*args):
        gc.disable()
        return _by_rows(*args)

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


# A split read forks.  Python 3.12 warns at a fork from a process that runs
# other threads, as this one may (numpy's OpenBLAS workers); a forked reader
# decodes its rows into memory it was handed and takes no lock they hold.
FORK_WITH_THREADS = "ignore:This process .* is multi-threaded:DeprecationWarning"
SPLIT_SIZES = [63, 64, 65, 224]


def _saved(kind: str, n: int) -> bytes:
    random_kernel = random_complex_kernel if kind == "complex" else random_mat2_kernel
    return save_kernel(random_kernel(np.random.default_rng(n), n))


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_error(data: bytes, workers: int) -> str:
    with pytest.raises(KernelFormatError) as info:
        load_kernel(data, workers=workers)
    _no_child_left()
    return str(info.value)


@pytest.mark.filterwarnings(FORK_WITH_THREADS)
@pytest.mark.parametrize("n", SPLIT_SIZES)
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_a_split_read_gives_the_table_of_one_read(kind, n):
    data = _saved(kind, n)
    expected = load_kernel(data, workers=1).table
    for workers in (2, 3, 7):  # 7: more readers than a small host has CPUs
        table = load_kernel(data, workers=workers).table
        _no_child_left()
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable


def _with_bad_real(data: bytes, i: int, j: int) -> bytes:
    """data, in save_kernel's layout, with one real of entries[i][j] set to true."""
    doc = json.loads(data)
    entry = doc["entries"][i][j]
    if "re" in entry:
        entry["re"] = True
    else:
        entry["m"][1][0] = True
    return _bytes(doc)


def _defective(data: bytes, n: int, workers: int) -> dict:
    """{where: document} with one defect: in a row, or after the last one."""
    places = {"first row": (0, 1), "last block": (_chunks(n, workers)[-1].start, 0), "last row": (n - 1, n - 1)}
    found = {where: _with_bad_real(data, i, j) for where, (i, j) in places.items()}
    found["an extra row"] = data.replace(b"]]}", b"]],1]}")
    found["trailing text"] = data.rstrip(b"\n") + b"x"
    return found


@pytest.mark.filterwarnings(FORK_WITH_THREADS)
@pytest.mark.parametrize("n", [65, 97])
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_a_split_read_names_a_defect_as_one_read_does(kind, n):
    data, errors = _saved(kind, n), {}
    for workers in (2, 3):
        for where, bad in _defective(data, n, workers).items():
            expected = errors.setdefault(bad, _split_error(bad, 1))
            assert _split_error(bad, workers) == expected, where
    # the documents are read row by row up to their defect
    assert _by_rows(_with_bad_real(data, n - 1, n - 1), 2) is None
    assert _by_rows(data, 2) is not None


@pytest.mark.filterwarnings(FORK_WITH_THREADS)
def test_each_block_but_the_first_is_read_in_a_child(monkeypatch):
    data, forks = _saved("mat2", 224), []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    expected = load_kernel(data)
    assert forks == []
    for workers in (2, 3):
        assert load_kernel(data, workers=workers) == expected
        assert len(forks) == workers - 1
        forks.clear()
    load_kernel(_saved("complex", 63), workers=3)  # below _PARALLEL_MIN_SIZE: one block
    assert forks == []
    _no_child_left()


@pytest.mark.parametrize("missing", ["fork", "processes"])
def test_blocks_are_read_here_where_no_process_can_be_forked(monkeypatch, missing):
    """Without os.fork, or when a fork fails, each block is read in the
    calling process, with the same kernel or error."""
    data = _saved("complex", 224)
    expected, bad = load_kernel(data), _with_bad_real(data, 223, 0)
    error = _split_error(bad, 1)
    if missing == "fork":
        monkeypatch.delattr(os, "fork")
    else:
        def failing():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing)
    assert load_kernel(data, workers=2) == expected
    assert _split_error(bad, 2) == error


@pytest.mark.parametrize("workers", [0, -1, 1.0, True, "2", None])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(KernelError, match="workers must be a positive integer"):
        load_kernel(_bytes(_kernel_doc("complex")), workers=workers)
