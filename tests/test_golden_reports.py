"""Report bytes, diagnostics and exit codes of CLI defect, check and factorize,
pinned byte for byte on small committed kernels (tests/data/golden).

The expected outputs in expected.json were written by an earlier commit, so
any change to a report, a message or an exit code fails here.  A change that
alters reports on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py

and documents every changed byte.  sweep is left out: its matmul and einsum
results are not bit-stable across BLAS builds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sincov.cli import main

DATA = Path(__file__).resolve().parent / "data" / "golden"
EXPECTED = DATA / "expected.json"

# perturbed: gauge checks; random: complex values, fails unit_diag at --tol 0;
# constant: fails at --tol 0 only; mat2: the kind-agnostic subset, and no
# factorize; vanishing: the slice at the first label has a zero, so no gauge
# checks; subnormal: 5e-324 slice entries, gauge kept; huge: 1e30 entries.
KERNELS = ("perturbed", "random", "constant", "mat2", "vanishing", "subnormal", "huge")
COMMANDS = (
    ("defect",),
    ("check",),
    ("check", "--tol", "0"),
    ("check", "--tol", "1e-3"),
    ("factorize",),
)
EXTRA = (
    ("vanishing", ("check", "--ref", "c")),
    ("perturbed", ("check", "--ref", "nosuch")),
    ("perturbed", ("check", "--tol", "-1")),
    ("perturbed", ("check", "--ref", "nosuch", "--tol", "-1")),
    ("perturbed", ("factorize", "--ref", "3")),
)
CASES = [(k, cmd) for k in KERNELS for cmd in COMMANDS] + list(EXTRA)


def case_id(kernel: str, command: tuple) -> str:
    return f"{kernel}: {' '.join(command)}"


def run_case(kernel: str, command: tuple) -> dict:
    """Run one CLI command on a golden kernel, capturing both streams; stdout
    has a byte layer, as a process's has, since the CLI writes reports there."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "-i", str(DATA / f"{kernel}.json"), *command[1:]])
    out.flush()
    return {"exit": code, "stdout": out.buffer.getvalue().decode("utf-8"), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_bytes())


@pytest.mark.parametrize("kernel, command", CASES, ids=[case_id(*c) for c in CASES])
def test_cli_output_matches_the_golden_bytes(kernel, command, expected):
    got = run_case(kernel, command)
    want = expected[case_id(kernel, command)]
    assert got["exit"] == want["exit"]
    assert got["stdout"].encode("utf-8") == want["stdout"].encode("utf-8")
    assert got["stderr"].encode("utf-8") == want["stderr"].encode("utf-8")


def test_every_golden_case_is_run(expected):
    assert sorted(expected) == sorted(case_id(*c) for c in CASES)


if __name__ == "__main__":
    doc = {case_id(*c): run_case(*c) for c in CASES}
    EXPECTED.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stderr.write(f"wrote {len(doc)} cases to {EXPECTED}\n")
