import ctypes
import gc
import json
import platform
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import IN_RANGE_KERNELS, OVERFLOWING_KERNELS, random_complex_kernel, random_mat2_kernel
from sincov import (
    FiniteKernel, GeneratorSpec, KernelFormatError, bound_suite, generate, load_kernel, normalized_gram,
    sample_vectors, save_kernel, sincov_defect,
)
from sincov import cli
from sincov.cli import build_parser, main
from sincov.kernel import GENERATOR_VARIANTS

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_defect_e1(tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    code, _, _ = run(["gen", "--example", "e1", "--n", "2", "--c", "1", "-o", kpath], capsys)
    assert code == 0
    code, out, err = run(["defect", "-i", kpath], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["defect"] - 4.0 / 9.0) <= 1e-12
    assert doc["argmax_triple"] == ["4", "2", "2"]
    assert doc["triple_count"] == 27
    assert "defect" in err


def test_gen_then_defect_constant(tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    assert run(["gen", "--example", "constant", "--value", "-1", "--size", "3",
                "-o", kpath], capsys)[0] == 0
    code, out, _ = run(["defect", "-i", kpath], capsys)
    assert code == 0
    assert json.loads(out)["defect"] == 2.0


def test_factorize_subcommand(tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    run(["gen", "--example", "e1", "--n", "2", "--c", "1", "-o", kpath], capsys)
    code, out, _ = run(["factorize", "-i", kpath, "--ref", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reference"] == "2"
    assert abs(doc["gauge_error"] - 5.0 / 9.0) <= 1e-12
    assert abs(doc["residual"] - 2.0 / 3.0) <= 1e-12
    assert abs(doc["f"]["4"][0] - 4.0 / 3.0) <= 1e-12
    # default reference is the first label
    code, out, _ = run(["factorize", "-i", kpath], capsys)
    assert json.loads(out)["reference"] == "2"


@pytest.mark.parametrize(
    "gen_args",
    [
        (["--example", "constant", "--value", "-1", "--size", "3"], dict(value=-1.0, size=3)),
        (["--example", "ratio", "--samples", "1", "2", "4"], dict(samples=(1.0, 2.0, 4.0))),
        (["--example", "e1", "--n", "3", "--c", "0.5"], dict(n=3, c=0.5)),
        (["--example", "e0", "--samples", "1", "2", "10", "100"], dict(samples=(1.0, 2.0, 10.0, 100.0))),
        (["--example", "mat2_ratio", "--c0", "2", "--samples", "1", "2", "3"],
         dict(c0=2.0, samples=(1.0, 2.0, 3.0))),
        (["--example", "moszner", "--n", "4", "--size", "3"], dict(n=4, size=3)),
        (["--example", "perturbed_ratio", "--samples", "1", "2", "3", "4", "--eps", "0.2", "--seed", "11"],
         dict(samples=(1.0, 2.0, 3.0, 4.0), eps=0.2, seed=11)),
    ],
)
def test_check_passes_on_every_generator_output(tmp_path, capsys, gen_args):
    """gen writes the kernel of the spec with the given parameters, so each
    option reaches the spec (a check would pass with --seed or --eps
    dropped), and every check holds on it."""
    argv, params = gen_args
    kpath = tmp_path / "k.json"
    assert run(["gen", *argv, "-o", str(kpath)], capsys)[0] == 0
    assert kpath.read_bytes() == save_kernel(generate(GeneratorSpec(argv[1], **params)))
    code, out, _ = run(["check", "-i", str(kpath)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert all(c["holds"] for c in doc["checks"])


def _idempotent_mat2_kernel(tmp_path) -> str:
    """An exact mat2 kernel built from rank-one idempotents: F(x,x) = F(a,x) =
    [[1,5],[0,0]], F(x,a) = F(a,a) = [[1,0],[0,0]], so its defect is 0 while
    its diagonal values differ and have different norms."""
    p = np.array([[1.0, 5.0], [0.0, 0.0]])
    e = np.array([[1.0, 0.0], [0.0, 0.0]])
    kernel = FiniteKernel(("x", "a"), "mat2", np.array([[p, e], [p, e]]))
    assert sincov_defect(kernel).defect == 0.0
    kpath = tmp_path / "idempotent.json"
    kpath.write_bytes(save_kernel(kernel))
    return str(kpath)


def test_check_holds_on_an_exact_mat2_kernel_with_distinct_diagonal(tmp_path, capsys):
    # diag_spread and diag_bound need commuting values and would fail here
    # (lhs 5 against 0, and 5.099 against 1); mat2 kernels get diag_product only
    code, out, err = run(["check", "-i", _idempotent_mat2_kernel(tmp_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"] is True
    assert [c["name"] for c in doc["checks"]] == ["slice_residual", "diag_product"]
    assert err == "sincov: check: 2 checks, 0 failed\n"


def test_check_reports_failure_with_exit_one(tmp_path, capsys, monkeypatch):
    def failing_slice(kernel, i0, c):
        return ["slice_residual"], c + 1.0, c, [("x", "a")]

    monkeypatch.setattr("sincov.analysis._slice_sides", failing_slice)
    code, out, err = run(["check", "-i", _idempotent_mat2_kernel(tmp_path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["all_hold"] is False
    assert [c["holds"] for c in doc["checks"]] == [False, True]
    assert "error: check: failed: slice_residual" in err


def test_sweep_subcommand(tmp_path, capsys):
    out_path = str(tmp_path / "sweep.json")
    code, _, err = run(["sweep", "--dim", "2", "--count", "3000", "--seed", "42",
                        "--field", "complex", "-o", out_path], capsys)
    assert code == 0
    with open(out_path) as handle:
        doc = json.load(handle)
    assert doc["margins_hold"] and doc["gram_defect_holds"]
    assert doc["gram_defect"] <= 2.0 + 1e-9
    assert set(doc["min_margins"]) == {"richard", "buzano", "cauchy_schwarz"}
    assert "sweep" in err


def test_byte_identical_reports(tmp_path, capsys):
    paths = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        k = str(base / "k.json")
        run(["gen", "--example", "perturbed_ratio", "--samples", "1", "2", "3", "4", "5",
             "--eps", "0.3", "--seed", "7", "-o", k], capsys)
        run(["defect", "-i", k, "-o", str(base / "defect.json")], capsys)
        run(["check", "-i", k, "-o", str(base / "check.json")], capsys)
        run(["factorize", "-i", k, "-o", str(base / "fac.json")], capsys)
        run(["sweep", "--dim", "3", "--count", "2000", "--seed", "1",
             "--field", "real", "-o", str(base / "sweep.json")], capsys)
        paths[tag] = base
    for name in ("k.json", "defect.json", "check.json", "fac.json", "sweep.json"):
        one = (paths["one"] / name).read_bytes()
        two = (paths["two"] / name).read_bytes()
        assert one == two, name


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # --example is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--field", "quaternion"])
    assert exc.value.code == 2


def test_input_errors_exit_three(tmp_path, capsys):
    code, _, err = run(["gen", "--example", "e0", "--samples", "0.5", "2"], capsys)
    assert code == 3
    assert "error: input" in err

    code, _, err = run(["defect", "-i", str(tmp_path / "missing.json")], capsys)
    assert code == 3
    assert "error: input" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": ["a"], "value_kind": "complex", "entries": [[{"re": 1.0}]]}')
    code, _, err = run(["defect", "-i", str(bad)], capsys)
    assert code == 3
    assert "entries[0][0]" in err

    # missing variant parameter is input validation, not usage
    code, _, err = run(["gen", "--example", "e1", "--c", "1"], capsys)
    assert code == 3
    assert "required" in err

    # factorization is undefined for matrix-valued kernels
    kpath = str(tmp_path / "m.json")
    run(["gen", "--example", "mat2_ratio", "--c0", "2", "--samples", "1", "2",
         "-o", kpath], capsys)
    code, _, err = run(["factorize", "-i", kpath], capsys)
    assert code == 3
    assert "error: input" in err

    # a seed numpy refuses, or an eps whose range width 2 eps overflows
    for argv in (
        ["gen", "--example", "perturbed_ratio", "--samples", "1", "2", "--eps", "0.1",
         "--seed", "-1"],
        ["sweep", "--count", "3", "--dim", "2", "--seed", "-1"],
        ["gen", "--example", "perturbed_ratio", "--samples", "1", "2", "--eps", "1e308"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 3
        assert "sincov: error: input:" in err
        assert out == ""

    # a tolerance that is not finite would make every check fail or vacuously hold
    run(["gen", "--example", "e1", "--n", "3", "--c", "1", "-o", kpath], capsys)
    for tol in ("nan", "inf"):
        code, out, err = run(["check", "-i", kpath, "--tol", tol], capsys)
        assert code == 3
        assert f"error: input: tolerance must be finite and nonnegative, got {tol}" in err
        assert out == ""


@pytest.mark.parametrize("argv,message", [
    (["--example", "e0", "--samples", "1", "inf"], "e0: samples must be finite"),
    (["--example", "constant", "--value", "inf", "--size", "2"], "constant: value must be finite"),
])
def test_gen_non_finite_parameters_exit_three(capsys, argv, message):
    code, out, err = run(["gen", *argv], capsys)
    assert (code, out) == (3, "")
    assert f"sincov: error: input: {message}" in err


@pytest.mark.parametrize("argv,field", [
    (["--example", "e1", "--n", "2", "--c", "1", "--eps", "0.5"], "eps"),
    (["--example", "constant", "--value", "1", "--size", "2", "--samples", "3"], "samples"),
])
def test_gen_parameters_the_variant_does_not_read_exit_three(capsys, argv, field):
    code, out, err = run(["gen", *argv], capsys)
    assert (code, out) == (3, "")
    assert f"sincov: error: input: {argv[1]}: unexpected parameter '{field}'" in err


def test_output_to_stdout_when_no_file(tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    run(["gen", "--example", "ratio", "--samples", "1", "2", "-o", kpath], capsys)
    code, out, _ = run(["defect", "-i", kpath], capsys)
    assert code == 0
    json.loads(out)  # stdout carries the full report


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_gets_the_report_bytes_whatever_its_encoding(tmp_path, encoding):
    kpath, opath = tmp_path / "k.json", tmp_path / "report.json"
    kpath.write_bytes(save_kernel(FiniteKernel(("é", "ü"), "complex", [[1.0, 0.5], [2.0, 1.0]])))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING=encoding)
    argv = [sys.executable, "-m", "sincov", "defect", "-i", str(kpath)]
    assert subprocess.run([*argv, "-o", str(opath)], env=env, timeout=60).returncode == 0
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr.count(b"\n")) == (0, 1), proc.stderr
    assert proc.stdout == opath.read_bytes()
    assert "é" in proc.stdout.decode("utf-8")


def test_check_tol_override(tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    run(["gen", "--example", "e1", "--n", "2", "--c", "1", "-o", kpath], capsys)
    code, out, _ = run(["check", "-i", kpath, "--tol", "100.0"], capsys)
    assert code == 0
    assert json.loads(out)["all_hold"] is True


@pytest.mark.parametrize("name", sorted(OVERFLOWING_KERNELS))
@pytest.mark.parametrize("command", ["defect", "check"])
def test_non_finite_defect_terms_exit_three(tmp_path, command, name):
    kpath = tmp_path / "k.json"
    kpath.write_bytes(save_kernel(OVERFLOWING_KERNELS[name]))
    proc = subprocess.run(
        [sys.executable, "-m", "sincov", command, "-i", str(kpath)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 3
    assert "sincov: error: input: non-finite defect term at (a, a, a)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(IN_RANGE_KERNELS))
def test_in_range_kernels_exit_zero(tmp_path, capsys, name):
    # squares of their entries or terms leave float64 range, their checks do not
    kernel = IN_RANGE_KERNELS[name]
    kpath = tmp_path / "k.json"
    kpath.write_bytes(save_kernel(kernel))
    code, out, _ = run(["defect", "-i", str(kpath)], capsys)
    assert code == 0
    assert json.loads(out)["defect"] == sincov_defect(kernel).defect
    code, out, _ = run(["check", "-i", str(kpath)], capsys)
    assert code == 0
    assert json.loads(out)["all_hold"] is True
    assert json.loads(out)["defect"] == sincov_defect(kernel).defect


def test_internal_fault_exits_four(tmp_path, capsys, monkeypatch):
    kpath = str(tmp_path / "k.json")
    run(["gen", "--example", "ratio", "--samples", "1", "2", "-o", kpath], capsys)

    def fault(kernel):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr("sincov.cli.sincov_defect", fault)
    code, out, err = run(["defect", "-i", kpath], capsys)
    assert code == 4
    assert err == "sincov: error: internal: RuntimeError: simulated fault\n"
    assert out == ""


def test_integer_literal_past_the_int_string_limit_exits_three(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    kpath.write_bytes(b'{"labels":["a"],"value_kind":"complex","entries":[[{"re":%s,"im":0.0}]]}\n'
                      % (b"1" * 5000))
    code, out, err = run(["defect", "-i", str(kpath)], capsys)
    assert (code, out, err) == (3, "", "sincov: error: input: entries[0][0].re: non-finite value\n")


def test_deeply_nested_document_exits_three(tmp_path):
    kpath = tmp_path / "k.json"
    kpath.write_bytes(b"[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "sincov", "defect", "-i", str(kpath)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 3
    assert "sincov: error: input: invalid JSON: nesting too deep" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_factorize_out_of_range_exits_three(tmp_path):
    kpath = tmp_path / "k.json"
    kpath.write_bytes(save_kernel(OVERFLOWING_KERNELS["complex-1e200"]))
    proc = subprocess.run(
        [sys.executable, "-m", "sincov", "factorize", "-i", str(kpath)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 3
    assert "sincov: error: input: non-finite factorization: gauge_error inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_gen_example_choices_are_the_generator_variants():
    gen = build_parser()._subparsers._group_actions[0].choices["gen"]
    example = next(a for a in gen._actions if a.dest == "example")
    assert tuple(example.choices) == GENERATOR_VARIANTS


def _python_output(code: str, env: dict | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ if env is None else env, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_imports_no_executor():
    # the scan starts plain threads; concurrent.futures would also import
    # logging and queue in every CLI process
    out = _python_output("import sys, sincov.cli; print('concurrent.futures' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("module, frozen", [("sincov.cli", True), ("sincov", False)])
def test_only_the_cli_freezes_the_heap_at_exit(module, frozen):
    # atexit runs handlers last in, first out: the probe, registered before
    # the import, runs after anything the import registered
    probe = f"import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count())); import {module}"
    assert (int(_python_output(probe)) > 0) == frozen


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "outcome, code",
    [(0, 0), (1, 1), (KernelFormatError("bad"), 3), (RuntimeError("fault"), 4)],
)
def test_commands_run_with_the_gc_off_and_restore_the_callers_setting(
    monkeypatch, enabled, outcome, code
):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr("sincov.cli._cmd_check", command)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["check", "-i", "k.json"]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def _kernel_file(tmp_path, kind: str = "complex", n: int = 70) -> Path:
    path = tmp_path / f"{kind}-{n}.json"
    random_kernel = random_complex_kernel if kind == "complex" else random_mat2_kernel
    path.write_bytes(save_kernel(random_kernel(np.random.default_rng(n), n)))
    return path


@pytest.mark.parametrize("command, stages", [
    ("check", ["trim", "_read_kernel", "_defect", "trim", "bound_suite", "trim", "render_report"]),
    ("defect", ["trim", "_read_kernel", "sincov_defect", "render_report"]),
    ("factorize", ["trim", "_read_kernel", "factorize", "render_report"]),
])
def test_the_cli_trims_the_heap_at_its_stage_boundaries(monkeypatch, tmp_path, capsys, command, stages):
    """After the imports, and in check after the defect pass and after the
    checks: each trim lowers a measured peak (README "Peak memory")."""
    seen = []
    monkeypatch.setattr("sincov.cli._trim", lambda: seen.append("trim"))
    for name in ("_read_kernel", "_defect", "sincov_defect", "bound_suite", "factorize", "render_report"):
        def recorded(*args, _name=name, _f=getattr(cli, name), **kwargs):
            seen.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(f"sincov.cli.{name}", recorded)
    assert main([command, "-i", str(_kernel_file(tmp_path))]) == 0
    capsys.readouterr()
    assert seen == stages


class _CLibrary:
    """A C library whose malloc_trim records its calls, or that has none."""

    def __init__(self, calls: list | None):
        if calls is not None:
            self.malloc_trim = lambda pad: calls.append(pad)


def test_only_the_cli_trims_the_heap(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _CLibrary(calls))
    path = _kernel_file(tmp_path)
    kernel = load_kernel(path.read_bytes())
    bound_suite(kernel, kernel.labels[0], defect=sincov_defect(kernel).defect)
    assert calls == []
    assert main(["check", "-i", str(path)]) == 0
    capsys.readouterr()
    assert calls == [0, 0, 0]


def _missing(error):
    def load(name):
        if error is AttributeError:
            return _CLibrary(None)
        raise error("no C library")  # CDLL(None) raises TypeError on Windows
    return load


@pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
def test_commands_run_alike_without_malloc_trim(monkeypatch, tmp_path, capsys, error):
    """Where the C library has no malloc_trim, every command exits 0 with the same bytes."""
    kernel, gram = _kernel_file(tmp_path, "mat2"), _kernel_file(tmp_path, "complex", 20)
    commands = [
        ["gen", "--example", "e1", "--n", "3", "--c", "1"],
        ["defect", "-i", str(kernel)],
        ["check", "-i", str(kernel)],
        ["check", "-i", str(gram)],
        ["factorize", "-i", str(gram)],
        ["sweep", "--dim", "3", "--count", "500", "--seed", "1"],
    ]

    def reports():
        found = []
        for argv in commands:
            assert main(argv) == 0
            found.append(capsys.readouterr().out)
        return found

    expected = reports()
    monkeypatch.setattr(ctypes, "CDLL", _missing(error))
    assert reports() == expected


def _peak_kib(command: str, path: Path, tmp_path: Path) -> int:
    """VmHWM of a fresh CLI process running one command with two scan threads."""
    code = ("import sys, sincov.cli; assert sincov.cli.main(sys.argv[1:]) == 0; "
            "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=str(SRC), SINCOV_THREADS="2", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", code, command, "-i", str(path), "-o", str(tmp_path / "report.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.access("/proc/self/status", os.R_OK),
    reason="reads glibc's heap through /proc/self/status",
)
def test_a_gram_check_peaks_no_higher_than_its_defect_pass(tmp_path):
    """Trimmed after its defect pass and after its checks, a check process
    on the 224-point Gram kernel peaks within 0.25 MiB of a defect process
    on it; untrimmed, the heap kept the checks' pages and it peaked 0.8 MiB
    above it on two threads.  Medians of three processes each."""
    path = tmp_path / "gram.json"
    path.write_bytes(save_kernel(normalized_gram(sample_vectors(8, 224, "complex", 1))))
    peaks = {command: sorted(_peak_kib(command, path, tmp_path) for _ in range(3))[1]
             for command in ("defect", "check")}
    assert peaks["check"] <= peaks["defect"] + 256, peaks


def test_import_sincov_imports_no_numpy_and_touches_no_environment_variable():
    code = ("import os, sys; before = dict(os.environ); import sincov; sincov.__all__; "
            "print('numpy' in sys.modules, dict(os.environ) == before)")
    assert _python_output(code) == "False True\n"


def test_import_sincov_after_numpy_imports_every_submodule():
    """Nothing is left to defer, and bench/tracing.py looks them up in sys.modules."""
    code = "import sys, numpy, sincov; print(sorted(m for m in sys.modules if m.startswith('sincov.')))"
    assert _python_output(code) == "['sincov.analysis', 'sincov.ipspace', 'sincov.kernel']\n"


@pytest.mark.parametrize(
    "name, modules",
    [
        ("load_kernel", ["sincov.kernel"]),
        ("bound_suite", ["sincov.analysis", "sincov.kernel"]),
        ("VectorError", ["sincov.analysis", "sincov.ipspace", "sincov.kernel"]),
    ],
)
def test_an_export_imports_only_its_home_module_and_what_that_imports(name, modules):
    code = (f"import sys, sincov; sincov.{name}; "
            "print(sorted(m for m in sys.modules if m.startswith('sincov.')))")
    assert _python_output(code) == f"{modules}\n"


def test_every_export_is_the_object_its_defining_submodule_holds():
    code = ("import sys, sincov\n"
            "for name in sincov.__all__:\n"
            "    value = getattr(sincov, name)\n"
            "    home = value.__module__\n"
            "    if not (home.startswith('sincov.') and value.__name__ == name\n"
            "            and vars(sys.modules[home])[name] is value):\n"
            "        print(name)\n")
    assert _python_output(code) == ""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_the_cli_runs_openblas_on_one_thread_unless_the_user_chose(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, sincov.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python_output(code, env) == f"{want}\n"


def test_the_cli_leaves_openblas_alone_once_numpy_is_imported():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = "import os, numpy, sincov.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _python_output(code, env) == "None\n"
