"""Command-line front end: generate kernels, analyze them, run margin sweeps.

Reports are JSON, written to the -o path or to standard output; one-line
human summaries and all errors go to the diagnostic stream.  Exit codes:
0 success, 1 a check failed, 2 usage error, 3 invalid input, 4 an internal
fault (any other exception, reported as "error: internal: <type>: <message>").
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import gc
import os
import sys
from dataclasses import fields

# No command calls a BLAS routine but sweep's Gram product, which is small,
# and numpy's OpenBLAS starts a worker thread at import that spins before it
# sleeps, burning CPU beside the interpreter.  So the command line runs
# OpenBLAS on one thread unless the user chose otherwise; it can only choose
# before numpy is imported, and `import sincov` imports no numpy.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import _defect, bound_suite, factorize, render_report, sincov_defect, thread_limit
from .ipspace import FIELDS, VectorError, margin_sweep
from .kernel import (
    GENERATOR_VARIANTS,
    GeneratorSpec,
    KernelError,
    generate,
    load_kernel,
    save_kernel,
)

PROG = "sincov"

# The command line owns its process, so it alone sets the cyclic garbage
# collector's policy; importing sincov as a library leaves the collector
# alone.  main runs each command with it off: a kernel document parsed whole
# is many lists and dicts and no cycles, and building it would trigger
# hundreds of collections that free nothing.  At exit the heap is frozen:
# shutdown's collection would visit every object still alive, about 22,000
# after the imports (two thirds of a short process's exit time), and no
# collection visits the permanent generation, so cycles there are left to
# the operating system.  Standard streams are still flushed at shutdown.
atexit.register(gc.freeze)

# The command line owns its process's allocator policy too: at stage
# boundaries (after the imports; in check, after the defect pass and after
# the checks) it hands the heap pages that glibc's malloc keeps after a free
# back to the operating system (_trim), while load_kernel, sincov_defect and
# bound_suite never trim.  Those pages are the imports' freed objects (with
# PYTHONDONTWRITEBYTECODE, the compiler's, too) and the defect pass's: glibc
# raises its mmap threshold when the pass frees its (n, n) buffers, so the
# checks' later (n, n) arrays come from the heap, whose freed pages glibc
# keeps.  Each of the three trims lowers a gram check's peak memory.


def _trim() -> None:
    """Return freed heap pages to the operating system: glibc's
    malloc_trim(0), and nothing where the C library has no such call."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc: macOS, musl, Windows
        return
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    trim(0)


def _diag(message: str) -> None:
    print(f"{PROG}: {message}", file=sys.stderr)


def _error(category: str, message: str) -> None:
    print(f"{PROG}: error: {category}: {message}", file=sys.stderr)


def _write_output(path: str | None, data: bytes) -> None:
    """data to the file at path, or else to stdout as bytes: the stdout
    encoding (PYTHONIOENCODING, say) cannot change them or fail on them."""
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as handle:
            handle.write(data)


# A process forked from a multi-threaded one holds only the forking thread,
# and a lock that another thread held stays locked in it, so the reader forks
# only where Linux lists one thread here.
_TASKS = "/proc/self/task"


def _read_kernel(path: str):
    """The kernel in the file at path, its rows read on thread_limit()
    processes where this process runs one thread, else in this process."""
    with open(path, "rb") as handle:
        data = handle.read()
    workers = thread_limit()
    try:
        alone = len(os.listdir(_TASKS)) == 1
    except OSError:  # no /proc: the threads cannot be counted
        alone = False
    return load_kernel(data, workers=workers if alone else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Composition-defect analysis and factorization of finite kernels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate an example kernel file")
    gen.add_argument("--example", required=True, choices=GENERATOR_VARIANTS)
    gen.add_argument("--value", type=float, help="constant: the constant value")
    gen.add_argument("--size", type=int, help="constant/moszner: number of points")
    gen.add_argument("--n", type=int, help="e1/moszner: integer parameter")
    gen.add_argument("--c", type=float, help="e1: shift in a/(b+c)")
    gen.add_argument("--c0", type=float, help="mat2_ratio: second diagonal entry")
    gen.add_argument("--samples", type=float, nargs="+", help="sample points")
    gen.add_argument("--eps", type=float, help="perturbed_ratio: perturbation radius")
    gen.add_argument("--seed", type=int, help="perturbed_ratio: RNG seed")
    gen.add_argument("-o", dest="output", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    defect = sub.add_parser("defect", help="compute the defect report of a kernel file")
    defect.add_argument("-i", dest="input", required=True, help="kernel file")
    defect.add_argument("-o", dest="output", help="output file (default: stdout)")
    defect.set_defaults(func=_cmd_defect)

    fac = sub.add_parser("factorize", help="extract the reference-point factorization")
    fac.add_argument("-i", dest="input", required=True, help="kernel file")
    fac.add_argument("--ref", help="reference label (default: first label)")
    fac.add_argument("-o", dest="output", help="output file (default: stdout)")
    fac.set_defaults(func=_cmd_factorize)

    check = sub.add_parser("check", help="run every applicable bound check")
    check.add_argument("-i", dest="input", required=True, help="kernel file")
    check.add_argument("--ref", help="reference label (default: first label)")
    check.add_argument("--tol", type=float, help="absolute check tolerance override")
    check.add_argument("-o", dest="output", help="output file (default: stdout)")
    check.set_defaults(func=_cmd_check)

    sweep = sub.add_parser("sweep", help="run the inequality margin sweep")
    sweep.add_argument("--dim", type=int, default=8)
    sweep.add_argument("--count", type=int, default=100000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--field", choices=FIELDS, default="real")
    sweep.add_argument("-o", dest="output", help="output file (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_gen(args) -> int:
    # an option for each of GeneratorSpec's parameters but f_values
    params = {f.name: getattr(args, f.name, None) for f in fields(GeneratorSpec)[1:]}
    kernel = generate(GeneratorSpec(args.example, **params))
    _write_output(args.output, save_kernel(kernel))
    _diag(f"gen: {args.example} kernel with {kernel.n} points ({kernel.value_kind})")
    return 0


def _cmd_defect(args) -> int:
    kernel = _read_kernel(args.input)
    report = sincov_defect(kernel)
    _write_output(args.output, render_report(report.to_dict()))
    a, x, b = report.argmax_triple
    _diag(
        f"defect: {report.defect:.12g} at ({a}, {x}, {b}); "
        f"{report.triple_count} triples, mean {report.mean_defect:.12g}"
    )
    return 0


def _cmd_factorize(args) -> int:
    kernel = _read_kernel(args.input)
    ref = args.ref if args.ref is not None else kernel.labels[0]
    result = factorize(kernel, ref)
    _write_output(args.output, render_report(result.to_dict()))
    _diag(
        f"factorize: reference {ref}, gauge_error {result.gauge_error:.12g}, "
        f"residual {result.residual:.12g}"
    )
    return 0


def _cmd_check(args) -> int:
    kernel = _read_kernel(args.input)
    ref = args.ref if args.ref is not None else kernel.labels[0]
    defect = _defect(kernel)
    _trim()
    checks = bound_suite(kernel, ref, defect=defect, tol=args.tol)
    _trim()
    all_hold = all(c.holds for c in checks)
    doc = {
        "defect": defect,
        "reference": ref,
        "checks": [c.to_dict() for c in checks],
        "all_hold": all_hold,
    }
    _write_output(args.output, render_report(doc))
    failed = [c.name for c in checks if not c.holds]
    _diag(f"check: {len(checks)} checks, {len(failed)} failed")
    if failed:
        _error("check", f"failed: {', '.join(failed)}")
        return 1
    return 0


def _cmd_sweep(args) -> int:
    result = margin_sweep(args.dim, args.count, args.field, args.seed)
    _write_output(args.output, render_report(result.to_dict()))
    mins = ", ".join(f"{k} {v:.3e}" for k, v in result.min_margins.items())
    _diag(f"sweep: min margins {mins}; gram defect {result.gram_defect:.12g}")
    if not (result.margins_hold and result.gram_defect_holds):
        _error("check", "sweep bound violated")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _trim()
        return args.func(args)
    except (KernelError, VectorError, OSError) as exc:
        _error("input", str(exc))
        return 3
    except Exception as exc:  # a fault of the program, not of its input or a bound
        _error("internal", f"{type(exc).__name__}: {exc}")
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
