"""Command-line front end: generate kernels, analyze them, run margin sweeps.

Reports are JSON, written to the -o path or to standard output; one-line
human summaries and all errors go to the diagnostic stream.  Exit codes:
0 success, 1 a check failed, 2 usage error, 3 invalid input, 4 an internal
fault (any other exception, reported as "error: internal: <type>: <message>").
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from .analysis import _defect, bound_suite, factorize, render_report, sincov_defect
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


def _read_kernel(path: str):
    with open(path, "rb") as handle:
        return load_kernel(handle.read())


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
    spec = GeneratorSpec(
        variant=args.example,
        value=args.value,
        size=args.size,
        n=args.n,
        c=args.c,
        c0=args.c0,
        samples=tuple(args.samples) if args.samples is not None else None,
        eps=args.eps,
        seed=args.seed,
    )
    kernel = generate(spec)
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
    checks = bound_suite(kernel, ref, defect=defect, tol=args.tol)
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
