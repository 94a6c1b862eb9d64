"""Run one sincov CLI command in this process, as `python3 -m sincov` does.

    python3 bench/cli_child.py OUT.json [--trace] defect -i kernel.json -o report.json

`src` must be on PYTHONPATH.  OUT.json receives the process's own peak
resident memory, spans around the import and the command (with --trace also
around every layer call) and per-layer error counts; the exit code is the
CLI's.  run.py starts every measured CLI command through this file: the OS
counts the launching process's memory in a child's ru_maxrss, so the peak is
read from /proc/self/status here instead.
"""

import json
import sys

from tracing import Tracer


def peak_rss_kib() -> int:
    """VmHWM of this process image, in KiB (0 where /proc is missing)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    traced = argv[:1] == ["--trace"]
    argv = argv[1:] if traced else argv
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import sincov.cli
        if traced:
            tracer.install()
        with tracer.span("cli.main"):
            return sincov.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as handle:
            json.dump({"spans": tracer.spans, "errors": tracer.errors,
                       "peak_rss_kib": peak_rss_kib()}, handle)


if __name__ == "__main__":
    raise SystemExit(main())
