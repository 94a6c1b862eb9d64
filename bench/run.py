#!/usr/bin/env python3
"""Benchmark of the sincov pipeline: kernel JSON -> defect scan -> bound checks -> report.

Run from the root of a checkout that holds the sincov sources in src/:

    python3 bench/run.py --workload gram-check --seed 1 --seconds 25 --trace 0

Workloads: gram-check, mat2-check (bench/README.md says why).
--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is a
separate traced run that measures the per-layer metrics.  One closed-loop
client runs one operation at a time, back to back.  Every output is checked
by the gate in gate.py outside the timed windows.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import gate
from tracing import TRACED, Tracer, op_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("gram-check", "mat2-check")
CLI_OPS = ("defect", "check")
MAT2_C0 = 2.0
MAT2_NOISE = 0.01
TAIL_BEYOND = 10
OP_TIMEOUT_S = 30.0
# No operation starts after this many seconds, so a run ends within 180 s.
DEADLINE_S = 90.0
# Seconds the speed probe takes on a quiet 2-vCPU machine; end-to-end times
# are reported as seconds on a machine where the probe takes this long.
PROBE_REF_S = 0.025
PROBE_REACH = 2


@dataclass(frozen=True)
class Sizes:
    points: int = 224  # kernel points
    gram_dim: int = 8
    setup_sample_s: float = 0.2  # shortest set-up sample; faster set-ups are timed in groups
    min_samples: int = TAIL_BEYOND + 1  # so the tail has ten samples beyond it
    min_traced: int = 3


FULL = Sizes()
TINY = Sizes(points=12, setup_sample_s=0.0, min_samples=2, min_traced=1)


@dataclass
class Ledger:
    """Operations attempted and failed, with the gate's problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@dataclass
class Context:
    """What every workload body needs."""

    sv: object  # the sincov package, imported from src/
    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    work: Path  # scratch directory of this run, inside the checkout
    started: float
    ledger: Ledger = field(default_factory=Ledger)
    errors: dict = field(default_factory=dict)  # failed traced calls per layer
    setup_digest: str = ""  # of the bytes the first set-up wrote

    def keep_going(self, loop_start: float, samples: int, minimum: int) -> bool:
        """Run for `seconds` and at least `minimum` samples, but never past the deadline."""
        now = time.perf_counter()
        if now - self.started > DEADLINE_S:
            return False
        return now - loop_start < self.seconds or samples < minimum


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, samples beyond it, sample count).  With too few samples
    the smallest one stands in, and the count beyond it says so.
    """
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], len(ordered) - index - 1, len(ordered)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SpeedProbe:
    """A fixed task that needs no sincov: an interpreter loop, JSON float parsing
    and numpy complex arithmetic, the three kinds of work the CLI operations do.

    A call runs the task once pinned to each CPU this process may use and
    returns the mean seconds: on a shared host one vCPU is often slowed by
    another tenant while the other is not, and a measured operation uses both.
    """

    def __init__(self):
        rng = np.random.default_rng(0)  # the same probe on every run and commit
        self.blob = json.dumps(rng.standard_normal((140, 140)).tolist())
        self.array = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        self.cpus = sorted(os.sched_getaffinity(0))

    def task(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        sum(map(sum, json.loads(self.blob)))
        a = self.array
        for _ in range(150):
            np.abs(np.multiply.outer(a[:, 0], a[0, :]) - a).max()
        return time.perf_counter() - start

    def __call__(self) -> float:
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self.task())
        finally:
            os.sched_setaffinity(0, self.cpus)  # measured processes inherit this
        return statistics.mean(times)


class Timeline:
    """Timed samples in run order, each followed by a speed probe.

    A shared host can slow every process by up to 1.7x for seconds to
    minutes.  scaled() divides each sample by the median of the
    PROBE_REACH probes on either side of it and multiplies by PROBE_REF_S,
    which cancels most of that; a change to sincov moves the samples and not
    the probe.  The median keeps one probe caught in a short stall from
    skewing its neighbours.
    """

    def __init__(self, probe=None):
        self.probe = probe or SpeedProbe()
        self.probe()  # warm-up
        self.entries = [("probe", self.probe())]  # (kind, seconds)

    def add(self, kind: str, seconds: float) -> None:
        self.entries += [(kind, seconds), ("probe", self.probe())]

    def raw(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, seconds in self.entries:
            out.setdefault(kind, []).append(seconds)
        return out

    def scaled(self) -> dict[str, list[float]]:
        """{kind: samples in seconds at the reference speed}, probes left out."""
        at = [i for i, (kind, _) in enumerate(self.entries) if kind == "probe"]
        out: dict[str, list[float]] = {}
        for i, (kind, seconds) in enumerate(self.entries):
            if kind != "probe":
                after = bisect.bisect(at, i)
                near = at[max(after - PROBE_REACH, 0):after + PROBE_REACH]
                speed = median([self.entries[j][1] for j in near])
                out.setdefault(kind, []).append(seconds * PROBE_REF_S / speed)
        return out


def thread_env(threads: str | None) -> dict:
    """Environment of a measured process: sincov from src/, SINCOV_THREADS as given."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SINCOV_THREADS", None)
    if threads is not None:
        env["SINCOV_THREADS"] = threads
    return env


# --------------------------------------------------------------- set-up

def make_gram(sv, seed: int, sizes: Sizes):
    vectors = sv.sample_vectors(sizes.gram_dim, sizes.points, "complex", seed)
    return sv.normalized_gram(vectors)


def make_mat2(sv, seed: int, sizes: Sizes):
    """mat2_ratio kernel with a seeded perturbation on all four entries."""
    rng = np.random.default_rng(seed)
    samples = tuple(float(p) for p in rng.uniform(1.0, 10.0, sizes.points))
    base = sv.generate(sv.GeneratorSpec("mat2_ratio", c0=MAT2_C0, samples=samples))
    table = base.table + rng.uniform(-MAT2_NOISE, MAT2_NOISE, base.table.shape)
    return sv.FiniteKernel(base.labels, "mat2", table)


def set_up(ctx: Context, min_seconds: float = 0.0):
    """Generate and write the workload's inputs.  Returns (inputs, seconds per set-up).

    Set-ups repeat until together they take `min_seconds`, and their mean is
    returned, so a fast set-up is not timed alone.  Every set-up of a run
    must write the same bytes.
    """
    sv, blobs, inputs = ctx.sv, set(), None
    gc.collect()  # every set-up starts from the same collector state
    start, count = time.perf_counter(), 0
    while count == 0 or time.perf_counter() - start < min_seconds:
        make = make_gram if ctx.workload == "gram-check" else make_mat2
        inputs = make(sv, ctx.seed, ctx.sizes)
        data = sv.save_kernel(inputs)
        (ctx.work / "kernel.json").write_bytes(data)
        count += 1
        blobs.add(digest(data))
    seconds = (time.perf_counter() - start) / count
    ctx.setup_digest = ctx.setup_digest or min(blobs)
    same = blobs == {ctx.setup_digest}
    ctx.ledger.op("set-up", [] if same else ["set-up wrote different bytes on repeats"])
    return inputs, seconds


# --------------------------------------------------------------- CLI workloads

class CliRunner:
    """Runs `sincov defect` then `sincov check` on the workload kernel and gates both."""

    def __init__(self, ctx: Context, kernel):
        self.ctx = ctx
        self.kernel = kernel
        self.reference = gate.reference_defect(kernel)
        self.first: dict[str, bytes] = {}
        self.verdicts: dict[tuple, dict] = {}
        self.counts: dict[str, int] = {}
        self.peak_rss_kib = 0

    def _command(self, op: str, traced: bool) -> list[str]:
        work = self.ctx.work
        args = [op, "-i", str(work / "kernel.json"), "-o", str(work / f"{op}.json")]
        trace = ["--trace"] if traced else []
        return [sys.executable, str(BENCH / "cli_child.py"), str(work / f"{op}.child.json"), *trace, *args]

    def run_pass(self, threads: str | None = None, traced: bool = False, timeline: Timeline | None = None):
        """Returns ({op: wall seconds}, {op: span list}); layer spans only when traced.

        With a timeline, each wall time goes into it, followed by a probe.
        """
        walls, outputs, spans, problems = {}, {}, {}, {}
        for op in CLI_OPS:
            out, child_path = self.ctx.work / f"{op}.json", self.ctx.work / f"{op}.child.json"
            out.unlink(missing_ok=True)
            child_path.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                proc = subprocess.run(self._command(op, traced), env=thread_env(threads),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      timeout=OP_TIMEOUT_S)
                code, err = proc.returncode, proc.stderr.decode(errors="replace").strip()
            except subprocess.TimeoutExpired:
                code, err = None, f"no exit within {OP_TIMEOUT_S:g} s"
            walls[op] = time.perf_counter() - start
            if timeline:
                timeline.add(op, walls[op])
            outputs[op] = out.read_bytes() if out.exists() else b""
            problems[op] = [] if code == 0 else [f"exit code {code}: {err[-300:]}"]
            spans[op] = []
            if child_path.exists():
                doc = json.loads(child_path.read_text())
                op_id = self.ctx.ledger.attempted + len(spans) - 1  # this operation's ledger index
                spans[op] = [(n, s, e, p, op_id, size) for n, s, e, p, _, size in doc["spans"]]
                self.peak_rss_kib = max(self.peak_rss_kib, doc["peak_rss_kib"])
                for layer, count in doc["errors"].items():
                    self.ctx.errors[layer] = self.ctx.errors.get(layer, 0) + count
            else:
                problems[op].append("the CLI process wrote no peak memory or spans")
            if outputs[op] != self.first.setdefault(op, outputs[op]):
                problems[op].append("report bytes differ from the run's first report "
                                    "(made with SINCOV_THREADS=1)")
        key = (digest(outputs["defect"]), digest(outputs["check"]))
        if key not in self.verdicts:
            self.verdicts[key] = gate.cli_problems(outputs["defect"], outputs["check"], self.kernel,
                                                   self.reference, gram=self.ctx.workload == "gram-check")
            self._count(outputs)
        mode = f"SINCOV_THREADS={threads or 'auto'}{', traced' if traced else ''}"
        for op in CLI_OPS:
            self.ctx.ledger.op(f"{op} ({mode})", problems[op] + self.verdicts[key][op])
        return walls, spans

    def _count(self, outputs: dict[str, bytes]) -> None:
        if self.counts:
            return
        try:
            checks = len(json.loads(outputs["check"])["checks"])
        except (ValueError, KeyError, TypeError):
            checks = 0
        self.counts = {
            "triples_per_defect_op": self.kernel.n ** 3,
            "kernel_json_bytes_per_op": (self.ctx.work / "kernel.json").stat().st_size,
            "checks_per_check_op": checks,
            "report_bytes_per_defect_op": len(outputs["defect"]),
            "report_bytes_per_check_op": len(outputs["check"]),
        }


def cli_untraced(ctx: Context):
    timeline = Timeline()
    kernel, setup_s = set_up(ctx, ctx.sizes.setup_sample_s)
    timeline.add("setup", setup_s)
    runner = CliRunner(ctx, kernel)
    runner.run_pass(threads="1")  # warm-up; its reports are the byte-identity reference
    passes = 0
    loop_start = time.perf_counter()
    while ctx.keep_going(loop_start, passes, ctx.sizes.min_samples):
        runner.run_pass(timeline=timeline)
        passes += 1
        if passes % 2:  # set-up samples spread over the run like the rest
            timeline.add("setup", set_up(ctx, ctx.sizes.setup_sample_s)[1])
    samples = timeline.scaled()
    samples["batch"] = [d + c for d, c in zip(samples["defect"], samples["check"])]
    metrics = end_to_end(samples, kernel.n ** 3, runner.peak_rss_kib)
    return metrics, {"samples": samples, "raw": timeline.raw()}, runner.counts


def pass_order(count: int) -> tuple[bool, bool]:
    """Whether the untraced or the traced pass goes first; alternates so order effects cancel."""
    return (False, True) if count % 2 == 0 else (True, False)


def join_spans(span_lists) -> list:
    """Concatenate the span lists of several processes, re-basing parent indices."""
    joined = []
    for spans in span_lists:
        base = len(joined)
        joined.extend((n, s, e, p + base if p >= 0 else -1, op, size) for n, s, e, p, op, size in spans)
    return joined


def layer_total(spans: list) -> float:
    """Seconds inside kernel, analysis and ipspace calls: the spans directly under cli.main."""
    roots = {i for i, s in enumerate(spans) if s[0] == "cli.main"}
    return sum(s[2] - s[1] for s in spans if s[3] in roots)


def account(untraced_wall: float, traced_wall: float, spans: list) -> dict:
    """Where the untraced wall time of one CLI operation went, from its traced twin."""
    stats = op_stats(spans)
    layers = layer_total(spans)
    import_s = stats.get("cli.import", {}).get("s", 0.0)
    main_self = stats.get("cli.main", {}).get("self_s", 0.0)
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "layers_s": layers,
        "import_s": import_s,
        "argparse_io_s": main_self,
        "start_exit_s": untraced_wall - layers - import_s - main_self,
    }


def cli_traced(ctx: Context):
    tracer = Tracer()
    tracer.install()
    try:
        kernel, _ = set_up(ctx)
    finally:
        tracer.uninstall()
    ctx.errors.update(tracer.errors)
    runner = CliRunner(ctx, kernel)
    runner.run_pass(threads="1")  # warm-up
    passes, accounts = [], {op: [] for op in CLI_OPS}
    loop_start = time.perf_counter()
    while ctx.keep_going(loop_start, len(passes), ctx.sizes.min_traced):
        runs = {traced: runner.run_pass(traced=traced) for traced in pass_order(len(passes))}
        (plain, _), (walls, spans) = runs[False], runs[True]
        for op in CLI_OPS:
            accounts[op].append(account(plain[op], walls[op], spans[op]))
        joined = join_spans(spans[op] for op in CLI_OPS)
        plain_wall = sum(plain.values())
        passes.append({
            "stats": op_stats(joined),
            "cli_self_s": plain_wall - layer_total(joined),
            "overhead_s": sum(walls.values()) - plain_wall,
        })
    _, t1_spans = runner.run_pass(threads="1", traced=True)
    imports = [a["import_s"] for op in CLI_OPS for a in accounts[op]]
    metrics = per_layer(op_stats(tracer.spans), passes,
                        op_stats(join_spans(t1_spans.values())), ctx.errors, median(imports))
    summary = {op: {key: median([a[key] for a in accounts[op]]) for key in accounts[op][0]}
               for op in CLI_OPS if accounts[op]}
    return metrics, {"accounts": summary}, runner.counts


# --------------------------------------------------------------- metrics

def end_to_end(samples, triples_per_pass, rss_kib) -> dict:
    """End-to-end metrics as {name: (value, unit)}, from samples at the reference speed."""
    defect_s = median(samples["defect"])
    metrics = {
        "setup_s": (median(samples["setup"]), "s"),
        "defect_s": (defect_s, "s"),
        "check_s": (median(samples["check"]), "s"),
        "batch_s": (median(samples["batch"]), "s"),
        "scan_triples_per_s": (triples_per_pass / defect_s if defect_s else 0.0, "1/s"),
    }
    for key in ("defect", "check", "batch"):
        metrics[f"{key}_s.tail"] = (tail(samples[key])[0] if samples[key] else 0.0, "s")
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MiB")
    return metrics


def per_layer(setup_stats: dict, passes: list, t1_stats: dict, errors: dict, import_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}: medians per traced pass.

    Calls made only in set-up (save_kernel, generate, sample_vectors and
    normalized_gram) add their time in one set-up.
    """
    from sincov.analysis import thread_limit

    def per_pass(name: str, key: str = "s") -> float:
        values = [p["stats"].get(name, {}).get(key, 0) for p in passes]
        return setup_stats.get(name, {}).get(key, 0) + median(values)

    def rate(name: str, scale: float) -> float:
        values = [p["stats"][name]["size"] / p["stats"][name]["s"] / scale
                  for p in passes if p["stats"].get(name, {}).get("s")]
        return median(values)

    metrics = {}
    for layer, names in TRACED.items():
        for name in names:
            metrics[f"{layer}.{name}.s"] = (per_pass(f"{layer}.{name}"), "s")
        metrics[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    defect_s = metrics["analysis.sincov_defect.s"][0]
    t1_s = t1_stats.get("analysis.sincov_defect", {}).get("s", 0.0)
    metrics.update({
        "kernel.load_kernel.mb_per_s": (rate("kernel.load_kernel", 1e6), "MB/s"),
        "kernel.load_kernel.bytes": (per_pass("kernel.load_kernel", "size"), "bytes"),
        "analysis.sincov_defect.t1_s": (t1_s, "s"),
        "analysis.sincov_defect.scaling": (t1_s / (defect_s * thread_limit()) if defect_s else 0.0, "ratio"),
        "analysis.sincov_defect.triples": (per_pass("analysis.sincov_defect", "size"), "count"),
        "analysis.bound_suite.checks": (per_pass("analysis.bound_suite", "size"), "count"),
        "analysis.render_report.bytes": (per_pass("analysis.render_report", "size"), "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (median([p["cli_self_s"] for p in passes]), "s"),
        "trace.overhead_s": (median([p["overhead_s"] for p in passes]), "s"),
        "trace.passes": (len(passes), "count"),
    })
    return metrics


# --------------------------------------------------------------- main

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Identifies the measured sources when the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sincov").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(sincov_threads: str | None) -> dict:
    from sincov.analysis import thread_limit

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "SINCOV_THREADS": "unset" if sincov_threads is None else sincov_threads,
        "threads_used": thread_limit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
    }


def import_sincov():
    """Import sincov from the checkout's src/, never an installed copy."""
    if not (SRC / "sincov" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no sincov sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sincov

    if Path(sincov.__file__).resolve().parent != SRC / "sincov":
        raise SystemExit(f"run.py: imported sincov from {sincov.__file__}, not from {SRC}")
    return sincov


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one workload and return its result document (see print_result)."""
    started = time.perf_counter()
    sincov_threads = os.environ.pop("SINCOV_THREADS", None)
    sv = import_sincov()
    facts = machine_facts(sincov_threads)
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(sv, workload, seed, seconds, sizes, work, started)
    try:
        body = cli_traced if trace else cli_untraced
        metrics, detail, counts = body(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    facts["loadavg_end"] = os.getloadavg()
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "sizes": asdict(sizes),
        "machine": facts, "metrics": metrics, "detail": detail, "counts": counts,
        "attempted": ctx.ledger.attempted, "failed": ctx.ledger.failed,
        "problems": ctx.ledger.problems, "wall_s": time.perf_counter() - started,
    }


def print_result(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result as the last line."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"run wall {result['wall_s']:.1f} s")
    print("machine " + json.dumps(result["machine"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:38s} {value:>16.6g} {unit}")
    for key, samples in result["detail"].get("samples", {}).items():
        if samples:
            _, beyond, count = tail(samples)
            beyond = "" if key == "setup" else f"{key}_s.tail has {beyond} samples beyond it; "
            print(f"  {key}_s: median of {count} samples; {beyond}samples " + " ".join(f"{v:.4f}" for v in samples))
    for key, values in result["detail"].get("raw", {}).items():
        if values:
            print(f"  unscaled {key} wall seconds: median {median(values):.4f}  min {min(values):.4f}  "
                  f"max {max(values):.4f}")
    for op, parts in result["detail"].get("accounts", {}).items():
        print(f"  untraced CLI {op} wall, split by its traced twin (medians, s): "
              + "  ".join(f"{k} {v:.4f}" for k, v in parts.items()))
    print("counts " + json.dumps(result["counts"]))
    fail_ratio = result["failed"] / max(result["attempted"], 1)
    print(f"fail_ratio {fail_ratio:.6g} ({result['failed']} of {result['attempted']} operations failed)")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print_result(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
