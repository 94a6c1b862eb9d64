"""Tests of the benchmark itself, at tiny sizes.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

They check that every metric BENCHMARK.json names is emitted on every
workload in both trace modes, and that the correctness gate trips on
corrupted reports.
"""

import json
from pathlib import Path

import pytest

import gate
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    return {(w, t): run.run(w, seed=5, seconds=0.1, trace=bool(t), sizes=run.TINY)
            for w in run.WORKLOADS for t in (0, 1)}


def _last_line(result, capsys) -> dict:
    run.print_result(result)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_listed_metric_is_emitted(results, capsys, workload, trace):
    line = _last_line(results[(workload, trace)], capsys)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workloads_in_spec_match_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert SPEC["paths"] == [Path(__file__).resolve().parent.name]


def test_inputs_repeat_for_a_seed():
    sv = run.import_sincov()
    one = sv.save_kernel(run.make_mat2(sv, 7, run.TINY))
    assert one == sv.save_kernel(run.make_mat2(sv, 7, run.TINY))
    assert one != sv.save_kernel(run.make_mat2(sv, 8, run.TINY))


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 10, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 2, 3)


def test_timeline_scales_samples_by_the_probes_around_them():
    speeds = iter([9.0, 1.0, 2.0, 2.0, 4.0])  # warm-up, first probe, one after each sample
    timeline = run.Timeline(lambda: next(speeds))
    for kind, seconds in (("defect", 3.0), ("check", 4.0), ("defect", 8.0)):
        timeline.add(kind, seconds)
    ref = run.PROBE_REF_S
    assert timeline.raw() == {"probe": [1.0, 2.0, 2.0, 4.0], "defect": [3.0, 8.0], "check": [4.0]}
    # each sample is divided by the median of up to two probes on either side
    assert timeline.scaled() == {"defect": [3.0 * ref / 2.0, 8.0 * ref / 2.0], "check": [4.0 * ref / 2.0]}


def _cli_reports(workload):
    """A kernel of the workload and the CLI's defect and check reports on it."""
    sv = run.import_sincov()
    make = run.make_gram if workload == "gram-check" else run.make_mat2
    kernel = make(sv, 3, run.TINY)
    defect = sv.sincov_defect(kernel)
    checks = sv.bound_suite(kernel, kernel.labels[0], defect=defect.defect)
    check_doc = {"defect": defect.defect, "reference": kernel.labels[0],
                 "checks": [c.to_dict() for c in checks], "all_hold": all(c.holds for c in checks)}
    return kernel, sv.render_report(defect.to_dict()), sv.render_report(check_doc)


@pytest.mark.parametrize("workload", ("gram-check", "mat2-check"))
def test_gate_passes_real_reports(workload):
    kernel, defect, check = _cli_reports(workload)
    reference = gate.reference_defect(kernel)
    assert gate.cli_problems(defect, check, kernel, reference,
                             gram=workload == "gram-check") == {"defect": [], "check": []}


def _corrupt(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("edit, op", [
    (lambda d: d.update(defect=d["defect"] * (1 + 1e-15)), "defect"),  # last-ulp change
    (lambda d: d.update(defect=d["defect"] * 1.5), "defect"),
    (lambda d: d.update(argmax_triple=["v1", "v2", "v3"]), "defect"),
    (lambda d: d.update(triple_count=1), "defect"),
    (lambda d: d.update(all_hold=False), "check"),
    (lambda d: d["checks"][-1].update(holds=False), "check"),
    (lambda d: d.update(defect=0.5), "check"),
])
def test_gate_trips_on_corrupted_report(edit, op):
    kernel, defect, check = _cli_reports("gram-check")
    reports = {"defect": defect, "check": check}
    reports[op] = _corrupt(reports[op], edit)
    problems = gate.cli_problems(reports["defect"], reports["check"], kernel,
                                 gate.reference_defect(kernel), gram=True)
    assert problems[op], f"corrupted {op} report passed the gate"


def test_gate_trips_on_truncated_report():
    kernel, defect, check = _cli_reports("mat2-check")
    problems = gate.cli_problems(defect[:-20], check, kernel, gate.reference_defect(kernel), gram=False)
    assert problems["defect"] == ["report is not a JSON object"]


def test_gate_trips_on_wrong_reference():
    kernel, defect, check = _cli_reports("mat2-check")
    problems = gate.cli_problems(defect, check, kernel, gate.reference_defect(kernel) * 1.01, gram=False)
    assert any("numpy reference" in p for p in problems["defect"])


def test_reference_defect_matches_brute_force():
    sv = run.import_sincov()
    for make in (run.make_gram, run.make_mat2):
        kernel = make(sv, 4, run.Sizes(points=6))
        n, brute = kernel.n, 0.0
        for a in range(n):
            for x in range(n):
                for b in range(n):
                    brute = max(brute, sv.defect_term(kernel.entry(a, x), kernel.entry(x, b),
                                                      kernel.entry(a, b)))
        assert gate.reference_defect(kernel) == pytest.approx(brute, rel=1e-12)
