"""Correctness gate of the benchmark.  It runs outside every timed window.

Each function returns the problems it finds; none means the output passed.
The defect is checked two ways: defect_term on the reported argmax triple
must reproduce it bit for bit, and an independent numpy reference (plain
complex arithmetic, and for 2x2 matrices a different closed form of the
spectral norm) must agree within REL_TOL, so last-ulp changes in the
program's arithmetic do not trip the gate.
"""

from __future__ import annotations

import json

import numpy as np

REL_TOL = 1e-9
GRAM_DEFECT_BOUND = 2.0 + 1e-9


def reference_defect(kernel) -> float:
    """max |F(a,x) F(x,b) - F(a,b)| over all triples, one x-slab at a time."""
    T = kernel.table
    best = 0.0
    for x in range(kernel.n):
        if kernel.value_kind == "complex":
            worst = np.abs(np.multiply.outer(T[:, x], T[x, :]) - T).max()
        else:
            A, B = T[:, x][:, None], T[x, :][None, :]
            P = [
                [A[..., i, 0] * B[..., 0, k] + A[..., i, 1] * B[..., 1, k] - T[..., i, k]
                 for k in (0, 1)]
                for i in (0, 1)
            ]
            # sigma_max of [[a, b], [c, d]] = (|(a+d, b-c)| + |(a-d, b+c)|) / 2
            (a, b), (c, d) = P
            worst = (0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))).max()
        best = max(best, float(worst))
    return best


def defect_problems(doc: dict, kernel, reference: float, *, gram: bool) -> list[str]:
    """Problems with one defect report (DefectReport.to_dict() or CLI `defect`)."""
    from sincov import defect_term

    problems = []
    defect = doc.get("defect")
    if not isinstance(defect, float):
        return [f"defect report has no float defect: {defect!r}"]
    if doc.get("triple_count") != kernel.n ** 3:
        problems.append(f"triple_count {doc.get('triple_count')} != n^3 = {kernel.n ** 3}")
    try:
        a, x, b = doc["argmax_triple"]
        term = defect_term(kernel.value_at(a, x), kernel.value_at(x, b), kernel.value_at(a, b))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"argmax triple unusable: {exc}")
    else:
        if term != defect:
            problems.append(f"defect_term at argmax {term!r} != reported defect {defect!r}")
    if abs(defect - reference) > REL_TOL * max(1.0, abs(reference)):
        problems.append(f"defect {defect!r} differs from numpy reference {reference!r}")
    if gram and defect > GRAM_DEFECT_BOUND:
        problems.append(f"Gram defect {defect!r} exceeds 2 + 1e-9")
    return problems


def check_problems(doc: dict, defect_doc: dict) -> list[str]:
    """Problems with one check report, given the defect report it must agree with."""
    problems = []
    if doc.get("defect") != defect_doc.get("defect"):
        problems.append(f"check defect {doc.get('defect')!r} != defect report {defect_doc.get('defect')!r}")
    checks = doc.get("checks")
    if not isinstance(checks, list) or not checks:
        return problems + ["check report has no checks"]
    failed = [c.get("name") for c in checks if c.get("holds") is not True]
    if failed:
        problems.append(f"{len(failed)} bound checks fail, first {failed[:3]}")
    if doc.get("all_hold") is not True:
        problems.append("check report does not have all_hold = true")
    return problems


def _json_object(data: bytes) -> dict | None:
    try:
        doc = json.loads(data)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def cli_problems(defect_bytes: bytes, check_bytes: bytes, kernel, reference: float,
                 *, gram: bool) -> dict[str, list[str]]:
    """Problems with the outputs of one CLI `defect` and one CLI `check`, by command."""
    defect_doc, check_doc = _json_object(defect_bytes), _json_object(check_bytes)
    not_json = ["report is not a JSON object"]
    return {
        "defect": not_json if defect_doc is None
        else defect_problems(defect_doc, kernel, reference, gram=gram),
        "check": not_json if check_doc is None else check_problems(check_doc, defect_doc or {}),
    }
