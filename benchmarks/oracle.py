"""Correctness oracle for the tpsgeo benchmark.

Every benchmark run checks the reports its tpsgeo children wrote.  A report
is compared with the reference recorded in ``benchmarks/reference/``:
claims, families, statuses and exact witnesses must be identical, and float
witnesses must agree within the tolerances the claims state (1e-12 for the
contact-form residual, 1e-10 for everything else, relative above 1).
``surface_grid`` reports are also checked, on every seed, against the
invariants of the potential command and against the stability class that the
model's closed-form Hessian gives.

An operation is one report record, or one base point on ``surface_grid``.
An operation fails when its status is ``fail``, when it differs from the
reference, or when its child crashed or exited with an unexpected code.

To record the references again (only when the reports are meant to change)::

    python3 benchmarks/oracle.py --record
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

CONTACT_TOL = 1e-12
FLOAT_TOL = 1e-10
CONTACT_KEYS = frozenset({"legendre_residual", "worst_residual"})
CLASSES = ("stable", "unstable", "marginal")
POINT_CLAIM = "surface data at "


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def same_witness(got, want, key: str | None = None) -> bool:
    """Exact equality, except that floats agree within their tolerance."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return _close(float(got), want, CONTACT_TOL if key in CONTACT_KEYS else FLOAT_TOL)
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same_witness(got[k], want[k], k) for k in want
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(
            same_witness(g, w, key) for g, w in zip(got, want)
        )
    return got == want


def same_record(got: dict | None, want: dict) -> bool:
    return (
        got is not None
        and got.get("status") != "fail"
        and got.get("claim") == want["claim"]
        and got.get("ref") == want["ref"]
        and got.get("status") == want["status"]
        and same_witness(got.get("witness"), want["witness"])
    )


def compare_records(got: list[dict], want: list[dict]) -> tuple[int, int]:
    """(attempted, failed), one operation per record.  Missing and extra
    records count as failed operations."""
    attempted = max(len(got), len(want))
    failed = sum(
        1
        for i in range(attempted)
        if i >= len(got) or i >= len(want) or not same_record(got[i], want[i])
    )
    return attempted, failed


def point_label(point: list[float]) -> str:
    """The label the potential command gives a base point."""
    return "(" + ", ".join(f"{v:g}" for v in point) + ")"


def van_der_waals_classes(points, a: float, b: float, r: float, c_v: float) -> list:
    """(classification, definiteness) of U(S, V) = (V - b)^(-r/c_v) e^(S/c_v)
    - a/V at each point, from its closed-form Hessian; None where the
    determinant is too close to 0 to decide."""
    k = -r / c_v
    out = []
    for s, v in points:
        w, e = v - b, math.exp(s / c_v)
        u_ss = w**k * e / c_v**2
        u_sv = k * w ** (k - 1) * e / c_v
        u_vv = k * (k - 1) * w ** (k - 2) * e - 2 * a / v**3
        det = u_ss * u_vv - u_sv**2
        if abs(det) <= 1e-6 * (abs(u_ss * u_vv) + u_sv**2):
            out.append(None)
        elif det > 0:
            out.append(("stable", "positive definite") if u_ss > 0 else ("unstable", "negative definite"))
        else:
            out.append(("unstable", "indefinite"))
    return out


def surface_failures(results: list[dict], points: list[list[float]], classes) -> set[int]:
    """Indices of the base points that fail the invariants of a potential
    report: every point is numeric-pass within the stated tolerances, in the
    class its closed form gives (where that is decided), and the summaries
    agree with the point records.  A wrong summary fails every point,
    because it covers all of them."""
    npts = len(points)
    tally = dict.fromkeys(CLASSES, 0)
    worst = 0.0
    failed = set()
    for i, pt in enumerate(points):
        rec = results[i] if i < len(results) else {}
        wit = rec.get("witness") if isinstance(rec.get("witness"), dict) else {}
        if wit.get("classification") in CLASSES:
            tally[wit["classification"]] += 1
        if isinstance(wit.get("legendre_residual"), float):
            worst = max(worst, wit["legendre_residual"])
        ok = (
            rec.get("claim") == POINT_CLAIM + point_label(pt)
            and rec.get("status") == "numeric-pass"
            and wit.get("classification") in CLASSES
            and _below(wit.get("legendre_residual"), CONTACT_TOL)
            and _below(wit.get("block_agreement"), FLOAT_TOL)
            and classes[i] in (None, (wit["classification"], wit.get("definiteness")))
        )
        if not ok:
            failed.add(i)
    summary = results[npts:]
    contact = summary[0] if summary else {}
    by_class = summary[1] if len(summary) > 1 else {}
    counts = by_class.get("witness") if isinstance(by_class.get("witness"), dict) else {}
    summary_ok = (
        len(summary) == 2
        and contact.get("status") == "numeric-pass"
        and contact.get("witness") == {"worst_residual": worst, "points": npts}
        and by_class.get("status") == "numeric-pass"
        and all(counts.get(c) == tally[c] for c in CLASSES)
        and sum(counts.get(c, 0) for c in CLASSES) == npts
    )
    return failed if summary_ok else set(range(npts))


def _below(value, tol: float) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value < tol


def check_surface(results: list[dict], points: list[list[float]], classes, want=None):
    """(attempted, failed), one operation per base point, for a surface_grid
    report; with a reference the point records and the summaries must also
    match it."""
    npts = len(points)
    failed = surface_failures(results, points, classes)
    if want is not None:
        if compare_records(results[npts:], want[npts:])[1]:
            failed = set(range(npts))
        got = results + [None] * (npts - len(results))
        failed |= {i for i in range(npts) if not same_record(got[i], want[i])}
    return npts, len(failed)


def load_reference(workload: str) -> list[list[dict]]:
    """Reference result lists, one per tpsgeo call of the workload."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def flip_one_status(results: list[dict]) -> list[dict]:
    """A copy of a result list with the first status turned into 'fail'."""
    out = copy.deepcopy(results)
    out[0]["status"] = "fail"
    return out


def record(root: str) -> None:
    """Writes the reference reports of every workload at the current tree."""
    sys.path.insert(0, HERE)
    import run  # noqa: E402  (the workload definitions live there)

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in run.WORKLOADS:
        ctx = run.Context(root, seed=run.DEFAULT_SEED)
        rep = run.untraced_rep(ctx, workload)
        if any(code != 0 for code in rep["codes"]):
            raise SystemExit(f"{workload}: tpsgeo exited with {rep['codes']}")
        doc = {
            "workload": workload,
            "seed": run.DEFAULT_SEED,
            "results": [report["results"] for report in rep["reports"]],
        }
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, root)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Records the benchmark's reference reports.")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    record(os.path.dirname(HERE))
