"""Verification report envelope: claim-by-claim results with exact or
numeric status, JSON and markdown rendering."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import __version__

STATUSES = ("exact-pass", "numeric-pass", "fail", "not-applicable")


class Result:
    """One verified claim.  ref names the claim family, or 'plumbing' for
    checks of the artifact itself; a failing result must carry a witness."""

    __slots__ = ("claim", "ref", "status", "witness")

    def __init__(self, claim: str, ref: str, status: str, witness=None):
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if status == "fail" and witness is None:
            raise ValueError("a failing result needs a witness")
        self.claim = str(claim)
        self.ref = str(ref)
        self.status = status
        self.witness = witness

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "ref": self.ref,
            "status": self.status,
            "witness": _jsonable(self.witness),
        }


def check(claim: str, ref: str, ok: bool, witness=None, exact: bool = True) -> Result:
    """Build a pass/fail result; exact selects the passing status flavor."""
    if ok:
        return Result(claim, ref, "exact-pass" if exact else "numeric-pass", witness)
    return Result(claim, ref, "fail", witness if witness is not None else "check returned false")


def _jsonable(value):
    """The value as plain JSON data: a Fraction becomes its string and a
    non-finite float its name; TypeError on any other leaf type."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        # strict JSON has no NaN or Infinity tokens
        return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(value, "NaN")
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"not a plain report value: {value!r}")


class ReportEnvelope:
    """Aggregated results of one command invocation."""

    __slots__ = ("tool_version", "command", "inputs", "results", "timing")

    def __init__(self, command: str, inputs: dict | None = None):
        self.tool_version = __version__
        self.command = command
        self.inputs = dict(inputs or {})
        self.results: list[Result] = []
        self.timing = {"seconds": None}

    def add(self, result: Result) -> None:
        self.results.append(result)

    def extend(self, results) -> None:
        for r in results:
            self.add(r)

    @property
    def all_passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def counts(self) -> dict:
        out = {s: 0 for s in STATUSES}
        for r in self.results:
            out[r.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "results": [r.to_dict() for r in self.results],
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def to_markdown(self) -> str:
        lines = [
            f"# {self.command}",
            "",
            f"tool version {self.tool_version}; "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.counts().items())),
            "",
            "| claim | ref | status | witness |",
            "| --- | --- | --- | --- |",
        ]
        for r in self.results:
            wit = json.dumps(_jsonable(r.witness)) if r.witness is not None else ""
            wit = wit.replace("|", "\\|")
            lines.append(f"| {r.claim} | {r.ref} | {r.status} | {wit} |")
        lines.append("")
        return "\n".join(lines)
