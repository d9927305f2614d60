"""Verification report envelope: claim-by-claim results with exact or
numeric status, JSON and markdown rendering."""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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


def check(claim: str, ref: str, ok: bool, witness=None, exact: bool = True) -> Result:
    """Build a pass/fail result; exact selects the passing status flavor."""
    if ok:
        return Result(claim, ref, "exact-pass" if exact else "numeric-pass", witness)
    return Result(claim, ref, "fail", witness if witness is not None else "check returned false")


# strict JSON has no NaN or Infinity tokens, so these are written as strings
_NON_FINITE = {math.inf: '"Infinity"', -math.inf: '"-Infinity"'}


def _write(value, out: list, nl: str | None) -> None:
    """Append the JSON text of a report value to out, as json.dumps with
    indent=2 writes it at the depth whose line break and indent is nl, or
    on one line with ", " and ": " separators when nl is None.  A Fraction
    is written as its string, a non-finite float as its name in quotes and
    a dict key as str(key); TypeError on any other leaf type."""
    cls = type(value)
    if cls is str:
        out.append(_quote(value))
    elif cls is float:
        out.append(float.__repr__(value) if math.isfinite(value) else _NON_FINITE.get(value, '"NaN"'))
    elif cls is dict or cls is list or cls is tuple:
        brackets = "{}" if cls is dict else "[]"
        if not value:
            out.append(brackets)
            return
        opening, closing = brackets
        if nl is None:
            inner, sep = None, ", "
        else:
            inner = nl + "  "
            sep = "," + inner
            opening += inner
            closing = nl + closing
        if cls is dict:
            mark = len(out)
            for k, v in value.items():
                if type(k) is not str:
                    # keys print as str(key), and a later key replaces an
                    # earlier one that prints the same
                    del out[mark:]
                    _write({str(k): v for k, v in value.items()}, out, nl)
                    return
                out.append(opening + _quote(k) + ": ")
                opening = sep
                _write(v, out, inner)
        else:
            for v in value:
                out.append(opening)
                opening = sep
                _write(v, out, inner)
        out.append(closing)
    elif cls is bool:
        out.append("true" if value else "false")
    elif cls is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif cls is Fraction:
        out.append(_quote(str(value)))
    else:
        _write(_plain(value), out, nl)


def _plain(value):
    """The value of an exact plain type that a subclass instance stands for
    in a report; TypeError on any other leaf type."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return dict(value.items())
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, str):
        return str.__str__(value)
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

    def to_json(self) -> str:
        """The envelope as json.dumps with indent=2 writes it, each record
        holding claim, ref, status and witness in that order."""
        out = [
            '{\n  "tool_version": ', _quote(self.tool_version),
            ',\n  "command": ', _quote(self.command),
            ',\n  "inputs": ',
        ]
        _write(self.inputs, out, "\n  ")
        opening = ',\n  "results": [\n    {\n      "claim": '
        for r in self.results:
            out.append(
                f"{opening}{_quote(r.claim)},\n      "
                f'"ref": {_quote(r.ref)},\n      '
                f'"status": {_quote(r.status)},\n      '
                '"witness": '
            )
            _write(r.witness, out, "\n      ")
            opening = '\n    },\n    {\n      "claim": '
        out.append("\n    }\n  ]" if self.results else ',\n  "results": []')
        out.append(',\n  "timing": ')
        _write(self.timing, out, "\n  ")
        out.append("\n}")
        return "".join(out)

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
            parts = []
            if r.witness is not None:
                _write(r.witness, parts, None)
            wit = "".join(parts).replace("|", "\\|")
            lines.append(f"| {r.claim} | {r.ref} | {r.status} | {wit} |")
        lines.append("")
        return "\n".join(lines)
