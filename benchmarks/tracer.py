"""Span tracer for the tpsgeo benchmark.

The tracer wraps selected functions and methods of the ``tpsgeo`` package
from outside the library: nothing under ``src/`` knows about it.  Each call
of a wrapped function records one span (name, start, end, parent span,
thread id, run id).  Spans stay in memory until the run ends and are then
written to a JSON file, from which ``layer_metrics`` derives the per-layer
metrics of the benchmark.

Run as a script it is the traced child of ``run.py``: it installs the
wrappers, calls ``tpsgeo.cli.main`` once per argument list and writes the
spans::

    python3 benchmarks/tracer.py --spans OUT.json --run-id 0 \
        '[["curvature", "--space", "tps", "--n", "2", "--out", "r.json"]]'
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Functions and methods that get a span, named <module>.<qualified name>.
# Besides these, every entry of ``suites.SUITES`` gets a span named
# ``suites.<key>``; ``suites.negative_control`` names the function below.
TARGETS = (
    "cli.main",
    "suites.negative_control",
    "tps.phase_metric",
    "sympl.sympl_metric",
    "sympl.sl_embedding_report",
    "sympl.bracket_report",
    "heisenberg.invariant_report",
    "heisenberg.translation_invariance_report",
    "curvature.christoffel",
    "curvature.riemann_tensor",
    "curvature.ricci_scalar",
    "curvature.lie_derivative_metric",
    "killing.killing_solve",
    "killing.span_contains",
    "killing.spans_equal",
    "killing.structure_constants",
    "linalg.rref_fraction",
    "linalg.solve_exact",
    "linalg.kernel_exact",
    "linalg.fraction_matrix_inverse",
    "linalg.bareiss_det",
    "linalg.matrix_inverse_exact",
    "fields.bracket",
    "poly.LaurentPoly.__mul__",
    "poly.LaurentPoly.__add__",
    "poly.LaurentPoly.evaluate",
    "legendre.PotentialModel.jet",
    "legendre.analyze",
    "legendre.surface_point",
    "legendre.frames",
    "legendre.second_fundamental_form",
    "legendre.stability_classify",
    "report.ReportEnvelope.to_json",
)

# Span names whose function lives under another attribute name.
_ATTRIBUTE = {"suites.negative_control": "suites.negative_control_result"}

SUITE_NAMES = (
    "curvature", "killing", "tps", "sympl", "heisenberg", "legendre", "negative_control",
)

# Per-layer metrics: (metric name, unit, how it is derived).  The kinds are
# "calls" (span count), "s" (inclusive seconds), "self_s" (inclusive seconds
# minus the time covered by child spans on the same thread), "counter" (a
# work counter recorded at the span boundary) and "derived".
PER_LAYER = (
    ("cli.main.s", "s", "s"),
    *((f"suites.{name}.s", "s", "s") for name in SUITE_NAMES),
    ("suites.overlap", "ratio", "derived"),
    ("tps.phase_metric.calls", "count", "calls"),
    ("tps.phase_metric.s", "s", "s"),
    ("sympl.sympl_metric.calls", "count", "calls"),
    ("sympl.sympl_metric.s", "s", "s"),
    ("sympl.sl_embedding_report.s", "s", "s"),
    ("sympl.bracket_report.s", "s", "s"),
    ("heisenberg.invariant_report.s", "s", "s"),
    ("heisenberg.translation_invariance_report.s", "s", "s"),
    ("curvature.christoffel.calls", "count", "calls"),
    ("curvature.christoffel.s", "s", "s"),
    ("curvature.riemann_tensor.s", "s", "s"),
    ("curvature.ricci_scalar.self_s", "s", "self_s"),
    ("curvature.lie_derivative_metric.calls", "count", "calls"),
    ("curvature.lie_derivative_metric.s", "s", "s"),
    ("killing.killing_solve.s", "s", "s"),
    ("killing.killing_solve.unknowns", "count", "counter"),
    ("killing.killing_solve.kernel_dim", "count", "counter"),
    ("killing.span_contains.calls", "count", "calls"),
    ("killing.spans_equal.s", "s", "s"),
    ("killing.structure_constants.self_s", "s", "self_s"),
    ("linalg.rref_fraction.calls", "count", "calls"),
    ("linalg.rref_fraction.self_s", "s", "self_s"),
    ("linalg.solve_exact.calls", "count", "calls"),
    ("linalg.solve_exact.s", "s", "s"),
    ("linalg.kernel_exact.calls", "count", "calls"),
    ("linalg.fraction_matrix_inverse.s", "s", "s"),
    ("linalg.bareiss_det.s", "s", "s"),
    ("linalg.matrix_inverse_exact.s", "s", "s"),
    ("fields.bracket.calls", "count", "calls"),
    ("fields.bracket.s", "s", "s"),
    ("poly.LaurentPoly.__mul__.calls", "count", "calls"),
    ("poly.LaurentPoly.__mul__.s", "s", "s"),
    ("poly.LaurentPoly.__add__.calls", "count", "calls"),
    ("poly.LaurentPoly.evaluate.calls", "count", "calls"),
    ("poly.LaurentPoly.evaluate.s", "s", "s"),
    ("legendre.PotentialModel.jet.calls", "count", "calls"),
    ("legendre.PotentialModel.jet.s", "s", "s"),
    ("jets.per_point", "ratio", "derived"),
    ("legendre.analyze.p50_us", "us", "derived"),
    ("legendre.analyze.p99_us", "us", "derived"),
    ("legendre.analyze.samples", "count", "derived"),
    ("legendre.surface_point.calls", "count", "calls"),
    ("legendre.frames.self_s", "s", "self_s"),
    ("legendre.second_fundamental_form.self_s", "s", "self_s"),
    ("legendre.stability_classify.s", "s", "s"),
    ("report.ReportEnvelope.to_json.s", "s", "s"),
)

# Metrics that count work: they must repeat exactly across traced runs.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count") + ("jets.per_point",)

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "thread", "run")


def _resolve(name: str):
    """The object that holds a target (a module or a class) and its key."""
    module, *path = _ATTRIBUTE.get(name, name).split(".")
    owner = importlib.import_module(f"tpsgeo.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def _tpsgeo_modules() -> list:
    importlib.import_module("tpsgeo.cli")  # imports every module of the package
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tpsgeo"]


class Tracer:
    """Records spans of wrapped tpsgeo calls; thread-aware, in memory."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, annotate=None):
        """A wrapper of fn that records a span named name per call."""
        spans, ids, run_id = self.spans, self._ids, self.run_id
        home = self._home_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A span opened on an empty pool-thread stack was caused by the
            # span open on the installing thread (cli.main for verify-all).
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, threading.get_ident(), run_id))
            if annotate is not None:
                annotate(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    def _replace(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self._restore.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._restore.append((holder, key, vars(holder)[key]))
            setattr(holder, key, value)

    def install(self) -> None:
        """Wraps every target under every name that binds it in a tpsgeo
        module or in its class, so calls made through ``from .x import f``
        aliases are traced too."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        modules = _tpsgeo_modules()
        for name in TARGETS:
            owner, key = _resolve(name)
            original = vars(owner)[key]
            wrapper = self.wrap(name, original, _ANNOTATE.get(name))
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for alias, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, alias, wrapper)
        suites = sys.modules["tpsgeo.suites"]
        for key, fn in list(suites.SUITES.items()):
            self._replace(suites.SUITES, key, self.wrap(f"suites.{key}", fn))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def dump(self, path: str, **extra) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_killing(tracer: Tracer, args, kwargs, result) -> None:
    from tpsgeo import killing

    call = inspect.signature(killing.killing_solve).bind(*args, **kwargs).arguments
    unknowns = killing.ansatz_basis(call["metric"].chart, call["max_degree"])
    tracer.count("killing.killing_solve.unknowns", len(unknowns))
    tracer.count("killing.killing_solve.kernel_dim", len(result))


_ANNOTATE = {"killing.killing_solve": _count_killing}


# ----------------------------------------------------------------------
# spans to metrics


def self_times(spans) -> dict[int, float]:
    """Self seconds of every span, keyed by span id: its duration minus the
    durations of its child spans on its own thread.  A suite running in a
    pool thread is caused by ``cli.main`` but does not reduce its self time."""
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, name, start, end, thread, _ in spans:
        if parent is not None and by_id[parent][5] == thread:
            own[parent] -= end - start
    return own


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.  Inclusive
    seconds count only spans with no ancestor of the same name, so that
    recursion is not counted twice."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, parent, name, start, end, _thread, _run in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own[sid]
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            row["s"] += end - start
    return dict(out)


def run_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (a loaded span dump)."""
    spans = [tuple(s) for s in doc["spans"]]
    table = span_table(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for metric, _unit, kind in PER_LAYER:
        if kind in ("calls", "s", "self_s"):
            span_name = metric.rsplit(".", 1)[0]
            out[metric] = table.get(span_name, zero)[kind]
        elif kind == "counter":
            out[metric] = doc["counters"].get(metric, 0)
    main_s = out["cli.main.s"]
    suite_s = sum(out[f"suites.{name}.s"] for name in SUITE_NAMES)
    out["suites.overlap"] = suite_s / main_s if main_s else 0.0
    points = table.get("legendre.analyze", zero)["calls"]
    jets = out["legendre.PotentialModel.jet.calls"]
    out["jets.per_point"] = jets / points if points else 0.0
    out["legendre.analyze.samples"] = points
    return out


def analyze_durations_us(doc: dict) -> list[float]:
    return [(s[4] - s[3]) * 1e6 for s in doc["spans"] if s[2] == "legendre.analyze"]


def layer_metrics(docs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Combines traced runs: work counts must agree exactly between runs
    (the names of those that do not are returned) and are reported from the
    first, times are medians over runs, and the analyze percentiles pool
    every run's samples."""
    per_run = [run_metrics(doc) for doc in docs]
    mismatched = [m for m in EXACT if len({r[m] for r in per_run}) > 1]
    out = {
        metric: per_run[0][metric] if metric in EXACT
        else statistics.median(r[metric] for r in per_run)
        for metric, _unit, kind in PER_LAYER
        if kind != "derived" or metric in ("suites.overlap", "jets.per_point")
    }
    samples = [d for doc in docs for d in analyze_durations_us(doc)]
    if len(samples) > 1:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
    else:
        cuts = (samples or [0.0]) * 99
    out["legendre.analyze.samples"] = len(samples)
    out["legendre.analyze.p50_us"] = cuts[49]
    out["legendre.analyze.p99_us"] = cuts[98]
    return out, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("calls", help="JSON list of tpsgeo argument lists")
    args = parser.parse_args(argv)
    from tpsgeo import cli

    spans = Tracer(args.run_id)
    spans.install()
    try:
        codes = [cli.main(call) for call in json.loads(args.calls)]
    finally:
        spans.uninstall()
    spans.dump(args.spans, exit_codes=codes)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
