"""Layered benchmark of tpsgeo.

Runs one workload, checks every report its tpsgeo children write, and prints
each metric by name with its unit; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run it from the root of the repository::

    python3 benchmarks/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with plain ``tpsgeo`` children.
``--trace 1`` runs the workload twice under the span tracer (``tracer.py``)
and reports the per-layer metrics and the tracing overhead.  The workloads,
the metrics and how they relate are described in ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("verify_all", "exact_deep", "surface_grid")
DEFAULT_SEED = 0

# surface_grid: the physical van der Waals model over a box that straddles
# the spinodal, so both stability branches are exercised.
VAN_DER_WAALS = {
    "model": "van_der_waals",
    "parameters": {"a": 1.0, "b": 1.0, "r": 1.0, "c_v": 1.5},
}
BOX = ((-3.0, 1.0), (1.5, 4.0))  # S, V
POINTS = 900

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("points_per_s", "1/s"),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in tracer.PER_LAYER) + (
    ("trace.overhead_s", "s"),
)

MIN_REPS = 3          # untraced workload runs per benchmark run, at least
TRACED_RUNS = 2       # traced runs per benchmark run; their counts must agree
SETUP_PER_REP = 2     # timed imports of tpsgeo.cli for setup_s, per workload run
RUN_LIMIT_S = 170.0   # children are killed after this, so a run ends in time

# On a shared host the speed of each CPU drifts and jumps by tens of percent
# while a child runs, for all code alike, and the host takes the CPUs away
# for stretches.  While the children run, a thread of run.py times a fixed
# pure-Python kernel on every usable CPU in turn, every SENSOR_PERIOD_S, in
# wall and in CPU seconds.  A child's wall (CPU) seconds are scaled by
# SENSOR_REF_S over the mean wall (CPU) time of the kernel sampled during the
# child's life, so that the end-to-end times read as if the CPUs ran at a
# fixed speed and were never taken away.
SENSOR_PERIOD_S = 0.03
SENSOR_REF_S = 0.001


class Context:
    """Paths, child environment and deadline of one benchmark run."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.out = os.path.join(HERE, "out")
        os.makedirs(self.out, exist_ok=True)
        # Children run the working tree's src/ with the shipped defaults.
        self.env = {k: v for k, v in os.environ.items() if k != "TPSGEO_THREADS"}
        self.env["PYTHONPATH"] = self.src
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._inputs = None

    def surface_inputs(self) -> tuple[str, str, list[list[float]]]:
        """Model file, points file and the points of the run's seed."""
        if self._inputs is None:
            points = surface_points(self.seed)
            model_file = os.path.join(self.out, "van_der_waals.json")
            points_file = os.path.join(self.out, f"points-seed{self.seed}.json")
            for path, doc in ((model_file, VAN_DER_WAALS), (points_file, points)):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            self._inputs = (model_file, points_file, points)
        return self._inputs


def surface_points(seed: int) -> list[list[float]]:
    """Uniform random base points (S, V) in BOX, made from the seed."""
    rng = random.Random(seed)
    return [[rng.uniform(*BOX[0]), rng.uniform(*BOX[1])] for _ in range(POINTS)]


def surface_classes(points: list[list[float]]) -> list:
    """Stability class of each point from the model's closed-form Hessian."""
    return oracle.van_der_waals_classes(points, **VAN_DER_WAALS["parameters"])


def calls(ctx: Context, workload: str, tag: str) -> list[list[str]]:
    """The tpsgeo argument lists of one workload run; reports go to out/."""
    if workload == "verify_all":
        argvs = [["verify-all"]]
    elif workload == "exact_deep":
        argvs = [
            ["killing", "--space", "sympl", "--n", "3"],
            ["curvature", "--space", "tps", "--n", "4"],
        ]
    else:
        model_file, points_file, _ = ctx.surface_inputs()
        argvs = [["potential", "--model-file", model_file, "--points-file", points_file]]
    return [
        argv + ["--out", os.path.join(ctx.out, f"{workload}-{tag}-{k}.json")]
        for k, argv in enumerate(argvs)
    ]


def spawn(ctx: Context, argv: list[str]) -> dict:
    """Runs one child to completion: exit code, wall seconds from spawn to
    exit, and the child's own CPU seconds and peak RSS from its rusage."""
    remaining = ctx.deadline - time.monotonic()
    if remaining <= 0:
        return {"code": None, "span": None, "wall": 0.0, "cpu": 0.0, "rss_kb": 0}
    with open(os.path.join(ctx.out, "child-stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    end = time.monotonic()
    return {
        "code": proc.returncode,
        "span": (end - wall, end),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def _read_report(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _remove(paths: list[str]) -> None:
    """Removes stale outputs, so that a child that writes none is noticed."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def untraced_rep(ctx: Context, workload: str) -> dict:
    """One workload run with plain tpsgeo children, one child per call."""
    argvs = calls(ctx, workload, "plain")
    _remove([argv[-1] for argv in argvs])
    children = [spawn(ctx, [sys.executable, "-m", "tpsgeo.cli"] + argv) for argv in argvs]
    return {
        "children": children,
        "wall": sum(c["wall"] for c in children),
        "cpu": sum(c["cpu"] for c in children),
        "rss_kb": max(c["rss_kb"] for c in children),
        "codes": [c["code"] for c in children],
        "reports": [_read_report(argv[-1]) for argv in argvs],
    }


def traced_rep(ctx: Context, workload: str, run_id: int) -> dict:
    """One workload run in a single traced child that writes its spans."""
    spans = os.path.join(ctx.out, f"spans-{workload}-{run_id}.json")
    argvs = calls(ctx, workload, f"traced{run_id}")
    _remove([spans] + [argv[-1] for argv in argvs])
    child = spawn(ctx, [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", spans,
                        "--run-id", str(run_id), json.dumps(argvs)])
    return {
        "wall": child["wall"],
        "codes": [child["code"]] * len(argvs),
        "reports": [_read_report(argv[-1]) for argv in argvs],
        "spans": _read_report(spans) if child["code"] == 0 else None,
    }


class Checker:
    """Counts attempted and failed operations of one workload's runs."""

    def __init__(self, ctx: Context, workload: str):
        self.ctx = ctx
        self.workload = workload
        self.reference = oracle.load_reference(workload)
        self.attempted = 0
        self.failed = 0

    def check(self, rep: dict) -> None:
        """Adds the operations of one workload run."""
        for code, report, want in zip(rep["codes"], rep["reports"], self.reference):
            got = report.get("results") if isinstance(report, dict) else None
            if self.workload == "surface_grid":
                points = self.ctx.surface_inputs()[2]
                ref = want if self.ctx.seed == DEFAULT_SEED else None
                a, f = (len(points), len(points))
                if code == 0 and isinstance(got, list):
                    a, f = oracle.check_surface(got, points, surface_classes(points), ref)
            else:
                a, f = (len(want), len(want))
                if code == 0 and isinstance(got, list):
                    a, f = oracle.compare_records(got, want)
            self.attempted += a
            self.failed += f

    def negative_control(self) -> bool:
        """The oracle must count a reference with one status flipped as failed."""
        want = self.reference[0]
        flipped = oracle.flip_one_status(want)
        if self.workload == "surface_grid":
            points = surface_points(DEFAULT_SEED)
            failed = oracle.check_surface(flipped, points, surface_classes(points), want)[1]
        else:
            failed = oracle.compare_records(flipped, want)[1]
        return failed >= 1


IMPORT = [sys.executable, "-c", "import tpsgeo.cli"]


def _time_left(ctx: Context, start: float, seconds: float, reps: list[dict]) -> bool:
    """Whether one more workload run, as long as the longest so far, fits."""
    now = time.monotonic()
    return now < ctx.deadline and now - start + max(r["wall"] for r in reps) <= seconds


def sensor_kernel() -> int:
    """Fixed pure-Python work of about a millisecond: integer arithmetic and
    dict updates, the kind of operation tpsgeo's layers spend their time on."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        key = i * 7919 % 1031
        table[key] = table.get(key, 0) + i
        acc += i * i % 13
    return acc + len(table)


class SpeedSensor(threading.Thread):
    """Samples the speed of every usable CPU until stopped: (time, wall
    seconds, CPU seconds) of one sensor_kernel pass every SENSOR_PERIOD_S."""

    def __init__(self):
        super().__init__(name="speed-sensor")
        self.samples: list[tuple[float, float, float]] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        while not self._stop_event.is_set():
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                wall, spent = time.perf_counter(), time.thread_time()
                sensor_kernel()
                wall, spent = time.perf_counter() - wall, time.thread_time() - spent
                self.samples.append((time.monotonic(), wall, spent))
            self._stop_event.wait(SENSOR_PERIOD_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def scale(self, span: tuple[float, float] | None, key: str) -> float:
        """SENSOR_REF_S over the mean "wall" or "cpu" kernel time sampled
        within span, or over the median of all samples when it holds none."""
        column = 1 if key == "wall" else 2
        times = [sample[column] for sample in self.samples]
        inside = [] if span is None else [
            d for sample, d in zip(self.samples, times) if span[0] <= sample[0] <= span[1]
        ]
        kernel = statistics.fmean(inside) if inside else statistics.median(times)
        return SENSOR_REF_S / kernel


def run_untraced(ctx: Context, workload: str, seconds: float, checker: Checker) -> dict:
    """Repeats the workload for the given seconds (at least MIN_REPS times).
    setup_s is timed before each repetition, so that it samples the same
    stretch of time; the first import, which may compile bytecode, is not
    timed.  Every child's times are scaled by the SpeedSensor over its life;
    the unscaled samples are returned under "raw"."""
    spawn(ctx, IMPORT)
    imports: list[dict] = []
    reps: list[dict] = []
    sensor = SpeedSensor()
    sensor.start()
    try:
        start = time.monotonic()
        while len(reps) < MIN_REPS or _time_left(ctx, start, seconds, reps):
            imports.extend(spawn(ctx, IMPORT) for _ in range(SETUP_PER_REP))
            rep = untraced_rep(ctx, workload)
            checker.check(rep)
            reps.append(rep)
    finally:
        sensor.stop()

    def scaled(children: list[dict], key: str) -> float:
        return sum(c[key] * sensor.scale(c["span"], key) for c in children)

    ops = POINTS if workload == "surface_grid" else sum(map(len, checker.reference))
    walls = [scaled(r["children"], "wall") for r in reps]
    return {
        "setup_s": [scaled([c], "wall") for c in imports],
        "wall_s": walls,
        "cpu_s": [scaled(r["children"], "cpu") for r in reps],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in reps],
        "points_per_s": [ops / w for w in walls],
        "raw": {
            "setup_s": [c["wall"] for c in imports],
            "wall_s": [r["wall"] for r in reps],
            "cpu_s": [r["cpu"] for r in reps],
            "sensor_wall_s": [s[1] for s in sensor.samples],
            "sensor_cpu_s": [s[2] for s in sensor.samples],
        },
    }


def run_traced(ctx: Context, workload: str, seconds: float, checker: Checker):
    """Traces the workload TRACED_RUNS times, each followed by a plain run,
    and fills the rest of the seconds with plain runs.  Returns the per-layer
    samples and the work counts that differ between the traced runs."""
    traced: list[dict] = []
    plain: list[dict] = []
    start = time.monotonic()
    for run_id in range(TRACED_RUNS):
        rep = traced_rep(ctx, workload, run_id)
        checker.check(rep)
        traced.append(rep)
        rep = untraced_rep(ctx, workload)
        checker.check(rep)
        plain.append(rep)
    while _time_left(ctx, start, seconds, plain):
        rep = untraced_rep(ctx, workload)
        checker.check(rep)
        plain.append(rep)
    docs = [rep["spans"] for rep in traced]
    if any(doc is None for doc in docs):
        return {}, ["spans missing"]
    metrics, mismatched = tracer.layer_metrics(docs)
    # Each traced run is paired with the plain run right after it, so that
    # both see about the same machine speed.
    overhead = statistics.median(t["wall"] - p["wall"] for t, p in zip(traced, plain))
    samples = {name: [value] for name, value in metrics.items()}
    samples["trace.overhead_s"] = [overhead]
    return samples, mismatched


def provenance(ctx: Context, args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(ctx.root),
        "src_sha256": _tree_digest(ctx.src),
    }


def _git_commit(root: str) -> str | None:
    """HEAD of the repository whose top level is root, if there is one."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(root):
        return out[1]
    return None


def _tree_digest(src: str) -> str:
    """Digest of the .py files under src, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of tpsgeo.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tpsgeo", "cli.py")):
        print("run.py: no src/tpsgeo here; run it from the root of the repository",
              file=sys.stderr)
        return 2

    ctx = Context(root, args.seed)
    checker = Checker(ctx, args.workload)
    control_ok = checker.negative_control()
    if args.trace:
        samples, mismatched = run_traced(ctx, args.workload, args.seconds, checker)
        table = PER_LAYER
    else:
        samples, mismatched = run_untraced(ctx, args.workload, args.seconds, checker), []
        table = END_TO_END

    correct = control_ok and not mismatched and checker.failed == 0 and all(
        name in samples for name, _ in table
    )
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in table
        if name in samples
    }
    info = provenance(ctx, args)
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        print(f"per-layer metrics: medians of {TRACED_RUNS} traced runs;"
              " the analyze percentiles pool the samples of both")
    for name, unit in table:
        vals = samples.get(name, [])
        line = f"{name:44s} {statistics.median(vals) if vals else float('nan'):14.6g} {unit:6s}"
        if len(vals) > 1:
            line += f" (median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})"
        print(line)
    raw = samples.get("raw")
    if raw:
        wall, cpu = (statistics.median(raw[k]) for k in ("sensor_wall_s", "sensor_cpu_s"))
        print(f"times above are scaled to a sensor kernel of {SENSOR_REF_S * 1e3:g} ms;"
              f" it took {wall * 1e3:.6g} ms wall and {cpu * 1e3:.6g} ms CPU"
              f" (medians of {len(raw['sensor_wall_s'])}); unscaled medians:"
              + "".join(f" {name} {statistics.median(raw[name]):.6g} s"
                        for name in ("setup_s", "wall_s", "cpu_s")))
    failed_ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'failed_ratio':44s} {failed_ratio:14.6g} {'ratio':6s}"
          f" ({checker.failed} of {checker.attempted} operations failed)")
    if not control_ok:
        print("negative control: the oracle did not flag a flipped status")
    if mismatched:
        print("work counts differ between traced runs: " + ", ".join(mismatched))

    result = {
        "correct": bool(correct),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ctx.out, name), "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "samples": samples, "failed_ratio": failed_ratio,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
