"""Command line front end: curvature and isometry suites, potential-surface
analysis, and the aggregated verification run, all emitted as report
envelopes (JSON by default, markdown on request)."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import sys
import threading
import time

import numpy as np

from . import legendre, suites
from .jets import DomainError
from .report import ReportEnvelope, Result, check


# Largest --grid accepted; a larger one is refused before any axis is built.
MAX_GRID_POINTS = 10**6

# Most points analysed in one batch, so memory stays bounded on any grid.
CHUNK = 4096

# Largest isometry ansatz accepted, in unknowns; it bounds --n and --degree
# of both exact commands, which _admit checks before any work.
MAX_ANSATZ_UNKNOWNS = 2 * 10**4


class UsageError(Exception):
    pass


def _emit(env: ReportEnvelope, args) -> None:
    text = env.to_markdown() if args.markdown else env.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}")
    else:
        print(text)


def _admit(space: str, n: int, degree: int | None = None) -> None:
    """Refuse curvature (no degree) or killing before any suite builds
    anything, unless n >= 1, degree >= 1, and the isometry ansatz on the
    chart, of dim = 2n + 1 (tps) or 2n + 2 (sympl), has at most
    MAX_ANSATZ_UNKNOWNS unknowns, dim * C(dim + k, k), at k = 2 and at
    k = degree.  The floor of 2 bounds the catalog and curvature claims,
    which grow with n whatever the degree; once k = 2 passes, dim is small
    and math.comb stays cheap for any degree."""
    if n < 1:
        raise UsageError("--n must be >= 1")
    if degree is not None and degree < 1:
        raise UsageError("--degree must be >= 1")
    dim = 2 * n + (1 if space == "tps" else 2)
    for k in (2, degree or 2):
        unknowns = dim * math.comb(dim + k, k)
        if unknowns > MAX_ANSATZ_UNKNOWNS:
            asked = f"--n {n}" if degree is None else f"--n {n} --degree {degree}"
            raise UsageError(
                f"{asked} needs {unknowns} ansatz unknowns at degree {k} on the {space} "
                f"chart; at most {MAX_ANSATZ_UNKNOWNS} are allowed"
            )


def cmd_curvature(args) -> ReportEnvelope:
    _admit(args.space, args.n)
    env = ReportEnvelope("curvature", {"space": args.space, "n": args.n})
    env.extend(suites.suite_curvature(args.space, args.n))
    return env


def cmd_killing(args) -> ReportEnvelope:
    _admit(args.space, args.n, args.degree)
    env = ReportEnvelope(
        "killing", {"space": args.space, "n": args.n, "degree": args.degree}
    )
    env.extend(suites.suite_killing(args.space, args.n, args.degree))
    return env


def _load_model(path: str):
    # ValueError covers bad JSON and bytes that are not UTF-8; RecursionError
    # is JSON nested deeper than the interpreter's recursion limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read model file: {exc}")
    if not isinstance(spec, dict):
        raise UsageError("model file must hold a JSON object")
    try:
        return spec, legendre.model_from_spec(spec)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise UsageError(f"bad model description: {exc}")


def _load_points(args, nvars: int) -> list[list[float]]:
    if args.points_file:
        try:
            with open(args.points_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read points file: {exc}")
        if not isinstance(data, list):
            raise UsageError("points file must hold a JSON list of points")
        if not data:
            raise UsageError("points file holds no points")
        # a string row would iterate as its characters, and a bool is an int
        if not all(type(row) is list and all(type(v) in (int, float) for v in row) for row in data):
            raise UsageError("each point must be a JSON array of numbers")
        if any(len(row) != nvars for row in data):
            raise UsageError(f"each point needs {nvars} coordinates")
        try:
            return [[float(v) for v in row] for row in data]
        except OverflowError as exc:
            raise UsageError(f"bad point coordinate: {exc}")
    specs = []
    for part in args.grid.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError("grid axes look like start:stop:count")
        try:
            start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise UsageError(f"bad grid axis {part!r}: {exc}")
        if count < 1:
            raise UsageError("grid axis count must be >= 1")
        # an infinite or NaN bound makes the width non-finite as well
        if not math.isfinite(stop - start):
            raise UsageError(f"bad grid axis {part!r}: start, stop and stop - start must be finite")
        specs.append((start, stop, count))
    if len(specs) != nvars:
        raise UsageError(f"model has {nvars} variables; grid has {len(specs)} axes")
    total = math.prod(count for _, _, count in specs)
    if total > MAX_GRID_POINTS:
        raise UsageError(f"grid has {total} points; at most {MAX_GRID_POINTS} are allowed")
    axes = [np.linspace(start, stop, count) for start, stop, count in specs]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [list(map(float, row)) for row in np.stack([m.ravel() for m in mesh], axis=1)]


def _analyze(model, points: list):
    """legendre.analyze for every point, in order and in batches of at most
    CHUNK; a point that raises DomainError gives the error instead.  Points
    the model does not admit are set aside before each batch; if the batch
    raises all the same (a jet factor beyond the float range), each of its
    points is analysed alone, as a batch of one."""
    for start in range(0, len(points), CHUNK):
        part = points[start : start + CHUNK]
        admitted = model.admits(part).tolist()
        batch = [pt for pt, ok in zip(part, admitted) if ok]
        try:
            reps = iter(legendre.analyze(model, batch) if batch else ())
        except DomainError:
            admitted = [False] * len(part)
        for pt, ok in zip(part, admitted):
            if ok:
                yield next(reps)
                continue
            try:
                yield legendre.analyze(model, [pt])[0]
            except DomainError as exc:
                yield exc


def cmd_potential(args) -> ReportEnvelope:
    if bool(args.points_file) == bool(args.grid):
        raise UsageError("give exactly one of --points-file or --grid")
    spec, model = _load_model(args.model_file)
    points = _load_points(args, model.nvars)
    env = ReportEnvelope(
        "potential",
        {
            "model_file": args.model_file,
            "points_file": args.points_file,
            "grid": args.grid,
            "model": model.name,
            "convention": "canonical",
            "parameters": model.parameters,
            "point_count": len(points),
        },
    )

    counts = {"stable": 0, "unstable": 0, "marginal": 0, "degenerate_metric": 0}
    indefinite = 0
    worst_theta = 0.0
    worst_ii = None
    analyzed = []
    for pt, rep in zip(points, _analyze(model, points)):
        label = "(" + ", ".join(f"{v:g}" for v in pt) + ")"
        if isinstance(rep, DomainError):
            env.add(
                Result(
                    f"surface data at {label}",
                    "surface-geometry",
                    "fail",
                    witness={"point": pt, "error": str(rep)},
                )
            )
            continue
        analyzed.append(pt)
        counts[rep["classification"]] += 1
        if rep["definiteness"] == "indefinite":
            indefinite += 1
        worst_theta = max(worst_theta, rep["legendre_residual"])
        witness = {
            "classification": rep["classification"],
            "definiteness": rep["definiteness"],
            "legendre_residual": rep["legendre_residual"],
            "block_agreement": rep["block_agreement"],
        }
        if rep["degenerate"]:
            counts["degenerate_metric"] += 1
            witness["degenerate_metric"] = True
        else:
            witness["ii_norm"] = rep["ii_norm"]
            worst_ii = rep["ii_norm"] if worst_ii is None else max(worst_ii, rep["ii_norm"])
        env.add(
            check(
                f"surface data at {label}",
                "surface-geometry",
                rep["legendre_residual"] < legendre.CONTACT_TOL
                and rep["block_agreement"] < legendre.BLOCK_TOL,
                witness=witness,
                exact=False,
            )
        )

    if analyzed:
        env.add(
            check(
                "contact form vanishes on the surface at every analyzed point",
                "surface-geometry",
                worst_theta < legendre.CONTACT_TOL,
                witness={"worst_residual": worst_theta, "points": len(analyzed)},
                exact=False,
            )
        )
        env.add(
            Result(
                "stability classification summary",
                "surface-geometry",
                "numeric-pass",
                witness={**counts, "indefinite": indefinite},
            )
        )
    if spec.get("model") == "quadratic" and worst_ii is not None:
        env.add(
            check(
                "quadratic potential is totally geodesic (vanishing curvature coefficients)",
                "surface-geometry",
                worst_ii < legendre.GEODESIC_TOL,
                witness={"worst_ii_norm": worst_ii},
                exact=False,
            )
        )
    if model.homogeneous_degree is not None and analyzed:
        # only points inside the domain: the others already failed above
        hom = legendre.homogeneity_check(model, analyzed[:25])
        witness = {k: v for k, v in hom.items() if k not in ("status", "passed")}
        env.add(
            check(
                f"degree-{model.homogeneous_degree} scaling law holds",
                "surface-geometry",
                hom["passed"],
                witness=witness,
                exact=False,
            )
        )
    return env


def cmd_verify_all(args) -> ReportEnvelope:
    if args.n_max is not None and args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    names = list(suites.SUITES)
    if args.only is not None:
        wanted = [s for chunk in args.only for s in map(str.strip, chunk.split(",")) if s]
        if not wanted:
            # no suite would run, and the negative control alone would pass
            raise UsageError(f"--only names no suite; choices: {', '.join(names)}")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            raise UsageError(f"unknown suite(s): {', '.join(unknown)}; choices: {', '.join(names)}")
        names = [n for n in names if n in set(wanted)]
    env = ReportEnvelope(
        "verify-all", {"suites": names, "n_max": args.n_max, "tamper": bool(args.tamper)}
    )
    if args.tamper:
        env.extend(suites.tamper_suite())
        return env

    env.extend(_verify(names, args.n_max))
    return env


# verify-all runs these suites in one forked worker process while the parent
# runs the others and the negative control.  What the split buys is memory:
# only the worker pages in LAPACK, for the legendre suite, so the parent peaks
# at 32.5 MB instead of 34.7 MB in one process (medians of 31 verify-all
# children on 2 vCPUs), while it saves no wall or CPU time there.
WORKER_SUITES = ("tps", "heisenberg", "legendre")


def _verify(names: list[str], n_max) -> list[Result]:
    """The results of the named suites, in names order, then the negative
    control.  When both halves have a suite, the worker half runs in a
    forked child that sends its results, or the exception or interrupt it
    raised, back through a pipe; the parent re-raises that exception and
    always reaps the child."""
    worker = [name for name in names if name in WORKER_SUITES]
    # The halves overlap only on a second usable CPU, and a fork copies only
    # the calling thread, so the locks and state of any other one would
    # reach the child half-made.
    split = (
        0 < len(worker) < len(names)
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )
    if not split:
        results = [r for name in names for r in suites.SUITES[name](n_max)]
        return results + [suites.negative_control_result()]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's stack, and leaves by
        # os._exit so that no buffer or exit handler of the parent runs twice.
        code = 1
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps([suites.SUITES[name](n_max) for name in worker])
            except (Exception, KeyboardInterrupt) as exc:
                payload = pickle.dumps(exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        # Closing the read end before the wait lets a child blocked on a full
        # pipe fail its write and exit when this half raises.
        with os.fdopen(read_end, "rb") as pipe:
            results = {name: suites.SUITES[name](n_max) for name in names if name not in worker}
            control = suites.negative_control_result()
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"verify-all worker ended with wait status {status} without a result")
    sent = pickle.loads(payload)
    if isinstance(sent, BaseException):
        raise sent
    results.update(zip(worker, sent))
    return [r for name in names for r in results[name]] + [control]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpsgeo",
        description="Exact and numeric checks for the contact phase-space geometry toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument(
            "--markdown", action="store_true", help="emit a markdown table instead of JSON"
        )

    p_curv = sub.add_parser("curvature", help="curvature tables for one metric")
    p_curv.add_argument("--space", choices=("tps", "sympl"), required=True)
    p_curv.add_argument("--n", type=int, required=True, help="number of conjugate pairs")
    common(p_curv)
    p_curv.set_defaults(func=cmd_curvature)

    p_kill = sub.add_parser("killing", help="isometry algebra solve and bracket table")
    p_kill.add_argument("--space", choices=("tps", "sympl"), required=True)
    p_kill.add_argument("--n", type=int, required=True)
    p_kill.add_argument("--degree", type=int, default=2, help="polynomial ansatz degree")
    common(p_kill)
    p_kill.set_defaults(func=cmd_killing)

    p_pot = sub.add_parser("potential", help="surface analysis for a potential model")
    p_pot.add_argument("--model-file", required=True, help="JSON model description")
    p_pot.add_argument("--points-file", help="JSON list of base points")
    p_pot.add_argument("--grid", help="per-axis start:stop:count, comma separated")
    common(p_pot)
    p_pot.set_defaults(func=cmd_potential)

    p_all = sub.add_parser("verify-all", help="run every suite and the negative control")
    p_all.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="SUITE[,SUITE]",
        help="restrict to the named suites",
    )
    p_all.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="cap the number of conjugate pairs used by each suite",
    )
    p_all.add_argument(
        "--tamper",
        action="store_true",
        help="corrupt one metric entry and show the induced failures",
    )
    common(p_all)
    p_all.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        env = args.func(args)
        env.timing = {"seconds": round(time.perf_counter() - t0, 6)}
        _emit(env, args)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"tpsgeo {args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a command that SIGINT ended
        print(f"tpsgeo {args.command}: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        # an input too large for this host, like one past the ansatz cap
        print(f"tpsgeo {args.command}: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`).  What is left of the
        # output goes to devnull, so the flush at exit cannot fail again
        # (Python docs, signal module, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return env.exit_code


def run() -> int:
    """Process entry: main() on sys.argv, then gc.freeze(), which moves every
    tracked object to the permanent generation so that the collections run at
    interpreter exit have almost nothing to walk.  Exit handlers, the stdio
    flush and module teardown still run.  In-process callers of main() keep
    normal collection."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
