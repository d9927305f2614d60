"""Command line front end: curvature and isometry suites, potential-surface
analysis, and the aggregated verification run, all emitted as report
envelopes (JSON by default, markdown on request)."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import legendre, suites
from .jets import DomainError
from .report import ReportEnvelope, Result, check


# Largest --grid accepted; a larger one is refused before any axis is built.
MAX_GRID_POINTS = 10**6

# Most points analysed in one batch, so memory stays bounded on any grid.
CHUNK = 4096


class UsageError(Exception):
    pass


def _emit(env: ReportEnvelope, args) -> None:
    text = env.to_markdown() if args.markdown else env.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _finish(env: ReportEnvelope, args, t0: float) -> int:
    env.timing = {"seconds": round(time.perf_counter() - t0, 6)}
    _emit(env, args)
    return env.exit_code


def cmd_curvature(args) -> int:
    t0 = time.perf_counter()
    limit = 4 if args.space == "tps" else 3
    if not 1 <= args.n <= limit:
        raise UsageError(f"--n must be in 1..{limit} for --space {args.space}")
    env = ReportEnvelope("curvature", {"space": args.space, "n": args.n})
    env.extend(suites.suite_curvature(args.space, args.n))
    return _finish(env, args, t0)


def cmd_killing(args) -> int:
    t0 = time.perf_counter()
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    if not 1 <= args.n <= 3:
        raise UsageError("--n must be in 1..3")
    env = ReportEnvelope(
        "killing", {"space": args.space, "n": args.n, "degree": args.degree}
    )
    env.extend(suites.suite_killing(args.space, args.n, args.degree))
    return _finish(env, args, t0)


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
            pts = [[float(v) for v in row] for row in data]
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            raise UsageError(f"cannot read points file: {exc}")
        if any(len(p) != nvars for p in pts):
            raise UsageError(f"each point needs {nvars} coordinates")
        return pts
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
    points is analysed alone, through the same code."""
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
                yield legendre.analyze(model, pt)
            except DomainError as exc:
                yield exc


def cmd_potential(args) -> int:
    t0 = time.perf_counter()
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
            "convention": model.convention,
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
        if rep.get("degenerate"):
            counts["degenerate_metric"] += 1
            witness["degenerate_metric"] = True
        elif "ii_norm" in rep:
            witness["ii_norm"] = rep["ii_norm"]
            worst_ii = rep["ii_norm"] if worst_ii is None else max(worst_ii, rep["ii_norm"])
        env.add(
            check(
                f"surface data at {label}",
                "surface-geometry",
                rep["legendre_residual"] < 1e-12 and rep["block_agreement"] < 1e-10,
                witness=witness,
                exact=False,
            )
        )

    if analyzed:
        env.add(
            check(
                "contact form vanishes on the surface at every analyzed point",
                "surface-geometry",
                worst_theta < 1e-12,
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
                worst_ii < 1e-12,
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
    return _finish(env, args, t0)


def cmd_verify_all(args) -> int:
    t0 = time.perf_counter()
    if args.n_max is not None and args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    names = list(suites.SUITES)
    if args.only:
        wanted = [s for chunk in args.only for s in chunk.split(",") if s]
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            raise UsageError(f"unknown suite(s): {', '.join(unknown)}; choices: {', '.join(names)}")
        names = [n for n in names if n in set(wanted)]
    env = ReportEnvelope(
        "verify-all", {"suites": names, "n_max": args.n_max, "tamper": bool(args.tamper)}
    )
    if args.tamper:
        env.extend(suites.tamper_suite())
        return _finish(env, args, t0)

    for name in names:
        env.extend(suites.SUITES[name](args.n_max))
    env.add(suites.negative_control_result())
    return _finish(env, args, t0)


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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"tpsgeo {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
