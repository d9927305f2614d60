"""Command line surface: envelope schema, witnesses, exit codes, filters,
tamper mode, and output determinism."""

import collections
import contextlib
import gc
import io
import json
import math
import os
import pkgutil
import re
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tpsgeo
from tpsgeo import cli, killing, legendre, poly, suites, sympl, tps
from tpsgeo.report import STATUSES, ReportEnvelope, Result, check


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def point_records(doc):
    return [r for r in doc["results"] if r["claim"].startswith("surface data at ")]


QUADRATIC = {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}}
NOT_NUMBERS = "must be a number or an array of numbers"


def vdw(**parameters):
    return {"model": "van_der_waals", "parameters": parameters}


VDW_LITERAL = {
    "model": "van_der_waals",
    "parameters": {"a": 1.0, "b": 1.0, "r": 1.0, "c_v": 1.5, "positive_exponent": True},
}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this tpsgeo."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tpsgeo.__file__))}


def modules_after_importing_the_cli() -> set[str]:
    """Every module loaded by `import tpsgeo.cli` in a fresh interpreter."""
    probe = "import json, sys, tpsgeo.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_importing_the_cli_loads_every_module():
    # the benchmark tracer wraps functions only in the modules that
    # `import tpsgeo.cli` has loaded; a module imported lazily would go
    # untraced without any error
    package_dir = os.path.dirname(tpsgeo.__file__)
    expected = {f"tpsgeo.{m.name}" for m in pkgutil.iter_modules([package_dir])} | {"tpsgeo"}
    loaded = modules_after_importing_the_cli()
    assert {m for m in loaded if m.split(".")[0] == "tpsgeo"} == expected


def test_importing_the_cli_loads_no_process_pool():
    # verify-all forks its worker with os.fork alone: every command pays for
    # what `import tpsgeo.cli` loads, and these packages cost start-up time
    loaded = modules_after_importing_the_cli()
    assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}
    assert "concurrent.futures" not in loaded


# ----------------------------------------------------------------------
# the process entries: run() freezes the collector once the report is out

def test_importing_the_cli_freezes_nothing():
    # a freeze at import would change what `import tpsgeo.cli` costs, which
    # the benchmark times on its own
    probe = "import gc, tpsgeo.cli; print(gc.get_freeze_count())"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["curvature", "--space", "tps", "--n", "1"]) == 0
    assert gc.get_freeze_count() == before


@pytest.fixture
def unfreeze():
    """Return every object a test froze to the collected generations."""
    yield
    gc.unfreeze()


def test_run_returns_the_code_of_main_and_freezes(capsys, monkeypatch, unfreeze):
    before = gc.get_freeze_count()
    monkeypatch.setattr(sys, "argv", ["tpsgeo", "verify-all", "--tamper"])
    assert cli.run() == 1
    assert gc.get_freeze_count() > before
    assert '"command": "verify-all"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [(["verify-all", "--only", "tps"], 0), (["verify-all", "--tamper"], 1), (["verify-all", "--n-max", "0"], 2)],
)
def test_the_module_entry_keeps_the_exit_code_and_the_report(capsys, argv, code):
    proc = subprocess.run([sys.executable, "-m", "tpsgeo.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert cli.main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert proc.stdout.split('"timing"')[0] == captured.out.split('"timing"')[0]
    assert proc.stderr == captured.err


def test_the_installed_script_enters_through_run():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert 'tpsgeo = "tpsgeo.cli:run"' in text.splitlines()
    else:
        assert tomllib.loads(text)["project"]["scripts"]["tpsgeo"] == "tpsgeo.cli:run"


# Prints OPENBLAS_NUM_THREADS and the thread count after `import tpsgeo.cli`,
# runs the command line given, then prints the thread count again.
THREADS_PROBE = """
import os, sys
def threads():
    with open("/proc/self/status") as f:
        return next(line.split()[1] for line in f if line.startswith("Threads:"))
import tpsgeo.cli
print(os.environ["OPENBLAS_NUM_THREADS"], threads(), file=sys.stderr)
code = tpsgeo.cli.main(sys.argv[1:])
print(threads(), file=sys.stderr)
sys.exit(code)
"""


def threads_probe(tmp_path, blas_threads):
    """(OPENBLAS_NUM_THREADS seen, threads after import, threads after the
    run, report up to its timing block) of a potential run on a small grid
    in a fresh interpreter; blas_threads None leaves the variable unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tpsgeo.__file__))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    argv = ["potential", "--model-file", write_model(tmp_path, VDW_LITERAL), "--grid", "0.5:2:4,1.5:3:4"]
    out = subprocess.run([sys.executable, "-c", THREADS_PROBE] + argv, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    (blas, after_import), (after_run,) = (line.split() for line in out.stderr.splitlines())
    return blas, after_import, after_run, out.stdout.split('"timing"')[0]


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="thread counts are read from /proc/self/status")


@needs_proc
@pytest.mark.parametrize("blas_threads", [None, ""])
def test_tpsgeo_runs_on_one_thread(tmp_path, blas_threads):
    # tpsgeo caps the OpenBLAS pool before numpy loads, so no idle BLAS
    # worker is started, and the potential run starts no thread either
    blas, after_import, after_run, _ = threads_probe(tmp_path, blas_threads)
    assert (blas, after_import, after_run) == ("1", "1", "1")


@needs_proc
def test_a_user_set_blas_thread_count_wins_and_changes_no_report(tmp_path):
    blas, _, _, report = threads_probe(tmp_path, "2")
    assert blas == "2"
    assert report == threads_probe(tmp_path, None)[3]


class TestEnvelope:
    """Shape and content of the JSON report."""

    def test_schema_and_key_order(self, capsys):
        code, out, _ = run_cli(capsys, ["curvature", "--space", "sympl", "--n", "1"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["tool_version", "command", "inputs", "results", "timing"]
        assert doc["command"] == "curvature"
        assert doc["inputs"] == {"space": "sympl", "n": 1}
        assert isinstance(doc["timing"]["seconds"], float)
        for r in doc["results"]:
            assert list(r) == ["claim", "ref", "status", "witness"]
            assert r["status"] in STATUSES

    def test_einstein_factor_witness_is_a_rational_string(self, capsys):
        _, out, _ = run_cli(capsys, ["curvature", "--space", "sympl", "--n", "1"])
        doc = json.loads(out)
        by_claim = {r["claim"]: r for r in doc["results"]}
        row = by_claim["lifted metric is Einstein: Ric = ((n+2)/2) G-tilde"]
        assert row["status"] == "exact-pass"
        assert row["witness"]["einstein_factor"] == "3/2"

    def test_scalar_witness_n2(self, capsys):
        _, out, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "2"])
        doc = json.loads(out)
        row = next(r for r in doc["results"] if r["claim"] == "scalar curvature equals n/2")
        assert row["witness"] == {"scalar": "1", "expected": "1"}

    def test_failures_always_carry_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--tamper"])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert fails
        assert all(r["witness"] is not None for r in fails)

    def test_deterministic_apart_from_timing(self, capsys):
        _, out1, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1"])
        _, out2, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1"])
        a, b = json.loads(out1), json.loads(out2)
        a["timing"] = b["timing"] = None
        assert a == b

    def test_markdown_rendering(self, capsys):
        code, out, _ = run_cli(capsys, ["curvature", "--space", "tps", "--n", "1", "--markdown"])
        assert code == 0
        assert out.startswith("# curvature")
        assert "| claim | ref | status | witness |" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["curvature", "--space", "tps", "--n", "1", "--out", str(dest)]
        )
        assert code == 0 and out == ""
        doc = json.loads(dest.read_text())
        assert doc["command"] == "curvature"


MODELS_DIR = os.path.join(ROOT, "models")
MODEL_FILES = sorted(f for f in os.listdir(MODELS_DIR) if f.endswith(".json"))
README_GRID = "0.5:2:10,1.5:3:10"

# the exact types a report's inputs and witnesses are built from; the
# report writer converts nothing else (JSON and markdown alike)
PLAIN_TYPES = (dict, list, tuple, str, int, float, bool, type(None), Fraction)


def foreign_values(value, path="$"):
    """(path, type name) of each value inside value whose exact type is not
    one of PLAIN_TYPES."""
    if type(value) not in PLAIN_TYPES:
        return [(path, type(value).__name__)]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return []
    return [bad for key, v in items for bad in foreign_values(v, f"{path}[{key!r}]")]


def envelope(argv):
    """The report envelope of a command, before it is written."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all"],
        ["verify-all", "--tamper"],
        ["verify-all", "--n-max", "1"],
        ["curvature", "--space", "tps", "--n", "4"],
        ["killing", "--space", "sympl", "--n", "3"],
        *[["potential", "--model-file", os.path.join(MODELS_DIR, f), "--grid", README_GRID]
          for f in MODEL_FILES],
        ["potential", "--model-file", "MIXED", "--grid", README_GRID],
        ["potential", "--model-file", "SINGULAR", "--points-file", "EXTREME"],
        ["potential", "--model-file", os.path.join(MODELS_DIR, "homogeneous.json"),
         "--points-file", "EXTREME"],
    ],
)
def test_reports_hold_only_plain_values(tmp_path, argv):
    # degenerate, overflowing, non-finite and out-of-domain points too
    extreme = [[1.0, 2.0], [1e308, 2.0], [float("nan"), 1.0], [1e-320, 3.0], [0.5, 0.5]]
    files = {
        "MIXED": write_model(tmp_path, {**QUADRATIC, "partition": [1]}),
        "SINGULAR": write_model(
            tmp_path, {"model": "quadratic", "parameters": {"q": [[1.0, 0.0], [0.0, 0.0]]}}, "q.json"
        ),
        "EXTREME": write_model(tmp_path, extreme, "points.json"),
    }
    env = envelope([files.get(a, a) for a in argv])
    assert foreign_values(env.inputs) == []
    assert [(r.claim, bad) for r in env.results for bad in foreign_values(r.witness)] == []


def oracle_plain(value):
    """The value as plain JSON data: a Fraction becomes its string and a
    non-finite float its name; TypeError on any other leaf type.  This was
    the report's copy step before the writer; the writer must print what
    json.dumps prints for this copy."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(value, "NaN")
    if isinstance(value, dict):
        return {str(k): oracle_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"not a plain report value: {value!r}")


def oracle_json(env):
    """The JSON report as the envelope printed it before the writer."""
    doc = {
        "tool_version": env.tool_version,
        "command": env.command,
        "inputs": oracle_plain(env.inputs),
        "results": [
            {"claim": r.claim, "ref": r.ref, "status": r.status, "witness": oracle_plain(r.witness)}
            for r in env.results
        ],
        "timing": env.timing,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def oracle_markdown(env):
    """The markdown report as the envelope printed it before the writer."""
    lines = [
        f"# {env.command}",
        "",
        f"tool version {env.tool_version}; "
        + ", ".join(f"{k}: {v}" for k, v in sorted(env.counts().items())),
        "",
        "| claim | ref | status | witness |",
        "| --- | --- | --- | --- |",
    ]
    for r in env.results:
        wit = json.dumps(oracle_plain(r.witness)) if r.witness is not None else ""
        wit = wit.replace("|", "\\|")
        lines.append(f"| {r.claim} | {r.ref} | {r.status} | {wit} |")
    lines.append("")
    return "\n".join(lines)


@pytest.mark.parametrize("markdown", [False, True], ids=["json", "markdown"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all"],
        ["verify-all", "--tamper"],
        ["killing", "--space", "sympl", "--n", "3"],
        ["curvature", "--space", "tps", "--n", "4"],
        ["potential", "--model-file", os.path.join(MODELS_DIR, "homogeneous.json"),
         "--points-file", "EXTREME"],
        ["potential", "--model-file", os.path.join(MODELS_DIR, "van_der_waals.json"),
         "--points-file", "EXTREME"],
    ],
)
def test_shipped_reports_equal_the_oracle_byte_for_byte(tmp_path, monkeypatch, capsys, argv, markdown):
    extreme = [[1.0, 2.0], [1e308, 2.0], [float("nan"), 1.0], [1e-320, 3.0], [0.5, 0.5]]
    points = write_model(tmp_path, extreme, "points.json")
    argv = [points if a == "EXTREME" else a for a in argv] + ["--markdown"] * markdown
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda env, args: emit(env, args) or emitted.append(env))
    _, out, _ = run_cli(capsys, argv)
    (env,) = emitted
    assert out == (oracle_markdown(env) if markdown else oracle_json(env)) + "\n"


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan)
# lone surrogates and control characters too
report_texts = st.text(st.characters(exclude_categories=()), max_size=6)
report_keys = st.one_of(report_texts, st.integers(), st.floats(), st.booleans(), st.none())
report_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.floats(),
        st.sampled_from(SPECIAL_FLOATS),
        st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)).map(np.float64),
        st.fractions(),
        report_texts,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(report_keys, children, max_size=4),
        st.dictionaries(report_keys, children, max_size=4).map(collections.OrderedDict),
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(
    command=report_texts,
    inputs=st.dictionaries(report_keys, report_values, max_size=4),
    records=st.lists(
        st.tuples(report_texts, report_texts, st.sampled_from(STATUSES), report_values), max_size=4
    ),
    seconds=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
)
# keys that print alike: the later value takes the earlier key's place
@example(
    command="c",
    inputs={1: "a", None: [], "1": "b", "None": ()},
    records=[("c", "r", "fail", {0.5: {2: 1, "x": 0, "2": -0.0}, "0.5": [{}]})],
    seconds=0.25,
)
def test_report_writer_prints_what_json_dumps_prints(command, inputs, records, seconds):
    env = ReportEnvelope(command, inputs)
    for claim, ref, status, witness in records:
        if status == "fail" and witness is None:
            witness = "check returned false"
        env.add(Result(claim, ref, status, witness))
    env.timing = {"seconds": seconds}
    assert env.to_json() == oracle_json(env)
    assert env.to_markdown() == oracle_markdown(env)


def test_report_writer_rejects_a_value_it_does_not_know(tmp_path, monkeypatch):
    # an unconverted numpy verdict or an object would otherwise print as
    # its repr
    env = ReportEnvelope("x")
    env.add(check("c", "plumbing", True, {"ok": [True, Fraction(1, 2), 3, float("inf")]}))
    assert json.loads(env.to_json())["results"][0]["witness"] == {"ok": [True, "1/2", 3, "Infinity"]}
    dest = tmp_path / "report.json"
    dest.write_bytes(b"an earlier report\n")
    for leaf in (np.True_, np.int64(3), object(), set(), b""):
        held = ReportEnvelope("x", {"inputs": [leaf]})
        witnessed = ReportEnvelope("x")
        witnessed.add(check("c", "plumbing", False, {"witness": [leaf]}))
        for write in (held.to_json, witnessed.to_json, witnessed.to_markdown):
            with pytest.raises(TypeError, match="not a plain report value"):
                write()
        # the report is encoded whole before the file is opened, so an
        # earlier report is left as it was
        monkeypatch.setattr(
            suites, "suite_curvature", lambda space, n, leaf=leaf: [check("c", "plumbing", True, [leaf])]
        )
        for fmt in ([], ["--markdown"]):
            with pytest.raises(TypeError, match="not a plain report value"):
                cli.main(["curvature", "--space", "tps", "--n", "1", "--out", str(dest), *fmt])
            assert dest.read_bytes() == b"an earlier report\n"


class TestExitCodes:
    """0 all passed, 1 any failure, 2 usage problems."""

    def test_bad_n_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["curvature", "--space", "tps", "--n", "0"])
        assert code == 2 and "--n" in err

    def test_unwritable_out_is_usage(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, ["curvature", "--space", "tps", "--n", "1", "--out", str(dest)]
        )
        assert code == 2 and out == ""
        assert err.startswith("tpsgeo curvature: cannot write report") and err.count("\n") == 1

    def test_closed_pipe_keeps_the_exit_code(self, tmp_path):
        # the reader takes the first 100 bytes of a report far larger than
        # a pipe buffer and then closes the pipe, as `| head -c 100` does
        model = write_model(tmp_path, VDW_LITERAL)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tpsgeo.__file__))}
        argv = ["potential", "--model-file", model, "--grid", "0.5:2:30,1.5:3:30"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "tpsgeo.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0 and err == b""
        assert head.startswith(b"{")

    def test_bad_space_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curvature", "--space", "nope", "--n", "1"])
        assert exc.value.code == 2

    def test_bad_degree_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["killing", "--space", "tps", "--n", "1", "--degree", "0"])
        assert code == 2 and "--degree" in err

    def test_a_degree_past_the_ansatz_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        # 3 * C(1003, 3), about 5e8 unknowns; the suite is never entered
        def unreachable(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli.suites, "suite_killing", unreachable)
        argv = ["killing", "--space", "tps", "--n", "1", "--degree", "1000"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "--degree" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            # the largest n at the default degree, and the first past it
            (["curvature", "--space", "tps", "--n", "16"], 0),
            (["killing", "--space", "tps", "--n", "16"], 0),
            (["curvature", "--space", "sympl", "--n", "15"], 0),
            (["killing", "--space", "sympl", "--n", "15"], 0),
            (["curvature", "--space", "tps", "--n", "17"], 2),
            (["killing", "--space", "tps", "--n", "17"], 2),
            (["curvature", "--space", "sympl", "--n", "16"], 2),
            (["killing", "--space", "sympl", "--n", "16"], 2),
            # degree 1 counts as 2, so it admits no larger n
            (["killing", "--space", "tps", "--n", "17", "--degree", "1"], 2),
            (["curvature", "--space", "tps", "--n", "1000000000000000000"], 2),
            (["killing", "--space", "sympl", "--n", "1000000000000000000", "--degree", "1000000000000000000"], 2),
            (["killing", "--space", "tps", "--n", "8", "--degree", "3"], 0),
            (["killing", "--space", "tps", "--n", "9", "--degree", "3"], 2),
        ],
    )
    def test_one_ansatz_cap_admits_both_commands_before_any_work(self, capsys, monkeypatch, argv, code):
        ran = []
        for name in ("suite_curvature", "suite_killing"):
            monkeypatch.setattr(cli.suites, name, lambda *args: ran.append(args) or [])
        got, out, err = run_cli(capsys, argv)
        assert got == code and bool(ran) == (code == 0)
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert "ansatz unknowns" in err and f"at most {cli.MAX_ANSATZ_UNKNOWNS} are allowed" in err

    @pytest.mark.parametrize(
        "space,n,degree,unknowns", [("tps", 3, 6, 12012), ("tps", 2, 8, 6435), ("sympl", 3, 5, 10296)]
    )
    def test_the_ansatz_cap_admits_solves_of_about_ten_seconds(
        self, capsys, monkeypatch, space, n, degree, unknowns
    ):
        # the cap counts the unknowns as killing.ansatz_basis builds them;
        # the solve itself is left out here
        chart = (tps.tps_chart if space == "tps" else sympl.sympl_chart)(n)
        assert len(killing.ansatz_basis(chart, degree)) == unknowns <= cli.MAX_ANSATZ_UNKNOWNS
        monkeypatch.setattr(cli.suites, "suite_killing", lambda *args: [])
        argv = ["killing", "--space", space, "--n", str(n), "--degree", str(degree)]
        code, _, err = run_cli(capsys, argv)
        assert code == 0 and err == ""

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, err = run_cli(
            capsys, ["potential", "--model-file", str(bad), "--grid", "0:1:2,0:1:2"]
        )
        assert code == 2 and "model file" in err

    # a byte that is not UTF-8, and nesting deeper than the recursion limit
    @pytest.mark.parametrize("text", [b"\xff", b"[" * 100_000 + b"]" * 100_000])
    def test_unreadable_model_file_is_usage(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        code, out, err = run_cli(
            capsys, ["potential", "--model-file", str(bad), "--grid", "0:1:2,0:1:2"]
        )
        assert code == 2 and out == ""
        assert err.startswith("tpsgeo potential: cannot read model file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            # a string partition used to iterate as its characters: I = {1, 2}
            ({**QUADRATIC, "partition": "12"}, "partition must be an array of integers"),
            # both used to run as [1]
            ({**QUADRATIC, "partition": [1.5]}, "partition must be an array of integers"),
            ({**QUADRATIC, "partition": [True]}, "partition must be an array of integers"),
            ({**QUADRATIC, "partition": None}, "partition must be an array of integers"),
            # a non-empty string used to select the positive exponent
            (vdw(positive_exponent="no"), "positive_exponent must be true or false"),
            (vdw(positive_exponent=0), "positive_exponent must be true or false"),
            # true used to run as c_v = 1, and a string as the number it spells
            (vdw(c_v=True), f"parameter 'c_v' {NOT_NUMBERS}"),
            (vdw(c_v="1.5"), f"parameter 'c_v' {NOT_NUMBERS}"),
            ({"model": "ideal_gas_energy", "parameters": {"r": None}}, f"parameter 'r' {NOT_NUMBERS}"),
            ({"model": "quadratic", "parameters": {"q": [[True, 0], [0, 1]]}}, f"parameter 'q' {NOT_NUMBERS}"),
            ({"model": "linear", "parameters": {"a": [1.0, "2"]}}, f"parameter 'a' {NOT_NUMBERS}"),
            ({"model": "van_der_waals", "parameters": [["a", 1.0]]}, "parameters must be a JSON object"),
            # a partition used to be ignored where the model has none
            (
                {"model": "linear", "parameters": {"a": [1.0, 2.0]}, "partition": [1]},
                "model 'linear' takes no partition",
            ),
            ({**vdw(), "partition": []}, "model 'van_der_waals' takes no partition"),
            # a scalar Q used to raise IndexError
            ({"model": "quadratic", "parameters": {"q": 5}}, "Q must be square and symmetric"),
            # a parameter, a key or a name the model does not take used to be dropped
            (
                {"model": "linear", "parameters": {"a": [1, 2], "b": 3}},
                "linear() got an unexpected keyword argument 'b'",
            ),
            (
                {**QUADRATIC, "parameters": {**QUADRATIC["parameters"], "r": 1.0}},
                "quadratic() got an unexpected keyword argument 'r'",
            ),
            ({**vdw(), "partiton": [1]}, "unknown key 'partiton'"),
            # null used to print as the model "None"
            ({**vdw(), "name": None}, "name must be a string"),
            ({**vdw(), "name": 1}, "name must be a string"),
            # the only convention is the canonical one, and a file cannot name it
            ({**vdw(), "convention": "canonical"}, "unknown key 'convention'"),
            ({**vdw(), "convention": "graph"}, "unknown key 'convention'"),
            # non-finite parameters used to fail every point, or pass some
            (vdw(a=math.nan), "parameter 'a' must be finite"),
            (vdw(b=math.inf), "parameter 'b' must be finite"),
            ({"model": "linear", "parameters": {"a": [math.nan, 1]}}, "parameter 'a' must be finite"),
            ({"model": "quadratic", "parameters": {"q": [[1.0, -math.inf], [-math.inf, 1.0]]}},
             "parameter 'q' must be finite"),
            ({"model": "ideal_gas_energy", "parameters": {"r": -math.inf}}, "parameter 'r' must be finite"),
            # c_v = 0 used to be refused as "Fraction(1, 0)"
            (vdw(c_v=0), "c_v must be nonzero"),
            ({"model": "ideal_gas_energy", "parameters": {"c_v": 0.0}}, "c_v must be nonzero"),
        ],
    )
    def test_malformed_model_is_usage(self, tmp_path, capsys, spec, message):
        path = write_model(tmp_path, spec)
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", "1:2:2,2:3:2"])
        assert code == 2 and out == ""
        assert err.startswith(f"tpsgeo potential: bad model description: {message}") and err.count("\n") == 1

    def test_the_readme_lists_the_model_file_keys(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            text = " ".join(fh.read().split())
        (listed,) = re.findall(r"a top-level key other than ((?:`\w+`, )*`\w+` and `\w+`)", text)
        assert tuple(re.findall(r"`(\w+)`", listed)) == legendre._SPEC_KEYS

    def test_a_quadratic_partition_of_integers_runs(self, tmp_path, capsys):
        path = write_model(tmp_path, {**QUADRATIC, "partition": [1]})
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--grid", "1:2:2,2:3:2"])
        assert code in (0, 1) and json.loads(out)["inputs"]["model"] == "quadratic"

    def test_unknown_model_kind(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "nope"})
        code, _, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", "0:1:2,0:1:2"])
        assert code == 2 and "bad model" in err

    def test_points_and_grid_are_exclusive(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        code, _, _ = run_cli(capsys, ["potential", "--model-file", path])
        assert code == 2
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0]]")
        code, _, _ = run_cli(
            capsys,
            ["potential", "--model-file", path, "--points-file", str(pts), "--grid", "0:1:2,0:1:2"],
        )
        assert code == 2

    def test_domain_violation_is_a_failure_not_usage(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "van_der_waals", "parameters": {}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[0.5, 2.0], [0.5, 0.5]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert len(fails) == 1
        assert fails[0]["witness"]["point"] == [0.5, 0.5]

    @pytest.mark.parametrize("c_v", [0, "Infinity", "1e400", "NaN"])
    def test_unusable_model_parameter_is_usage(self, tmp_path, capsys, c_v):
        path = tmp_path / "model.json"
        path.write_text(
            '{"model": "van_der_waals", "parameters": {"a": 1, "b": 1, "r": 1, "c_v": %s}}' % c_v
        )
        code, out, err = run_cli(capsys, ["potential", "--model-file", str(path), "--grid", "0:1:2,2:3:2"])
        assert code == 2 and out == ""
        assert "bad model" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}},
            {"model": "homogeneous_demo", "parameters": {}},
        ],
    )
    def test_non_finite_points_are_witnessed_failures(self, tmp_path, capsys, spec):
        path = write_model(tmp_path, spec)
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0], [NaN, 1.0], [1.0, Infinity], [2.0, 3.0]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert [r["claim"] for r in fails] == ["surface data at (nan, 1)", "surface data at (1, inf)"]
        assert all("non-finite" in r["witness"]["error"] for r in fails)
        summary = next(r for r in doc["results"] if r["claim"] == "stability classification summary")
        assert sum(summary["witness"][k] for k in ("stable", "unstable", "marginal")) == 2

    def test_non_finite_values_are_strings_in_strict_json(self, tmp_path, capsys):
        # the NaN point is refused; at x = 1e308 the pullback overflows to NaN
        path = write_model(tmp_path, {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[NaN, 1.0], [1e308, 2.0]]")
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out, parse_constant=reject)
        refused, overflowed = doc["results"][:2]
        assert refused["witness"]["point"] == ["NaN", 1.0]
        assert overflowed["status"] == "fail"
        assert overflowed["witness"]["block_agreement"] == "NaN"

    @pytest.mark.parametrize(
        "spec,point",
        [
            ({"model": "homogeneous_demo"}, [1e-320, 3.0]),
            ({"model": "homogeneous_demo"}, [1e308, 2.0]),
            ({"model": "ideal_gas_energy", "parameters": {}}, [0.0, 1e-300]),
        ],
    )
    def test_jet_overflow_is_a_witnessed_failure(self, tmp_path, capsys, spec, point):
        # each of these points used to end the run with a traceback
        path = write_model(tmp_path, spec)
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[1.0, 2.0], point, [2.0, 3.0]]))
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err
        first, bad, last = point_records(strict_json(out))
        assert bad["status"] == "fail" and bad["witness"]["point"] == point
        assert "float range" in bad["witness"]["error"] or "underflows" in bad["witness"]["error"]
        # the neighbours keep the records they get without the bad point
        pts.write_text(json.dumps([[1.0, 2.0], [2.0, 3.0]]))
        _, alone, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert [first, last] == point_records(strict_json(alone))

    def test_non_finite_hessian_is_a_witnessed_failure(self, tmp_path, capsys):
        # exp overflows inside numpy at S = 2000: the point used to be counted
        # as an unstable, indefinite point with a contact residual of 0
        path = write_model(tmp_path, {"model": "van_der_waals", "parameters": {}})
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[1.0, 2.5], [2000.0, 2.0], [0.3, 1.2]]))
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err
        doc = strict_json(out)
        first, bad, last = point_records(doc)
        assert bad["status"] == "fail" and bad["witness"]["point"] == [2000.0, 2.0]
        assert "Hessian" in bad["witness"]["error"] and "not finite" in bad["witness"]["error"]
        by_claim = {r["claim"]: r for r in doc["results"]}
        summary = by_claim["stability classification summary"]["witness"]
        assert summary == {"stable": 2, "unstable": 0, "marginal": 0, "degenerate_metric": 0,
                           "indefinite": 0}
        contact = by_claim["contact form vanishes on the surface at every analyzed point"]
        assert contact["witness"]["points"] == 2
        # the neighbours keep the records they get without the bad point
        pts.write_text(json.dumps([[1.0, 2.5], [0.3, 1.2]]))
        _, alone, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert [first, last] == point_records(strict_json(alone))

    def test_nan_metric_is_a_degenerate_failure(self, tmp_path, capsys):
        # the NaN pullback used to reach the inversion of the singular block
        path = write_model(tmp_path, {"model": "quadratic", "parameters": {"q": [[1.0, 0.0], [0.0, 0.0]]}})
        pts = tmp_path / "pts.json"
        pts.write_text("[[1e308, 2.0]]")
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 1 and "Traceback" not in err
        (rec,) = point_records(strict_json(out))
        assert rec["status"] == "fail"
        assert rec["witness"]["degenerate_metric"] is True
        assert rec["witness"]["block_agreement"] == "NaN"

    @pytest.mark.parametrize("grid", ["0:1:1000000,0:1:1000000", "0:1:1001,0:1:1000"])
    def test_grid_over_the_cap_is_usage(self, tmp_path, capsys, monkeypatch, grid):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an axis was built before the cap was checked")

        monkeypatch.setattr(cli.np, "linspace", no_allocation)
        path = write_model(tmp_path, VDW_LITERAL)
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", grid])
        assert code == 2 and out == ""
        assert "at most 1000000" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0:1:x,0:1:2", "bad grid axis '0:1:x'"),
            ("0:1,0:1:2", "grid axes look like start:stop:count"),
            ("0:1:0,0:1:2", "grid axis count must be >= 1"),
            ("inf:1:3,2:3:2", "bad grid axis 'inf:1:3'"),
            ("0:1:3,nan:3:2", "bad grid axis 'nan:3:2'"),
            ("inf:inf:3,0:1:2", "bad grid axis 'inf:inf:3'"),
            ("0:1e308:3,-1e308:1e308:2", "bad grid axis '-1e308:1e308:2'"),
        ],
    )
    def test_bad_grid_axis_is_usage(self, tmp_path, capsys, monkeypatch, grid, message):
        def no_allocation(*args, **kwargs):
            raise AssertionError("an axis was built from a bad grid")

        monkeypatch.setattr(cli.np, "linspace", no_allocation)
        path = write_model(tmp_path, VDW_LITERAL)
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--grid", grid])
        assert code == 2 and out == ""
        assert err.startswith(f"tpsgeo potential: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "points, message",
        [
            # a string row used to iterate as its characters: the point (1, 2)
            ('["12"]', "each point must be a JSON array of numbers"),
            ('[["1", "2"]]', "each point must be a JSON array of numbers"),
            ("[[true, false]]", "each point must be a JSON array of numbers"),
            ("[[1.0, null]]", "each point must be a JSON array of numbers"),
            ("[[1.0, [2.0]]]", "each point must be a JSON array of numbers"),
            ("[1.0, 2.0]", "each point must be a JSON array of numbers"),
            ('[{"s": 1.0, "v": 2.0}]', "each point must be a JSON array of numbers"),
            # no point would report no claims and pass vacuously
            ("[]", "points file holds no points"),
            ('{"a": 1}', "points file must hold a JSON list of points"),
            ('"12"', "points file must hold a JSON list of points"),
            ("NaN", "points file must hold a JSON list of points"),
            ("[[1.0, 2.0], [1.0, 2.0, 3.0]]", "each point needs 2 coordinates"),
            ("[[1" + "0" * 400 + ", 2.0]]", "bad point coordinate: int too large to convert to float"),
            ("[[1.0, 2.0]", "cannot read points file"),
            ("[" * 100_000 + "]" * 100_000, "cannot read points file"),
            ("\udcff", "cannot read points file"),
        ],
    )
    def test_malformed_points_file_is_usage(self, tmp_path, capsys, points, message):
        path = write_model(tmp_path, VDW_LITERAL)
        pts = tmp_path / "pts.json"
        # a lone surrogate is written as a byte that is not UTF-8
        pts.write_bytes(points.encode("utf-8", "surrogateescape"))
        code, out, err = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 2 and out == ""
        assert err.startswith(f"tpsgeo potential: {message}") and err.count("\n") == 1

    def test_unknown_suite_is_usage(self, capsys):
        code, _, err = run_cli(capsys, ["verify-all", "--only", "nosuch"])
        assert code == 2 and "nosuch" in err

    def test_the_names_in_only_are_stripped(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "tps, sympl"])
        assert code == 0
        assert json.loads(out)["inputs"]["suites"] == ["tps", "sympl"]

    @pytest.mark.parametrize("only", [[""], [","], [",", ""], [" "], [" , "]])
    def test_an_only_that_names_no_suite_is_usage(self, capsys, only):
        # with no suite, the negative control alone would pass vacuously
        argv = ["verify-all"] + [arg for value in only for arg in ("--only", value)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "names no suite" in err and "choices: curvature, killing" in err


class TestKilling:
    """Solver dimensions reported through the envelope."""

    @pytest.mark.parametrize(
        "space,n,degree,dim",
        [("tps", 2, 2, 9), ("sympl", 1, 2, 8), ("tps", 1, 3, 4)],
    )
    def test_dimensions(self, capsys, space, n, degree, dim):
        code, out, _ = run_cli(
            capsys, ["killing", "--space", space, "--n", str(n), "--degree", str(degree)]
        )
        assert code == 0
        doc = json.loads(out)
        first = doc["results"][0]
        assert first["status"] == "exact-pass"
        assert first["witness"] == {"dimension": dim, "expected": dim}

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("space", ["tps", "sympl"])
    @pytest.mark.parametrize("command", ["curvature", "killing"])
    def test_every_claim_passes_past_n_four(self, capsys, command, space, n):
        code, out, _ = run_cli(capsys, [command, "--space", space, "--n", str(n)])
        assert code == 0
        assert {r["status"] for r in json.loads(out)["results"]} == {"exact-pass"}

    def test_degree_one_lifted_metric_is_not_applicable(self, capsys):
        code, out, _ = run_cli(capsys, ["killing", "--space", "sympl", "--n", "1", "--degree", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["status"] == "not-applicable"


class TestPotential:
    """Surface analysis over grids and point files."""

    def test_quadratic_grid_is_totally_geodesic(self, tmp_path, capsys):
        path = write_model(
            tmp_path, {"model": "quadratic", "parameters": {"q": [[2.0, 0.5], [0.5, 1.0]]}}
        )
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--grid=-1:1:4,-1:1:4"])
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["results"] if "totally geodesic" in r["claim"])
        assert row["status"] == "numeric-pass"
        assert row["witness"]["worst_ii_norm"] < 1e-12

    def test_vdw_literal_grid_has_an_indefinite_point(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        code, out, _ = run_cli(
            capsys, ["potential", "--model-file", path, "--grid", "0.5:2:10,1.5:3:10"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["point_count"] == 100
        summary = next(r for r in doc["results"] if r["claim"] == "stability classification summary")
        assert summary["witness"]["indefinite"] >= 1

    def test_homogeneous_demo_constitutive_residuals(self, tmp_path, capsys):
        path = write_model(tmp_path, {"model": "homogeneous_demo"})
        code, out, _ = run_cli(
            capsys, ["potential", "--model-file", path, "--grid", "0.5:2:5,0.2:1:5"]
        )
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["results"] if "scaling law" in r["claim"])
        assert row["witness"]["gibbs_duhem_residual"] < 1e-12
        assert row["witness"]["constitutive_residual"] < 1e-12

    @pytest.mark.parametrize("filename", MODEL_FILES)
    def test_each_committed_model_file_runs(self, capsys, filename):
        path = os.path.join(MODELS_DIR, filename)
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--grid", README_GRID])
        assert code == 0
        inputs = strict_json(out)["inputs"]
        assert inputs["model"] == spec["model"]
        assert inputs["convention"] == "canonical"
        assert spec["parameters"].items() <= inputs["parameters"].items()
        assert inputs["point_count"] == 100

    def test_chunks_do_not_change_the_records(self, tmp_path, capsys, monkeypatch):
        path = write_model(tmp_path, {"model": "homogeneous_demo"})
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(
            [[1.0, 2.0], [-1.0, 2.0], [1e308, 2.0], [0.5, 0.5], [float("nan"), 1.0],
             [2.0, -3.0], [1e-320, 3.0], [3.0, 1.0]]
        ))
        argv = ["potential", "--model-file", path, "--points-file", str(pts)]
        _, whole, _ = run_cli(capsys, argv)
        for chunk in (1, 2, 3):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert strict_json(out)["results"] == strict_json(whole)["results"]

    def test_points_file_gives_one_record_per_point(self, tmp_path, capsys):
        path = write_model(tmp_path, VDW_LITERAL)
        pts = tmp_path / "pts.json"
        pts.write_text("[[1.0, 2.0], [0.0, 3.0], [0.5, 1.6]]")
        code, out, _ = run_cli(capsys, ["potential", "--model-file", path, "--points-file", str(pts)])
        assert code == 0
        doc = json.loads(out)
        per_point = [r for r in doc["results"] if r["claim"].startswith("surface data at ")]
        assert len(per_point) == 3


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the verify-all worker is forked")


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, whatever the host has, and the pid of every child
    that os.fork starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    fork = getattr(os, "fork", None)

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy, raising=False)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyAll:
    """Aggregated run: filter, negative control, determinism."""

    def test_only_filter_and_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "legendre"])
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["suites"] == ["legendre"]
        control = doc["results"][-1]
        assert control["claim"].startswith("negative control")
        assert control["status"] == "exact-pass"
        assert control["witness"]["induced_failures"] >= 1

    def test_tamper_mode_fails_with_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--tamper"])
        assert code == 1
        doc = json.loads(out)
        fails = [r for r in doc["results"] if r["status"] == "fail"]
        assert fails and all(r["witness"] for r in fails)

    def test_n_max_caps_the_suite_ranges(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "tps", "--n-max", "1"])
        assert code == 0
        small = len(json.loads(out)["results"])
        code, out, _ = run_cli(capsys, ["verify-all", "--only", "tps"])
        assert code == 0
        assert small < len(json.loads(out)["results"])
        code, _, err = run_cli(capsys, ["verify-all", "--n-max", "0"])
        assert code == 2 and "--n-max" in err

    def test_two_runs_give_the_same_report(self, capsys):
        _, out1, _ = run_cli(capsys, ["verify-all", "--only", "tps,heisenberg"])
        _, out2, _ = run_cli(capsys, ["verify-all", "--only", "tps,heisenberg"])
        a, b = json.loads(out1), json.loads(out2)
        a["timing"] = b["timing"] = None
        assert a == b

    @needs_fork
    @pytest.mark.parametrize(
        "argv", [[], ["--markdown"], ["--n-max", "1"], ["--only", "sympl, legendre"]]
    )
    def test_the_forked_worker_changes_no_report_byte(self, capsys, monkeypatch, forks, argv):
        code, split, _ = run_cli(capsys, ["verify-all", *argv])
        assert code == 0 and len(forks) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        code, serial, _ = run_cli(capsys, ["verify-all", *argv])
        assert code == 0 and len(forks) == 1
        assert split.split('"timing"')[0] == serial.split('"timing"')[0]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv", [["--only", "tps,heisenberg,legendre"], ["--only", "curvature,sympl"], ["--tamper"]]
    )
    def test_one_half_alone_runs_in_process(self, capsys, forks, argv):
        code, _, _ = run_cli(capsys, ["verify-all", "--n-max", "1", *argv])
        assert code == (1 if "--tamper" in argv else 0)
        assert forks == []

    def test_a_second_thread_keeps_every_suite_in_process(self, capsys, forks):
        # a fork copies only the calling thread, so a lock another thread
        # holds would stay held in the child
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            code, _, _ = run_cli(capsys, ["verify-all", "--only", "tps,sympl", "--n-max", "1"])
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert code == 0 and forks == []

    @needs_fork
    def test_a_worker_exception_keeps_its_type(self, capsys, monkeypatch, forks):
        def broken(n_max):
            raise ValueError("broken worker suite")

        monkeypatch.setitem(suites.SUITES, "heisenberg", broken)
        with pytest.raises(ValueError, match="broken worker suite"):
            cli.main(["verify-all", "--only", "sympl,heisenberg", "--n-max", "1"])
        assert len(forks) == 1
        assert_no_child_left()

    @needs_fork
    def test_a_worker_that_writes_no_result_is_an_error(self, capsys, monkeypatch, forks):
        monkeypatch.setitem(suites.SUITES, "heisenberg", lambda n_max: os._exit(3))
        # exit code 3 is wait status 3 << 8
        with pytest.raises(RuntimeError, match="wait status 768"):
            cli.main(["verify-all", "--only", "sympl,heisenberg", "--n-max", "1"])
        assert len(forks) == 1
        assert_no_child_left()

    @needs_fork
    def test_a_parent_exception_still_reaps_a_worker_blocked_on_the_pipe(
        self, capsys, monkeypatch, forks
    ):
        # the worker's result is larger than any pipe buffer, so its write
        # blocks until the parent reads or closes the pipe
        big = [check("x" * (1 << 20), "plumbing", True)]
        monkeypatch.setitem(suites.SUITES, "heisenberg", lambda n_max: big)

        def broken(n_max):
            raise ValueError("broken parent suite")

        def stuck(signum, frame):
            raise TimeoutError("the parent waits on a worker blocked on the pipe")

        monkeypatch.setitem(suites.SUITES, "sympl", broken)
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(60)
        try:
            with pytest.raises(ValueError, match="broken parent suite"):
                cli.main(["verify-all", "--only", "sympl,heisenberg", "--n-max", "1"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        assert_no_child_left()

    def test_each_chart_and_space_is_built_once(self, capsys, monkeypatch, clear_caches, one_cpu):
        # a count, not a timing: from cold caches, verify-all gets one Chart
        # object per (names, invertible) key, and builds each contact form,
        # tautological form and canonical frame once per n it asks for and
        # reads it again from the cache, so a loop that rebuilds them fails
        # here and not only in the benchmark
        charts = collections.defaultdict(set)
        new = poly.Chart.__new__

        def interned(cls, names, invertible=()):
            chart = new(cls, names, invertible)
            charts[chart.names, chart.invertible].add(chart)
            return chart

        monkeypatch.setattr(poly.Chart, "__new__", interned)
        builders = {
            (module, name): getattr(module, name)
            for module, name in [
                (tps, "contact_form"), (tps, "canonical_frame"),
                (sympl, "tautological_form"), (sympl, "canonical_frame"),
            ]
        }
        asked = collections.defaultdict(set)
        for (module, name), build in builders.items():
            def recorded(n, build=build, key=(module, name)):
                asked[key].add(n)
                return build(n)

            monkeypatch.setattr(module, name, recorded)
        code, _, _ = run_cli(capsys, ["verify-all"])
        assert code == 0
        assert len(charts) >= 10 and all(len(made) == 1 for made in charts.values())
        for key, build in builders.items():
            assert hasattr(build, "cache_info"), f"{key[1]} is not cached"
            info = build.cache_info()
            assert asked[key] and info.misses == len(asked[key]) and info.hits > 0, (key, info)


# ----------------------------------------------------------------------
# interrupts and memory exhaustion: one stderr line and an exit code, never
# a traceback, and never the exit 1 of a witnessed failure

STOPS = [(KeyboardInterrupt, 130, "interrupted"), (MemoryError, 2, "out of memory")]


@pytest.mark.parametrize("cpus", ["one_cpu", pytest.param("forks", marks=needs_fork)])
@pytest.mark.parametrize("error, code, message", STOPS)
def test_verify_all_ends_a_stopped_suite_with_one_line(
    request, capsys, monkeypatch, cpus, error, code, message
):
    # on one CPU the suite runs in this process; on two, in the forked
    # worker, which sends the stop back to the parent
    started = request.getfixturevalue(cpus)

    def stopped(n_max):
        raise error()

    monkeypatch.setitem(suites.SUITES, "heisenberg", stopped)
    got, out, err = run_cli(capsys, ["verify-all", "--only", "sympl,heisenberg", "--n-max", "1"])
    assert got == code and out == ""
    assert err == f"tpsgeo verify-all: {message}\n"
    assert len(started or []) == (cpus == "forks")
    if hasattr(os, "fork"):
        assert_no_child_left()


@pytest.mark.parametrize("error, code, message", STOPS)
def test_killing_ends_a_stopped_solve_with_one_line(capsys, monkeypatch, error, code, message):
    def stopped(*args):
        raise error()

    monkeypatch.setattr(cli.suites, "suite_killing", stopped)
    got, out, err = run_cli(capsys, ["killing", "--space", "sympl", "--n", "2"])
    assert got == code and out == ""
    assert err == f"tpsgeo killing: {message}\n"


# ----------------------------------------------------------------------
# fuzzing the potential command

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e308, -1e308, 1e-320, -1e-320, 1e-300, 1e154,
           float("nan"), float("inf"), -float("inf")]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(-4.0, 4.0))
parameter_values = st.one_of(
    numbers, st.integers(-3, 3), st.booleans(), st.none(),
    st.sampled_from(["1/3", "0", "x", "1e400"]), st.lists(numbers, max_size=2),
)


@st.composite
def potential_inputs(draw):
    """A model description (often valid, sometimes not) and a points list
    (usually of the model's dimension)."""
    kind = draw(st.sampled_from(
        ["van_der_waals", "ideal_gas_energy", "quadratic", "linear", "homogeneous_demo", "nope"]
    ))
    spec, nvars = {"model": kind}, 2
    if kind == "quadratic":
        nvars = draw(st.integers(1, 3))
        upper = {(i, j): draw(numbers) for i in range(nvars) for j in range(i, nvars)}
        spec["parameters"] = {"q": [[upper[min(i, j), max(i, j)] for j in range(nvars)]
                                    for i in range(nvars)]}
        if draw(st.booleans()):
            spec["partition"] = draw(st.lists(st.integers(0, nvars + 1), max_size=2))
    elif kind == "linear":
        a = draw(st.one_of(st.lists(numbers, max_size=3), st.lists(st.lists(numbers, max_size=2), max_size=2)))
        spec["parameters"] = {"a": a}
        nvars = len(a) if a and not isinstance(a[0], list) else 2
    elif kind in ("van_der_waals", "ideal_gas_energy"):
        names = ["a", "b", "r", "c_v", "positive_exponent"] if kind == "van_der_waals" else ["r", "c_v"]
        spec["parameters"] = draw(st.dictionaries(st.sampled_from(names), parameter_values, max_size=3))
    if draw(st.booleans()):
        spec["convention"] = draw(st.sampled_from(["canonical", "graph", "other"]))
    width = draw(st.sampled_from([nvars, nvars, nvars, nvars + 1]))
    points = draw(st.lists(st.lists(numbers, min_size=width, max_size=width), max_size=5))
    return spec, points


@settings(max_examples=300, deadline=None)
@given(potential_inputs())
def test_potential_keeps_its_exit_code_contract(tmp_path_factory, inputs):
    """Any model file and points file: exit 0, 1 or 2, strict JSON unless
    the input was refused as a usage error, and no exception."""
    spec, points = inputs
    folder = tmp_path_factory.getbasetemp()
    model, pts = folder / "fuzz-model.json", folder / "fuzz-points.json"
    model.write_text(json.dumps(spec))
    pts.write_text(json.dumps(points))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["potential", "--model-file", str(model), "--points-file", str(pts)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        strict_json(out.getvalue())


# ----------------------------------------------------------------------
# fuzzing the exact commands

# per flag: values the command accepts and values it must refuse; None
# leaves the flag out.  In range only up to n = 2, so every example stays
# cheap; 17 and above are past the ansatz cap for every space.
EXACT_FLAGS = {
    "--space": (["tps", "sympl"], ["bogus", None]),
    "--n": (["1", "2"], ["-1", "0", "17", "99", "1000000000000", "x", "", None]),
    "--degree": ([None, "1", "2"], ["-1", "0", "1000", "x"]),
    "--n-max": (["1", "2"], ["-1", "0", "x"]),
    "--only": (
        [None, "tps", "heisenberg", "sympl,tps", "sympl, tps"],
        ["bogus", "tps,bogus", ",", "", " "],
    ),
}
COMMAND_FLAGS = {
    "curvature": ["--space", "--n"],
    "killing": ["--space", "--n", "--degree"],
    "verify-all": ["--n-max", "--only"],
}


@st.composite
def exact_argv(draw, folder):
    """Arguments for curvature, killing or verify-all, and whether they must
    be refused: at most one flag has a value the command must refuse, and
    --out may name a path that cannot be written."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    bad = draw(st.sampled_from([None, None, *flags]))
    argv = [command]
    for name in flags:
        accepted, refused = EXACT_FLAGS[name]
        value = draw(st.sampled_from(refused if name == bad else accepted))
        if value is not None:
            argv.extend([name, value])
    if command == "verify-all" and draw(st.booleans()):
        argv.append("--tamper")
    if draw(st.booleans()):
        argv.append("--markdown")
    # "" names the folder itself
    out = draw(st.sampled_from([None, None, None, "fuzz-report.txt", "no-such-dir/r.txt", ""]))
    if out is not None:
        argv.extend(["--out", str(folder / out)])
    return argv, bad is not None or out in ("no-such-dir/r.txt", "")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_commands_keep_their_exit_code_contract(tmp_path_factory, data):
    """curvature, killing and verify-all on any of these arguments: exit 2
    exactly when they must be refused, else 0 or 1 with strict JSON on stdout
    when a JSON report goes there, and never a traceback."""
    argv, refused = data.draw(exact_argv(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    assert code == 2 if refused else code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code != 2 and "--markdown" not in argv and "--out" not in argv:
        strict_json(out.getvalue())
