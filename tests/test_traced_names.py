"""The benchmark tracer (benchmarks/tracer.py) finds the functions it wraps
by name.  A renamed or deleted target would break `benchmarks/run.py
--trace 1` without failing any library test, so the names are checked
here."""

import importlib.util
import os

from tpsgeo import killing, linalg, suites, sympl

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "tracer.py"
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_bound():
    tracer = load_tracer()
    for name in tracer.TARGETS:
        owner, key = tracer._resolve(name)
        assert callable(vars(owner).get(key)), name
    assert set(tracer.SUITE_NAMES) - {"negative_control"} <= set(suites.SUITES)


def test_aliases_the_benchmark_checks():
    assert killing.solve_exact is linalg.solve_exact
    assert sympl.solve_exact is linalg.solve_exact
    assert sympl.structure_constants is killing.structure_constants
