"""Every name a module of the package imports is used there.  No linter
ships with the project, so this scan takes its place: it reads each module's
syntax tree, collects the names its imports bind and the names its code
reads, annotations (quoted ones too) included."""

import ast
import os

import pytest

import tpsgeo

PACKAGE_DIR = os.path.dirname(tpsgeo.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))

# names the benchmark's alias tests reach through these modules; they must
# stay bound even where the module itself stops using them
ALIASES = {
    ("killing", "solve_exact"),
    ("sympl", "solve_exact"),
    ("sympl", "structure_constants"),
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as "Sequence[int]" reads the names inside it
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str, module: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [
        f"{module}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used and (module, name) not in ALIASES
    ]


@pytest.mark.parametrize("filename", MODULES)
def test_every_import_is_used(filename):
    with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
        source = fh.read()
    assert unused_imports(source, filename[: -len(".py")]) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom typing import Mapping, Sequence\n\n"
        "def f(m: 'Mapping[str, int]') -> str:\n    return 'math' + os.path.sep\n"
    )
    assert unused_imports(source, "example") == ["example:1: math", "example:3: Sequence"]
