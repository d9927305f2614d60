"""Every module-level function and class of the package is used by the
package.  No linter ships with the project, so this scan keeps the rule that
no definition lives on for the tests alone: it reads each module's syntax
tree and looks for the definition's name, read as a name or as an
attribute, anywhere in the package outside the definition itself."""

import ast
import os

from test_traced_names import load_tracer

import tpsgeo

PACKAGE_DIR = os.path.dirname(tpsgeo.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))

# definitions the package does not call, each with the reason it stays
UNCALLED = {
    ("jets", "ln"): "one of the Jet3 elementary functions with exp and power; "
    "no shipped model takes a logarithm yet",
}


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Name -> node of each module-level function and class."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def referenced_names(node: ast.AST) -> set[str]:
    """Names the node's code reads, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each definition that no code outside it reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in tree.body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a recursive call is not a use
            used |= names
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name not in used
    )


def traced_targets() -> set[str]:
    """module.name of each module-level benchmark tracer target."""
    return {name for name in load_tracer().TARGETS if name.count(".") == 1}


def package_sources() -> dict[str, str]:
    out = {}
    for filename in MODULES:
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            out[filename[: -len(".py")]] = fh.read()
    return out


def test_every_definition_is_used_by_the_package():
    exempt = traced_targets() | {f"{m}.{n}" for m, n in UNCALLED}
    assert [name for name in unreferenced(package_sources()) if name not in exempt] == []


def test_every_exemption_is_still_needed():
    # an allowlisted name that the package calls again, or that is gone,
    # should leave the list
    dead = set(unreferenced(package_sources()))
    assert {f"{m}.{n}" for m, n in UNCALLED} <= dead


def test_the_scan_finds_an_unused_definition():
    sources = {
        "a": "import b\n\ndef main():\n    return b.helper()\n\n"
        "def dead(n):\n    return dead(n - 1)\n\nclass Unused:\n    pass\n\n"
        "if __name__ == '__main__':\n    main()\n",
        "b": "def helper():\n    return used_by_name\n\ndef used_by_name():\n    pass\n",
    }
    assert unreferenced(sources) == ["a.Unused", "a.dead"]
