"""Every module-level function and class of the package, and every method
that is not a dunder, is used by the package.  No linter ships with the
project, so this scan keeps the rule that no definition lives on for the
tests alone: it reads each module's syntax tree and looks for the
definition's name, read as a name or as an attribute, anywhere in the
package outside the definition itself.  A method is matched by its name
alone, so one that shares its name with a used attribute passes."""

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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Qualified name -> node of each module-level function and class, and
    of each method of those classes that is not a dunder."""
    out = {}
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFINITIONS) and not is_dunder(sub.name):
                    out[f"{node.name}.{sub.name}"] = sub
    return out


def referenced_names(node: ast.AST) -> set[str]:
    """Names the node's code reads, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def uses(node: ast.stmt) -> set[str]:
    """The names the statement reads outside its own definition: a
    recursive call is not a use, and a class is read statement by
    statement, so a method that calls itself does not count either."""
    if isinstance(node, ast.ClassDef):
        header = node.bases + node.keywords + node.decorator_list
        names = set().union(*map(referenced_names, header), *map(uses, node.body))
    else:
        names = referenced_names(node)
    if isinstance(node, DEFINITIONS):
        names.discard(node.name)
    return names


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name, or module.Class.method, of each definition that no code
    outside it reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(uses(node) for tree in trees.values() for node in tree.body))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name.rpartition(".")[2] not in used
    )


def traced_targets() -> set[str]:
    """Each benchmark tracer target: module.name or module.Class.method."""
    return set(load_tracer().TARGETS)


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


def test_the_scan_finds_an_unused_method():
    sources = {
        "a": "class Used:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        return self\n\n"
        "    def again(self, n):\n        return self.again(n - 1)\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "def main():\n    return Used().size\n\nmain()\n",
    }
    assert unreferenced(sources) == ["a.Used.again"]
