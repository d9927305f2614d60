"""Every module-level function and class of the package, and every method
that is not a dunder, is used by the package.  No linter ships with the
project, so this scan keeps the rule that no definition lives on for the
tests alone: it reads each module's syntax tree and looks for reads of the
definition outside the definition itself.  A module-level definition is
used if its own module reads its bare name, or another module imports it
or reads it as an attribute, so a local variable of the same name in
another module is not a use.  A method is used if some module reads an
attribute of its name, so a local variable of that name is not a use
either; it is matched by its name alone, so one that shares its name with
a read attribute passes."""

import ast
import os

from test_traced_names import load_tracer

import tpsgeo

PACKAGE_DIR = os.path.dirname(tpsgeo.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))

# definitions the package does not call, each with the reason it stays
UNCALLED: dict[tuple[str, str], str] = {}


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


def referenced_names(node: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the node's code reads."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
    return names, attrs


def uses(node: ast.stmt) -> tuple[set[str], set[str]]:
    """The bare and attribute names the statement reads outside its own
    definition: a recursive call is not a use, and a class is read
    statement by statement, so a method that calls itself does not count
    either."""
    if isinstance(node, ast.ClassDef):
        header = node.bases + node.keywords + node.decorator_list
        parts = [*map(referenced_names, header), *map(uses, node.body)]
        names, attrs = set().union(*(n for n, _ in parts)), set().union(*(a for _, a in parts))
    else:
        names, attrs = referenced_names(node)
    if isinstance(node, DEFINITIONS):
        names.discard(node.name)
        attrs.discard(node.name)
    return names, attrs


def imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each `from module import name` anywhere in the
    module, with the module's last dotted part."""
    return {
        ((node.module or "").rpartition(".")[2], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name, or module.Class.method, of each definition that no code
    outside it reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {module: [uses(node) for node in tree.body] for module, tree in trees.items()}
    bare = {module: set().union(*(n for n, _ in r)) for module, r in reads.items()}
    attrs = {module: set().union(*(a for _, a in r)) for module, r in reads.items()}
    imported = set().union(*map(imported_names, trees.values()))
    any_attr = set().union(*attrs.values())

    def used(module: str, name: str) -> bool:
        if "." in name:
            return name.rpartition(".")[2] in any_attr
        others = set().union(*(attrs[m] for m in trees if m != module))
        return name in bare[module] or name in others or (module, name) in imported

    return sorted(
        f"{module}.{name}" for module, tree in trees.items() for name in definitions(tree)
        if not used(module, name)
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


def test_a_method_named_only_by_a_local_variable_is_unused():
    sources = {
        "a": "class Form:\n    def parts(self):\n        return []\n\n"
        "    def at(self):\n        return 0\n\n"
        "def render(form):\n    parts = [form.at()]\n    return parts\n\nrender(Form())\n",
    }
    assert unreferenced(sources) == ["a.Form.parts"]


def test_a_local_variable_of_the_same_name_is_not_a_use():
    sources = {
        "a": "def catalog():\n    return {}\n\ndef models():\n    return {}\n",
        "b": "from .a import models\n\ndef run():\n    catalog = models()\n    return catalog\n",
    }
    assert unreferenced(sources) == ["a.catalog", "b.run"]
