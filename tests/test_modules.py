"""Module boundaries: no module of the package reads another one's private
names.  ``selftest`` is exempt: it is the oracle module, and checks the
others' internals on purpose."""

import ast
from pathlib import Path

import pytest

import selab

PACKAGE = Path(selab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The package-relative module an import reads from: "" for the
    package itself, None for a module outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (
            node.module == "selab" or node.module.startswith("selab.")):
        return node.module.removeprefix("selab").removeprefix(".")
    return None


def private_uses(source: str) -> list[str]:
    """Each ``from .x import _y`` and ``x._y`` on a sibling module ``x`` in
    the module text ``source``, as "x._y:line"."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node) is not None:
            origin = _sibling(node)
            for alias in node.names:
                if origin == "" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif origin and _private(alias.name):
                    found.append(f"{origin}.{alias.name}:{node.lineno}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}:"
                         f"{node.lineno}")
    return found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "selftest"])
def test_no_module_reads_a_siblings_private_name(name):
    assert private_uses((PACKAGE / f"{name}.py").read_text()) == []


def test_the_check_sees_each_form():
    source = ("from . import ledger as led, rng\n"
              "from .sources import _check, is_int\n"
              "from selab.fields import _Field\n"
              "def f(x):\n"
              "    from .cli import _run\n"
              "    return led._coords(rng.mix64, rng.__name__, x._own)\n")
    assert private_uses(source) == ["sources._check:2", "fields._Field:3",
                                    "cli._run:5", "ledger._coords:6"]
