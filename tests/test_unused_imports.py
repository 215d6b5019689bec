"""Every name a ``flowfit`` module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
Every private name a module defines at its top level is read by some
module of the package.
And no module runs ``bfgs_minimize``: every fit runs on lanes, and the
sequential driver is the public BFGS on callables and the lanes' test
reference only.
"""

import ast
from pathlib import Path

import pytest

import flowfit

MODULES = sorted(path for path in Path(flowfit.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport a.b\nfrom m import x, y as z\nfrom __future__ import annotations\n"
    assert unused_imports(source + "a.b.c(z)\n") == ["os", "x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """The ``_names`` ``source`` binds at its top level by a def, a class or an assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def dead_private_definitions(sources: list[str]) -> list[str]:
    """The private top-level names of ``sources`` that none of them reads or imports."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [name for source in sources for name in private_definitions(source)
            if name not in read]


def test_finds_a_dead_private_definition():
    model = ("def _used():\n    pass\ndef _dead():\n    pass\nclass _Dead:\n    pass\n"
             "_SIZE, (_a, _b) = 1, (2, 3)\n_typed: int = 0\n__all__ = []\n_dead2 = _a\n"
             "def public(_arg):\n    _local = 1\n    _Dead2 = _local\n")
    other = "from .model import _used\nimport model\n_used()\nmodel._SIZE\nx._typed = 1\n"
    assert dead_private_definitions([model, other]) == [
        "_dead", "_Dead", "_b", "_typed", "_dead2"]


def test_package_reads_every_private_definition():
    package = sorted(Path(flowfit.__file__).parent.glob("*.py"))
    assert dead_private_definitions([path.read_text() for path in package]) == []


def reads_of(source: str, name: str) -> list[int]:
    """The lines where ``source`` reads ``name``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name)


def test_finds_a_read():
    source = "from m import f\n\ndef f():\n    f(1)\ng = m.f\n'f'\n"
    assert reads_of(source, "f") == [4, 5]


@pytest.mark.parametrize("path", sorted(Path(flowfit.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_does_not_run_bfgs_minimize(path):
    assert reads_of(path.read_text(), "bfgs_minimize") == []
