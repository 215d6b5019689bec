"""Every name a ``flowfit`` module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
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
