"""Every name a ``flowfit`` module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
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
