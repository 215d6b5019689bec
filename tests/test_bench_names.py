"""Every name of ``flowfit`` that the benchmark reaches for must exist.

``bench/tracing.py`` wraps the functions its ``TRACED`` tuple names, and
``bench/workloads.py`` calls the package by attribute; a rename or a
deletion there would otherwise break only the benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import flowfit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("qualified", traced_names())
def test_traced_name_resolves(qualified):
    module, name = qualified.split(".")
    assert callable(getattr(importlib.import_module(f"flowfit.{module}"), name))


def test_workload_names_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ff"}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "flowfit"
              for alias in node.names}
    assert names
    assert [name for name in sorted(names) if not hasattr(flowfit, name)] == []
