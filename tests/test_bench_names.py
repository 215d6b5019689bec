"""Every name of ``flowfit`` that the benchmark reaches for must exist.

``bench/tracing.py`` wraps the functions its ``TRACED`` tuple names, and
``bench/workloads.py`` calls the package by attribute, with keyword
arguments that the callables must take; a rename or a deletion there
would otherwise break only the benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
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


def dotted(node):
    """``a.b.c`` of an attribute chain on a name, as a list, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def keyword_calls(source):
    """``(name, keywords)`` of each call in ``source`` of a ``flowfit`` callable by keyword.

    A callable is reached through ``ff.`` or a name imported from ``flowfit``.
    """
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "flowfit"
                for alias in node.names}
    for node in ast.walk(tree):
        chain = dotted(node.func) if isinstance(node, ast.Call) else None
        keywords = [kw.arg for kw in getattr(node, "keywords", ()) if kw.arg is not None]
        if chain and keywords and (chain[0] == "ff" or chain[0] in imported):
            head = [] if chain[0] == "ff" else [imported[chain[0]]]
            yield ".".join(head + chain[1:]), keywords


def unknown_keywords(name, keywords):
    """The ``keywords`` that ``flowfit.<name>``'s signature does not take."""
    obj = flowfit
    for attr in name.split("."):
        obj = getattr(obj, attr)
    params = inspect.signature(obj).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return []
    return [kw for kw in keywords if kw not in params]


def test_finds_the_keyword_calls():
    source = ("import flowfit as ff\nfrom flowfit import FitOptions as FO\n"
              "ff.loss(t, s, o, scale_grid=g)\nFO(n_starts=2)\nff.loss(t)\nnp.f(a=1)\n")
    assert list(keyword_calls(source)) == [("loss", ["scale_grid"]),
                                          ("FitOptions", ["n_starts"])]
    assert unknown_keywords("loss", ["scale_grid", "no_such"]) == ["no_such"]


def workload_calls():
    """Each distinct call of ``bench/workloads.py``'s by keyword, keywords as a tuple."""
    return sorted({(name, tuple(keywords))
                   for name, keywords in keyword_calls((BENCH / "workloads.py").read_text())})


def test_workloads_pass_keywords():
    assert ("loss", ("scale_grid",)) in workload_calls()


@pytest.mark.parametrize("name, keywords", workload_calls(),
                         ids=lambda value: value if isinstance(value, str) else ",".join(value))
def test_workload_keywords_are_in_the_signatures(name, keywords):
    assert unknown_keywords(name, keywords) == []
