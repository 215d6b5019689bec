"""Every code name README.md gives for the package must exist.

A backticked name that starts with ``ff.`` or ``flowfit.`` is looked up on
the package, and one that starts with a module's name (``model.``,
``estimation.`` and the rest) on ``flowfit.<module>``, attribute by
attribute; call arguments after the name are ignored.  A rename or a
deletion in ``src`` then fails here rather than leaving the README stale.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("model", "estimation", "selection", "diagnostics", "dataio", "synthetic", "cli")
NAME = re.compile(r"`((?:ff|flowfit|%s)(?:\.[A-Za-z_]\w*)+)" % "|".join(MODULES))


def readme_names() -> list[str]:
    return sorted(set(NAME.findall(README.read_text(encoding="utf-8"))))


def resolves(qualified: str) -> bool:
    head, *attrs = qualified.split(".")
    obj = importlib.import_module("flowfit" if head in ("ff", "flowfit") else f"flowfit.{head}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_finds_the_names():
    text = "`ff.fit(x)`, `model.LaneKernel`, `cli.SETTINGS` and `bench.run`, not `numpy.ff.x`"
    assert sorted(set(NAME.findall(text))) == ["cli.SETTINGS", "ff.fit", "model.LaneKernel"]
    assert not resolves("model.no_such_name") and resolves("ff.run_cli")
    assert len(readme_names()) >= 18


@pytest.mark.parametrize("qualified", readme_names())
def test_readme_name_resolves(qualified):
    assert resolves(qualified)
