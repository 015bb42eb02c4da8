"""Every name that a `bateman` module lists in `__all__` resolves, and the README
names every module."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bateman

MODULES = ["bateman"] + [f"bateman.{info.name}" for info in pkgutil.iter_modules(bateman.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []



def test_readme_layout_names_exactly_the_modules():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `bateman\.(\w+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {info.name for info in pkgutil.iter_modules(bateman.__path__)}
