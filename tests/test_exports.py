"""Every name that a `bateman` module lists in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import bateman

MODULES = ["bateman"] + [f"bateman.{info.name}" for info in pkgutil.iter_modules(bateman.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []

