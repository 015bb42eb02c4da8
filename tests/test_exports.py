"""Every name that a `bateman` module lists in `__all__` resolves and is defined there,
the package root imports no layer, and the README names every module."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bateman

ROOT = Path(__file__).resolve().parents[1]
LAYERS = sorted(info.name for info in pkgutil.iter_modules(bateman.__path__))
MODULES = ["bateman"] + [f"bateman.{name}" for name in LAYERS]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_class_lives_in_its_module(name):
    # one home per name: a module exports what it defines, never another module's objects
    module = importlib.import_module(name)
    objects = [getattr(module, n) for n in getattr(module, "__all__", [])]
    assert [(o.__name__, o.__module__) for o in objects
            if (inspect.isfunction(o) or inspect.isclass(o)) and o.__module__ != name] == []


def _loaded_by(statement: str) -> list[str]:
    """The numpy and `bateman` modules in sys.modules after statement, in a fresh interpreter."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m == 'numpy' or m.split('.')[0] == 'bateman')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_layer_and_no_numpy():
    assert _loaded_by("import bateman") == ["bateman"]
    # the command line still loads every layer at import, before any command runs
    assert _loaded_by("import bateman.cli") == MODULES + ["numpy"]


def test_readme_layout_names_exactly_the_modules():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `bateman\.(\w+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == set(LAYERS)
