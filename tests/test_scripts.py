"""Smoke test: every experiment under scripts/ runs to completion, and bench/run.py starts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def test_one_script_found():
    assert [p.name for p in SCRIPTS] == ["truncated_matrix_spectrum.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_exits_zero(script):
    done = _run([str(script)], 120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout


def test_bench_help_exits_zero():
    # the layer benchmark imports private kernels of the package at start-up;
    # --help runs those imports and nothing else, and none of them is scipy's
    bench = str(ROOT / "bench" / "run.py")
    code = ("import runpy, sys\n"
            f"sys.argv = [{bench!r}, '--help']\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    done = _run(["-c", code], 60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "--out" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"
