"""Smoke test: every experiment under scripts/ runs to completion, bench/run.py starts,
and bench/ab.py finds no difference between two copies of this tree."""

import importlib.util
import os
import subprocess
import sys
import time
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


def _load_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "bench" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_harness_finds_no_difference_between_copies_of_one_tree(tmp_path):
    start = time.perf_counter()
    ab = _load_ab()
    child, parent = ab.stage(ROOT, tmp_path / "child"), ab.stage(ROOT, tmp_path / "parent")
    invocations = [["classify", "--approach", "is", "--n1", "2", "--n2", "2", "--format", "text"],
                   ["spectrum", "--approach", "is", "--n-cap", "17"],
                   ["verify", "dynamics"]]
    diff = ab.diff_outputs(child, parent, invocations)
    assert [r["differs"] for r in diff] == [[], [], []]
    assert [r["exit"] for r in diff] == [[0, 0], [2, 2], [0, 0]]
    ids = ["is.spectrum", "dynamics.factor"]
    rows = ab.paired_timings(child, parent, pairs=3, check_ids=set(ids))
    assert [r["check"] for r in rows] == ids
    # three pairs can never reach MIN_WINS, whatever the clock says
    assert all(r["pairs"] == 3 and r["verdict"] == "unresolved" for r in rows)
    assert time.perf_counter() - start < 3.0


def test_ab_decision_rule():
    ab = _load_ab()
    assert (ab.PAIRS, ab.MIN_WINS, ab.MIN_CHANGE) == (21, 16, 0.03)
    assert ab.verdict([0.9] * 16 + [1.1] * 5) == "faster"
    assert ab.verdict([1.1] * 16 + [0.9] * 5) == "slower"
    assert ab.verdict([0.9] * 15 + [1.1] * 6) == "unresolved"   # too few wins
    assert ab.verdict([0.98] * 21) == "unresolved"              # inside +-3%
