"""Smoke test: bench/run.py starts and finds no difference between two copies of this tree."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def test_bench_help_exits_zero():
    # --help loads no package of either tree, so no scipy either
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
    assert "--out" in done.stdout and "--parent" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("inside_checkout", [False, True])
def test_bench_refuses_a_parent_that_is_no_git_checkout(tmp_path, inside_checkout):
    # a plain copy has no commit of its own to record; inside a checkout it
    # would read as that checkout's HEAD.  Either is refused before any staging
    if inside_checkout:
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    parent, out = tmp_path / "copy", tmp_path / "bench.json"
    shutil.copytree(ROOT / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    start = time.perf_counter()
    done = _run([str(ROOT / "bench" / "run.py"), "--parent", str(parent), "--out", str(out)], 60)
    assert done.returncode == 2, done.stderr[-2000:]
    assert "git clone" in done.stderr and "git worktree add" in done.stderr
    assert not out.exists()
    assert time.perf_counter() - start < 10.0


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_ab_harness_finds_no_difference_between_copies_of_one_tree(tmp_path):
    start = time.perf_counter()
    bench = _load_bench()
    this, parent = bench.stage(ROOT, tmp_path / "this"), bench.stage(ROOT, tmp_path / "parent")
    invocations = [["classify", "--approach", "is", "--n1", "2", "--n2", "2", "--format", "text"],
                   ["spectrum", "--approach", "is", "--n-cap", "17"],
                   ["verify", "dynamics"]]
    diff = bench.diff_outputs(this, parent, invocations)
    assert [r["differs"] for r in diff] == [[], [], []]
    assert [r["exit"] for r in diff] == [[0, 0], [2, 2], [0, 0]]
    sides = [bench.build_rows(this, "this"), bench.build_rows(parent, "parent")]
    picked = [{"layer": "sector_exp", "n_max": 8, "dim": 81, "exponent": "Y"},
              {"layer": "commutator_h0_h1", "n_max": 12, "dim": 169},
              {"layer": "check", "check": "is.spectrum"},
              {"layer": "check", "check": "dynamics.factor"}]
    rows = bench.pair_rows(sides, 3, [json.dumps(key, sort_keys=True) for key in picked])
    assert [{k: r[k] for k in key} for r, key in zip(rows, picked)] == picked
    assert rows[0]["this"]["sectors"] == rows[0]["parent"]["sectors"] == 18   # counted per side
    # three pairs can never resolve a row, whatever the clock says
    assert all(r["pairs"] == 3 and r["verdict"] == "unresolved" for r in rows)
    assert time.perf_counter() - start < 3.0


def test_bench_builds_the_same_rows_for_a_copy_of_a_tree(tmp_path):
    bench = _load_bench()
    sides = [bench.build_rows(bench.stage(ROOT, tmp_path / label), label)
             for label in ("this", "parent")]
    assert list(sides[0]) == list(sides[1])
    keys, only = bench.shared(sides)
    assert keys == list(sides[0]) and only == []
    rows = [sides[0][key][0] for key in keys]
    assert rows[0] == {"layer": "import bateman.cli"}
    assert sum(row.keys() == {"layer", "check"} for row in rows) == 44   # every check of `all`


def test_bench_times_each_end_to_end_invocation_in_a_cold_child(tmp_path):
    bench = _load_bench()
    src = bench.stage(ROOT, tmp_path / "this")
    rows = [key for key, _, _ in bench.build_rows(src).values()]
    assert [row["argv"] for row in rows if row["layer"] == "cold cli.main"] == [
        ["verify", "algebra", "--seed", "20260823"], ["verify", "all"], ["norms"]]
    seconds = bench.cold_main(src, ("verify", "algebra", "--seed", "5"))()
    assert 0.0 < seconds < 5.0
    with pytest.raises(RuntimeError, match="exited 2"):
        bench.cold_main(src, ("verify", "is", "--n-max", "3"))()


def test_ab_decision_rule():
    bench = _load_bench()
    assert (bench.PAIRS, bench.ALPHA, bench.MIN_CHANGE) == (21, 0.05, 0.03)
    # the Bonferroni threshold: 16 wins of 21 resolve one row, 19 are needed among 140
    assert (bench.min_wins(21, 1), bench.min_wins(21, 140)) == (16, 19)
    assert bench.verdict([0.9] * 16 + [1.1] * 5, 1) == "faster"
    assert bench.verdict([1.1] * 16 + [0.9] * 5, 1) == "slower"
    assert bench.verdict([0.9] * 15 + [1.1] * 6, 1) == "unresolved"   # too few wins
    assert bench.verdict([0.98] * 21, 1) == "unresolved"              # inside +-3%
    assert bench.verdict([0.9] * 19 + [1.1] * 2, 140) == "faster"
    assert bench.verdict([0.9] * 18 + [1.1] * 3, 140) == "unresolved"
    # two rows of an A/A run of 44 check rows: 16 of 21 lost at 1.035, 18 of 21 won at 0.969
    assert bench.verdict([1.035] * 16 + [0.98] * 5, 44) == "unresolved"
    assert bench.verdict([0.969] * 18 + [1.02] * 3, 44) == "unresolved"
