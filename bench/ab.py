"""Paired A/B comparison of this tree with a parent tree: output bytes and check times.

    python bench/ab.py --parent DIR [--out FILE]

DIR is a checkout of the commit to compare with (a `git clone` or `git
archive` of it), with its package under DIR/src/bateman.  The script never
writes into either tree: each tree's `src` is copied to a temporary directory
and compiled there first, so both sides run on fresh bytecode, whatever the
trees' own caches hold and whatever PYTHONDONTWRITEBYTECODE says.

Output diff: every invocation of INVOCATIONS runs as `python -m bateman.cli`
in a fresh child of each tree, and stdout, stderr and the exit code are
compared byte for byte.

Paired timing: both trees are loaded into this one interpreter under two
package names (every import inside `bateman` is relative).  Each check of
`verify all`, at the CLI defaults, runs once per side to warm the caches and
is then timed PAIRS times per side in CPU seconds, alternating which side
runs first.  A row reports the median of the per-pair ratios child/parent and
the number of pairs the child won (ran faster).

Decision rule, fixed before any measurement: a row is a resolved change only
if one side wins at least MIN_WINS of PAIRS pairs (a one-sided sign test at
p < 0.03) and the median ratio lies beyond 1 -+ MIN_CHANGE in that side's
favor.  Every other row is reported as unresolved, not as a gain or a loss.

The JSON record (both sides, the machine, the diff and the rows) goes to
FILE, or to stdout without `--out`; a summary goes to stderr.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 21
MIN_WINS = 16
MIN_CHANGE = 0.03
#: the CLI's default physical parameters, which `verify all` runs at
DEFAULT_PARAMS = dict(m=1.0, gamma=1.0, k=1.25)
#: a fresh package name per load, so no load reads another's modules from sys.modules
_LOADS = itertools.count()


def _scalar_invocations() -> list[list[str]]:
    """spectrum, classify and evolve for both approaches, both branches and every format."""
    out = []
    for command in (["spectrum"], ["classify", "--n1", "2", "--n2", "2"], ["evolve", "--n1", "1"]):
        for approach in ("ft", "is"):
            for branch in ("+", "-"):
                for fmt in ("json", "csv", "text"):
                    out.append(command + ["--approach", approach, "--branch", branch,
                                          "--format", fmt])
    return out


INVOCATIONS = [
    ["verify", "all"],
    ["verify", "all", "--seed", "1"],
    ["verify", "all", "--m", "1.3", "--gamma", "0.7", "--k", "2.1"],
    ["verify", "all", "--corrupt-check", "is.h-identity.quarter"],
    ["verify", "is"],
    ["verify", "is", "--n-max", "8"],
    ["verify", "is", "--n-max", "16"],
    ["verify", "is", "--n-max", "24"],
    ["verify", "ft"],
    ["verify", "dynamics"],
    ["verify", "algebra", "--seed", "5"],
    ["norms"],
    ["norms", "--theta", "0.4"],
    *_scalar_invocations(),
    ["verify", "is", "--n-max", "3"],                       # exit 2: below the smallest n_max
    ["spectrum", "--approach", "is", "--n-cap", "17"],      # exit 2: past the largest n_cap
]


# ---------------------------------------------------------------------------
# the two trees


def stage(tree: Path, into: Path) -> Path:
    """A copy of tree/src under into, compiled to fresh bytecode; returns the copy."""
    src = into / "src"
    shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if not compileall.compile_dir(str(src), quiet=1, force=True):
        raise RuntimeError(f"{tree / 'src'} does not compile")
    return src


def revision(tree: Path) -> str | None:
    """The tree's git commit, when it is a git checkout (the record names no local path)."""
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def dirty(tree: Path) -> bool | None:
    """Whether the tree's files differ from its commit, when it is a git checkout."""
    done = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src", "bench"],
                          capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def run_cli(src: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of `python -m bateman.cli argv` in a fresh child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "bateman.cli", *argv],
                          capture_output=True, env=env, cwd=src, timeout=300)
    return done.stdout, done.stderr, done.returncode


def diff_outputs(child: Path, parent: Path, invocations=INVOCATIONS) -> list[dict]:
    """One row per invocation: which of stdout, stderr and exit code differ between the sides."""
    rows = []
    for argv in invocations:
        got, want = run_cli(child, argv), run_cli(parent, argv)
        differs = [name for name, a, b in zip(("stdout", "stderr", "exit"), got, want) if a != b]
        rows.append({"argv": argv, "exit": [got[2], want[2]], "differs": differs})
    return rows


def load(src: Path, name: str):
    """The bateman package under src, imported as name; returns its verify and params modules."""
    spec = importlib.util.spec_from_file_location(
        name, src / "bateman" / "__init__.py", submodule_search_locations=[str(src / "bateman")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.verify"), importlib.import_module(f"{name}.params")


def _checks(verify, params) -> tuple[dict, object]:
    """{check id: check} of `verify all` in suite order, and the default config."""
    checks = {fn.check_id: fn for suite in verify.SUITE_NAMES for fn in verify.SUITES[suite]}
    return checks, verify.VerifyConfig(params=params.derive_params(**DEFAULT_PARAMS))


# ---------------------------------------------------------------------------
# paired timing


def verdict(ratios: list[float]) -> str:
    """The decision rule of the module docstring, on the per-pair ratios child/parent."""
    median = statistics.median(ratios)
    if sum(r < 1.0 for r in ratios) >= MIN_WINS and median < 1.0 - MIN_CHANGE:
        return "faster"
    if sum(r > 1.0 for r in ratios) >= MIN_WINS and median > 1.0 + MIN_CHANGE:
        return "slower"
    return "unresolved"


def _cpu(fn, cfg) -> float:
    start = time.process_time()
    fn(cfg)
    return time.process_time() - start


def paired_timings(child: Path, parent: Path, pairs: int = PAIRS, check_ids=None) -> list[dict]:
    """One row per check both sides run: the per-side medians, the median ratio and the wins."""
    (c_checks, c_cfg), (p_checks, p_cfg) = (_checks(*load(src, f"ab_{side}_{next(_LOADS)}"))
                                            for side, src in (("child", child), ("parent", parent)))
    ids = [i for i in c_checks if i in p_checks and (check_ids is None or i in check_ids)]
    rows = []
    for check_id in ids:
        sides = ((c_checks[check_id], c_cfg), (p_checks[check_id], p_cfg))
        for fn, cfg in sides:
            fn(cfg)  # warm the ladder caches of each side
        times = ([], [])
        for k in range(pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for side in order:
                times[side].append(_cpu(*sides[side]))
        ratios = [c / p if p > 0 else float("inf") for c, p in zip(*times)]
        rows.append({"check": check_id, "child_median_s": statistics.median(times[0]),
                     "parent_median_s": statistics.median(times[1]),
                     "median_ratio": statistics.median(ratios),
                     "wins": sum(r < 1.0 for r in ratios), "pairs": pairs,
                     "verdict": verdict(ratios)})
    only = sorted(set(c_checks) ^ set(p_checks))
    if only:
        rows.append({"check": "one side only", "ids": only})
    return rows


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "clock": "time.process_time (CPU seconds of this process)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the tree to compare with")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "bateman" / "__init__.py").is_file():
        parser.error(f"{parent} holds no src/bateman package")
    with tempfile.TemporaryDirectory(prefix="bateman-ab-") as tmp:
        child_src = stage(ROOT, Path(tmp) / "child")
        parent_src = stage(parent, Path(tmp) / "parent")
        diff = diff_outputs(child_src, parent_src)
        rows = paired_timings(child_src, parent_src)
    record = {
        "machine": machine(),
        "sides": {"child": {"revision": revision(ROOT), "worktree_changes": dirty(ROOT)},
                  "parent": {"revision": revision(parent), "worktree_changes": dirty(parent)}},
        "rule": {"pairs": PAIRS, "min_wins": MIN_WINS, "min_change": MIN_CHANGE},
        "invocations": diff,
        "rows": rows,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    differing = [" ".join(r["argv"]) for r in diff if r["differs"]]
    print(f"{len(diff) - len(differing)} of {len(diff)} invocations byte-identical"
          + "".join(f"\n  differs: {d}" for d in differing), file=sys.stderr)
    for r in rows:
        if "verdict" in r:
            print(f"{r['check']:32s} ratio {r['median_ratio']:.3f} wins {r['wins']:2d}/{r['pairs']}"
                  f" {r['verdict']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
