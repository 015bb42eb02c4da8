"""Benchmark of the `bateman` CLI, driven the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ./src.

Closed loop, one client: each CLI invocation runs in a fresh child process
(child.py), one after the other, so every call pays the cold import, the empty
`verify._ladder` cache and scipy's lazy imports, as a user's call does.  BLAS
runs on one thread, within the number of usable cores.  A workload is a fixed
list of invocations (one pass); an untraced run repeats whole passes for
--seconds and reports medians over passes.  A traced run makes one untraced
pass and then one traced pass, reports the per-layer numbers of the traced
pass and checks that both passes printed the same bytes.

Times are CPU seconds of the child process.  With one BLAS thread that is the
wall time on an idle machine; on a shared virtual machine the wall time also
counts time the host gave the core to someone else (steal), which spread
`bateman norms` by 15% between invocations against 4% for its CPU time.  The
wall time is printed too, for reference.

Every invocation is checked: exit 0, stdout is JSON, stdout is byte-identical
to the first run of the same invocation, and the workload's own check passes
(verify: all checks pass and the suite has its number of checks; norms: every
row matches an independent mpmath reference, see norm_reference.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import norm_reference
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a single client on one core is far less exposed to the other
# core's load than a two-thread BLAS barrier is, and it stays within nproc.
BLAS_THREADS = 1
SETUP_PROBES = 3          # import-only children per run, besides the invocations
ORACLE_SEEDS = 12         # `verify algebra` seeds per oracle-seeds pass
FIT_GATE = 0.05           # a fit slope further than this from the reference fails the invocation
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Public functions whose calls and self time the traced run reports; chosen as
# the ones an optimisation of a layer is most likely to move.
TRACED_FUNCTIONS = (
    "ft.ft_standard_norm",
    "ft.ft_norm_exponent_fit",
    "fock.matrix_exp",
    "ft.similarity_deviation",
    "ft.ft_basis_similarity",
    "imagscale.chi_similarity_deviation",
    "imagscale.tilde_similarity_deviation",
    "imagscale.is_check_vacuum",
    "imagscale.is_vacuum",
    "imagscale.is_basis",
    "imagscale.is_gram",
    "ft.ft_basis",
    "ft.ft_gram",
    "fock.commutator",
    "fock.interior_deviation",
    "fock.windowed_deviation",
    "ft.h1_in_bar",
    "imagscale.h_in_check",
    "algebra.vacuum_pairing",
    "algebra.basis_matrix_element",
    "algebra.apply_to_monomial_ket",
    "algebra.LadderPoly.normal_order",
    "ft.ft_hamiltonian_from_plain",
    "imagscale.is_hamiltonian_from_plain",
    "algebra.to_matrix",
    "algebra.matrix_vacuum_pairing",
    "fock.build_ladder",
    "cli.to_json",
    "cli.main",
)
SUITES = ("algebra", "ft", "is", "dynamics")

PER_LAYER = (
    tuple((f"{fn}.{kind}", unit) for fn in TRACED_FUNCTIONS
          for kind, unit in (("calls", "count"), ("self_s", "s")))
    + (("fock.matrix_exp.work_dim3", "count"),)
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + tuple((f"verify.{suite}.s", "s") for suite in SUITES)
    + (("ft.norm_rows_off", "count"), ("ft.fit_slope_dev", "slope"),
       ("trace.cpu_s", "s"), ("trace.overhead_s", "s"))
)


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing, child crashed)."""


# ---------------------------------------------------------------------------
# workloads


def check_verify(total: int):
    def check(payload: dict, reference) -> tuple[list[str], dict]:
        problems = []
        failed = [c.get("check_id") for c in payload.get("checks", []) if not c.get("passed")]
        if payload.get("passed") is not True or failed:
            problems.append(f"verify checks failed: {failed}")
        if payload.get("counts", {}).get("total") != total:
            problems.append(f"expected {total} checks, got {payload.get('counts')}")
        return problems, {}
    return check


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_norms(payload: dict, reference) -> tuple[list[str], dict]:
    rows_ref, slopes_ref = reference
    problems = []
    rows = {(r.get("n1"), r.get("n2"), r.get("big_theta")): r.get("value")
            for r in payload.get("rows", [])}
    if len(payload.get("rows", [])) != len(rows_ref) or set(rows) != set(rows_ref):
        problems.append("norms rows are not the default 4 states x 8 Theta grid")
    rows_off = 0
    for key, want in rows_ref.items():
        value = rows.get(key)
        if not _number(value) or value <= 0:
            problems.append(f"norm row {key} is not a positive finite number: {value!r}")
            rows_off += 1
        elif norm_reference.rel_dev(value, want) > norm_reference.ROW_RTOL:
            rows_off += 1
            if key[2] not in norm_reference.KNOWN_OFF_THETAS:
                problems.append(f"norm row {key} = {value!r} is off the reference {want!r}")
    fits = {(f.get("n1"), f.get("n2")): f.get("slope") for f in payload.get("fits", [])}
    slope_dev = 0.0
    for key, want in slopes_ref.items():
        slope = fits.get(key)
        if not _number(slope):
            problems.append(f"fit {key} slope is not a finite number: {slope!r}")
            continue
        slope_dev = max(slope_dev, abs(slope - want))
    if slope_dev > FIT_GATE:
        problems.append(f"fit slope off the reference by {slope_dev:.3g} > {FIT_GATE}")
    return problems, {"ft.norm_rows_off": rows_off, "ft.fit_slope_dev": slope_dev}


def oracle_argvs(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [["verify", "algebra", "--seed", str(rng.randrange(1, 2**31))]
            for _ in range(ORACLE_SEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]      # workload seed -> one pass
    check: Callable[[dict, object], tuple[list[str], dict]]
    reference: Callable[[], object] = lambda: None


WORKLOADS = {w.name: w for w in (
    Workload("verify-all",
             "the acceptance command users run; mixes dense Fock work, the norm chain "
             "and exact algebra, so cost shifted between layers shows",
             lambda seed: [["verify", "all", "--seed", str(seed)]],
             check_verify(44)),
    Workload("norms-wall",
             "nearly all time in the standard-norm chain, no dense Fock matrix; rows "
             "near the wall show accuracy traded for speed",
             lambda seed: [["norms"]],
             check_norms,
             norm_reference.norms_reference),
    Workload("verify-is-n24",
             "dense matrix work at dim 625 (SVD vacuum, matrix powers, expm, "
             "commutators) with no norm-chain call",
             lambda seed: [["verify", "is", "--n-max", "24"]],
             check_verify(14)),
    Workload("oracle-seeds",
             "exact Fraction algebra and many tiny ladders per call, the opposite use "
             "of the Fock layer from verify-is-n24",
             oracle_argvs,
             check_verify(9)),
)}


# ---------------------------------------------------------------------------
# invocations


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # an installed package imports from bytecode caches, so let the child write them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(argv: list[str], trace: bool = False) -> dict:
    """Run one CLI invocation (or, with no argv, only the import) in a fresh child."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), "1" if trace else "0", *argv],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child for {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


class Checker:
    """Checks each invocation's output and counts attempts and failures."""

    def __init__(self, workload: Workload, reference):
        self.workload = workload
        self.reference = reference
        self.first: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: dict = {}

    def __call__(self, argv: list[str], record: dict) -> None:
        self.attempted += 1
        problems = []
        if record["exit"] != 0:
            problems.append(f"exit {record['exit']}: {record['stderr']}")
        first = self.first.setdefault(tuple(argv), record["stdout"])
        if record["stdout"] != first:
            problems.append("stdout differs from the first run of the same invocation")
        try:
            payload = json.loads(record["stdout"])
        except json.JSONDecodeError as exc:
            problems.append(f"stdout is not JSON: {exc}")
        else:
            found, quality = self.workload.check(payload, self.reference)
            problems += found
            self.quality.update(quality)
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(argv)}: {p}" for p in problems]


def run_pass(argvs, checker: Checker, trace: bool = False) -> list[dict]:
    records = []
    for argv in argvs:
        record = invoke(argv, trace)
        checker(argv, record)
        records.append(record)
    return records


def pass_total(records, key: str = "cpu_s") -> float:
    return sum(r[key] for r in records)


# ---------------------------------------------------------------------------
# runs


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_metrics(argvs, checker: Checker, seconds: float, setups: list[float]) -> dict:
    cpus, walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        records = run_pass(argvs, checker)
        setups += [r["setup_cpu_s"] for r in records]
        cpus.append(pass_total(records))
        walls.append(pass_total(records, "wall_s"))
        rss.append(max(r["maxrss_mb"] for r in records))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    values = {"setup_s": statistics.median(setups), "cpu_s": statistics.median(cpus),
              "peak_rss_mb": statistics.median(rss)}
    print(f"passes: {len(cpus)}, setup samples: {len(setups)}, "
          f"wall_s (median, not judged): {statistics.median(walls):.6g} s")
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def traced_metrics(argvs, checker: Checker) -> dict:
    untraced = run_pass(argvs, checker)
    traced = run_pass(argvs, checker, trace=True)
    functions: dict[str, list] = {}
    work: dict[str, int] = {}
    suites = dict.fromkeys(SUITES, 0.0)
    for record in traced:
        trace = record["trace"]
        for name, stat in trace["functions"].items():
            total = functions.setdefault(name, [0, 0.0])
            total[0] += stat["calls"]
            total[1] += stat["self_s"]
        for name, count in trace["work"].items():
            work[name] = work.get(name, 0) + count
        for span in trace["checks"]:
            suites[span["suite"]] += span["duration_s"]
    values = {}
    for fn in TRACED_FUNCTIONS:
        calls, self_s = functions.get(fn, (0, 0.0))
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_s"] = self_s
    values.update(work)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s for name, (_, s) in functions.items()
                                        if name.split(".")[0] == layer)
    for suite, seconds in suites.items():
        values[f"verify.{suite}.s"] = seconds
    values.update({"ft.norm_rows_off": 0, "ft.fit_slope_dev": 0.0})
    values.update(checker.quality)
    values["trace.cpu_s"] = pass_total(traced)
    values["trace.overhead_s"] = pass_total(traced) - pass_total(untraced)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def provenance(workload: str, seed: int, version: str) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "bateman": version,
        "commit": commit or "unknown",
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    reference = workload.reference()
    argvs = workload.argvs(seed)
    # the first probe also writes the bytecode caches; the median absorbs it
    probes = [invoke([]) for _ in range(SETUP_PROBES)]
    print("provenance " + json.dumps(provenance(workload.name, seed, probes[0]["version"])))
    checker = Checker(workload, reference)
    if trace:
        metrics = traced_metrics(argvs, checker)
    else:
        metrics = untraced_metrics(argvs, checker, seconds, [p["setup_cpu_s"] for p in probes])
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"  {workload.name:<14} {'ops_failed':<34} {checker.failed:>14} of {checker.attempted}")
    shown = dict(metrics)
    if not trace:
        units = dict(PER_LAYER)
        shown.update((name.split(".")[1], metric(value, units[name]))
                     for name, value in checker.quality.items())
    for name, m in shown.items():
        print(f"  {workload.name:<14} {name:<34} {m['value']:>14.6g} {m['unit']}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bateman" / "cli.py").is_file():
        print(f"error: the bateman sources are not at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        else:
            result = run_all(args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced; tracing overhead is traced minus untraced CPU time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run(workload, seed, seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric_name, m in result["metrics"].items():
                combined["metrics"][f"{name}.{metric_name}"] = m
        untraced = combined["metrics"][f"{name}.cpu_s"]["value"]
        traced = combined["metrics"][f"{name}.trace.cpu_s"]["value"]
        print(f"  {name:<14} {'tracing overhead':<34} {traced - untraced:>14.6g} s")
    return combined


if __name__ == "__main__":
    sys.exit(main())
