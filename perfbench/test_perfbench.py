"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import norm_reference
import run

RUN = [sys.executable, str(run.HERE / "run.py")]


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_reference_matches_closed_forms_and_program_grids():
    sys.path.insert(0, str(run.SRC))
    from bateman import cli, ft

    for theta in (0.3, 1.0, norm_reference.NORMS_THETAS[-1]):
        c = math.cos(theta)
        for (n1, n2), closed in {(0, 0): 1 / c, (1, 0): 1 / c**2, (1, 1): (2 - c * c) / c**3}.items():
            assert norm_reference.rel_dev(float(norm_reference.standard_norm(theta, n1, n2)),
                                          closed) < 1e-9
    assert norm_reference.FIT_THETAS == ft.FIT_THETA_GRID
    assert norm_reference.NORMS_THETAS == tuple(cli.MODERATE_GRID) + tuple(
        math.pi / 2 - eps for eps in cli.EDGE_EPSILONS)
    assert norm_reference.NORMS_STATES == cli._CLOSED_FORM_PAIRS


def norms_payload(reference, scale_row=None):
    rows_ref, slopes_ref = reference
    rows = [{"n1": n1, "n2": n2, "big_theta": t, "value": v * (1.001 if (n1, n2, t) == scale_row else 1)}
            for (n1, n2, t), v in rows_ref.items()]
    fits = [{"n1": n1, "n2": n2, "slope": s} for (n1, n2), s in slopes_ref.items()]
    return {"rows": rows, "fits": fits}


def test_norm_check_counts_the_wall_rows_and_fails_the_others():
    reference = norm_reference.norms_reference()
    assert run.check_norms(norms_payload(reference), reference) == (
        [], {"ft.norm_rows_off": 0, "ft.fit_slope_dev": 0.0})
    wall = (2, 1, norm_reference.KNOWN_OFF_THETAS[-1])
    problems, quality = run.check_norms(norms_payload(reference, wall), reference)
    assert problems == [] and quality["ft.norm_rows_off"] == 1
    problems, quality = run.check_norms(norms_payload(reference, (2, 1, 1.4)), reference)
    assert len(problems) == 1 and quality["ft.norm_rows_off"] == 1


def test_checker_fails_bad_exit_non_json_and_changed_bytes():
    checker = run.Checker(run.WORKLOADS["verify-is-n24"], None)
    good = json.dumps({"passed": True, "checks": [], "counts": {"total": 14}})
    argv = ["verify", "is"]
    checker(argv, {"exit": 0, "stdout": good, "stderr": ""})
    assert (checker.attempted, checker.failed) == (1, 0)
    checker(argv, {"exit": 1, "stdout": good, "stderr": ""})
    checker(argv, {"exit": 0, "stdout": good + " ", "stderr": ""})
    checker(argv, {"exit": 0, "stdout": "not json", "stderr": ""})
    assert (checker.attempted, checker.failed) == (4, 3)


def test_traced_invocation_prints_the_same_bytes_and_repeats_work_counts():
    argv = ["verify", "is", "--n-max", "8"]
    plain = run.invoke(argv)
    traced = [run.invoke(argv, trace=True) for _ in range(2)]
    assert plain["exit"] == 0
    assert all(t["stdout"] == plain["stdout"] for t in traced)
    work = [t["trace"]["work"]["fock.matrix_exp.work_dim3"] for t in traced]
    assert work[0] == work[1] > 0


@pytest.mark.parametrize("workload", ["verify-is-n24", "oracle-seeds"])
def test_traced_run_is_correct_and_sees_the_expected_layers(workload):
    proc = subprocess.run([*RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "1"], capture_output=True, text=True, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["ft.ft_standard_norm.calls"] == 0
    if workload == "verify-is-n24":
        assert metrics["fock.matrix_exp.calls"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "norms-wall",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
