"""Command line surface: output contracts, exit codes, config handling.

Flag parse failures surface as SystemExit(2) from argparse; everything the
command layer catches itself comes back as a plain return code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bateman.cli import COMMANDS, EDGE_EPSILONS, MODERATE_GRID, build_parser, main
from bateman.verify import SUITES
from test_golden import CASES as GOLDEN_CASES

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- spectrum ----------------------------------------------------------------

def test_spectrum_is_plus_csv(capsys):
    rc, out, _ = run(capsys, "spectrum", "--approach", "is", "--branch", "+",
                     "--n-cap", "1", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        "n1,n2,p,q,re,im,class",
        "0,0,1,0,1,0,stable",
        "0,1,2,-1,2,-0.5,decaying",
        "1,0,2,1,2,0.5,growing",
    ]


def test_spectrum_ft_minus_ground(capsys):
    rc, out, _ = run(capsys, "spectrum", "--approach", "ft", "--branch", "-",
                     "--n-cap", "0", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[1] == "0,0,0,-1,0,-0.5,decaying"


def test_spectrum_ground_state_real_parts(capsys):
    # same truncation, same branch: only the constructions differ
    _, out_ft, _ = run(capsys, "spectrum", "--approach", "ft", "--n-cap", "0")
    _, out_is, _ = run(capsys, "spectrum", "--approach", "is", "--n-cap", "0")
    row_ft = json.loads(out_ft)["rows"][0]
    row_is = json.loads(out_is)["rows"][0]
    assert row_ft["re"] == 0
    assert row_ft["im"] == 0.5  # hbar * lambda on the + branch
    assert row_is["re"] == 1  # hbar * omega
    assert row_is["im"] == 0


def test_spectrum_json_shape(capsys):
    rc, out, _ = run(capsys, "spectrum", "--n-cap", "2")
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["params"]["lambda"] == 0.5
    assert len(doc["rows"]) == 6  # states with n1+n2 <= 2


def test_json_output_deterministic(capsys):
    args = ("spectrum", "--approach", "is", "--n-cap", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# --- norms -------------------------------------------------------------------

def test_norms_explicit_theta_narrows_grid(capsys):
    rc, out, _ = run(capsys, "norms", "--theta", "0.15", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n1,n2,big_theta,value,closed_form,rel_dev"
    body = [l.split(",") for l in lines[1:]]
    assert {row[2] for row in body} == {"0.29999999999999999"}


def test_norms_closed_forms_agree(capsys):
    rc, out, _ = run(capsys, "norms", "--format", "csv")
    assert rc == 0
    for line in out.splitlines()[1:]:
        parts = line.split(",")
        if parts[4]:
            assert float(parts[5]) <= 1e-8


def test_norms_report_has_no_truncation(capsys):
    rc, out, _ = run(capsys, "norms")
    assert rc == 0
    doc = json.loads(out)
    assert "n_max" not in doc
    assert len(doc["rows"]) == 32
    _, text, _ = run(capsys, "norms", "--format", "text")
    assert text.splitlines()[0] == "standard norms"


def test_theta_help_states_both_defaults(capsys):
    # one declaration serves verify and norms, so its help names both defaults
    assert len(MODERATE_GRID) + len(EDGE_EPSILONS) == 8
    for command in ("norms", "verify"):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(verify: default 0.3; norms: without it, the 8-angle grid, " in text


def test_verify_help_lists_the_suites_and_all(capsys):
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    assert "[{algebra,ft,is,dynamics,all}]" in capsys.readouterr().out


# --- classify / evolve -------------------------------------------------------

def test_classify_text(capsys):
    rc, out, _ = run(capsys, "classify", "--approach", "is", "--branch", "-",
                     "--n1", "2", "--n2", "0", "--format", "text")
    assert rc == 0
    assert out.strip() == "(2,0) approach=is branch=-: p=3 q=-2 class=decaying"


def test_evolve_csv(capsys):
    rc, out, _ = run(capsys, "evolve", "--approach", "ft", "--branch", "+",
                     "--n1", "1", "--n2", "0", "--times", "0,0.5,1",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,re_factor,im_factor,abs2_factor"
    assert lines[1] == "0,1,0,1"
    last = lines[3].split(",")
    # eigenvalue 1 + i, so |factor(1)|^2 = e^2
    assert abs(float(last[3]) - 7.38905609893065) <= 1e-10


# --- verify ------------------------------------------------------------------

def test_verify_algebra_passes(capsys):
    rc, out, _ = run(capsys, "verify", "algebra", "--format", "text")
    assert rc == 0
    assert out.splitlines()[-1] == "OK"


def test_verify_adapts_to_coarse_truncation(capsys):
    rc, _, _ = run(capsys, "verify", "ft", "--n-max", "4")
    assert rc == 0


@pytest.mark.parametrize("suite,count", [("ft", 16), ("is", 14)])
def test_verify_passes_at_the_largest_n_max(capsys, suite, count):
    rc, out, _ = run(capsys, "verify", suite, "--n-max", "48")
    assert rc == 0
    assert json.loads(out)["counts"] == {"total": count, "passed": count, "failed": 0}


@pytest.mark.parametrize("n_max,states", [(4, 6), (5, 10), (6, 15)])
def test_verify_is_passes_at_small_n_max(capsys, n_max, states):
    # is.matrix-element covers the states with n1 + n2 <= min(5, n_max - 2)
    rc, out, _ = run(capsys, "verify", "is", "--n-max", str(n_max))
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert rc == 0 and len(checks) == 14
    assert checks["is.matrix-element"]["detail"]["states"] == states


@pytest.mark.parametrize("argv,count", [(["verify", "is", "--n-max", "24"], 14),
                                        (["verify", "all"], 44)])
def test_verify_runs_without_an_svd(monkeypatch, capsys, argv, count):
    # the bounded-frame vacuum is e_(0,0) by construction, no nullspace search
    def svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["counts"]["passed"] == count
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources and not [path.name for path in sources if "svd" in path.read_text()]


@pytest.mark.parametrize("flags", [["--hbar", "1e-8"], ["--gamma", "1e-6", "--k", "1e-8"],
                                   ["--hbar", "1e6"], ["--k", "1e8"], ["--k", "1e6"],
                                   ["--gamma", "300", "--k", "1e5"],
                                   ["--gamma", "1000", "--k", "1e6"],
                                   ["--m", "1e-4", "--k", "1e4"],
                                   ["--k", "1e10"], ["--hbar", "1e10"],
                                   ["--gamma", "1e4", "--k", "1e9"],
                                   ["--gamma", "1.99999999", "--k", "1"]])
def test_verify_all_passes_at_far_physical_scales(capsys, flags):
    # the non-normality witness, [H0, H1] and the quadratic-root residual are
    # gated relative to the scale of H and of k, not against absolute numbers;
    # the eigenvector residual relative to hbar (omega + lambda), not to |E|:
    # near critical damping omega = 1e-4 lambda, and |E| of an n1 = n2 state is
    # (n1 + n2 + 1) hbar omega;
    # dynamics.factor samples e^{2 lambda t} at times that shrink with 1/lambda;
    # the Heisenberg rates scale with omega and lambda, the H identities with
    # hbar max(omega, lambda) and x, y with sqrt(hbar / m omega)
    rc, out, _ = run(capsys, "verify", "all", *flags)
    failed = [c["check_id"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert rc == 0 and failed == []


def test_verify_corrupt_check_fails(capsys):
    rc, out, _ = run(capsys, "verify", "algebra", "--corrupt-check",
                     "algebra.boundary-defect", "--format", "text")
    assert rc == 1
    assert "FAIL algebra.boundary-defect" in out


def test_verify_corrupt_norm_check_fails(capsys):
    rc, out, _ = run(capsys, "verify", "ft", "--n-max", "4", "--corrupt-check",
                     "ft.norm.closed-forms")
    assert rc == 1
    doc = json.loads(out)
    assert [c["check_id"] for c in doc["checks"] if not c["passed"]] == ["ft.norm.closed-forms"]


def test_verify_rejects_huge_n_max_before_building(monkeypatch, capsys):
    def no_suite(*args):
        raise AssertionError("a suite ran despite the n_max guard")

    monkeypatch.setattr("bateman.cli.run_suite", no_suite)
    rc, out, err = run(capsys, "verify", "ft", "--n-max", "1000")
    assert rc == 2
    assert out == ""
    # 2 n_max + 1 = 2001 stored diagonals of the 1001^2 states, 16 bytes an entry
    assert "n_max <= 48" in err
    assert "2001 offsets x 1,002,001 states x 16 = 32,080,064,016 bytes" in err


@pytest.mark.parametrize("check_id", ["nosuch", "ft.gram"])
def test_verify_rejects_a_corrupt_check_outside_the_suite(capsys, check_id):
    # the negative control must run: an id no check of the suite carries exits 2
    rc, out, err = run(capsys, "verify", "is", "--corrupt-check", check_id)
    assert rc == 2
    assert out == ""
    assert repr(check_id) in err and "is.gram" in err and "is.tilde" in err


def test_verify_crash_is_a_failed_check_not_a_traceback(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("synthetic crash")

    monkeypatch.setattr("bateman.verify.derive_params", broken)
    rc, out, err = run(capsys, "verify", "algebra")
    assert rc == 1
    assert "Traceback" not in err
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [c["check_id"] for c in failed] == ["algebra.params"]
    assert failed[0]["detail"]["error"] == "ValueError: synthetic crash"


def test_verify_json_counts(capsys):
    rc, out, _ = run(capsys, "verify", "dynamics")
    doc = json.loads(out)
    assert rc == 0
    assert doc["passed"] is True
    assert doc["counts"]["failed"] == 0
    assert doc["counts"]["total"] == len(doc["checks"])


# --- config and errors -------------------------------------------------------

def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_cap=3\napproach=is\nbranch=+\n")
    rc, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--n-cap", "0",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2  # flag overrides the file value
    assert lines[1].startswith("0,0,1,0")  # approach=is came from the file


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=3\n")
    rc, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert rc == 2
    assert "unknown config key" in err


def test_flag_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n-max", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    # approach names live in the cli alone, so the cli rejects an unknown one
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--approach", "nope"])
    assert exc.value.code == 2


def test_domain_error_exits_2(capsys):
    rc, _, err = run(capsys, "spectrum", "--gamma", "5")  # overdamped
    assert rc == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("command", ["spectrum", "classify", "norms", "verify"])
@pytest.mark.parametrize("flags", [["--m", "1e-200", "--k", "1e200"],
                                   ["--m", "1e-300", "--gamma", "1e-300", "--k", "1e10"]])
def test_parameters_whose_omega_overflows_exit_2(capsys, command, flags):
    # omega once printed as nan with exit 0
    rc, out, err = run(capsys, command, *flags)
    assert rc == 2
    assert out == "" and err.startswith("error: derived frequencies are not finite: ")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "spectrum", "--n-cap", "1", "--out", str(target))
    assert rc == 0
    assert out == ""
    _, stdout_doc, _ = run(capsys, "spectrum", "--n-cap", "1")
    assert target.read_text() == stdout_doc


def test_unexpected_exception_exits_2_without_traceback(capsys, monkeypatch):
    # evolve rejects an overflowing factor itself, so the catch-all is reached by a
    # command that fails outside the package's own errors
    def overflow(args):
        raise OverflowError("math range error")

    monkeypatch.setitem(COMMANDS, "evolve", overflow)
    rc, out, err = run(capsys, "evolve", "--times", "1e6")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: OverflowError: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,time", [
    (["--approach", "is", "--n1", "3", "--n2", "3", "--times", "1e308"], "1e+308"),  # phase NaN
    (["--times", "1e308"], "1e+308"),                   # e^{lambda t} overflows in exp
    (["--approach", "is", "--n1", "100", "--times", "10"], "10.0"),  # |factor|^2 overflows
    (["--times", "0,1e6"], "1000000.0"),
    (["--approach", "is", "--n1", "1", "--n2", "1", "--times", "1e10"], "10000000000.0"),
    (["--approach", "is", "--n1", "1", "--n2", "1", "--times", "1e17"], "1e+17"),  # phase lost
])
def test_evolve_rejects_a_factor_out_of_float_range(capsys, argv, time):
    # a domain error that names the time and the state, before any output
    rc, out, err = run(capsys, "evolve", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: --times {time}: ") and "state (" in err


def test_evolve_prints_a_phase_that_keeps_its_digits(capsys):
    # the phase argument is 3e9 rad, below the 2^33 rad from which six digits are unsure
    rc, out, err = run(capsys, "evolve", "--approach", "is", "--n1", "1", "--n2", "1",
                       "--times", "1e9", "--format", "text")
    assert rc == 0 and err == ""
    assert out.splitlines()[-1].startswith("t=1e+09    factor=(")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_times_rejected(capsys, value):
    rc, out, err = run(capsys, "evolve", "--times", f"0,{value}")
    assert rc == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("flags", [["--theta", "nan"], ["--theta", "inf"], ["--theta=-inf"],
                                   ["--n-max", "3"], ["--n-max", "49"]])
def test_verify_rejects_bad_config_with_exit_2(capsys, flags):
    # exit 1 means a check failed; a config no check can pass under is a usage error
    rc, out, err = run(capsys, "verify", "algebra", *flags)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("theta", ["0.9", "-0.9"])
def test_verify_rejects_a_divergent_theta_with_exit_2(capsys, theta):
    # |tan theta| > 1: the ft vacuum series diverges, as norms rejects its own out-of-range angle
    rc, out, err = run(capsys, "verify", "ft", "--theta", theta)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "vacuum series diverges" in err
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: ft.gram reads the truncated Gram "
                   "(1.73 at n_max 8, theta 0.5) against a tail model of 1.63")
def test_verify_ft_exits_0_or_2_at_n_max_8_and_theta_half(capsys):
    # an accepted input must pass or be rejected, never fail verification
    rc, _, err = run(capsys, "verify", "ft", "--n-max", "8", "--theta", "0.5")
    assert rc in (0, 2) and "Traceback" not in err


def test_verify_rejects_theta_past_the_quarter_turn_with_exit_2(capsys):
    # |tan 3.0| = 0.14, yet e^{3X} is not the rotation that the vacuum series sums
    rc, out, err = run(capsys, "verify", "ft", "--theta", "3.0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "pi/4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["norms", "--n-max", "3"], ["classify", "--times", "1"],
                                  ["spectrum", "--chi-sign", "+"], ["verify", "--margin", "2"],
                                  ["verify", "--tol-scale", "1"]])
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("suite,check_id", [pytest.param(suite, fn.check_id, id=fn.check_id)
                                            for suite, checks in SUITES.items() for fn in checks])
def test_corrupt_check_exits_1_through_the_cli(capsys, suite, check_id):
    # the negative control end to end: the named check, and only it, fails the run
    rc, out, _ = run(capsys, "verify", suite, "--n-max", "8", "--corrupt-check", check_id)
    assert rc == 1
    failed = [c["check_id"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == [check_id]


# --- config keys are the subcommand's own flags -------------------------------

@pytest.mark.parametrize("command,text,key", [
    ("spectrum", "n_max=3\n", "n_max"),      # a verify flag
    ("norms", "n_cap=99\n", "n_cap"),        # a spectrum flag, out of spectrum's range too
    ("spectrum", "times=1,nan\n", "times"),  # an evolve flag, not even a valid value there
])
def test_config_key_of_another_subcommand_exits_2(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize("key,value", [("margin", "2"), ("tol_scale", "1")])
def test_verify_takes_no_window_or_tolerance_key(tmp_path, capsys, key, value):
    # the truncation sets every comparison window, and no tolerance can be loosened
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    rc, out, err = run(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize("text,words", [
    ("times=1,nan\n", "finite"),
    ("branch=plus\n", "'branch' must be one of +, -"),
    ("format=xml\n", "'format' must be one of json, csv, text"),
    ("n1=1.5\n", "'n1' is not valid"),
    ("approach=nope\n", "'approach' must be one of ft, is"),
])
def test_config_value_failing_its_flag_exits_2(tmp_path, capsys, text, words):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, "evolve", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert words in err and "Traceback" not in err


_DEFAULT_CONFIGS = {
    "spectrum": "approach=ft\nbranch=+\nn_cap=6\n",
    "norms": "theta=0.3\n",
    "classify": "approach=ft\nbranch=+\nn1=0\nn2=0\n",
    "evolve": "approach=ft\nbranch=+\nn1=0\nn2=0\ntimes=0,0.25,0.5,0.75,1,1.25,1.5,1.75,2\n",
    # n_max and corrupt_check default to unset, which a config file cannot write
    "verify": "theta=0.3\nseed=20260823\n",
}


@pytest.mark.parametrize("command", sorted(_DEFAULT_CONFIGS))
def test_config_of_defaults_matches_no_config(tmp_path, capsys, command):
    argv = [command, "dynamics"] if command == "verify" else [command]
    written = "m=1\ngamma=1\nk=1.25\nhbar=1\nformat=json\n" + _DEFAULT_CONFIGS[command]
    keys = {line.partition("=")[0] for line in written.splitlines()}
    unset = {"out", "config"} | ({"n_max", "corrupt_check"} if command == "verify" else set())
    assert keys | unset == set(build_parser().parse_args(argv).flags)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(written)
    rc, from_file, _ = run(capsys, *argv, "--config", str(cfg))
    # a theta given at all narrows the norms grid, so its reference names it too
    reference = argv + ["--theta", "0.3"] if command == "norms" else argv
    rc_ref, expected, _ = run(capsys, *reference)
    assert rc == rc_ref == 0
    assert from_file == expected


# --- the parser of one command line --------------------------------------------

def _parse(parser, argv, capsys):
    """What parsing argv does: its namespace, or argparse's exit code and output."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


_PARSE_ARGVS = [
    ["--help"], ["--version"], [], ["bogus"], ["bogus", "--m", "2"],
    *([command, "--help"] for command in COMMANDS),
    *GOLDEN_CASES.values(),
    ["verify", "algebra", "--seed", "7"], ["verify", "--see", "7"], ["verify", "nope"],
    ["norms", "--n1", "3"], ["spectrum", "--theta", "0.2"], ["norms", "--m"],
]


@pytest.mark.parametrize("argv", _PARSE_ARGVS, ids=" ".join)
def test_parser_of_a_command_line_parses_it_as_the_full_parser(capsys, argv):
    # help, usage errors and namespaces of the flags that argv[0] registers alone
    assert _parse(build_parser(argv), argv, capsys) == _parse(build_parser(), argv, capsys)


def test_parser_of_a_command_registers_only_its_flags():
    subparsers = build_parser(["norms"])._subparsers._group_actions[0].choices
    assert list(subparsers) == ["norms"]
    registered = {a.dest for a in subparsers["norms"]._actions} - {"help"}
    assert registered == {"m", "gamma", "k", "hbar", "format", "out", "config", "theta"}
    # without a named command every subparser is there, each with its flags
    full = build_parser(["--help"])._subparsers._group_actions[0].choices
    assert list(full) == list(COMMANDS)
    assert all({a.dest for a in sp._actions} - {"help"} for sp in full.values())


# --- imports ------------------------------------------------------------------

def test_scipy_linalg_never_imported():
    # numpy is the only numerical dependency at run time: no scipy module is
    # loaded by the import, by `norms` or by `verify all`, and `verify all`
    # does not load numpy.ma either.  The benchmark tracer wraps the layer
    # modules that `import bateman.cli` loaded, so each must still be loaded.
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import LAYERS\n"
        "def scipy():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import bateman.cli\n"
        "report = {'import': scipy(),\n"
        "          'layers': [x for x in LAYERS if 'bateman.' + x not in sys.modules]}\n"
        "for argv in (['norms'], ['verify', 'all']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        report[argv[0] + ' rc'] = bateman.cli.main(argv)\n"
        "    report[argv[0]] = scipy()\n"
        "report['numpy.ma'] = 'numpy.ma' in sys.modules\n"
        "print(json.dumps(report))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": [], "layers": [], "norms rc": 0, "norms": [],
                                       "verify rc": 0, "verify": [], "numpy.ma": False}
