"""Byte-for-byte regression of the subcommands whose output involves no BLAS.

Each expected file under tests/golden/ is the exact stdout of one invocation;
the `*_config` cases read their settings from the `.cfg` file beside it.
`verify` is left out except for the `dynamics` suite: the other suites'
deviations are rounding residues of BLAS and LAPACK calls, so their last
digits depend on the linked library, while the dynamics checks are integer
eigenvalue maps and scalar `math`/`cmath` arithmetic on a few exponentials,
with no BLAS or LAPACK call at all.
"""

from pathlib import Path

import pytest

from bateman.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_ft_plus": ["spectrum", "--approach", "ft", "--branch", "+"],
    "spectrum_ft_minus": ["spectrum", "--approach", "ft", "--branch", "-"],
    "spectrum_is_plus": ["spectrum", "--approach", "is", "--branch", "+"],
    "spectrum_is_minus": ["spectrum", "--approach", "is", "--branch", "-"],
    "spectrum_csv": ["spectrum", "--format", "csv"],
    "spectrum_text": ["spectrum", "--format", "text"],
    "classify_is_2_2": ["classify", "--approach", "is", "--n1", "2", "--n2", "2"],
    "classify_ft_1_0_minus": ["classify", "--approach", "ft", "--n1", "1", "--branch", "-"],
    "evolve_ft": ["evolve", "--approach", "ft"],
    "evolve_is": ["evolve", "--approach", "is"],
    "evolve_is_2_1_minus": ["evolve", "--approach", "is", "--n1", "2", "--n2", "1",
                            "--branch", "-"],
    "norms": ["norms"],
    "norms_theta_0.7": ["norms", "--theta", "0.7"],
    "spectrum_config": ["spectrum", "--config", str(GOLDEN / "spectrum_config.cfg")],
    "norms_config": ["norms", "--config", str(GOLDEN / "norms_config.cfg")],
    "verify_dynamics": ["verify", "dynamics"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)
