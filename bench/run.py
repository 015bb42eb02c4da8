"""Per-layer CPU timings of the kernels that `bateman` runs.

    python bench/run.py [--out FILE]

Each row times one function of the package as the CLI calls it, in CPU
seconds of this process with BLAS on one thread: REPEATS repeats, each of
`calls` calls (1 unless the row says), and the median, minimum and maximum
of the time per call under "time", next to the layer and its parameters.

The truncated layers run at the n_max that `verify` resolves by default
(8, 12 and 24) and at the largest it accepts (48):

- the ladder and Hamiltonian build (`fock.build_ladder`, `build_hamiltonian`);
- `fock.sector_exp` of 0.3 X, Y and i pi/4 Z, each on the sectors of the
  charge it conserves, with the number of sectors and of stacks;
- the similarity reads: `construction.similarity_deviation` of e^{0.3 X} and
  e^{0.3i Z}, and `ft.ft_basis_similarity` of the states (0,0), (1,0), (2,1);
- the whole checks that call `fock.sector_exp` on every sector,
  `algebra.h-structure` (the non-unitarity of e^{0.3 X}, stack by stack)
  and `ft.exp-inverse` (e^{theta X} e^{-theta X} at theta 0.3), and the
  bounded frame's whole checks `is.vacuum` (both annihilators and creators
  against e_(0,0), and the mixing determinant) and `is.matrix-element` (the
  eigenvector residuals of the 21 states with n1 + n2 <= 5, fewer below
  n_max 7, on both branches), on the cached ladder that `verify` uses;
- `construction.identity_report` at each route's decoupling angle, the ladder
  product a1 @ a2 and `fock.commutator(H0, H1)`;
- `construction.gram` in the rotation frame at theta 0.3 and in the bounded
  frame, on the occupations that `ft.gram` and `is.gram` pair.

The layers without a truncation:

- `ft.ft_standard_norm` of the four `norms` states at each Theta of
  `norms`, and `ft._chain_standard_norms` of the same states at each Theta of
  `ft.norm.closed-forms` and of that check's 16 chains at once;
- the exact algebra: the `ft.spectrum` and `is.spectrum` sweeps (2 branches
  x 21 x 21 elements of H) and the 256-element `algebra.biorthonormality`
  sweep, one `basis_column` per ket, read on its stored bras and the ket
  itself as the checks read it, and next to each sweep its whole check,
  which also makes the exact compares; the 200 seeded polynomials of
  `algebra.cross-validation` (`verify._oracle_draws`), their normal orders,
  their vacuum pairings with the identity and their vacuum expectations,
  and the exact and the matrix half of that check;
- `import bateman.cli` in a fresh interpreter: the CPU time of the import
  and the peak RSS of the process;
- `cli.build_parser`, with every subcommand and with the `norms` subcommand
  alone, as `bateman norms` builds it.

Accuracy references live in the tests, and each replaced route's comparison
with its successor in the committed BENCH_6/7/10/12/14/15/19.json: a change
that replaces a kernel runs this script at its parent and at itself.
The JSON record goes to FILE, or to stdout without `--out`, and carries the
machine: core count, Python, numpy and BLAS versions.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from bateman import cli, verify  # noqa: E402
from bateman.algebra import (  # noqa: E402
    LadderPoly,
    basis_column,
    vacuum_expectation,
    vacuum_pairing,
)
from bateman.construction import (  # noqa: E402
    gram,
    hamiltonian_from_plain,
    identity_report,
    similarity_deviation,
    transform,
)
from bateman.fock import build_hamiltonian, build_ladder, commutator, sector_exp  # noqa: E402
from bateman.ft import (  # noqa: E402
    EDGE_EPSILONS,
    FT,
    MODERATE_GRID,
    NORMS_STATES,
    _chain_standard_norms,
    ft_basis_similarity,
    ft_standard_norm,
    ft_vacuum_series,
    generator_matrix,
)
from bateman.imagscale import (  # noqa: E402
    IS,
    bounded_frame,
    generator_y_matrix,
    generator_z_matrix,
    is_vacuum,
)
from bateman.params import derive_params  # noqa: E402

N_MAX = (8, 12, 24, 48)
REPEATS = 5
#: the child's own peak RSS is VmHWM: ru_maxrss would carry this process's peak over the exec
IMPORT_CODE = ("import time\n"
               "start = time.process_time()\n"
               "import bateman.cli\n"
               "cpu = time.process_time() - start\n"
               "hwm = [line.split()[1] for line in open('/proc/self/status')"
               " if line.startswith('VmHWM')][0]\n"
               "print(cpu, int(hwm) / 1024)\n")
BASIS_STATES = ((0, 0), (1, 0), (2, 1))
NORMS_GRID = MODERATE_GRID + tuple(math.pi / 2 - eps for eps in EDGE_EPSILONS)
CHI_Q = 1j * math.pi / 4
#: each exponent with the charge it conserves: n1 - n2, or n1 and the parity of n2 for Y
EXPONENTS = {"0.3 X": lambda lad: (0.3 * generator_matrix(lad), lad.space.difference),
             "Y": lambda lad: (generator_y_matrix(lad.a2, lad.a2_dag),
                               lad.space.total + lad.space.difference
                               + np.arange(lad.space.dim) % (lad.space.n_max + 1) % 2),
             "i pi/4 Z": lambda lad: (1j * math.pi / 4 * generator_z_matrix(lad),
                                      lad.space.difference)}
PARAMS = derive_params(m=1.0, gamma=1.0, k=1.25)


def stats(times: list[float]) -> dict:
    return {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times)}


def row(layer: str, fn, calls: int = 1, **params) -> dict:
    """The layer, its parameters and the CPU seconds per call of fn over REPEATS repeats."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        for _ in range(calls):
            fn()
        times.append((time.process_time() - start) / calls)
    return {"layer": layer, **params, **({"calls": calls} if calls > 1 else {}),
            "time": stats(times)}


def truncated_rows(n_max: int) -> list[dict]:
    """Every truncated layer at one n_max."""
    lad = build_ladder(n_max)
    ham = build_hamiltonian(lad, PARAMS)
    at = {"n_max": n_max, "dim": lad.space.dim}
    rows = [row("ladder_and_hamiltonian",
                lambda: build_hamiltonian(build_ladder(n_max), PARAMS), 10, **at)]
    for name, exponent in EXPONENTS.items():
        a, charge = exponent(lad)
        stacks = sector_exp(a, charge)
        rows.append(row("sector_exp", lambda: sector_exp(a, charge), **at, exponent=name,
                        sectors=sum(len(idx) for idx, _ in stacks), stacks=len(stacks)))
    reads = {"0.3 X": (FT, 0.3, generator_matrix(lad)),
             "0.3i Z": (IS, 0.3j, generator_z_matrix(lad))}
    for name, (con, angle, generator) in reads.items():
        modes = transform(con, angle, lad)
        rows.append(row("similarity_deviation",
                        lambda: similarity_deviation(con, modes, generator), **at, exponent=name))
    bar = transform(FT, 0.3, lad)
    rows.append(row("ft_basis_similarity", lambda: ft_basis_similarity(bar, BASIS_STATES),
                    **at, states=len(BASIS_STATES)))
    bounded = bounded_frame(CHI_Q, lad)
    cfg = verify.VerifyConfig(params=PARAMS, n_max=n_max)
    for check in (verify.check_h_structure, verify.check_exp_inverse, verify.check_is_vacuum,
                  verify.check_is_matrix_element):
        rows.append(row("check", lambda: check(cfg), **at, check=check.check_id))
    for route, con in (("ft", FT), ("is", IS)):
        modes = transform(con, con.quarter(+1), lad)
        rows.append(row("identity_report", lambda: identity_report(con, modes, PARAMS),
                        **at, route=route))
    rows.append(row("ladder_product", lambda: lad.a1 @ lad.a2, 100, **at))
    rows.append(row("commutator_h0_h1", lambda: commutator(ham.h0, ham.h1), **at))
    q_cap = min(3, max(0, (n_max - 2) // 2))  # the occupations of ft.gram and is.gram
    grams = {"ft theta 0.3": (bar, ft_vacuum_series(0.3, lad.space)),
             "bounded i pi/4": (bounded, is_vacuum(bounded))}
    for name, (modes, vacuum) in grams.items():
        rows.append(row("gram", lambda: gram(modes, vacuum, q_cap), **at, frame=name,
                        q_cap=q_cap))
    return rows


def norm_rows() -> list[dict]:
    """The standard norms of the `norms` states: the law at each Theta, the chain route."""
    rows = [row("ft_standard_norm",
                lambda: [ft_standard_norm(theta / 2.0, *state) for state in NORMS_STATES],
                100, Theta=theta, states=len(NORMS_STATES)) for theta in NORMS_GRID]
    grids = [[(theta, *state) for state in NORMS_STATES] for theta in MODERATE_GRID]
    rows += [row("_chain_standard_norms", lambda: _chain_standard_norms(cases),
                 Theta=cases[0][0], chains=len(cases)) for cases in grids]
    check = [case for cases in grids for case in cases]
    rows.append(row("_chain_standard_norms", lambda: _chain_standard_norms(check),
                    grid="ft.norm.closed-forms", chains=len(check)))
    return rows


def column_sweep(ops, bras, kets) -> None:
    """Every <<m| op |n>>, one basis_column per (op, ket), as the exact sweeps read them:
    an absent element is zero, so only the stored bras and the ket are read."""
    for op in ops:
        for n in kets:
            column = basis_column(op, *n)
            for m in {n, *column}.intersection(bras):
                column.get(m)


def oracle_matrix_half(draws) -> list[complex]:
    verify._ladder.cache_clear()  # the check starts from an empty ladder cache
    return verify._oracle_numeric(draws)


def algebra_rows() -> list[dict]:
    """The exact sweeps and the 200-polynomial cross-validation."""
    states = verify._SWEEP_STATES
    occupations = [(a, b) for a in range(4) for b in range(4)]
    sweeps = {f"{name}.spectrum": ([hamiltonian_from_plain(con, b) for b in (+1, -1)],
                                   states, states) for name, con in (("ft", FT), ("is", IS))}
    sweeps["algebra.biorthonormality"] = ([LadderPoly.one()], occupations, occupations)
    checks = {"ft.spectrum": verify.check_ft_spectrum, "is.spectrum": verify.check_is_spectrum,
              "algebra.biorthonormality": verify.check_biorthonormality}
    cfg = verify.VerifyConfig(params=PARAMS)
    rows = []
    for name, (ops, bras, kets) in sweeps.items():
        rows.append(row("basis_column_sweep", lambda: column_sweep(ops, bras, kets), sweep=name,
                        elements=len(ops) * len(bras) * len(kets)))
        rows.append(row("check", lambda: checks[name](cfg), check=name))
    seed = verify.VerifyConfig.seed
    draws = verify._oracle_draws(seed)
    polys = {"polys": len(draws)}
    rows.append(row("_oracle_draws", lambda: verify._oracle_draws(seed), **polys))
    rows.append(row("normal_order", lambda: [poly.normal_order() for poly, _ in draws],
                    **polys))
    one = LadderPoly.one()
    rows.append(row("vacuum_pairing", lambda: [vacuum_pairing(one, poly) for poly, _ in draws],
                    **polys))
    rows.append(row("vacuum_expectation", lambda: [vacuum_expectation(poly) for poly, _ in draws],
                    **polys))
    rows.append(row("_oracle_exact", lambda: verify._oracle_exact(draws), **polys))
    rows.append(row("_oracle_numeric", lambda: oracle_matrix_half(draws), **polys))
    return rows


def import_row() -> dict:
    """CPU time and peak RSS of `import bateman.cli` in REPEATS fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpu, rss = [], []
    for _ in range(REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                              text=True, env=env, check=True)
        t, mb = map(float, done.stdout.split())
        cpu.append(t)
        rss.append(mb)
    return {"layer": "import bateman.cli", "time": stats(cpu),
            "peak_rss_mb": {"median": statistics.median(rss), "min": min(rss),
                            "max": max(rss)}}


def parser_rows() -> list[dict]:
    """The CLI parser with every subcommand, and with the one `bateman norms` reads."""
    return [row("build_parser", lambda: cli.build_parser(argv), 100, argv=argv)
            for argv in (None, ["norms"])]


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
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    rows = [import_row()]
    for n_max in N_MAX:
        rows += truncated_rows(n_max)
    rows += norm_rows() + algebra_rows() + parser_rows()
    text = json.dumps({"machine": machine(), "repeats": REPEATS, "rows": rows}, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
