"""Per-layer timings: each kernel against its reference route, and the operator layers.

    python bench/run.py [--out FILE]

Times, in CPU seconds of this process with BLAS on one thread:

- `fock.matrix_exp`, which runs one stacked Padé kernel per block size,
  against the same gather and scatter with `scipy.linalg.expm` run block by
  block (`per_block_expm`, the reference kept here only), for 0.3 X, Y and
  i pi/4 Z at n_max in KERNEL_N_MAX;
- `imagscale._joint_null_vector`, one batched SVD per block shape, against
  one `np.linalg.svd` per block (`per_block_null_vector`, the reference kept
  here only) on the stacked check-annihilator pair, in the original frame
  and the bounded frame (chi = i pi/4) at n_max in KERNEL_N_MAX;
- the operator layers at n_max in {12, 24, 32, 48}: the ladder and
  Hamiltonian build, `transform` plus `identity_report` at the decoupling
  angle of each route, `commutator(H0, H1)` and `ft_basis_similarity`;
- the `fock.Operator` kernels at n_max in OPERATOR_N_MAX: a ladder product
  a1 @ a2, u @ a1 and u @ u_inv with u = e^{0.3 X}, and the ladder
  mat-vec a1 @ v, each against the same product of `scipy.sparse` CSR
  arrays holding the same entries (the reference kept here only), per
  call over OPERATOR_CALLS calls a repeat;
- `import bateman.cli` in a fresh interpreter (CPU time of the import and
  peak RSS of the process), against `import scipy.sparse` followed by the
  same import, the import set of a CLI that holds its operators in
  scipy.sparse;

- the exact-algebra layers: the `ft.spectrum` and `is.spectrum` sweeps
  (2 branches x 21 x 21 elements of H) and the 256-element
  `algebra.biorthonormality` sweep, each read from one `basis_column` per
  ket and, as the reference kept here only, element by element with the
  per-symbol ExactScalar walk that `basis_matrix_element` used before
  (`per_element`, run on the current scalar arithmetic); `vacuum_pairing`
  on the 200 seeded polynomials of `algebra.cross-validation`; the exact
  and the matrix half of that check, on the same polynomials and elements,
  each as the check runs it; the matrix half, one batched
  `algebra.matrix_elements` walk per ladder size plus one call per element,
  against the one-word-at-a-time walk it replaced (`per_word_element`, the
  reference kept here only); and the exact half split into its vacuum
  pairings, its basis elements and the float evaluation of their values;

- `fock.build_ladder`, which builds each ladder as one diagonal at its
  shift of the flat index, against the scipy.sparse Kronecker construction
  (`kron_ladder`, the reference kept here only) at n_max in
  {2, 8, 12, 24, 48}, per build over BUILD_CALLS = 100 builds a repeat.

Each timing runs REPEATS = 5 times; the median, minimum and maximum are
reported with the gap between the two results (for expm the largest
entrywise gap relative to the largest entry; for the SVD the largest
entrywise gap between the two null vectors; for the operator kernels the
largest entrywise gap between the two products; for the exact sweeps the
number of elements on which the two routes differ; for the cross-validation
halves the largest gap between them; for the batched matrix half the number
of values whose bytes differ from the reference's; for the ladder build the
number of the four ladders whose nonzero entries are not byte for byte those
of the reference).
The JSON record goes to FILE, or to stdout without `--out`, and carries the
machine: core count, Python, numpy, scipy and BLAS versions.
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
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse as sp  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from bateman import verify  # noqa: E402
from bateman.algebra import (  # noqa: E402
    B1_ANN,
    B1_CRE,
    B2_ANN,
    B2_CRE,
    ExactScalar,
    LadderPoly,
    basis_column,
    basis_matrix_element,
    vacuum_pairing,
)
from bateman.construction import hamiltonian_from_plain, identity_report, transform  # noqa: E402
from bateman.fock import (  # noqa: E402
    _closed_blocks,
    block_stacks,
    blocks,
    build_hamiltonian,
    build_ladder,
    commutator,
    coordinates,
    dense,
    from_coordinates,
    matrix_exp,
)
from bateman.ft import FT, ft_basis_similarity, generator_matrix  # noqa: E402
from bateman.imagscale import (  # noqa: E402
    IS,
    NULLSPACE_RTOL,
    _joint_null_vector,
    _stacked,
    bounded_frame,
    generator_y_matrix,
    generator_z_matrix,
)
from bateman.params import derive_params  # noqa: E402

KERNEL_N_MAX = (8, 12, 24, 32, 48)
LAYER_N_MAX = (12, 24, 32, 48)
OPERATOR_N_MAX = (12, 24, 48)
#: calls per timed repeat of each operator kernel; the times are per call
OPERATOR_CALLS = {"ladder_product": 100, "u_at_a": 10, "u_at_u_inv": 1, "ladder_matvec": 100}
#: the child's own peak RSS is VmHWM: ru_maxrss would carry this process's peak over the exec
IMPORT_CODE = ("import time\n"
               "start = time.process_time()\n"
               "{pre}import bateman.cli\n"
               "cpu = time.process_time() - start\n"
               "hwm = [line.split()[1] for line in open('/proc/self/status')"
               " if line.startswith('VmHWM')][0]\n"
               "print(cpu, int(hwm) / 1024)\n")
BUILD_N_MAX = (2, 8, 12, 24, 48)
BUILD_CALLS = 100  # ladder builds per timed repeat; the times are per build
REPEATS = 5
CHI_Q = 1j * math.pi / 4
EXP_OPERATORS = {"0.3 X": lambda lad: 0.3 * generator_matrix(lad),
                 "Y": lambda lad: generator_y_matrix(lad.a2, lad.a2_dag),
                 "i pi/4 Z": lambda lad: 1j * math.pi / 4 * generator_z_matrix(lad)}
PARAMS = derive_params(m=1.0, gamma=1.0, k=1.25)


def timed(fn) -> tuple[dict, object]:
    """CPU seconds of REPEATS calls of fn: median, min, max; and the last result."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        result = fn()
        times.append(time.process_time() - start)
    return {"median_s": statistics.median(times), "min_s": min(times),
            "max_s": max(times)}, result


def per_block_expm(a):
    """Reference only: matrix_exp's gather and scatter around scipy.linalg.expm per block."""
    coords = coordinates(a)
    rows, cols, vals = [], [], []
    for idx, _, stack in block_stacks(coords, a.shape, _closed_blocks(*coords[:2], a.shape[0])):
        n = idx.shape[1]
        rows.append(np.repeat(idx, n, axis=1).ravel())
        cols.append(np.repeat(idx[:, None, :], n, axis=1).ravel())
        vals.append(np.array([scipy.linalg.expm(block) for block in stack]).ravel())
    return from_coordinates(np.concatenate(rows), np.concatenate(cols),
                            np.concatenate(vals).astype(complex), a.shape[0])


def exp_rows() -> list[dict]:
    rows = []
    for n_max in KERNEL_N_MAX:
        lad = build_ladder(n_max)
        for name, operator in EXP_OPERATORS.items():
            a = operator(lad)
            reference, want = timed(lambda: per_block_expm(a))
            stacked, got = timed(lambda: matrix_exp(a))
            want = dense(want)
            coords = coordinates(a)
            parts = _closed_blocks(*coords[:2], a.shape[0])
            rows.append({
                "kernel": "expm", "operator": name, "n_max": n_max, "dim": lad.space.dim,
                "blocks": len(parts), "stacks": len(block_stacks(coords, a.shape, parts)),
                "largest_block_dim": max(len(idx) for idx, _ in parts),
                "per_block": reference, "stacked": stacked,
                "speedup": reference["median_s"] / stacked["median_s"],
                "max_rel_gap": float(np.max(np.abs(dense(got) - want))
                                     / np.max(np.abs(want))),
            })
    return rows


def per_block_null_vector(coords, shape) -> np.ndarray:
    """Reference only: the nullspace vector from one np.linalg.svd per block."""
    parts = []
    for _, cols, stack in block_stacks(coords, shape, blocks(*coords[:2], shape)):
        for c, block in zip(cols, stack):
            if len(block) == 0:
                parts.append((c, np.zeros(0), np.eye(len(c), dtype=complex)))
            elif len(c):
                _, sigma, vh = np.linalg.svd(block)
                parts.append((c, sigma, vh))
    cutoff = NULLSPACE_RTOL * max(sigma[0] for _, sigma, _ in parts if len(sigma))
    vector = np.zeros(shape[1], dtype=complex)
    for c, sigma, vh in parts:
        if np.sum(sigma < cutoff) + len(c) - len(sigma):
            vector[c] = vh[-1].conj()
    return vector


def svd_rows() -> list[dict]:
    rows = []
    for n_max in KERNEL_N_MAX:
        lad = build_ladder(n_max)
        frames = {"original": transform(IS, CHI_Q, lad),
                  "bounded": bounded_frame(CHI_Q, lad)}
        for frame_name, frame in frames.items():
            coords, shape = _stacked(frame.ann1, frame.ann2)
            reference, want = timed(lambda: per_block_null_vector(coords, shape))
            batched, got = timed(
                lambda: _joint_null_vector(coords, shape, "check annihilator", frame))
            parts = blocks(*coords[:2], shape)
            rows.append({
                "kernel": "nullspace_svd", "frame": frame_name, "n_max": n_max,
                "shape": list(shape), "blocks": len(parts),
                "stacks": len(block_stacks(coords, shape, parts)),
                "largest_block_entries": max(len(r) * len(c) for r, c in parts),
                "per_block": reference, "stacked": batched,
                "speedup": reference["median_s"] / batched["median_s"],
                "max_abs_gap": float(np.max(np.abs(got - want))),
            })
    return rows


def report_deviations(con, lad) -> np.ndarray:
    rep = identity_report(con, transform(con, con.quarter(+1), lad), PARAMS)
    return np.array([rep.h0_deviation, rep.h1_deviation, rep.reduced_deviation])


def layer_rows() -> list[dict]:
    """Each operator layer, timed per n_max."""
    rows = []
    for n_max in LAYER_N_MAX:
        lad = build_ladder(n_max)
        ham = build_hamiltonian(lad, PARAMS)
        layers = {
            "ladder_and_hamiltonian": lambda: build_hamiltonian(build_ladder(n_max), PARAMS).h,
            "transform_identity_report.ft": lambda: report_deviations(FT, lad),
            "transform_identity_report.is": lambda: report_deviations(IS, lad),
            "commutator_h0_h1": lambda: commutator(ham.h0, ham.h1),
            "ft_basis_similarity": lambda: ft_basis_similarity(transform(FT, 0.3, lad),
                                                               [(2, 1)])[0][0],
        }
        for layer, call in layers.items():
            stats, _ = timed(call)
            rows.append({"layer": layer, "n_max": n_max, "dim": lad.space.dim, "time": stats})
    return rows


def as_csr(a) -> sp.csr_array:
    """Reference only: the same entries as a scipy.sparse CSR array."""
    rows, cols, values = coordinates(a)
    return sp.csr_array((values, (rows, cols)), shape=a.shape)


def operator_rows() -> list[dict]:
    """fock.Operator products and mat-vec against scipy.sparse on the same entries, per n_max."""
    rows = []
    for n_max in OPERATOR_N_MAX:
        lad = build_ladder(n_max)
        x = generator_matrix(lad)
        u, u_inv = matrix_exp(0.3 * x), matrix_exp(-0.3 * x)
        vector = np.linspace(-1.0, 1.0, lad.space.dim) * (1 + 0.5j)
        kernels = {"ladder_product": (lad.a1, lad.a2), "u_at_a": (u, lad.a1),
                   "u_at_u_inv": (u, u_inv), "ladder_matvec": (lad.a1, vector)}
        for kernel, (left, right) in kernels.items():
            csr_left = as_csr(left)
            csr_right = right if isinstance(right, np.ndarray) else as_csr(right)
            calls = OPERATOR_CALLS[kernel]
            offset_t, got = per_call(lambda: left @ right, calls)
            csr_t, want = per_call(lambda: csr_left @ csr_right, calls)
            if not isinstance(got, np.ndarray):
                got, want = dense(got), want.toarray()
            rows.append({"kernel": kernel, "n_max": n_max, "dim": lad.space.dim,
                         "offsets": [len(left.diagonals), len(getattr(right, "diagonals", ()))],
                         "calls": calls, "offset": offset_t, "csr": csr_t,
                         "speedup": csr_t["median_s"] / offset_t["median_s"],
                         "max_abs_gap": float(np.max(np.abs(got - want)))})
    return rows


def import_rows() -> list[dict]:
    """CPU time and peak RSS of `import bateman.cli` in REPEATS fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rows = []
    for name, pre in (("bateman.cli", ""), ("scipy.sparse, bateman.cli",
                                            "import scipy.sparse\n")):
        cpu, rss = [], []
        for _ in range(REPEATS):
            done = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(pre=pre)],
                                  capture_output=True, text=True, env=env, check=True)
            t, mb = map(float, done.stdout.split())
            cpu.append(t)
            rss.append(mb)
        rows.append({"layer": f"import {name}",
                     "cpu": {"median_s": statistics.median(cpu), "min_s": min(cpu),
                             "max_s": max(cpu)},
                     "peak_rss_mb": {"median": statistics.median(rss), "min": min(rss),
                                     "max": max(rss)}})
    return rows


def per_symbol_apply(op: LadderPoly, n1: int, n2: int) -> dict:
    """Reference only: the per-symbol walk, an ExactScalar multiply per symbol and state."""
    result: dict = {}
    for word, coeff in op.terms.items():
        states = {(n1, n2): ExactScalar.of(1)}
        for sym in reversed(word):
            nxt: dict = {}
            for (k1, k2), amp in states.items():
                if sym == B1_ANN:
                    if not k1:
                        continue
                    occ, amp = (k1 - 1, k2), amp * ExactScalar.of(k1)
                elif sym == B2_ANN:
                    if not k2:
                        continue
                    occ, amp = (k1, k2 - 1), amp * ExactScalar.of(k2)
                else:
                    occ = (k1 + 1, k2) if sym == B1_CRE else (k1, k2 + 1)
                nxt[occ] = nxt.get(occ, ExactScalar.zero()) + amp
            states = nxt
        for occ, amp in states.items():
            result[occ] = result.get(occ, ExactScalar.zero()) + amp * coeff
    return result


def per_element(m1: int, m2: int, op: LadderPoly, n1: int, n2: int) -> ExactScalar:
    """Reference only: one element, re-walking the ket for every bra."""
    amp = per_symbol_apply(op, n1, n2).get((m1, m2))
    if amp is None or amp.is_zero():
        return ExactScalar.zero()
    ratio = Fraction(math.factorial(m1) * math.factorial(m2),
                     math.factorial(n1) * math.factorial(n2))
    return amp * ExactScalar.surd(Fraction(1, ratio.denominator),
                                  ratio.numerator * ratio.denominator)


def column_sweep(ops, bras, kets) -> list:
    """Every <<m| op |n>>, one basis_column per (op, ket)."""
    zero = ExactScalar.zero()
    out = []
    for op in ops:
        for n in kets:
            column = basis_column(op, *n)
            out += [column.get(m, zero) for m in bras]
    return out


def per_element_sweep(ops, bras, kets) -> list:
    return [per_element(*m, op, *n) for op in ops for n in kets for m in bras]


def oracle_matrix_half(draws) -> list[complex]:
    verify._ladder.cache_clear()  # the check starts from an empty ladder cache
    return verify._oracle_numeric(draws)


def per_word_element(poly: LadderPoly, ladder, bra, ket) -> complex:
    """Reference only: each word's ladders applied right to left to its own vector."""
    symbol_map = {B1_CRE: ladder.a1_dag, B2_CRE: ladder.a2_dag, B1_ANN: ladder.a1,
                  B2_ANN: ladder.a2}
    start = np.zeros(ladder.space.dim, dtype=complex)
    start[ladder.space.index(*ket)] = 1.0
    row = ladder.space.index(*bra)
    total = 0.0 + 0.0j
    for word, coeff in poly.terms.items():
        vec = start
        for sym in reversed(word):
            vec = symbol_map[sym] @ vec
        total += coeff.to_complex() * vec[row]
    return total


def oracle_matrix_half_per_word(draws) -> list[complex]:
    """Reference only: the matrix half with one walk per word."""
    verify._ladder.cache_clear()
    values = []
    for poly, element in draws:
        degree = poly.degree()
        values.append(per_word_element(poly, verify._ladder(max(2, degree + 2)), (0, 0), (0, 0)))
        if element is not None:
            bra, ket = element
            values.append(per_word_element(poly, verify._ladder(degree + 5), bra, ket))
    return values


def algebra_rows() -> list[dict]:
    """Exact-algebra layers: the column route against the per-element reference."""
    rows = []
    states = verify._SWEEP_STATES
    occupations = [(a, b) for a in range(4) for b in range(4)]
    sweeps = {f"spectrum_sweep.{name}": ([hamiltonian_from_plain(con, b) for b in (+1, -1)],
                                         states, states)
              for name, con in (("ft", FT), ("is", IS))}
    sweeps["biorthonormality_sweep"] = ([LadderPoly.one()], occupations, occupations)
    for layer, (ops, bras, kets) in sweeps.items():
        column_t, got = timed(lambda: column_sweep(ops, bras, kets))
        reference_t, want = timed(lambda: per_element_sweep(ops, bras, kets))
        rows.append({"layer": layer, "elements": len(got), "column": column_t,
                     "per_element": reference_t,
                     "speedup": reference_t["median_s"] / column_t["median_s"],
                     "elements_differing": sum(g != w for g, w in zip(got, want))})
    draws = verify._oracle_draws(verify.VerifyConfig.seed)
    one = LadderPoly.one()
    pairing_t, pairings = timed(lambda: [vacuum_pairing(one, poly) for poly, _ in draws])
    rows.append({"layer": "vacuum_pairing.seeded_200", "polys": len(draws),
                 "exact": pairing_t})
    exact_t, exact = timed(lambda: verify._oracle_exact(draws))
    matrix_t, numeric = timed(lambda: oracle_matrix_half(draws))
    elements = [(poly, element) for poly, element in draws if element is not None]
    rows.append({"layer": "cross_validation_halves", "polys": len(draws),
                 "elements": len(elements), "exact": exact_t, "matrix": matrix_t,
                 "gap": max(abs(complex(a) - complex(b)) for a, b in zip(exact, numeric))})
    per_word_t, reference = timed(lambda: oracle_matrix_half_per_word(draws))
    rows.append({"layer": "cross_validation.matrix_half", "values": len(numeric),
                 "batched": matrix_t, "per_word": per_word_t,
                 "speedup": per_word_t["median_s"] / matrix_t["median_s"],
                 "values_differing": sum(np.complex128(a).tobytes() != np.complex128(b).tobytes()
                                         for a, b in zip(numeric, reference))})
    elements_t, picked = timed(lambda: [basis_matrix_element(*bra, poly, *ket)
                                        for poly, (bra, ket) in elements])
    floats_t, _ = timed(lambda: [x.to_complex() for x in pairings + picked])
    rows.append({"layer": "cross_validation.exact_half", "values": len(exact),
                 "whole": exact_t, "vacuum_pairing": pairing_t,
                 "basis_matrix_element": elements_t, "to_complex": floats_t})
    return rows


def kron_ladder(n_max: int) -> dict[str, sp.csr_array]:
    """Reference only: the scipy.sparse Kronecker construction of the ladders."""
    size = n_max + 1
    a = sp.diags_array(np.sqrt(np.arange(1.0, size)), offsets=1, shape=(size, size),
                       dtype=complex, format="csr")
    eye = sp.eye_array(size, dtype=complex, format="csr")
    a1 = sp.kron(a, eye, format="csr")
    a2 = sp.kron(eye, a, format="csr")
    return {"a1": a1, "a1_dag": a1.conj().T.tocsr(), "a2": a2, "a2_dag": a2.conj().T.tocsr()}


def per_call(fn, calls: int = BUILD_CALLS) -> tuple[dict, object]:
    """timed() of calls calls of fn, scaled to one call; and the last result."""
    stats, results = timed(lambda: [fn() for _ in range(calls)])
    return {key: value / calls for key, value in stats.items()}, results[-1]


def same_entries(got, want: sp.csr_array) -> bool:
    """The nonzero entries of got are those of want, value bytes included."""
    rows, cols, values = coordinates(got)
    order = np.lexsort((cols, rows))
    want = want.tocoo()
    return (np.array_equal(rows[order], want.row) and np.array_equal(cols[order], want.col)
            and values.dtype == want.data.dtype
            and values[order].tobytes() == want.data.tobytes())


def build_rows() -> list[dict]:
    """fock.build_ladder against the Kronecker reference, per n_max."""
    rows = []
    for n_max in BUILD_N_MAX:
        direct_t, got = per_call(lambda: build_ladder(n_max))
        kron_t, want = per_call(lambda: kron_ladder(n_max))
        rows.append({"layer": "build_ladder", "n_max": n_max, "dim": got.space.dim,
                     "direct": direct_t, "kron": kron_t,
                     "speedup": kron_t["median_s"] / direct_t["median_s"],
                     "ladders_differing": sum(not same_entries(getattr(got, name), csr)
                                              for name, csr in want.items())})
    return rows


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "clock": "time.process_time (CPU seconds of this process)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    record = {"machine": machine(), "repeats": REPEATS, "import": import_rows(),
              "kernels": exp_rows() + svd_rows(), "operators": operator_rows(),
              "layers": layer_rows(), "algebra": algebra_rows(), "ladder_build": build_rows()}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
