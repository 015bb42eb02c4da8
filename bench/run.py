"""Per-layer timings: each kernel against its reference route, and the operator layers.

    python bench/run.py [--out FILE]

Times, in CPU seconds of this process with BLAS on one thread:

- `fock.matrix_exp`, which runs one stacked Padé kernel per sector size,
  against the same gather and scatter with `scipy.linalg.expm` run sector by
  sector (`per_block_expm`, the reference kept here only), for 0.3 X, Y and
  i pi/4 Z at n_max in KERNEL_N_MAX, each on the sectors of its charge;
- `imagscale._joint_null_vector`, singular values of each stack of declared
  sectors, against one full `np.linalg.svd` per connected block
  (`per_block_null_vector`, the reference kept here only) on the stacked
  check-annihilator pair, in the original frame and the bounded frame
  (chi = i pi/4) at n_max in KERNEL_N_MAX;
- at n_max in SECTOR_N_MAX, for the exponentials above and the stacked
  check-annihilator pairs of the original frame at chi = 0 and i pi/4 and
  of the bounded frame at i pi/4: the declared partition (`fock.sectors`
  on the charge labels) against the connected blocks that label
  propagation finds (`propagated_blocks`, the reference kept here only,
  which `fock.blocks` used to be; for an exponent, on its pattern plus the
  diagonal, as `matrix_exp` used it), with the number of connected blocks that
  straddle two sectors (0 when every sector is a union of blocks); the
  rank test of the pair's stacks, singular values alone
  (`compute_uv=False`) against the full SVD; and `imagscale.is_vacuum` of
  each of the three frames;
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

- the sector reads at n_max in READ_N_MAX: `construction.similarity_deviation`
  for e^{0.3 X} and e^{0.3i Z}, which exponentiates only the sectors that meet
  the low block and forms dense block products, against the full
  `matrix_exp` with the offset products u @ a and m @ u masked to the block
  (`full_similarity`, the reference kept here only); and
  `ft_basis_similarity` for the states (0,0), (1,0), (2,1), which
  exponentiates only their sectors, against columns and rows read off both
  full exponentials (`full_basis_columns`, the reference kept here only);
- the chain route `ft._chain_standard_norms`, one linear-space batch for the
  four `norms` states at each Theta in CHAIN_THETAS (the check's grid and
  two angles near the wall) and for the check's 16 chains at once, against
  the log-space Taylor loop it replaced run chain by chain
  (`log_chain_standard_norm`, the reference kept here only), with each
  route's largest relative gap to `ft_standard_norm`;

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
halves the largest gap between them; for the rank test the largest gap
between the two routes' singular values; for the batched matrix half the number
of values whose bytes differ from the reference's; for the ladder build the
number of the four ladders whose nonzero entries are not byte for byte those
of the reference; for the sector reads the largest gap between the two
deviations or basis vectors).
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
from bateman.construction import (  # noqa: E402
    hamiltonian_from_plain,
    identity_report,
    similarity_deviation,
    transform,
)
from bateman.fock import (  # noqa: E402
    block_stacks,
    build_hamiltonian,
    build_ladder,
    commutator,
    coordinates,
    dense,
    from_coordinates,
    low_block,
    matrix_exp,
    max_abs,
    sectors,
    window_mask,
)
from bateman.ft import (  # noqa: E402
    FT,
    _chain_standard_norms,
    ft_basis_similarity,
    ft_standard_norm,
    generator_matrix,
)
from bateman.imagscale import (  # noqa: E402
    IS,
    NULLSPACE_RTOL,
    _joint_null_vector,
    _stacked,
    bounded_frame,
    generator_y_matrix,
    generator_z_matrix,
    is_vacuum,
)
from bateman.params import derive_params  # noqa: E402

KERNEL_N_MAX = (8, 12, 24, 32, 48)
SECTOR_N_MAX = (12, 24, 48)
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
READ_N_MAX = (12, 24, 48)
BASIS_STATES = ((0, 0), (1, 0), (2, 1))
CHECK_THETAS = (0.3, 0.6, 1.0, 1.4)  # the Theta grid of ft.norm.closed-forms
CHAIN_THETAS = CHECK_THETAS + (math.pi / 2 - 10.0 ** -1, math.pi / 2 - 10.0 ** -1.5)
NORMS_STATES = ((0, 0), (1, 0), (1, 1), (2, 1))
BUILD_N_MAX = (2, 8, 12, 24, 48)
BUILD_CALLS = 100  # ladder builds per timed repeat; the times are per build
REPEATS = 5
CHI_Q = 1j * math.pi / 4
#: each exponent with the charge it conserves: n1 - n2, or n1 and the parity of n2 for Y
EXP_OPERATORS = {"0.3 X": lambda lad: (0.3 * generator_matrix(lad), lad.space.difference),
                 "Y": lambda lad: (generator_y_matrix(lad.a2, lad.a2_dag),
                                   lad.space.total + lad.space.difference
                                   + np.arange(lad.space.dim) % (lad.space.n_max + 1) % 2),
                 "i pi/4 Z": lambda lad: (1j * math.pi / 4 * generator_z_matrix(lad),
                                          lad.space.difference)}
#: the frames whose stacked check-annihilator pair the sector rows time
FRAMES = {"chi 0": lambda lad: transform(IS, 0j, lad),
          "chi i pi/4": lambda lad: transform(IS, CHI_Q, lad),
          "bounded i pi/4": lambda lad: bounded_frame(CHI_Q, lad)}
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


def per_block_expm(a, charge):
    """Reference only: matrix_exp's gather and scatter around scipy.linalg.expm per sector."""
    coords = coordinates(a)
    rows, cols, vals = [], [], []
    for idx, _, stack in block_stacks(coords, a.shape, sectors(*coords[:2], charge, charge)):
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
            a, charge = operator(lad)
            reference, want = timed(lambda: per_block_expm(a, charge))
            stacked, got = timed(lambda: matrix_exp(a, charge))
            want = dense(want)
            coords = coordinates(a)
            parts = sectors(*coords[:2], charge, charge)
            rows.append({
                "kernel": "expm", "operator": name, "n_max": n_max, "dim": lad.space.dim,
                "sectors": len(parts), "stacks": len(block_stacks(coords, a.shape, parts)),
                "largest_sector_dim": max(len(idx) for idx, _ in parts),
                "per_block": reference, "stacked": stacked,
                "speedup": reference["median_s"] / stacked["median_s"],
                "max_rel_gap": float(np.max(np.abs(dense(got) - want))
                                     / np.max(np.abs(want))),
            })
    return rows


def propagated_blocks(rows, cols, shape) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference only: the connected (rows, cols) blocks of the nonzero pattern.

    Rows and columns are the two sides of a bipartite graph with an edge at
    every nonzero entry; every node is labelled by the smallest node of its
    component, by pulling the smaller label across each edge and jumping
    labels to their own labels until nothing moves.
    """
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp) + n_rows
    label = np.arange(n_rows + n_cols)
    while True:
        low = np.minimum(label[rows], label[cols])
        pulled = label.copy()
        np.minimum.at(pulled, rows, low)
        np.minimum.at(pulled, cols, low)
        pulled = pulled[pulled]
        if np.array_equal(pulled, label):
            break
        label = pulled
    _, component, sizes = np.unique(label, return_inverse=True, return_counts=True)
    members = np.split(np.argsort(component, kind="stable"), np.cumsum(sizes))[:-1]
    return [(nodes[nodes < n_rows], nodes[nodes >= n_rows] - n_rows) for nodes in members]


def per_block_null_vector(coords, shape) -> np.ndarray:
    """Reference only: the nullspace vector from one full np.linalg.svd per connected block."""
    parts = []
    for _, cols, stack in block_stacks(coords, shape, propagated_blocks(*coords[:2], shape)):
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
            coords, shape, charge = _stacked(frame.ann1, frame.ann2, frame.charge)
            reference, want = timed(lambda: per_block_null_vector(coords, shape))
            batched, got = timed(
                lambda: _joint_null_vector(coords, shape, charge, "check annihilator", frame))
            parts = sectors(*coords[:2], charge[0], charge[1] - 1)
            rows.append({
                "kernel": "nullspace_svd", "frame": frame_name, "n_max": n_max,
                "shape": list(shape), "sectors": len(parts),
                "blocks": len(propagated_blocks(*coords[:2], shape)),
                "stacks": len(block_stacks(coords, shape, parts)),
                "largest_sector_entries": max(len(r) * len(c) for r, c in parts),
                "per_block": reference, "stacked": batched,
                "speedup": reference["median_s"] / batched["median_s"],
                "max_abs_gap": float(np.max(np.abs(got - want))),
            })
    return rows


def straddling(blocks, row_charge, col_charge) -> int:
    """How many of the connected blocks hold more than one charge (0: sectors are unions)."""
    return sum(len({*row_charge[rows].tolist(), *col_charge[cols].tolist()}) > 1
               for rows, cols in blocks)


def sector_rows() -> list[dict]:
    """Declared sectors against label propagation, the rank test, and is_vacuum per frame."""
    rows = []
    for n_max in SECTOR_N_MAX:
        lad = build_ladder(n_max)
        cases = {}
        diagonal = np.arange(lad.space.dim)
        for name, operator in EXP_OPERATORS.items():
            a, charge = operator(lad)
            entry_rows, entry_cols, _ = coordinates(a)
            # the blocks closed under a and the identity, as matrix_exp used to find them
            closed = (np.concatenate([entry_rows, diagonal]),
                      np.concatenate([entry_cols, diagonal]))
            cases[f"expm {name}"] = (closed, a.shape, (charge, charge))
        frames = {name: build(lad) for name, build in FRAMES.items()}
        for name, frame in frames.items():
            coords, shape, (row_charge, col_charge) = _stacked(frame.ann1, frame.ann2,
                                                               frame.charge)
            cases[f"nullspace {name}"] = (coords, shape, (row_charge, col_charge - 1))
        for case, (coords, shape, (row_charge, col_charge)) in cases.items():
            declared_t, parts = timed(lambda: sectors(*coords[:2], row_charge, col_charge))
            propagated_t, blocks = timed(lambda: propagated_blocks(*coords[:2], shape))
            rows.append({"layer": "partition", "case": case, "n_max": n_max,
                         "sectors": len(parts), "blocks": len(blocks),
                         "declared": declared_t, "propagated": propagated_t,
                         "speedup": propagated_t["median_s"] / declared_t["median_s"],
                         "blocks_straddling_sectors": straddling(blocks, row_charge,
                                                                 col_charge)})
        for name, frame in frames.items():
            coords, shape, (row_charge, col_charge) = _stacked(frame.ann1, frame.ann2,
                                                               frame.charge)
            stacks = [stack for _, _, stack in block_stacks(
                coords, shape, sectors(*coords[:2], row_charge, col_charge - 1))
                      if min(stack.shape[1:])]
            values_t, values = timed(lambda: [np.linalg.svd(stack, compute_uv=False)
                                              for stack in stacks])
            full_t, full = timed(lambda: [np.linalg.svd(stack) for stack in stacks])
            rows.append({"layer": "rank_test", "frame": name, "n_max": n_max,
                         "stacks": len(stacks), "compute_uv_false": values_t, "full_svd": full_t,
                         "speedup": full_t["median_s"] / values_t["median_s"],
                         "max_sigma_gap": float(max(np.max(np.abs(v - f[1]))
                                                    for v, f in zip(values, full)))})
            vacuum_t, _ = timed(lambda: is_vacuum(frame))
            rows.append({"layer": "is_vacuum", "frame": name, "n_max": n_max,
                         "dim": lad.space.dim, "time": vacuum_t})
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
        u, u_inv = (matrix_exp(theta * x, lad.space.difference) for theta in (0.3, -0.3))
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


def full_similarity(con, modes, generator) -> float:
    """Reference only: the full exponential, and u @ a and m @ u as offset products."""
    plain = transform(con, 0.0, modes.ladder)
    u = matrix_exp(modes.angle * generator, modes.charge)
    keep = np.flatnonzero(window_mask(modes.space, low_block(modes.space.n_max)))
    gap = max(max_abs(dense(u @ getattr(plain, n) - getattr(modes, n) @ u, keep, keep))
              for n in ("ann1", "cre1", "ann2", "cre2"))
    return gap / max_abs(dense(u, keep, keep))


def full_basis_columns(bar, states) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference only: kets and bras read off both full exponentials."""
    x = generator_matrix(bar.ladder)
    idx = [bar.space.index(n1, n2) for n1, n2 in states]
    kets = dense(matrix_exp(bar.angle * x, bar.charge), cols=idx).T
    bras = dense(matrix_exp(-bar.angle * x, bar.charge), rows=idx)
    return list(zip(kets, bras))


def read_rows() -> list[dict]:
    """Sector reads against the full exponential plus offset products, per n_max."""
    rows = []
    for n_max in READ_N_MAX:
        lad = build_ladder(n_max)
        cases = {"similarity 0.3 X": (FT, transform(FT, 0.3, lad), generator_matrix(lad)),
                 "similarity 0.3i Z": (IS, transform(IS, 0.3j, lad), generator_z_matrix(lad))}
        for case, args in cases.items():
            read_t, got = timed(lambda: similarity_deviation(*args))
            full_t, want = timed(lambda: full_similarity(*args))
            rows.append({"layer": case, "n_max": n_max, "dim": lad.space.dim,
                         "sector_read": read_t, "full": full_t,
                         "speedup": full_t["median_s"] / read_t["median_s"],
                         "deviation": got, "deviation_gap": abs(got - want)})
        bar = transform(FT, 0.3, lad)
        read_t, got = timed(lambda: ft_basis_similarity(bar, BASIS_STATES))
        full_t, want = timed(lambda: full_basis_columns(bar, BASIS_STATES))
        rows.append({"layer": "ft_basis_similarity", "n_max": n_max, "dim": lad.space.dim,
                     "states": len(BASIS_STATES), "sector_read": read_t, "full": full_t,
                     "speedup": full_t["median_s"] / read_t["median_s"],
                     "max_abs_gap": float(max(np.max(np.abs(g - w))
                                              for pair_g, pair_w in zip(got, want)
                                              for g, w in zip(pair_g, pair_w)))})
    return rows


def log_chain_exp(q0: int, s: float, couplings: np.ndarray) -> np.ndarray:
    """Reference only: log of e^{s T} e_q0, the Taylor series summed in log space."""
    size = len(couplings) + 1
    log_t = np.log(couplings)
    acc = np.full(size, -np.inf)
    acc[q0] = 0.0
    term = acc.copy()
    log_s = math.log(s)
    max_iter = int(4.4 * s * float(couplings.max())) + 200
    for m in range(1, max_iter + 1):
        nxt = np.full(size, -np.inf)
        nxt[1:] = term[:-1] + log_t
        np.logaddexp(nxt[:-1], term[1:] + log_t, out=nxt[:-1])
        nxt += log_s - math.log(m)
        term = nxt
        acc = np.logaddexp(acc, term)
        if term.max() < acc.max() + math.log(1e-19):
            return acc
    raise RuntimeError("chain exponential series did not converge")


def log_chain_standard_norm(big_theta: float, n1: int, n2: int) -> float:
    """Reference only: the chain route as one log-space loop per chain, same sizing."""
    s_half = abs(big_theta) / 2.0
    ratio = math.tan(s_half) ** 2
    log_ratio = math.log(ratio)
    geometric = (math.log(1e-19) + math.log1p(-ratio)) / log_ratio
    sites = int(geometric - (n1 + n2) * math.log(geometric + n1 + n2 + 1) / log_ratio) + 24
    q = np.arange(sites - 1, dtype=float)
    couplings = np.sqrt((q + abs(n1 - n2) + 1.0) * (q + 1.0))
    log_u2 = 2.0 * log_chain_exp(min(n1, n2), s_half, couplings)
    return math.exp(float(np.logaddexp.reduce(log_u2)))


def chain_rows() -> list[dict]:
    """The batched linear-space chain against the log-space loop, per Theta and for the check."""
    grids = {f"Theta {theta!r}": [(theta, n1, n2) for n1, n2 in NORMS_STATES]
             for theta in CHAIN_THETAS}
    grids["ft.norm.closed-forms grid"] = [(theta, n1, n2) for theta in CHECK_THETAS
                                          for n1, n2 in NORMS_STATES]
    rows = []
    for name, cases in grids.items():
        law = [ft_standard_norm(theta / 2.0, n1, n2) for theta, n1, n2 in cases]
        batched_t, got = timed(lambda: _chain_standard_norms(cases))
        log_t, want = timed(lambda: [log_chain_standard_norm(*case) for case in cases])
        rows.append({"layer": "chain", "grid": name, "chains": len(cases),
                     "batched_linear": batched_t, "log_space": log_t,
                     "speedup": log_t["median_s"] / batched_t["median_s"],
                     "max_rel_gap_to_law": {
                         "batched_linear": max(abs(g - x) / x for g, x in zip(got, law)),
                         "log_space": max(abs(w - x) / x for w, x in zip(want, law))}})
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
              "kernels": exp_rows() + svd_rows(), "sectors": sector_rows(),
              "operators": operator_rows(), "reads": read_rows(), "chain": chain_rows(),
              "layers": layer_rows(), "algebra": algebra_rows(), "ladder_build": build_rows()}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
