"""Truncated two-mode Fock space: ladder matrices, Hamiltonians, commutators.

Per-mode occupation is capped at n_max.  The flat index of |n1, n2> is
n1*(n_max+1) + n2.  Truncation spoils canonical commutators only on the
boundary layer; the interior mask selects the states where the
infinite-space identities hold exactly.

Operators are `scipy.sparse` CSR arrays: the ones the constructions use
conserve n1-n2, n1+n2 or a parity, so all but a few entries per row are
exact zeros, and products, sums and commutators touch only the nonzeros.
Each ladder is built directly as its CSR arrays: a shift of the flat index
by n_max+1 (mode 1) or 1 (mode 2) weighted by sqrt(occupation), one
`indptr`/`indices`/`data` triple from index arithmetic, with no Kronecker
product or transpose.
State vectors and Gram matrices stay dense numpy arrays.  The two cubic
kernels (`matrix_exp`, and the nullspace SVD in `imagscale`) split their
input into the connected blocks of its own nonzero pattern (`blocks`),
gather the blocks of each shape into one dense (k, r, c) numpy stack
(`block_stacks`) and run one batched numpy call per stack: scaling and
squaring with a Padé approximant for the exponential, `np.linalg.svd` for
the nullspace.  Batching by shape keeps the many small blocks from paying
one LAPACK call (and one BLAS thread start-up) each, and scipy is used for
`scipy.sparse` only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, DomainError, NumericalError
from .params import PhysicalParams

__all__ = [
    "FockSpace",
    "LadderSet",
    "HamiltonianSet",
    "single_mode_lowering",
    "build_ladder",
    "build_hamiltonian",
    "commutator",
    "max_abs",
    "blocks",
    "block_stacks",
    "interior_mask",
    "interior_deviation",
    "window_mask",
    "windowed_deviation",
    "matrix_exp",
    "position_operators",
]

@dataclass(frozen=True)
class FockSpace:
    """Index bookkeeping for the (n_max+1)**2 dimensional product space."""

    n_max: int

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.n_max and 0 <= n2 <= self.n_max):
            raise DomainError(f"occupation ({n1}, {n2}) outside [0, {self.n_max}]")
        return n1 * (self.n_max + 1) + n2

    def occupations(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.n_max + 1)

    def iter_occupations(self) -> Iterator[tuple[int, int]]:
        for n1 in range(self.n_max + 1):
            for n2 in range(self.n_max + 1):
                yield n1, n2


@dataclass(frozen=True)
class LadderSet:
    """Sparse (CSR) annihilation/creation matrices for both modes."""

    space: FockSpace
    a1: sp.csr_array
    a1_dag: sp.csr_array
    a2: sp.csr_array
    a2_dag: sp.csr_array


@dataclass(frozen=True)
class HamiltonianSet:
    """h0 (oscillator part), h1 (damping coupling) and their sum."""

    h0: sp.csr_array
    h1: sp.csr_array
    h: sp.csr_array
    params: PhysicalParams


def single_mode_lowering(size: int) -> sp.csr_array:
    """Lowering operator of one mode truncated to occupations 0 .. size-1."""
    return sp.diags_array(np.sqrt(np.arange(1.0, size)), offsets=1, shape=(size, size),
                          dtype=complex, format="csr")


def _shift(keep: np.ndarray, offset: int, weight: np.ndarray) -> sp.csr_array:
    """CSR matrix with the one entry weight[r] at (r, r + offset) on every row r where keep[r]."""
    rows = np.flatnonzero(keep)
    indptr = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, out=indptr[1:])
    return sp.csr_array((weight[rows], (rows + offset).astype(np.int32), indptr),
                        shape=(len(keep), len(keep)))


def build_ladder(n_max: int) -> LadderSet:
    """Both modes' ladders as CSR shifts of the flat index; requires n_max >= 2.

    a1 moves |n1, n2> by the stride n_max+1 and a2 by 1, each weighted by
    sqrt of the higher occupation of the pair.  The creators carry the
    conjugated weights (imaginary part -0.0), so every array is bit for bit
    the Kronecker product of `single_mode_lowering` with the identity and
    its conjugate transpose.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    size = n_max + 1
    n1, n2 = np.divmod(np.arange(size * size), size)
    return LadderSet(
        space=FockSpace(n_max),
        a1=_shift(n1 < n_max, size, np.sqrt(n1 + 1.0).astype(complex)),
        a1_dag=_shift(n1 > 0, -size, np.sqrt(n1).astype(complex).conj()),
        a2=_shift(n2 < n_max, 1, np.sqrt(n2 + 1.0).astype(complex)),
        a2_dag=_shift(n2 > 0, -1, np.sqrt(n2).astype(complex).conj()),
    )


def build_hamiltonian(ladder: LadderSet, params: PhysicalParams) -> HamiltonianSet:
    """H = hbar*omega*(n1 - n2) + i*(hbar*gamma/2m)*(a1 a2 - a1+ a2+)."""
    hw = params.hbar * params.omega
    coupling = 1j * params.hbar * params.gamma / (2.0 * params.m)
    h0 = hw * (ladder.a1_dag @ ladder.a1 - ladder.a2_dag @ ladder.a2)
    h1 = coupling * (ladder.a1 @ ladder.a2 - ladder.a1_dag @ ladder.a2_dag)
    return HamiltonianSet(h0=h0, h1=h1, h=h0 + h1, params=params)


def commutator(a: sp.csr_array, b: sp.csr_array) -> sp.csr_array:
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def max_abs(x) -> float:
    """Largest entry modulus of a numpy or scipy.sparse array (implicit zeros count as 0)."""
    return float(abs(x).max())


def interior_mask(space: FockSpace, margin: int) -> np.ndarray:
    """Boolean mask selecting basis states with occupations n_i <= n_max - margin."""
    if margin < 0 or margin > space.n_max:
        raise DomainError(f"margin must lie in [0, {space.n_max}], got {margin}")
    low = np.arange(space.n_max + 1) <= space.n_max - margin
    return np.logical_and.outer(low, low).ravel()


def interior_deviation(a: sp.csr_array, b: sp.csr_array, space: FockSpace, margin: int) -> float:
    """max |a - b| entrywise over the interior block on both sides."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    keep = interior_mask(space, margin)
    return max_abs((a - b)[np.ix_(keep, keep)])


def window_mask(space: FockSpace, cap: int) -> np.ndarray:
    """Boolean mask selecting basis states with total occupation n1+n2 <= cap.

    Exponential-map comparisons need this instead of a margin: the truncated
    e^{theta X} carries exponentially large weight near the top corner, so
    agreement with closed forms holds on a fixed low-occupation block that
    stays put while n_max grows.
    """
    if cap < 0:
        raise DomainError(f"window cap must be >= 0, got {cap}")
    occupation = np.arange(space.n_max + 1)
    return (np.add.outer(occupation, occupation) <= cap).ravel()


def windowed_deviation(a: sp.csr_array, b: sp.csr_array, space: FockSpace, cap: int) -> float:
    """max |(a - b)| entrywise over the n1+n2 <= cap block on both sides."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    keep = window_mask(space, cap)
    return max_abs((a - b)[np.ix_(keep, keep)])


def blocks(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
           ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected (rows, cols) blocks of the matrix of the given shape and nonzero coordinates.

    rows[k], cols[k] is the k-th nonzero entry (as from `a.nonzero()`; repeats
    are harmless).  Rows and columns are the two sides of a bipartite graph
    with an edge at every nonzero entry; each block is one connected
    component, so the matrix vanishes outside the union of rows x cols over
    the blocks.  A row or column with no nonzero entry is a block of its own
    whose other side is empty.  Index arrays are ascending; blocks come in
    the order of their smallest row, those without rows last, in the order
    of their column.
    """
    if len(shape) != 2:
        raise DimensionMismatch(f"blocks needs a matrix, got shape {shape}")
    n_rows, n_cols = shape
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp) + n_rows  # nodes: rows first, then columns
    # label every node by the smallest node of its component: pull the
    # smaller label across each edge, then jump labels to their own labels
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


def block_stacks(a: sp.csr_array, parts: list[tuple[np.ndarray, np.ndarray]]
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The (rows, cols) blocks in parts, grouped by shape and gathered as dense stacks.

    One (rows, cols, dense) triple per distinct block shape (r, c), in
    ascending order of r, then c: rows is (k, r), cols is (k, c) and dense is
    (k, r, c) with dense[j] = a[np.ix_(rows[j], cols[j])], for the k blocks of
    that shape in the order of parts.  parts must be disjoint and hold every
    nonzero of a, as the blocks that `blocks` returns do.  Every stack is a
    view of one buffer that a single scatter of a's nonzeros fills.
    """
    n_rows = np.array([len(rows) for rows, _ in parts], dtype=np.intp)
    n_cols = np.array([len(cols) for _, cols in parts], dtype=np.intp)
    _, kind, count = np.unique(n_rows * (a.shape[1] + 1) + n_cols,
                               return_inverse=True, return_counts=True)
    order = np.argsort(kind, kind="stable")
    n_rows, n_cols = n_rows[order], n_cols[order]
    row_idx = np.concatenate([parts[j][0] for j in order])
    col_idx = np.concatenate([parts[j][1] for j in order])
    # buffer offset of each block, and of its first index in row_idx and col_idx
    size = n_rows * n_cols
    start, row_start, col_start = (np.cumsum(n) - n for n in (size, n_rows, n_cols))
    # entry (i, j) of a lands at row_base[i] + col_local[j]
    owner = np.repeat(np.arange(len(order)), n_rows)
    row_base = np.zeros(a.shape[0], dtype=np.intp)
    row_base[row_idx] = (start[owner]
                         + (np.arange(len(row_idx)) - row_start[owner]) * n_cols[owner])
    col_local = np.zeros(a.shape[1], dtype=np.intp)
    col_local[col_idx] = np.arange(len(col_idx)) - np.repeat(col_start, n_cols)
    coo = a.tocoo()
    nonzero = coo.data != 0
    buffer = np.zeros(size.sum(), dtype=a.dtype)
    buffer[row_base[coo.row[nonzero]] + col_local[coo.col[nonzero]]] = coo.data[nonzero]
    stacks = []
    for j, k in zip(np.cumsum(count) - count, count):
        r, c = n_rows[j], n_cols[j]
        stacks.append((row_idx[row_start[j]:row_start[j] + k * r].reshape(k, r),
                       col_idx[col_start[j]:col_start[j] + k * c].reshape(k, c),
                       buffer[start[j]:start[j] + k * r * c].reshape(k, r, c)))
    return stacks


def _closed_blocks(a: sp.csr_array) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks (idx, idx) closed under the square matrix a: the blocks of its pattern plus I.

    The diagonal edges put row i and column i in the same block, so every
    block has equal row and column sets and is closed under both a and a^T.
    """
    rows, cols = a.nonzero()
    diagonal = np.arange(a.shape[0])
    return blocks(np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal]), a.shape)


#: Padé degree m -> largest 1-norm at which the [m/m] approximant of e^A is exact to double
#: precision in backward error (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}


def _pade_rows(m: int) -> np.ndarray:
    """Coefficients of the [m/m] approximant's U/A (row 0) and V (row 1) on I, A^2, A^4, ...

    The coefficients are b_j = (2m-j)! / (j! (m-j)!), Higham's times the
    common factor (2m)!/m!, which cancels in V^-1 U.  Degree 13 evaluates on
    I, A^2, A^4, A^6 only, as U/A = A^6 row 2 + row 0 and V = A^6 row 3 +
    row 1, so it gets four rows.
    """
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]], dtype=float)
    return np.array([b[1:8:2], b[0:7:2], [0, *b[9::2]], [0, *b[8::2]]], dtype=float)


_PADE_ROWS = {m: _pade_rows(m) for m in _PADE_THETA}


def _polynomials(rows: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """Every row applied to (I, A^2, A^4, ...), as one (len(rows), k, n, n) array.

    The terms are summed from the highest power down, as Higham writes them.
    """
    coeff = rows[:, :, None, None, None]
    out = coeff[:, -1] * powers[-1]
    for j in range(len(powers) - 1, 0, -1):
        out += coeff[:, j] * powers[j - 1]
    out.reshape(*out.shape[:2], -1)[..., ::out.shape[-1] + 1] += rows[:, :1, None]
    return out


def _pade_exp(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """e^a for a (k, n, n) stack: the [m/m] Padé approximant of a / 2^s, squared s times."""
    if s:
        a = a * 2.0 ** -s
    rows = _PADE_ROWS[m].astype(a.dtype)  # a stack times rows of its own dtype needs no cast
    powers = [a @ a]  # A^2, A^4, ...
    while len(powers) < rows.shape[1] - 1:
        powers.append(powers[-1] @ powers[0])
    terms = _polynomials(rows, powers)
    u_in, v = powers[2] @ terms[2:] + terms[:2] if m == 13 else terms
    u = a @ u_in
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _pade_choice(norm: float) -> tuple[int, int]:
    """(m, s) for a matrix of 1-norm norm (Higham 2005, Algorithm 2.3).

    The lowest degree m whose theta bounds the norm, with s = 0; past
    theta_13, degree 13 and the fewest halvings s that bring it under.
    """
    for m, theta in _PADE_THETA.items():
        if norm <= theta:
            return m, 0
    if not math.isfinite(norm):
        raise NumericalError("matrix_exp overflowed; argument norm too large")
    return 13, math.ceil(math.log2(norm / _PADE_THETA[13]))


def _stack_exp(a: np.ndarray) -> np.ndarray:
    """e^a for a (k, n, n) stack by scaling and squaring, degree and scaling per matrix.

    When the smallest and the largest 1-norm in the stack get the same
    (m, s), as the equal-norm blocks of one sector pair do, the stack runs
    at once; otherwise each run of equal (m, s) in 1-norm order does.
    """
    norm = np.abs(a).sum(axis=1).max(axis=1)
    choice = _pade_choice(norm.min())
    if choice == _pade_choice(norm.max()):
        return _pade_exp(a, *choice)
    order = np.argsort(norm, kind="stable")
    choices = [_pade_choice(x) for x in norm[order].tolist()]
    out = np.empty_like(a)
    start = 0
    for choice, run in itertools.groupby(choices):
        mine = order[start:start + len(list(run))]
        out[mine] = _pade_exp(a[mine], *choice)
        start += len(mine)
    return out


def matrix_exp(a: sp.csr_array) -> sp.csr_array:
    """e^a block by block, with finiteness guards on input and output.

    e^a is the direct sum of the exponentials of a's closed blocks and
    exactly 0 between them.  The blocks are gathered as one dense stack per
    block size (`block_stacks`), each stack is exponentiated at once
    (`_stack_exp`), and every block is scattered into the complex CSR
    result.  A real a (every imaginary part 0) has a real e^a, so its blocks
    run in real arithmetic.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix_exp needs a square matrix, got {a.shape}")
    a = sp.csr_array(a, dtype=complex)
    if not np.all(np.isfinite(a.data)):
        raise NumericalError("matrix_exp input contains non-finite entries")
    if not a.data.imag.any():
        a = a.real
    rows, cols, vals = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for idx, _, stack in block_stacks(a, _closed_blocks(a)):
            n = idx.shape[1]
            rows.append(np.repeat(idx, n, axis=1).ravel())
            cols.append(np.repeat(idx[:, None, :], n, axis=1).ravel())
            vals.append(_stack_exp(stack).ravel())
    vals = np.concatenate(vals)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("matrix_exp overflowed; argument norm too large")
    return sp.csr_array((vals, (np.concatenate(rows), np.concatenate(cols))), shape=a.shape,
                        dtype=complex)


def position_operators(ladder: LadderSet, params: PhysicalParams
                       ) -> tuple[sp.csr_array, sp.csr_array]:
    """(x, y) as matrices, from the rotated pair x = (x1+x2)/sqrt2, y = (x1-x2)/sqrt2."""
    scale = math.sqrt(params.hbar / (2.0 * params.m * params.omega))
    x1 = scale * (ladder.a1 + ladder.a1_dag)
    x2 = scale * (ladder.a2 + ladder.a2_dag)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * (x1 + x2), inv_sqrt2 * (x1 - x2)

