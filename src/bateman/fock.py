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
input into the connected blocks of its own nonzero pattern (`blocks`) and
run dense numpy/scipy on each block alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg
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
    "dense_blocks",
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


def dense_blocks(a: sp.csr_array, parts: list[tuple[np.ndarray, np.ndarray]]
                 ) -> list[np.ndarray]:
    """The dense submatrix a[np.ix_(rows, cols)] of every (rows, cols) block in parts.

    parts must be disjoint and hold every nonzero of a, as the blocks that
    `blocks` returns do.  The entries are sorted into their blocks in one
    pass over a's nonzeros, not one sparse slice per block.
    """
    coo = a.tocoo()
    nonzero = coo.data != 0
    row, col, data = coo.row[nonzero], coo.col[nonzero], coo.data[nonzero]
    owner = np.zeros(a.shape[0], dtype=np.intp)
    local_row = np.zeros(a.shape[0], dtype=np.intp)
    local_col = np.zeros(a.shape[1], dtype=np.intp)
    for k, (rows, cols) in enumerate(parts):
        owner[rows] = k
        local_row[rows] = np.arange(len(rows))
        local_col[cols] = np.arange(len(cols))
    entry_owner = owner[row]
    order = np.argsort(entry_owner, kind="stable")
    counts = np.bincount(entry_owner, minlength=len(parts))
    dense = []
    for (rows, cols), end, count in zip(parts, np.cumsum(counts), counts):
        block = np.zeros((len(rows), len(cols)), dtype=a.dtype)
        mine = order[end - count:end]
        block[local_row[row[mine]], local_col[col[mine]]] = data[mine]
        dense.append(block)
    return dense


def _closed_blocks(a: sp.csr_array) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks (idx, idx) closed under the square matrix a: the blocks of its pattern plus I.

    The diagonal edges put row i and column i in the same block, so every
    block has equal row and column sets and is closed under both a and a^T.
    """
    rows, cols = a.nonzero()
    diagonal = np.arange(a.shape[0])
    return blocks(np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal]), a.shape)


def matrix_exp(a: sp.csr_array) -> sp.csr_array:
    """scipy expm block by block, with finiteness guards on input and output.

    e^a is the direct sum of the exponentials of a's closed blocks and
    exactly 0 between them: each block is read out of the CSR input as a
    dense square, exponentiated, and scattered into the CSR result.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix_exp needs a square matrix, got {a.shape}")
    a = sp.csr_array(a, dtype=complex)
    if not np.all(np.isfinite(a.data)):
        raise NumericalError("matrix_exp input contains non-finite entries")
    parts = _closed_blocks(a)
    rows, cols, vals = [], [], []
    for (idx, _), block in zip(parts, dense_blocks(a, parts)):
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(scipy.linalg.expm(block).ravel())
    vals = np.concatenate(vals)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("matrix_exp overflowed; argument norm too large")
    return sp.csr_array((vals, (np.concatenate(rows), np.concatenate(cols))), shape=a.shape)


def position_operators(ladder: LadderSet, params: PhysicalParams
                       ) -> tuple[sp.csr_array, sp.csr_array]:
    """(x, y) as matrices, from the rotated pair x = (x1+x2)/sqrt2, y = (x1-x2)/sqrt2."""
    scale = math.sqrt(params.hbar / (2.0 * params.m * params.omega))
    x1 = scale * (ladder.a1 + ladder.a1_dag)
    x2 = scale * (ladder.a2 + ladder.a2_dag)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * (x1 + x2), inv_sqrt2 * (x1 - x2)

