"""Truncated two-mode Fock space: ladder matrices, Hamiltonians, commutators.

Per-mode occupation is capped at n_max.  The flat index of |n1, n2> is
n1*(n_max+1) + n2.  Truncation spoils canonical commutators only on the
boundary layer; the interior mask selects the states where the
infinite-space identities hold exactly.

Operators stay dense matrices, but the ones the constructions use conserve
n1-n2, n1+n2 or a parity, so most of their entries are exact zeros.  The
dense kernels (`matrix_exp`, and the nullspace SVD in `imagscale`) split
their input into the connected blocks of its own nonzero pattern
(`blocks`) and work block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, DomainError, NumericalError
from .params import PhysicalParams

__all__ = [
    "FockSpace",
    "LadderSet",
    "HamiltonianSet",
    "build_ladder",
    "build_hamiltonian",
    "commutator",
    "blocks",
    "interior_mask",
    "interior_deviation",
    "window_mask",
    "windowed_deviation",
    "matrix_exp",
    "position_operators",
]

#: default truncation for verification runs; unit tests mostly use 8
DEFAULT_N_MAX = 16
FAST_N_MAX = 8


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
    """Dense annihilation/creation matrices for both modes."""

    space: FockSpace
    a1: np.ndarray
    a1_dag: np.ndarray
    a2: np.ndarray
    a2_dag: np.ndarray


@dataclass(frozen=True)
class HamiltonianSet:
    """h0 (oscillator part), h1 (damping coupling) and their sum."""

    h0: np.ndarray
    h1: np.ndarray
    h: np.ndarray
    params: PhysicalParams


def _single_mode_lowering(size: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, size)), k=1).astype(complex)


def build_ladder(n_max: int) -> LadderSet:
    """Tensor the single-mode ladder into both factors; requires n_max >= 2."""
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    size = n_max + 1
    a = _single_mode_lowering(size)
    eye = np.eye(size, dtype=complex)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    return LadderSet(
        space=FockSpace(n_max),
        a1=a1,
        a1_dag=a1.conj().T,
        a2=a2,
        a2_dag=a2.conj().T,
    )


def build_hamiltonian(ladder: LadderSet, params: PhysicalParams) -> HamiltonianSet:
    """H = hbar*omega*(n1 - n2) + i*(hbar*gamma/2m)*(a1 a2 - a1+ a2+)."""
    hw = params.hbar * params.omega
    coupling = 1j * params.hbar * params.gamma / (2.0 * params.m)
    h0 = hw * (ladder.a1_dag @ ladder.a1 - ladder.a2_dag @ ladder.a2)
    h1 = coupling * (ladder.a1 @ ladder.a2 - ladder.a1_dag @ ladder.a2_dag)
    return HamiltonianSet(h0=h0, h1=h1, h=h0 + h1, params=params)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def interior_mask(space: FockSpace, margin: int) -> np.ndarray:
    """Boolean mask selecting basis states with occupations n_i <= n_max - margin."""
    if margin < 0 or margin > space.n_max:
        raise DomainError(f"margin must lie in [0, {space.n_max}], got {margin}")
    low = np.arange(space.n_max + 1) <= space.n_max - margin
    return np.logical_and.outer(low, low).ravel()


def interior_deviation(a: np.ndarray, b: np.ndarray, space: FockSpace, margin: int) -> float:
    """max |a - b| entrywise over the interior block on both sides."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    keep = interior_mask(space, margin)
    return float(np.max(np.abs((a - b)[np.ix_(keep, keep)])))


def window_mask(space: FockSpace, cap: int) -> np.ndarray:
    """Boolean mask selecting basis states with total occupation n1+n2 <= cap.

    Exponential-map comparisons need this instead of a margin: the truncated
    e^{theta X} carries exponentially large weight near the top corner, so
    agreement with closed forms holds on a fixed low-occupation block that
    stays put while n_max grows.
    """
    if cap < 0:
        raise DomainError(f"window cap must be >= 0, got {cap}")
    return np.array([n1 + n2 <= cap for n1, n2 in space.iter_occupations()], dtype=bool)


def windowed_deviation(a: np.ndarray, b: np.ndarray, space: FockSpace, cap: int) -> float:
    """max |(a - b)| entrywise over the n1+n2 <= cap block on both sides."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    keep = window_mask(space, cap)
    return float(np.max(np.abs((a - b)[np.ix_(keep, keep)])))


def blocks(pattern: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected (rows, cols) blocks of a matrix's nonzero pattern.

    Rows and columns are the two sides of a bipartite graph with an edge at
    every nonzero entry; each block is one connected component, so the
    matrix vanishes outside the union of rows x cols over the blocks.  A row
    or column with no nonzero entry is a block of its own whose other side
    is empty.  Index arrays are ascending; blocks come in the order of their
    smallest row, those without rows last, in the order of their column.
    """
    pattern = np.asarray(pattern)
    if pattern.ndim != 2:
        raise DimensionMismatch(f"blocks needs a matrix, got shape {pattern.shape}")
    n_rows, n_cols = pattern.shape
    rows, cols = np.nonzero(pattern)
    cols = cols + n_rows  # nodes: rows first, then columns
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


def _closed_blocks(a: np.ndarray) -> list[np.ndarray]:
    """Index sets closed under the square matrix a: the blocks of |a| + |a^T| + I.

    Absolute values, not a + a^T, because a can be antisymmetric (Y + Y^T
    is exactly 0); the diagonal puts row i and column i in the same block.
    """
    pattern = (a != 0) | (a.T != 0)
    np.fill_diagonal(pattern, True)
    return [rows for rows, _ in blocks(pattern)]


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """scipy expm block by block, with finiteness guards on input and output.

    e^a is the direct sum of the exponentials of a's closed blocks and
    exactly 0 between them.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix_exp needs a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix_exp input contains non-finite entries")
    a = np.asarray(a, dtype=complex)
    result = np.zeros_like(a)
    for idx in _closed_blocks(a):
        sub = np.ix_(idx, idx)
        result[sub] = scipy.linalg.expm(a[sub])
    if not np.all(np.isfinite(result)):
        raise NumericalError("matrix_exp overflowed; argument norm too large")
    return result


def position_operators(ladder: LadderSet, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as matrices, from the rotated pair x = (x1+x2)/sqrt2, y = (x1-x2)/sqrt2."""
    scale = math.sqrt(params.hbar / (2.0 * params.m * params.omega))
    x1 = scale * (ladder.a1 + ladder.a1_dag)
    x2 = scale * (ladder.a2 + ladder.a2_dag)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * (x1 + x2), inv_sqrt2 * (x1 - x2)

