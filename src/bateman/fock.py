"""Truncated two-mode Fock space: ladder matrices, Hamiltonians, commutators.

Per-mode occupation is capped at n_max.  The flat index of |n1, n2> is
n1*(n_max+1) + n2.  Truncation spoils canonical commutators only on the
boundary layer; the interior projector selects the states where the
infinite-space identities hold exactly.
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
    "interior_projector",
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


def interior_projector(space: FockSpace, margin: int) -> np.ndarray:
    """Diagonal 0/1 projector onto occupations n_i <= n_max - margin."""
    if margin < 0 or margin > space.n_max:
        raise DomainError(f"margin must lie in [0, {space.n_max}], got {margin}")
    cut = space.n_max - margin
    diag = np.array(
        [1.0 if (n1 <= cut and n2 <= cut) else 0.0 for n1, n2 in space.iter_occupations()],
        dtype=complex,
    )
    return np.diag(diag)


def interior_deviation(a: np.ndarray, b: np.ndarray, space: FockSpace, margin: int) -> float:
    """max |P (a - b) P| entrywise, P the interior projector for the margin."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    p = interior_projector(space, margin)
    return float(np.max(np.abs(p @ (a - b) @ p)))


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


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """scipy expm with finiteness guards on input and output."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix_exp needs a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix_exp input contains non-finite entries")
    result = scipy.linalg.expm(np.asarray(a, dtype=complex))
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

