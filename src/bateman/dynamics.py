"""Closed-form time evolution and stability classification for both constructions.

Every eigenstate evolves by a scalar factor e^{-i h t / hbar} with h from the
integer pair (p, q): h = p*hbar*omega + q*i*hbar*lambda.  The sign of q alone
decides growth, decay, or stability; all time dependence is closed form, so
there is no stepping and no truncation anywhere in this module.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .construction import Construction, Eigen, eigenvalue, normalize_branch
from .errors import DomainError
from .ft import FT
from .imagscale import IS
from .params import PhysicalParams

__all__ = [
    "CONSTRUCTIONS",
    "StabilityClass",
    "StateEvolution",
    "eigen_record",
    "schrodinger_factor",
    "dual_factor",
    "classify",
    "pairing_norm_in_time",
    "eom_residual",
    "xy_mode_exponents",
]


class StabilityClass(str, Enum):
    DECAYING = "decaying"
    GROWING = "growing"
    STABLE = "stable"


CONSTRUCTIONS: dict[str, Construction] = {"ft": FT, "is": IS}


def eigen_record(approach: str, branch, n1: int, n2: int) -> Eigen:
    """Eigenvalue record of either construction, by name."""
    if approach not in CONSTRUCTIONS:
        raise DomainError(f"approach must be 'ft' or 'is', got {approach!r}")
    return eigenvalue(CONSTRUCTIONS[approach], n1, n2, branch)


def classify(approach: str, branch, n1: int, n2: int) -> StabilityClass:
    """Growth/decay/stability from the sign of the imaginary integer coefficient.

    Validated parameter sets always have lambda > 0, so the sign of q alone decides.
    """
    q = eigen_record(approach, branch, n1, n2).q
    if q == 0:
        return StabilityClass.STABLE
    return StabilityClass.GROWING if q > 0 else StabilityClass.DECAYING


@dataclass(frozen=True)
class StateEvolution:
    """Closed-form evolution data of one eigenstate."""

    approach: str
    branch: int
    n1: int
    n2: int
    eigenvalue: complex
    hbar: float
    amplitude_rate: float  # Im(eigenvalue)/hbar
    phase_rate: float      # -Re(eigenvalue)/hbar
    stability: StabilityClass

    @staticmethod
    def create(approach: str, branch, n1: int, n2: int, params: PhysicalParams) -> "StateEvolution":
        record = eigen_record(approach, branch, n1, n2)
        ev = record.as_complex(params)
        return StateEvolution(
            approach=approach,
            branch=normalize_branch(branch),
            n1=n1,
            n2=n2,
            eigenvalue=ev,
            hbar=params.hbar,
            amplitude_rate=ev.imag / params.hbar,
            phase_rate=-ev.real / params.hbar,
            stability=classify(approach, branch, n1, n2),
        )

    def factor(self, t: float) -> complex:
        return schrodinger_factor(self.eigenvalue, t, self.hbar)


def schrodinger_factor(ev: complex, t: float, hbar: float = 1.0) -> complex:
    """e^{-i ev t / hbar}."""
    return cmath.exp(-1j * ev * t / hbar)


def dual_factor(ev: complex, t: float, hbar: float = 1.0) -> complex:
    """Reciprocal factor carried by the dual (bra) state."""
    return cmath.exp(1j * ev * t / hbar)


def pairing_norm_in_time(
    approach: str,
    branch,
    n1: int,
    n2: int,
    t_grid: Iterable[float],
    params: PhysicalParams,
    other: tuple[int, int] | None = None,
) -> list[float]:
    """Bra-ket pairing of the evolved pair over a time grid.

    The ket factor and the dual bra factor are exact reciprocals, so the
    exponents cancel algebraically; the pairing is evaluated from the summed
    exponent and equals 1.0 exactly for the matched state, 0.0 for a cross
    pairing.  This is the pairing norm, not the standard dagger norm.
    """
    ev = eigen_record(approach, branch, n1, n2).as_complex(params)
    if other is not None and tuple(other) != (n1, n2):
        return [0.0 for _ in t_grid]
    out = []
    for t in t_grid:
        exponent = (-1j * ev + 1j * ev) * t / params.hbar
        out.append(cmath.exp(exponent).real)
    return out


def eom_residual(s: complex, sign: str, params: PhysicalParams) -> complex:
    """m s^2 +- gamma s + k; zero certifies s as a classical mode exponent."""
    if sign == "damped":
        g = params.gamma
    elif sign == "amplified":
        g = -params.gamma
    else:
        raise DomainError(f"sign must be 'damped' or 'amplified', got {sign!r}")
    return params.m * s * s + g * s + params.k


def xy_mode_exponents(params: PhysicalParams) -> dict[str, tuple[complex, complex]]:
    """The four exponential rates appearing in the x(t), y(t) assemblies."""
    lam, omega = params.lam, params.omega
    return {
        "damped": (-lam + 1j * omega, -lam - 1j * omega),
        "amplified": (lam + 1j * omega, lam - 1j * omega),
    }
