"""Pseudo-Bogoliubov construction for the damped/amplified oscillator pair.

The rotation generator X = a1 a2 + a1+ a2+ mixes a1 with a2+.  At the
rotation angles +-pi/4 the interaction part of H becomes proportional to the
total bar-mode number operator, so the full H is diagonal on the bar basis
with complex eigenvalues hbar*omega*(n1-n2) +- i*hbar*lambda*(n1+n2+1).

Two independent routes are implemented throughout: exact symbol algebra on
abstract bar modes (no truncation, no floats) and dense truncated matrices.
Neither route knows about the other's results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import matrix_power

from .algebra import (
    B1_ANN,
    B1_CRE,
    B2_ANN,
    B2_CRE,
    ExactScalar,
    LadderPoly,
    U_HW,
    U_IHL,
)
from .errors import DomainError, FitError, NumericalError, SeriesDivergence
from .fock import FockSpace, LadderSet, interior_deviation, matrix_exp, windowed_deviation
from .params import PhysicalParams

__all__ = [
    "FtTransform",
    "FtEigen",
    "FtIdentityReport",
    "ft_transform",
    "generator_matrix",
    "similarity_deviation",
    "h1_in_bar",
    "ft_eigenvalue",
    "ft_vacuum_series",
    "ft_basis",
    "ft_basis_similarity",
    "ft_gram",
    "ft_norm_closed_forms",
    "ft_standard_norm",
    "ft_norm_exponent_fit",
    "ft_heisenberg_factor",
    "ft_xy_operators",
    "ft_generator_poly",
    "ft_plain_in_bars",
    "ft_hamiltonian_formal",
    "ft_hamiltonian_from_plain",
    "normalize_branch",
    "FIT_THETA_GRID",
    "TREND_THETA_GRID",
]

#: relative size below which a chain Taylor term, or the chain's neglected tail, is negligible
_CONV_LOG = math.log(1e-19)

#: Theta grids for the divergence study: pi/2 - 10^-j
FIT_THETA_GRID = tuple(math.pi / 2 - 10.0 ** (-j) for j in (1, 2, 3))
TREND_THETA_GRID = tuple(math.pi / 2 - 10.0 ** (-j) for j in (1, 2, 3, 4))


def normalize_branch(branch) -> int:
    if branch in (1, +1, "+", "plus"):
        return 1
    if branch in (-1, "-", "minus"):
        return -1
    raise DomainError(f"branch must be one of +1, -1, '+', '-', got {branch!r}")


# ---------------------------------------------------------------------------
# truncated-matrix route


@dataclass(frozen=True)
class FtTransform:
    """Bar-mode matrices at a fixed rotation parameter theta."""

    theta: complex
    coeff: np.ndarray        # 2x2: (bar_ann1, bar_cre2) = coeff @ (a1, a2+)
    ann1: np.ndarray
    cre1: np.ndarray
    ann2: np.ndarray
    cre2: np.ndarray
    ladder: LadderSet

    @property
    def space(self) -> FockSpace:
        return self.ladder.space


def ft_transform(theta: complex, ladder: LadderSet) -> FtTransform:
    theta = complex(theta)
    if not (math.isfinite(theta.real) and math.isfinite(theta.imag)):
        raise DomainError(f"theta must be finite, got {theta}")
    c, s = cmath.cos(theta), cmath.sin(theta)
    a1, a1d, a2, a2d = ladder.a1, ladder.a1_dag, ladder.a2, ladder.a2_dag
    return FtTransform(
        theta=theta,
        coeff=np.array([[c, -s], [s, c]], dtype=complex),
        ann1=c * a1 - s * a2d,
        cre2=s * a1 + c * a2d,
        cre1=c * a1d + s * a2,
        ann2=-s * a1d + c * a2,
        ladder=ladder,
    )


def generator_matrix(ladder: LadderSet) -> np.ndarray:
    """X = a1 a2 + a1+ a2+ on the truncated space."""
    return ladder.a1 @ ladder.a2 + ladder.a1_dag @ ladder.a2_dag


def similarity_deviation(ft: FtTransform, window: int = 6) -> float:
    """Max low-occupation gap between e^{theta X} a e^{-theta X} and the linear combinations.

    Compared on the n1+n2 <= window block only: the truncated e^{theta X}
    carries e^{O(|theta| n_max)} weight near the top corner, so the
    conjugation reproduces the closed forms on a fixed low block that must
    stay several spreading lengths below n_max (machine precision at
    |theta| <= 0.3 with window 6 by n_max = 24).
    """
    x = generator_matrix(ft.ladder)
    u = matrix_exp(ft.theta * x)
    u_inv = matrix_exp(-ft.theta * x)
    pairs = [
        (ft.ann1, ft.ladder.a1),
        (ft.cre1, ft.ladder.a1_dag),
        (ft.ann2, ft.ladder.a2),
        (ft.cre2, ft.ladder.a2_dag),
    ]
    return max(
        windowed_deviation(u @ plain @ u_inv, bar, ft.space, window) for bar, plain in pairs
    )


@dataclass(frozen=True)
class FtIdentityReport:
    """Interior deviations of H0/H1 from their bar-operator expressions."""

    theta: complex
    n_max: int
    margin: int
    h0_deviation: float
    h1_deviation: float
    reduced_deviation: float | None  # against the pure number-operator form; +-pi/4 only


def h1_in_bar(ft: FtTransform, params: PhysicalParams, margin: int = 2) -> FtIdentityReport:
    """Check H0 and H1 against their expressions in bar operators.

    The general-theta H1 expression carries cos(2 theta) and sin(2 theta)
    terms; at theta = +-pi/4 only the number-operator part survives.
    """
    space = ft.space
    lad = ft.ladder
    hbar, omega, lam = params.hbar, params.omega, params.lam
    eye = np.eye(space.dim, dtype=complex)

    h0 = hbar * omega * (lad.a1_dag @ lad.a1 - lad.a2_dag @ lad.a2)
    h1 = 1j * hbar * lam * (lad.a1 @ lad.a2 - lad.a1_dag @ lad.a2_dag)

    n1b = ft.cre1 @ ft.ann1
    n2b = ft.cre2 @ ft.ann2
    h0_bar = hbar * omega * (n1b - n2b)

    c2, s2 = cmath.cos(2 * ft.theta), cmath.sin(2 * ft.theta)
    h1_bar = (1j * hbar * lam) * (
        c2 * (ft.ann1 @ ft.ann2 - ft.cre1 @ ft.cre2) + s2 * (n1b + n2b + eye)
    )

    reduced = None
    if abs(c2) < 1e-9:
        sign = 1 if s2.real > 0 else -1
        h1_red = sign * 1j * hbar * lam * (n1b + n2b + eye)
        reduced = interior_deviation(h1, h1_red, space, margin)

    return FtIdentityReport(
        theta=ft.theta,
        n_max=space.n_max,
        margin=margin,
        h0_deviation=interior_deviation(h0, h0_bar, space, margin),
        h1_deviation=interior_deviation(h1, h1_bar, space, margin),
        reduced_deviation=reduced,
    )


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class FtEigen:
    """Eigenvalue record: value = p*hbar*omega + q*i*hbar*lambda."""

    n1: int
    n2: int
    branch: int
    p: int
    q: int

    def exact(self) -> ExactScalar:
        return ExactScalar.unit(U_HW, self.p) + ExactScalar.unit(U_IHL, self.q)

    def as_complex(self, params: PhysicalParams) -> complex:
        return self.p * params.hbar * params.omega + 1j * self.q * params.hbar * params.lam


def ft_eigenvalue(n1: int, n2: int, branch) -> FtEigen:
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")
    b = normalize_branch(branch)
    return FtEigen(n1=n1, n2=n2, branch=b, p=n1 - n2, q=b * (n1 + n2 + 1))


# ---------------------------------------------------------------------------
# vectors


def ft_vacuum_series(theta: complex, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Truncated bar vacuum pair: ket (tan^n/cos) and bra ((-tan)^n/cos) on |n,n>.

    Well-defined only for |tan theta| < 1; the pairing bra.ket telescopes to 1
    up to the geometric tail |tan theta|^(2(n_max+1)).
    """
    theta = complex(theta)
    t = cmath.tan(theta)
    # fl(tan(pi/4)) rounds to 0.999...9 < 1, so guard with a float cushion
    if abs(t) >= 1.0 - 1e-12:
        raise SeriesDivergence(
            f"|tan theta| = {abs(t):.6g} >= 1: vacuum series diverges at theta={theta}"
        )
    inv_cos = 1.0 / cmath.cos(theta)
    ket = np.zeros(space.dim, dtype=complex)
    bra = np.zeros(space.dim, dtype=complex)
    power = 1.0 + 0.0j
    for n in range(space.n_max + 1):
        idx = space.index(n, n)
        ket[idx] = inv_cos * power
        bra[idx] = inv_cos * power * ((-1) ** n)
        power *= t
    return ket, bra


def ft_basis(
    ft: FtTransform,
    n1: int,
    n2: int,
    vacuum: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Biorthogonal pair: ket = cre1^n1 cre2^n2 |vac>> / sqrt(n1! n2!), bra analog.

    The bra is a plain row vector; pairings are bra @ ket with no conjugation.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")
    if vacuum is None:
        vacuum = ft_vacuum_series(ft.theta, ft.space)
    ket0, bra0 = vacuum
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2))
    ket = matrix_power(ft.cre1, n1) @ (matrix_power(ft.cre2, n2) @ ket0) / norm
    bra = (bra0 @ matrix_power(ft.ann1, n1)) @ matrix_power(ft.ann2, n2) / norm
    return ket, bra


def ft_basis_similarity(ft: FtTransform, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Same pair built as e^{theta X}|n1,n2> and <n1,n2|e^{-theta X}."""
    x = generator_matrix(ft.ladder)
    unit = np.zeros(ft.space.dim, dtype=complex)
    unit[ft.space.index(n1, n2)] = 1.0
    ket = matrix_exp(ft.theta * x) @ unit
    bra = unit @ matrix_exp(-ft.theta * x)
    return ket, bra


def ft_gram(ft: FtTransform, q_cap: int) -> np.ndarray:
    """Pairing matrix <<m1,m2|n1,n2>> for all occupations <= q_cap per mode."""
    vacuum = ft_vacuum_series(ft.theta, ft.space)
    side = (q_cap + 1) ** 2
    kets = np.empty((side, ft.space.dim), dtype=complex)
    bras = np.empty((side, ft.space.dim), dtype=complex)
    i = 0
    for m1 in range(q_cap + 1):
        for m2 in range(q_cap + 1):
            ket, bra = ft_basis(ft, m1, m2, vacuum=vacuum)
            kets[i] = ket
            bras[i] = bra
            i += 1
    return bras @ kets.T


# ---------------------------------------------------------------------------
# standard norms and their divergence


def ft_norm_closed_forms(big_theta: float) -> dict[tuple[int, int], float]:
    """Hand-derived standard norms 1/cos, 1/cos^2, (2 - cos^2)/cos^3 of (0,0), (1,0), (1,1)."""
    c = math.cos(big_theta)
    return {(0, 0): 1.0 / c, (1, 0): 1.0 / c**2, (1, 1): (2.0 - c * c) / c**3}


def ft_standard_norm(theta: complex, n1: int, n2: int) -> float:
    """Standard (dagger) squared norm of the bar basis ket |n1,n2>>.

    This is <n1,n2|e^{Theta X}|n1,n2> with Theta = theta + conj(theta).  The
    su(1,1) disentangling of e^{Theta X} (Perelomov; Celeghini, Rasetti and
    Vitiello for this model) makes it a sum of min(n1, n2) + 1 positive terms,
    N = sum_j C(n1,j) C(n2,j) tan^{2j} Theta cos^{-(n1+n2-2j+1)} Theta, summed
    in log space so the blowup near the wall |Theta| = pi/2 stays accurate.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")
    big_theta = 2.0 * complex(theta).real
    if not math.isfinite(big_theta):
        raise DomainError(f"theta must be finite, got {theta}")
    if abs(big_theta) >= math.pi / 2:
        raise SeriesDivergence(
            f"|theta + conj(theta)| = {abs(big_theta):.6g} >= pi/2: standard norm diverges"
        )
    if big_theta == 0.0:
        return 1.0
    log_cos = math.log(math.cos(big_theta))
    log_tan2 = 2.0 * math.log(abs(math.tan(big_theta)))
    log_fact = math.lgamma(n1 + 1) + math.lgamma(n2 + 1)
    log_norm = float(np.logaddexp.reduce([
        j * log_tan2 + log_fact - 2.0 * math.lgamma(j + 1)
        - math.lgamma(n1 - j + 1) - math.lgamma(n2 - j + 1)
        - (n1 + n2 - 2 * j + 1) * log_cos
        for j in range(min(n1, n2) + 1)
    ]))
    if log_norm > 700.0:
        raise NumericalError(f"standard norm overflows float64 (log = {log_norm:.3g})")
    return math.exp(log_norm)


def _log_chain_exp(q0: int, s: float, couplings: np.ndarray) -> np.ndarray:
    """log of e^{s T} e_q0 for the nonnegative tridiagonal chain T.

    All Taylor terms are componentwise nonnegative, so the whole iteration
    lives in log space (logaddexp) and large amplitudes cannot overflow.
    """
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
        if term.max() < acc.max() + _CONV_LOG:
            return acc
    raise NumericalError("chain exponential series did not converge")


def _chain_standard_norm(big_theta: float, n1: int, n2: int) -> float:
    """Independent route to ft_standard_norm: ||e^{(Theta/2) T} e_q0||^2 on a finite chain.

    T is X restricted to the occupation-difference chain through (n1, n2).
    The amplitudes decay like tan^q(Theta/2) per site, so the chain is sized
    from that geometric tail and never capped; its cost grows like
    (pi/2 - |Theta|)^-2, so it is meant for moderate Theta.  If the tail is not
    resolved (the decay ratio rounds to 1, or the measured end amplitude is not
    negligible) it raises NumericalError instead of returning a truncated value.
    """
    s_half = abs(big_theta) / 2.0  # diagonal elements of exp are even in Theta
    ratio = math.tan(s_half) ** 2
    if not 0.0 < ratio < 1.0:
        raise NumericalError(f"no geometric chain tail to resolve at Theta={big_theta!r}")
    log_ratio = math.log(ratio)
    # squared amplitudes fall like q^(n1+n2) ratio^q along the chain
    geometric = (_CONV_LOG + math.log1p(-ratio)) / log_ratio
    sites = int(geometric - (n1 + n2) * math.log(geometric + n1 + n2 + 1) / log_ratio) + 24
    q = np.arange(sites - 1, dtype=float)
    couplings = np.sqrt((q + abs(n1 - n2) + 1.0) * (q + 1.0))
    log_u2 = 2.0 * _log_chain_exp(min(n1, n2), s_half, couplings)
    log_norm = float(np.logaddexp.reduce(log_u2))
    log_tail = log_u2[-1] + log_ratio - math.log1p(-ratio)
    if log_tail > log_norm + _CONV_LOG:
        raise NumericalError(f"chain of {sites} sites leaves a relative tail of "
                             f"{math.exp(log_tail - log_norm):.3g} at Theta={big_theta!r}")
    return math.exp(log_norm)


def ft_norm_exponent_fit(thetas, n1: int, n2: int) -> float:
    """Least-squares slope of log norm against -log cos Theta; expected n1+n2+1."""
    thetas = [float(t) for t in thetas]
    if len(thetas) < 3:
        raise FitError(f"exponent fit needs >= 3 samples, got {len(thetas)}")
    xs = np.array([-math.log(math.cos(t)) for t in thetas])
    ys = np.array([math.log(ft_standard_norm(t / 2.0, n1, n2)) for t in thetas])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# dynamics-facing scalar factors and x(t), y(t)


def ft_heisenberg_factor(mode: int, kind: str, branch, t: float, params: PhysicalParams) -> complex:
    """Scalar factor multiplying the t=0 bar operator under Heisenberg evolution."""
    b = normalize_branch(branch)
    if kind not in ("ann", "cre"):
        raise DomainError(f"kind must be 'ann' or 'cre', got {kind!r}")
    if mode == 1:
        rate = -1j * params.omega + b * params.lam
    elif mode == 2:
        rate = 1j * params.omega + b * params.lam
    else:
        raise DomainError(f"mode must be 1 or 2, got {mode}")
    if kind == "cre":
        rate = -rate
    return cmath.exp(rate * t)


def ft_xy_operators(
    sign: int, t: float, ft: FtTransform, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """x(t), y(t) assembled from bar matrices with closed-form scalar factors.

    sign selects the rotation branch theta = sign*pi/4 and must match the
    supplied transform.  x carries the damped exponents -lambda +- i omega,
    y the amplified ones.
    """
    sign = normalize_branch(sign)
    if abs(ft.theta - sign * math.pi / 4) > 1e-12:
        raise DomainError(
            f"transform built at theta={ft.theta}, expected {sign * math.pi / 4:+.12g}"
        )
    pref = math.sqrt(params.hbar / (2.0 * params.m * params.omega))
    lam, omega = params.lam, params.omega
    decay = cmath.exp(-lam * t)
    grow = cmath.exp(lam * t)
    spin = cmath.exp(1j * omega * t)
    if sign > 0:
        x_t = pref * decay * (ft.cre1 * spin + ft.cre2 / spin)
        y_t = pref * grow * (ft.ann1 / spin - ft.ann2 * spin)
    else:
        x_t = pref * decay * (ft.ann1 / spin + ft.ann2 * spin)
        y_t = pref * grow * (ft.cre1 * spin - ft.cre2 / spin)
    return x_t, y_t


# ---------------------------------------------------------------------------
# exact symbol route

_HW = ExactScalar.unit(U_HW)
_IHL = ExactScalar.unit(U_IHL)
_HALF_SQRT2 = ExactScalar.surd(Fraction(1, 2), 2)


def ft_generator_poly() -> LadderPoly:
    """X = b1 b2 + b1+ b2+ as an exact polynomial."""
    return LadderPoly.word((B1_ANN, B2_ANN)) + LadderPoly.word((B1_CRE, B2_CRE))


def ft_plain_in_bars(branch) -> dict[str, LadderPoly]:
    """Plain modes written in bar symbols at theta = branch*pi/4, exactly.

    The b symbols stand for the bar modes here; the substitution inverts the
    rotation with cos = sqrt2/2, sin = branch*sqrt2/2.
    """
    b = normalize_branch(branch)
    c = _HALF_SQRT2
    s = _HALF_SQRT2 * b
    b1 = LadderPoly.symbol(B1_ANN)
    b2 = LadderPoly.symbol(B2_ANN)
    b1d = LadderPoly.symbol(B1_CRE)
    b2d = LadderPoly.symbol(B2_CRE)
    return {
        "a1": b1 * c + b2d * s,
        "a2_dag": b1 * (-s) + b2d * c,
        "a1_dag": b1d * c + b2 * (-s),
        "a2": b1d * s + b2 * c,
    }


def ft_hamiltonian_formal(branch) -> LadderPoly:
    """H on the bar basis: hw*(N1 - N2) + branch*ihl*(N1 + N2 + 1)."""
    b = normalize_branch(branch)
    num1 = LadderPoly.word((B1_CRE, B1_ANN))
    num2 = LadderPoly.word((B2_CRE, B2_ANN))
    return (num1 - num2) * _HW + (num1 + num2 + LadderPoly.one()) * (_IHL * b)


def ft_hamiltonian_from_plain(branch) -> LadderPoly:
    """H0 + H1 with the plain modes substituted by bar symbols, normal ordered.

    Equality with ft_hamiltonian_formal is the exact operator-level
    diagonalization statement; it is asserted in the verification suite, not
    assumed here.
    """
    ops = ft_plain_in_bars(branch)
    h0 = (ops["a1_dag"] * ops["a1"] - ops["a2_dag"] * ops["a2"]) * _HW
    h1 = (ops["a1"] * ops["a2"] - ops["a1_dag"] * ops["a2_dag"]) * _IHL
    return (h0 + h1).normal_order()
