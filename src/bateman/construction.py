"""One description serves both diagonalizations of the damped/amplified pair.

Each route mixes (a1, a2+) by a 2x2 matrix into two new operators, completes
them with partners mixed from (a1+, a2), and ends at an affine integer map
(n1, n2) -> (p, q) with eigenvalue p*hbar*omega + q*i*hbar*lambda.  The
imaginary-scale route's record `imagscale.IS` is derived from the rotation
route's `ft.FT` by exchanging bar mode 2; everything written here serves
both: eigenvalue records, mixed-mode matrices and the H0/H1 identity report,
the similarity check u a = m u of the mixed modes against the route's
exponential u, the biorthogonal basis and its Gram, x(t) and y(t), and the
exact symbol substitution at the decoupling point.  The eigen map alone
answers every dynamics question: stability is the sign of q, each state
evolves by the scalar factor e^{-i E t / hbar}, and the Heisenberg rate of
each mixed annihilator is its mode's one-quantum energy over i hbar.

Two independent routes run through it: exact symbol algebra on abstract
mixed modes (no truncation, no floats) and truncated `fock.Operator` matrices.
Neither route knows about the other's results.  Both work in units of hbar
omega, where H depends on r = lambda / omega alone; the physical scale enters
only what the spectrum, evolve and dynamics reports print.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .algebra import B1_ANN, B1_CRE, B2_ANN, B2_CRE, ExactScalar, LadderPoly
from .errors import DomainError, HeadroomError
from .fock import (X_SCALE, FockSpace, LadderSet, Operator, build_hamiltonian, identity,
                   interior_deviation, intertwining_deviation, low_block, window_mask)
from .params import PhysicalParams

__all__ = [
    "Construction",
    "Eigen",
    "StabilityClass",
    "MixedModes",
    "normalize_branch",
    "eigenvalue",
    "schrodinger_factor",
    "dual_factor",
    "pairing_norm_in_time",
    "eom_residual",
    "xy_mode_exponents",
    "transform",
    "mode2_split",
    "similarity_deviation",
    "identity_report",
    "basis",
    "gram",
    "heisenberg_rate",
    "xy_operators",
    "plain_in_modes",
    "xy_terms",
    "hamiltonian_formal",
    "hamiltonian_from_plain",
]

Rows = tuple[tuple, tuple]          # 2x2 coefficients, one row per mixed operator
Affine = tuple[int, int, int]       # (c1, c2, c0): c1*n1 + c2*n2 + c0


@dataclass(frozen=True)
class Construction:
    """The data that tells the two quantization routes apart."""

    angle_name: str                 # "theta" or "chi", for messages
    imaginary_angle: bool           # the mixing angle must be purely imaginary
    #: angle -> (M, P): (first, second) = M @ (a1, a2+), their partners = P @ (a1+, a2)
    mixing: Callable[[complex], tuple[Rows, Rows]]
    second_annihilates: bool        # second is ann2 (partner cre2), else cre2 (partner ann2)
    #: mode i carries the one-quantum energy p_i*hbar*omega + q_i*branch*i*hbar*lambda
    p_map: Affine                   # p = p1*n1 + p2*n2 + p0
    q_map: Affine                   # q = branch*(q1*n1 + q2*n2 + q0)
    quarter: Callable[[int], complex]   # branch -> decoupling angle
    #: (modes, q number form, r) -> H1 / hbar omega in mixed operators at any angle
    h1_mixed: Callable[["MixedModes", Operator, float], Operator]
    #: branch -> exact inverse mixing at the decoupling angle, rows for (a1, a2+), (a1+, a2)
    substitution: Callable[[int], tuple[Rows, Rows]]
    xy_phase: complex               # weight of the mode-2 operator in x(t), y(t)


def normalize_branch(branch) -> int:
    if branch in (1, "+"):
        return 1
    if branch in (-1, "-"):
        return -1
    raise DomainError(f"branch must be one of +1, -1, '+', '-', got {branch!r}")


def _check_occupations(n1: int, n2: int) -> None:
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")


# ---------------------------------------------------------------------------
# eigenvalues and their closed-form dynamics


class StabilityClass(str, Enum):
    DECAYING = "decaying"
    GROWING = "growing"
    STABLE = "stable"


@dataclass(frozen=True)
class Eigen:
    """Eigenvalue record: value = p*hbar*omega + q*i*hbar*lambda."""

    n1: int
    n2: int
    branch: int
    p: int
    q: int

    def as_complex(self, params: PhysicalParams) -> complex:
        return self.p * params.hbar * params.omega + 1j * self.q * params.hbar * params.lam

    def rate(self, params: PhysicalParams) -> complex:
        """E / hbar = p*omega + q*i*lambda, the complex frequency the state evolves at."""
        return self.p * params.omega + 1j * self.q * params.lam

    @property
    def stability(self) -> StabilityClass:
        """Growth, decay or stability: validated parameters have lambda > 0, so the sign of q."""
        if self.q == 0:
            return StabilityClass.STABLE
        return StabilityClass.GROWING if self.q > 0 else StabilityClass.DECAYING


def _affine(coeffs: Affine, x1, x2, one=1):
    """c1*x1 + c2*x2 + c0*one, for occupations or for number-operator matrices."""
    c1, c2, c0 = coeffs
    return c1 * x1 + c2 * x2 + c0 * one


def eigenvalue(con: Construction, n1: int, n2: int, branch) -> Eigen:
    _check_occupations(n1, n2)
    b = normalize_branch(branch)
    return Eigen(n1=n1, n2=n2, branch=b, p=_affine(con.p_map, n1, n2),
                 q=b * _affine(con.q_map, n1, n2))


def schrodinger_factor(rate: complex, t: float) -> complex:
    """e^{-i rate t}, the factor an eigenstate of rate E / hbar (`Eigen.rate`) evolves by."""
    return cmath.exp(-1j * rate * t)


def dual_factor(rate: complex, t: float) -> complex:
    """Reciprocal factor carried by the dual (bra) state."""
    return cmath.exp(1j * rate * t)


def pairing_norm_in_time(rec: Eigen, t_grid: Iterable[float], rate: complex,
                         other: tuple[int, int] | None = None) -> list[float]:
    """Bra-ket pairing of the evolved pair of rec over a time grid.

    The ket factor and the dual bra factor are exact reciprocals, so the
    exponents cancel algebraically; the pairing is evaluated from the summed
    exponent and equals 1.0 exactly for the matched state, 0.0 for a cross
    pairing with the state other.  This is the pairing norm, not the
    standard dagger norm.  rate is rec's E / hbar (`Eigen.rate`).
    """
    if other is not None and tuple(other) != (rec.n1, rec.n2):
        return [0.0 for _ in t_grid]
    return [cmath.exp((-1j * rate + 1j * rate) * t).real for t in t_grid]


def eom_residual(s: complex, sign: str, params: PhysicalParams) -> complex:
    """(m s^2 +- gamma s + k) / m omega^2 = sigma^2 +- 2 r sigma + 1 + r^2 with sigma = s / omega;
    zero certifies s as a classical mode exponent.  In these units no term underflows."""
    if sign not in ("damped", "amplified"):
        raise DomainError(f"sign must be 'damped' or 'amplified', got {sign!r}")
    sigma, r = s / params.omega, params.r
    return sigma * sigma + (2 * r if sign == "damped" else -2 * r) * sigma + (1 + r * r)


def xy_mode_exponents(params: PhysicalParams) -> dict[str, tuple[complex, complex]]:
    """The four exponential rates appearing in the x(t), y(t) assemblies."""
    lam, omega = params.lam, params.omega
    return {
        "damped": (-lam + 1j * omega, -lam - 1j * omega),
        "amplified": (lam + 1j * omega, lam - 1j * omega),
    }


# ---------------------------------------------------------------------------
# truncated-matrix route


@dataclass(frozen=True)
class MixedModes:
    """Mixed-mode matrices at a fixed angle, built from the modes of ladder.

    headroom is the largest n1+n2 a basis vector may carry: any occupation of
    the space (2 n_max) in the original frame, two rungs below n_max in the
    bounded frame (`imagscale.bounded_frame`).  charge labels the states by
    the charge that the annihilators lower by 1: n1 - n2 in the original
    frame, n1 + n2 in the bounded frame.
    """

    angle: complex
    ann1: Operator
    cre1: Operator
    ann2: Operator
    cre2: Operator
    ladder: LadderSet
    headroom: int
    charge: np.ndarray = field(compare=False)  # an array: kept out of == and hash

    @property
    def space(self) -> FockSpace:
        return self.ladder.space


def _valid_angle(con: Construction, angle: complex) -> complex:
    """angle as a complex number, checked against the route's domain."""
    angle = complex(angle)
    if not (math.isfinite(angle.real) and math.isfinite(angle.imag)):
        raise DomainError(f"{con.angle_name} must be finite, got {angle}")
    if con.imaginary_angle and abs(angle.real) > 1e-12:
        raise DomainError(f"{con.angle_name} must be purely imaginary, got {angle}")
    return angle


def transform(con: Construction, angle: complex, ladder: LadderSet) -> MixedModes:
    angle = _valid_angle(con, angle)
    (m1, m2), (p1, p2) = con.mixing(angle)
    a1, a1d, a2, a2d = ladder.a1, ladder.a1_dag, ladder.a2, ladder.a2_dag
    second = m2[0] * a1 + m2[1] * a2d
    partner = p2[0] * a1d + p2[1] * a2
    ann2, cre2 = (second, partner) if con.second_annihilates else (partner, second)
    return MixedModes(
        angle=angle,
        ann1=m1[0] * a1 + m1[1] * a2d,
        cre1=p1[0] * a1d + p1[1] * a2,
        ann2=ann2,
        cre2=cre2,
        ladder=ladder,
        headroom=2 * ladder.space.n_max,
        charge=ladder.space.difference,
    )


def mode2_split(con: Construction, modes: MixedModes) -> tuple[Operator, Operator]:
    """(the mode-2 operator mixed from (a1, a2+), its partner mixed from (a1+, a2))."""
    return (modes.ann2, modes.cre2) if con.second_annihilates else (modes.cre2, modes.ann2)


def similarity_deviation(con: Construction, modes: MixedModes, generator: Operator) -> float:
    """Low-block gap of u a = m u with u = e^{angle G}, relative to the largest |u| there.

    a runs over the four operators of the route at angle 0 and m over their
    images in modes (whose charge G conserves), so u a u^{-1} = m is checked
    without u^{-1}.  Compared on the n1+n2 <= `low_block(n_max)` block B,
    where both products read u only one rung past it: the truncated u is
    exact there once n_max lies a few spreading lengths deeper, whatever
    weight it carries near the top corner.  Only the sectors of u that meet
    that rung are exponentiated (`fock.intertwining_deviation`), 15 of the 49
    sectors of n1 - n2 at n_max 24, and the products are read off the stored
    diagonals of the four pairs.
    """
    plain = transform(con, 0.0, modes.ladder)
    names = ("ann1", "cre1", "ann2", "cre2")
    return intertwining_deviation(modes.angle * generator, modes.charge,
                                  [(getattr(plain, n), getattr(modes, n)) for n in names],
                                  window_mask(modes.space, low_block(modes.space.n_max)))


def identity_report(con: Construction, modes: MixedModes, r: float, branch=None) -> float:
    """The larger interior gap of H0 and H1 from their expressions in the mixed operators,
    in units of hbar omega.

    H0 / hbar omega is the p number form at every angle.  H1 / hbar omega is compared
    with the route's general-angle expression, or, given the branch whose decoupling
    angle modes are built at, with the reduced form branch*i*r times the q number form.
    """
    space = modes.space
    eye = identity(space.dim)
    ham = build_hamiltonian(modes.ladder, r)
    n1 = modes.cre1 @ modes.ann1
    n2 = modes.cre2 @ modes.ann2
    q_form = _affine(con.q_map, n1, n2, eye)
    if branch is None:
        h1_form = con.h1_mixed(modes, q_form, r)
    else:
        h1_form = normalize_branch(branch) * 1j * r * q_form
    return np.max([interior_deviation(ham.h0, _affine(con.p_map, n1, n2, eye), space),
                   interior_deviation(ham.h1, h1_form, space)])  # a NaN is kept


# ---------------------------------------------------------------------------
# biorthogonal basis


def basis(modes, states, vacuum: tuple[np.ndarray, np.ndarray]
          ) -> tuple[np.ndarray, np.ndarray]:
    """(kets, bras): column j of kets is cre1^n1 cre2^n2 |vac>> / sqrt(n1! n2!) and row j of
    bras <<vac| ann1^n1 ann2^n2 / sqrt(n1! n2!), for (n1, n2) = states[j].

    modes is either frame, original or bounded; pairings are bras @ kets, with
    no conjugation.  Each side is one ladder walk (`_climb`), which gives every
    vector the bits of its own state's walk.
    """
    states = list(states)
    for n1, n2 in states:
        _check_occupations(n1, n2)
        if n1 + n2 > modes.headroom:
            raise HeadroomError(f"n1+n2 = {n1 + n2} exceeds headroom {modes.headroom}")
    n1s, n2s = [n1 for n1, _ in states], [n2 for _, n2 in states]
    norms = np.array([math.sqrt(math.factorial(n1) * math.factorial(n2)) for n1, n2 in states])
    norms = norms[:, None]
    shape = (len(states), len(vacuum[0]))  # also the shape of an empty block
    kets = np.array(_climb(modes.cre2, modes.cre1, vacuum[0], n2s, n1s)).reshape(shape) / norms
    bras = np.array(_climb(modes.ann1.T, modes.ann2.T, vacuum[1], n1s, n2s)).reshape(shape)
    return kets.T, bras / norms


def _climb(first: Operator, second: Operator, start: np.ndarray, firsts: list[int],
           seconds: list[int]) -> list[np.ndarray]:
    """[second^s first^f start for f, s in zip(firsts, seconds)], each power walked once.

    first climbs from start rung by rung, and each rung f that a state asks
    for starts a chain that second climbs as high as a state on it asks; each
    state is read off its chain, by the operations of its own walk.
    """
    rungs = [start]
    for _ in range(max(firsts, default=0)):
        rungs.append(first @ rungs[-1])
    chains = {f: [rungs[f]] for f in firsts}
    for f, s in zip(firsts, seconds):
        while len(chains[f]) <= s:
            chains[f].append(second @ chains[f][-1])
    return [chains[f][s] for f, s in zip(firsts, seconds)]


def gram(modes, vacuum: tuple[np.ndarray, np.ndarray], q_cap: int) -> np.ndarray:
    """Pairing matrix <<m1,m2|n1,n2>> of one `basis` block, occupations <= q_cap per mode."""
    kets, bras = basis(modes, list(itertools.product(range(q_cap + 1), repeat=2)), vacuum)
    return bras @ kets


# ---------------------------------------------------------------------------
# Heisenberg rates and x(t), y(t)


def heisenberg_rate(con: Construction, mode: int, kind: str, branch, r: float) -> complex:
    """rate / omega in d/dt op = rate op, for a mixed operator at the decoupling angle of branch.

    The annihilator of mode i lowers the energy by E_i = p_i*hbar*omega +
    q_i*branch*i*hbar*lambda, so [op, H] = E_i op and its rate is
    E_i / (i hbar), which is omega (-i p_i + q_i*branch*r); creators raise the
    energy by E_i and negate the rate.
    """
    b = normalize_branch(branch)
    if kind not in ("ann", "cre"):
        raise DomainError(f"kind must be 'ann' or 'cre', got {kind!r}")
    if mode not in (1, 2):
        raise DomainError(f"mode must be 1 or 2, got {mode}")
    p, q = con.p_map[mode - 1], con.q_map[mode - 1]
    rate = -p * 1j + q * b * r
    return -rate if kind == "cre" else rate


def xy_operators(con: Construction, branch, t: float, ladder: LadderSet,
                 r: float) -> tuple[Operator, Operator]:
    """x(t), y(t) / sqrt(hbar / m omega) at t in units of 1 / omega, from the mixed matrices
    of ladder at the decoupling angle of branch.

    x carries the damped exponents -lambda +- i omega, y the amplified ones;
    each pairs a mode-1 operator with the mode-2 operator mixed from the other side.
    """
    b = normalize_branch(branch)
    modes = transform(con, con.quarter(b), ladder)
    second, partner = mode2_split(con, modes)
    decay = cmath.exp(-r * t)
    grow = cmath.exp(r * t)
    spin = cmath.exp(1j * t)
    k = con.xy_phase
    if b > 0:
        x_t = X_SCALE * decay * (modes.cre1 * spin + k * second / spin)
        y_t = X_SCALE * grow * (modes.ann1 / spin - k * partner * spin)
    else:
        x_t = X_SCALE * decay * (modes.ann1 / spin + k * partner * spin)
        y_t = X_SCALE * grow * (modes.cre1 * spin - k * second / spin)
    return x_t, y_t


# ---------------------------------------------------------------------------
# exact symbol route

_INV_SQRT2 = ExactScalar(Fraction(1, 2), 0, 2)   # sqrt2/2


def plain_in_modes(con: Construction, branch) -> dict[str, LadderPoly]:
    """Plain modes written in mixed-mode symbols at the decoupling angle, exactly.

    b1 stands for the first mixed operator and b2 or b2+ for the second,
    whichever it is; their partners are b1+ and the other of b2, b2+.
    """
    (r1, r2), (s1, s2) = con.substitution(normalize_branch(branch))
    first, partner1 = LadderPoly.symbol(B1_ANN), LadderPoly.symbol(B1_CRE)
    second = LadderPoly.symbol(B2_ANN if con.second_annihilates else B2_CRE)
    partner2 = LadderPoly.symbol(B2_CRE if con.second_annihilates else B2_ANN)
    return {
        "a1": first * r1[0] + second * r1[1],
        "a2_dag": first * r2[0] + second * r2[1],
        "a1_dag": partner1 * s1[0] + partner2 * s1[1],
        "a2": partner1 * s2[0] + partner2 * s2[1],
    }


#: {(p_lam, p_omega): poly}, each poly carrying the factor e^{(p_lam*lam + i*p_omega*omega)t}
XYTerms = dict[tuple[int, int], LadderPoly]


def xy_terms(con: Construction, branch) -> tuple[XYTerms, XYTerms]:
    """x(t) and y(t) in mixed-mode symbols at the decoupling angle of branch, exactly.

    x = (a1 + a1+ + a2 + a2+)/sqrt2 and y = (a1 + a1+ - a2 - a2+)/sqrt2 with
    `plain_in_modes` substituted, in units of the real sqrt(hbar/2 m omega).
    Each symbol evolves at its mode's Heisenberg rate (`heisenberg_rate`):
    the annihilator of mode i is labeled (branch*q_i, -p_i), its creator the
    negative.
    """
    b = normalize_branch(branch)
    ops = plain_in_modes(con, b)
    labels = {}
    for i, (ann, cre) in enumerate(((B1_ANN, B1_CRE), (B2_ANN, B2_CRE))):
        labels[ann] = (b * con.q_map[i], -con.p_map[i])
        labels[cre] = (-b * con.q_map[i], con.p_map[i])
    mode1, mode2 = ops["a1"] + ops["a1_dag"], ops["a2"] + ops["a2_dag"]
    return tuple({labels[sym]: LadderPoly.symbol(sym) * (coeff * _INV_SQRT2)
                  for (sym,), coeff in poly.terms.items()}
                 for poly in (mode1 + mode2, mode1 - mode2))


def hamiltonian_formal(con: Construction, branch) -> tuple[LadderPoly, LadderPoly]:
    """(H0 / hbar omega, H1 / i hbar lambda) on the mixed basis from the eigen map: the p
    number form and branch times the q number form."""
    b = normalize_branch(branch)
    num1 = LadderPoly.word((B1_CRE, B1_ANN))
    num2 = LadderPoly.word((B2_CRE, B2_ANN))
    one = LadderPoly.one()
    return _affine(con.p_map, num1, num2, one), _affine(con.q_map, num1, num2, one) * b


def hamiltonian_from_plain(con: Construction, branch) -> tuple[LadderPoly, LadderPoly]:
    """(H0 / hbar omega, H1 / i hbar lambda) with the plain modes substituted by mixed
    symbols, normal ordered.

    Equality with hamiltonian_formal is the exact operator-level
    diagonalization statement; it is asserted in the verification suite, not
    assumed here.
    """
    ops = plain_in_modes(con, branch)
    h0 = ops["a1_dag"] * ops["a1"] - ops["a2_dag"] * ops["a2"]
    h1 = ops["a1"] * ops["a2"] - ops["a1_dag"] * ops["a2_dag"]
    return h0.normal_order(), h1.normal_order()
