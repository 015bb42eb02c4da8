"""Imaginary-scale route: the construction IS, mode 2 traded for its creator.

A squeeze-type generator Y acting on mode 2 alone realizes, at parameter
pi/2, the replacement a2 -> -i a2+, a2+ -> -i a2.  Composing with a
hyperbolic mixing of (a1, a2+) at chi = +-i pi/4 yields check modes on which
H becomes hbar*omega*(n1+n2+1) +- i*hbar*lambda*(n1-n2): real part bounded
below by hbar*omega, imaginary part zero exactly on the diagonal n1 = n2.

`IS` holds the route's data for the generic machinery in `construction`.
What only this route has lives here: the generators Y and Z, the squeeze
similarity check on a single-mode chain, the bounded frame and its vacuum,
and the symbol conjugation of the x(t), y(t) terms (`construction.xy_terms`).
The chi similarity e^{chi Z} is checked by `construction.similarity_deviation`,
as the rotation route's e^{theta X} is.

Two matrix realizations coexist on purpose.  In the original frame the
check modes mix a1 with a2+, so the truncated joint kernel of the two check
annihilators sits at the top of the mode-2 ladder, |0, n_max>, where every
basis pairing built over it is dominated by truncation-boundary defects.
The bounded frame (`bounded_frame`) is the same construction IS on the
swapped ladder a2 -> i b2+, a2+ -> i b2, the post-squeeze pair stored as the
ladder of a fresh Fock space: the chi mixing becomes a bounded, for
imaginary chi unitary, mode rotation whose vacuum is the Fock vacuum
e_(0,0) (`is_vacuum`), and `fock.build_hamiltonian` on the swapped ladder
gives H there.  Operator identities and closed forms are checked in the
original frame; basis vectors, Gram pairings, and eigenvector residuals
live in the bounded frame.  Both regularizations are implementation
choices documented in the README, not statements about the untruncated
theory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .algebra import CQ, ExactScalar
from .construction import Construction, MixedModes, XYTerms, transform
from .errors import DomainError
from .fock import LadderSet, Operator, intertwining_deviation, low_block, single_mode_lowering
from .ft import generator_matrix
from .params import PhysicalParams

__all__ = [
    "IS",
    "generator_y_matrix",
    "generator_z_matrix",
    "tilde_pair",
    "tilde_similarity_deviation",
    "bounded_frame",
    "is_vacuum",
    "conjugate_xy_terms",
]

_I = CQ(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# the construction


def _scale(chi: complex):
    """(check_ann1, check_ann2) = [[ch, i sh], [-sh, -i ch]] (a1, a2+);
    (check_cre1, check_cre2) = [[ch, -i sh], [sh, -i ch]] (a1+, a2)."""
    ch, sh = cmath.cosh(chi), cmath.sinh(chi)
    return ((ch, 1j * sh), (-sh, -1j * ch)), ((ch, -1j * sh), (sh, -1j * ch))


def _scale_h1(check: MixedModes, q_form: Operator, params: PhysicalParams) -> Operator:
    """H1 = hbar lambda [cosh 2chi (c1+ c2 - c2+ c1) + sinh 2chi (N1 - N2)]."""
    c2, s2 = cmath.cosh(2 * check.angle), cmath.sinh(2 * check.angle)
    return params.hbar * params.lam * (
        c2 * (check.cre1 @ check.ann2 - check.cre2 @ check.ann1) + s2 * q_form
    )


def _scale_at_quarter(branch: int):
    """Inverse mixing at chi = branch*i*pi/4: cosh = sqrt2/2, sinh = branch*i*sqrt2/2."""
    c = ExactScalar.surd(Fraction(1, 2), 2)
    i_c = ExactScalar.surd(_I * Fraction(1, 2), 2)
    return ((c, i_c * branch), (c * (-branch), i_c)), ((c, -(i_c * branch)), (c * branch, i_c))


IS = Construction(
    angle_name="chi",
    imaginary_angle=True,
    mixing=_scale,
    second_annihilates=True,
    p_map=(1, 1, 1),
    q_map=(1, -1, 0),
    quarter=lambda branch: branch * 1j * math.pi / 4,
    h1_mixed=_scale_h1,
    substitution=_scale_at_quarter,
    xy_phase=1j,
)


# ---------------------------------------------------------------------------
# generators and the phi-stage map


def generator_y_matrix(ann: Operator, cre: Operator) -> Operator:
    """Y = -(i/2)(a^2 - a+^2) of one mode pair, (a2, a2+) or a single-mode chain.

    Y is Hermitian, so e^{phi Y} is unitary only for imaginary phi.
    """
    return -0.5j * (ann @ ann - cre @ cre)


def generator_z_matrix(ladder: LadderSet) -> Operator:
    """Z as a matrix at phi = pi/2; equals -i X = -i(a1 a2 + a1+ a2+)."""
    return -1j * generator_matrix(ladder)


def tilde_pair(phi: complex, ann: Operator, cre: Operator) -> tuple[Operator, Operator]:
    """Closed-form images (a-tilde, its partner) of the mode pair (a, a+) under the Y rotation."""
    c, s = cmath.cos(phi), cmath.sin(phi)
    return c * ann - 1j * s * cre, c * cre - 1j * s * ann


def tilde_similarity_deviation(phi: complex, n_max: int = 64) -> float:
    """Low-block gap of u a = m u for u = e^{phi Y}, relative to the largest |u| there.

    a runs over (a2, a2+) and m over their closed forms under the Y rotation.
    Y acts on mode 2 alone, so the comparison runs on a dedicated single-mode
    chain where a long truncation is cheap; Y conserves the parity of n.  On
    the n <= `low_block(n_max)` block both products read u one rung past the
    block, where the truncated u is exact once n_max is a few spreading
    lengths deeper; real phi = pi/2 itself is served by the closed form only.
    The block reads both parity sectors, so both are exponentiated.
    """
    ann = single_mode_lowering(n_max + 1)
    cre = ann.T
    return intertwining_deviation(phi * generator_y_matrix(ann, cre), np.arange(n_max + 1) % 2,
                                  zip((ann, cre), tilde_pair(phi, ann, cre)),
                                  np.arange(n_max + 1) <= low_block(n_max))


# ---------------------------------------------------------------------------
# bounded frame (post-squeeze ladder realization)


def bounded_frame(chi: complex, ladder: LadderSet) -> MixedModes:
    """IS at purely imaginary chi on the swapped ladder a2 -> i b2+, a2+ -> i b2.

    The swapped pair obeys standard commutation relations, so the check modes
    come out as a bounded mode rotation of (b1, b2) (unitary for imaginary
    chi): ann1 = ch b1 - sh b2, ann2 = -sh b1 + ch b2.  Their joint kernel
    is the Fock vacuum e_(0,0) (`is_vacuum`), and creator monomials never
    touch the truncation boundary while n1+n2 stays two rungs below n_max.
    H on the returned ladder (`build_hamiltonian`) is H with the same swap; its
    gamma part is anti-Hermitian there, which is what makes H non-normal with
    complex eigenvalues p*hbar*omega + i q*hbar*lambda.  The check modes mix
    b1 with b2, so the frame's charge is n1 + n2.
    """
    swapped = replace(ladder, a2=1j * ladder.a2_dag, a2_dag=1j * ladder.a2)
    return replace(transform(IS, chi, swapped), headroom=ladder.space.n_max - 2,
                   charge=ladder.space.total)


def is_vacuum(frame: MixedModes) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum pair (ket, bra) of the bounded frame: the Fock vacuum e_(0,0), twice.

    At imaginary chi the frame's check annihilators are an invertible mixing
    of (b1, b2), so their joint kernel is that of b1 and b2, the corner state,
    and so is the left kernel of the creators; bra @ ket = 1.  `is.vacuum`
    checks on the whole matrix that both sides kill it and that the mixing,
    read off the one-quantum entries, is invertible; uniqueness also needs
    the ladder weights of b1 and b2, which `is.commutators` checks.
    """
    if not np.array_equal(frame.charge, frame.space.total):
        raise DomainError("is_vacuum needs the bounded frame (charge n1 + n2)")
    ket = np.zeros(frame.space.dim, dtype=complex)
    ket[frame.space.index(0, 0)] = 1.0
    return ket, ket.copy()


# ---------------------------------------------------------------------------
# exact symbol route


def conjugate_xy_terms(terms: XYTerms) -> XYTerms:
    """Symbol-level conjugation of a time-labeled operator sum.

    Scalars conjugate with i -> -i and gamma -> -gamma; the rate labels flip
    accordingly: e^{(p_lam*lam + i*p_omega*omega)t} -> e^{(-p_lam*lam - i*p_omega*omega)t}.
    """
    return {(-pl, -pw): poly.conjugated() for (pl, pw), poly in terms.items()}
