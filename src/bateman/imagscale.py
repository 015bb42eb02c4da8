"""Imaginary-scale route: the construction IS, FT with bar mode 2 exchanged.

`IS` is derived from `ft.FT` (`_exchanged`): e^{chi Z} is e^{theta X} at
theta = -i chi, and IS's check modes are FT's bar modes with b2 and b2+
exchanged, so IS's eigen map is FT's at n2 -> -n2 - 1.  At chi = +-i pi/4, H
becomes hbar*omega*(n1+n2+1) +- i*hbar*lambda*(n1-n2): FT's unbounded
p = n1 - n2 turns into a real part bounded below by hbar*omega, and FT's
q = n1 + n2 + 1, never 0, into an imaginary part zero exactly on n1 = n2.
The squeeze generator Y on mode 2 realizes the exchange a2 -> -i a2+ at
phi = pi/2.  What only this route has lives here: the generators Y and Z,
the squeeze similarity check on a single-mode chain, the bounded frame and
its vacuum, and the symbol conjugation of the x(t), y(t) terms.

Two matrix realizations coexist on purpose.  In the original frame the
check modes mix a1 with a2+, so the truncated joint kernel of the two check
annihilators sits at the top of the mode-2 ladder, |0, n_max>, where every
basis pairing built over it is dominated by truncation-boundary defects.
The bounded frame (`bounded_frame`) is the same construction IS on the
swapped ladder a2 -> i b2+, a2+ -> i b2, the post-squeeze pair stored as the
ladder of a fresh Fock space: the chi mixing becomes FT's rotation of
(b1, b2) at theta = -i chi, up to a phase i on mode 2, bounded and for
imaginary chi unitary, whose vacuum is the Fock vacuum e_(0,0)
(`is_vacuum`), and `fock.build_hamiltonian` on the swapped ladder gives H
there.  Operator identities and closed forms are checked in the original
frame; basis vectors, Gram pairings, and eigenvector residuals live in the
bounded frame.  Both regularizations are implementation choices documented
in the README, not statements about the untruncated theory.
"""

from __future__ import annotations

import cmath
from dataclasses import replace

import numpy as np

from .algebra import ExactScalar
from .construction import Construction, MixedModes, XYTerms, transform
from .errors import DomainError
from .fock import LadderSet, Operator, intertwining_deviation, low_block, single_mode_lowering
from .ft import FT, generator_matrix

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


# ---------------------------------------------------------------------------
# the construction


def _exchanged(con: Construction) -> Construction:
    """con with bar mode 2 exchanged: its annihilator becomes -i times its creator.

    The mixing is con's at -i angle with the mode-2 row times -i, the eigen
    map con's at n2 -> -n2 - 1, the substitution (the inverse mixing) con's
    with its mode-2 column times i, and H1 con's form on the modes exchanged back.
    """
    def mixing(angle):
        (m1, m2), (p1, p2) = con.mixing(-1j * angle)
        return (m1, (-1j * m2[0], -1j * m2[1])), (p1, (-1j * p2[0], -1j * p2[1]))

    def h1_mixed(modes, q_form, params):
        return con.h1_mixed(replace(modes, angle=-1j * modes.angle, ann2=1j * modes.cre2,
                                    cre2=1j * modes.ann2), q_form, params)

    i = ExactScalar(0, 1)  # the exact substitution of each branch, built once
    substitution = {b: tuple(tuple((r[0], r[1] * i) for r in rows) for rows in con.substitution(b))
                    for b in (1, -1)}

    def flipped(c1, c2, c0):
        return c1, -c2, c0 - c2

    return Construction(
        angle_name="chi", imaginary_angle=not con.imaginary_angle,
        mixing=mixing, second_annihilates=not con.second_annihilates,
        p_map=flipped(*con.p_map), q_map=flipped(*con.q_map),
        quarter=lambda branch: 1j * con.quarter(branch), h1_mixed=h1_mixed,
        substitution=substitution.__getitem__, xy_phase=1j * con.xy_phase)


IS = _exchanged(FT)


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
    come out as FT's rotation of (b1, b2) at theta = -i chi, up to a phase i
    on mode 2 (unitary for imaginary chi): ann1 = ch b1 - sh b2,
    ann2 = -sh b1 + ch b2.  Their joint kernel
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
