"""Second mixing route: imaginary-angle mixing and its bounded matrix frame.

The original-frame matrices put the joint annihilator kernel at the top of
the mode-2 ladder, which wrecks normalization there; the bounded frame moves
it back to the corner, where the vacuum is e_(0,0). Both realizations are
covered below.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from bateman.algebra import B1_ANN, B1_CRE, B2_ANN, B2_CRE, ExactScalar, LadderPoly
from bateman.construction import (
    basis,
    eigenvalue,
    gram,
    hamiltonian_formal,
    hamiltonian_from_plain,
    heisenberg_rate,
    identity_report,
    plain_in_modes,
    similarity_deviation,
    transform,
    xy_operators,
    xy_terms,
)
from bateman.errors import DomainError, HeadroomError
from bateman.fock import (
    build_hamiltonian,
    build_ladder,
    dense,
    interior_deviation,
    max_abs,
    position_operators,
)
from bateman.ft import FT
from bateman.imagscale import (
    IS,
    bounded_frame,
    conjugate_xy_terms,
    generator_y_matrix,
    generator_z_matrix,
    is_vacuum,
    tilde_pair,
    tilde_similarity_deviation,
)

CHI_Q = 1j * math.pi / 4


# --- transform ---------------------------------------------------------------

def test_transform_at_zero(ladder8):
    ist = transform(IS, 0j, ladder8)
    assert np.array_equal(dense(ist.ann1), dense(ladder8.a1))
    assert np.array_equal(dense(ist.cre1), dense(ladder8.a1_dag))
    # mode 2 is already swapped: ann2 = -i a2+, cre2 = -i a2
    assert np.array_equal(dense(ist.ann2), -1j * dense(ladder8.a2_dag))
    assert np.array_equal(dense(ist.cre2), -1j * dense(ladder8.a2))


def test_transform_quarter_mix(ladder8):
    r = 1.0 / math.sqrt(2)
    ist = transform(IS, CHI_Q, ladder8)
    a1, a1d = ladder8.a1, ladder8.a1_dag
    a2, a2d = ladder8.a2, ladder8.a2_dag
    assert max_abs(ist.ann1 - r * (a1 - a2d)) <= 1e-12
    assert max_abs(ist.ann2 - (-1j) * r * (a1 + a2d)) <= 1e-12
    assert max_abs(ist.cre1 - r * (a1d + a2)) <= 1e-12
    assert max_abs(ist.cre2 - 1j * r * (a1d - a2)) <= 1e-12


def test_transform_rejects_real_angle(ladder8):
    for chi in (0.3, complex(0.0, math.nan)):
        with pytest.raises(DomainError):
            transform(IS, chi, ladder8)


def test_generators(ladder8):
    y = generator_y_matrix(ladder8.a2, ladder8.a2_dag)
    want_y = -0.5j * (ladder8.a2 @ ladder8.a2 - ladder8.a2_dag @ ladder8.a2_dag)
    assert np.array_equal(dense(y), dense(want_y))
    z = generator_z_matrix(ladder8)
    want_z = -1j * (ladder8.a1 @ ladder8.a2 + ladder8.a1_dag @ ladder8.a2_dag)
    assert np.array_equal(dense(z), dense(want_z))


def test_tilde_pair_half_turn(ladder8):
    t_ann, t_cre = tilde_pair(math.pi / 2, ladder8.a2, ladder8.a2_dag)
    assert max_abs(t_ann - (-1j) * ladder8.a2_dag) <= 1e-12
    assert max_abs(t_cre - (-1j) * ladder8.a2) <= 1e-12


def test_similarity_on_low_window():
    for phi in (0.2j, 0.3j):
        assert tilde_similarity_deviation(phi) <= 1e-10
    lad = build_ladder(24)
    assert similarity_deviation(IS, transform(IS, 0.3j, lad), generator_z_matrix(lad)) <= 1e-10


# --- the exchange: IS is FT with bar mode 2 exchanged -------------------------
# IS's hand-typed data from before it was derived from FT, kept as exact references


def _scale(chi: complex):
    """(check_ann1, check_ann2) = [[ch, i sh], [-sh, -i ch]] (a1, a2+);
    (check_cre1, check_cre2) = [[ch, -i sh], [sh, -i ch]] (a1+, a2)."""
    ch, sh = cmath.cosh(chi), cmath.sinh(chi)
    return ((ch, 1j * sh), (-sh, -1j * ch)), ((ch, -1j * sh), (sh, -1j * ch))


def _scale_h1(check, q_form, params):
    """H1 = hbar lambda [cosh 2chi (c1+ c2 - c2+ c1) + sinh 2chi (N1 - N2)]."""
    c2, s2 = cmath.cosh(2 * check.angle), cmath.sinh(2 * check.angle)
    return params.hbar * params.lam * (
        c2 * (check.cre1 @ check.ann2 - check.cre2 @ check.ann1) + s2 * q_form
    )


def _scale_at_quarter(branch: int):
    """Inverse mixing at chi = branch*i*pi/4: cosh = sqrt2/2, sinh = branch*i*sqrt2/2."""
    c = ExactScalar(Fraction(1, 2), 0, 2)
    i_c = ExactScalar(0, Fraction(1, 2), 2)
    return ((c, i_c * branch), (c * (-branch), i_c)), ((c, -(i_c * branch)), (c * branch, i_c))


@pytest.mark.parametrize("chi", [0j, 0.2j, 0.37j, CHI_Q, -CHI_Q])
def test_derived_mixing_is_the_hand_typed_one(chi):
    # entry for entry with ==, which ignores the sign of a zero: the derived rows
    # carry other signs of zero at 0 and -i pi/4
    (m1, m2), (p1, p2) = IS.mixing(chi)
    (w1, w2), (v1, v2) = _scale(chi)
    for got, want in ((m1, w1), (m2, w2), (p1, v1), (p2, v2)):
        assert got[0] == want[0] and got[1] == want[1]


@pytest.mark.parametrize("branch", [1, -1])
def test_derived_substitution_is_the_hand_typed_one(branch):
    assert IS.substitution(branch) == _scale_at_quarter(branch)


def test_derived_maps_angles_and_phase():
    assert IS.p_map == (1, 1, 1)
    assert IS.q_map == (1, -1, 0)
    assert IS.quarter(1) == 1j * math.pi / 4 and IS.quarter(-1) == -1j * math.pi / 4
    assert IS.xy_phase == 1j
    assert (IS.angle_name, IS.imaginary_angle, IS.second_annihilates) == ("chi", True, True)


@pytest.mark.parametrize("n_max", [6, 12])
@pytest.mark.parametrize("t", [0.3, -0.2, 0.37, math.pi / 4, -math.pi / 4])
def test_is_modes_are_ft_modes_with_mode_2_exchanged(n_max, t):
    # bit for bit: ann1 and cre1 agree, ann2 = -i cre2 and cre2 = -i ann2
    lad = build_ladder(n_max)
    ist, ftt = transform(IS, 1j * t, lad), transform(FT, t, lad)
    pairs = ((ist.ann1, ftt.ann1), (ist.cre1, ftt.cre1),
             (ist.ann2, -1j * ftt.cre2), (ist.cre2, -1j * ftt.ann2))
    for got, want in pairs:
        assert list(got.diagonals) == list(want.diagonals)
        for k, diag in got.diagonals.items():
            assert np.array_equal(diag, want.diagonals[k])


def test_is_eigen_map_is_ft_map_at_minus_n2_minus_1():
    # FT's map read at a negative occupation, which `eigenvalue` rejects
    def ft_at(coeffs, n1, n2):
        c1, c2, c0 = coeffs
        return c1 * n1 + c2 * (-n2 - 1) + c0

    for branch in (1, -1):
        for n1 in range(8):
            for n2 in range(8):
                rec = eigenvalue(IS, n1, n2, branch)
                assert rec.p == ft_at(FT.p_map, n1, n2)
                assert rec.q == branch * ft_at(FT.q_map, n1, n2)


@pytest.mark.parametrize("chi", [0.2j, 0.37j, CHI_Q, -CHI_Q])
def test_derived_h1_form_is_the_hand_typed_one_off_the_top_rung(chi, params):
    # FT's form on the exchanged modes multiplies ann1 @ cre2 where the hand form
    # multiplies cre2 @ ann1: the two commute, but their truncations differ at the
    # top rung, so the forms agree to round-off in the interior only
    for n_max in (8, 24):
        lad = build_ladder(n_max)
        tol = 8 * np.finfo(float).eps * n_max
        for frame in (transform(IS, chi, lad), bounded_frame(chi, lad)):
            q_form = frame.cre1 @ frame.ann1 - frame.cre2 @ frame.ann2
            got, want = IS.h1_mixed(frame, q_form, params), _scale_h1(frame, q_form, params)
            assert interior_deviation(got, want, lad.space) <= tol
            if n_max == 24 and chi == 0.37j:
                assert max_abs(got - want) > 1.0


# --- eigenvalues -------------------------------------------------------------

def test_eigenvalue_examples(params):
    assert (eigenvalue(IS, 0, 0, "+").p, eigenvalue(IS, 0, 0, "+").q) == (1, 0)
    assert (eigenvalue(IS, 1, 1, "+").p, eigenvalue(IS, 1, 1, "+").q) == (3, 0)
    assert (eigenvalue(IS, 2, 0, "+").p, eigenvalue(IS, 2, 0, "+").q) == (3, 2)
    assert (eigenvalue(IS, 2, 0, "-").p, eigenvalue(IS, 2, 0, "-").q) == (3, -2)
    assert eigenvalue(IS, 1, 0, "+").as_complex(params) == 2.0 + 0.5j


def test_spectra_swap_roles():
    # the two mixings trade the real and imaginary integer labels
    for branch in (1, -1):
        for n1 in range(5):
            for n2 in range(5):
                f = eigenvalue(FT, n1, n2, branch)
                i = eigenvalue(IS, n1, n2, branch)
                assert i.p == branch * f.q
                assert i.q == branch * f.p


def test_formal_two_routes_agree():
    for branch in ("+", "-"):
        assert hamiltonian_formal(IS, branch) == hamiltonian_from_plain(IS, branch)
    d = plain_in_modes(IS, "+")
    assert sorted(d.keys()) == ["a1", "a1_dag", "a2", "a2_dag"]


# --- reduced structure -------------------------------------------------------

@pytest.mark.parametrize("chi", [0.2j, CHI_Q, -CHI_Q])
def test_h_reduces_in_check_frame(chi, params):
    # in the bounded frame too, with H built on its swapped ladder: there H is
    # checked as an operator, not only through the matrix elements of a few states
    for n_max in (8, 12, 24):
        lad = build_ladder(n_max)
        bound = 1e-10 * lad.space.dim
        for frame in (transform(IS, chi, lad), bounded_frame(chi, lad)):
            rep = identity_report(IS, frame, params)
            assert rep.h0_deviation <= bound
            assert rep.h1_deviation <= bound
            # populated only at the split points
            assert (rep.reduced_deviation is None) == (chi == 0.2j)
            assert rep.reduced_deviation is None or rep.reduced_deviation <= bound


# --- bounded frame -----------------------------------------------------------

@pytest.fixture(scope="module")
def rep12():
    return bounded_frame(CHI_Q, build_ladder(12))


def test_check_rep_rejects_real_angle(ladder8):
    with pytest.raises(DomainError):
        bounded_frame(0.5, ladder8)


def _block_singular_values(stacked: np.ndarray, row_charge, col_charge) -> np.ndarray:
    """The singular values of a matrix that maps each charge-s column block to the s-1 rows.

    They are the union of the blocks' own, and a block with more columns than rows adds
    one zero per column beyond its rows, as the whole matrix's SVD would count them.
    """
    assert not np.any(stacked[row_charge[:, None] != col_charge[None, :] - 1])
    sigma = []
    for s in np.unique(col_charge):
        rows, cols = np.flatnonzero(row_charge == s - 1), np.flatnonzero(col_charge == s)
        if len(rows):
            sigma.extend(np.linalg.svd(stacked[np.ix_(rows, cols)], compute_uv=False))
        sigma.extend([0.0] * max(0, len(cols) - len(rows)))
    return np.array(sigma)


def test_check_vacuum_at_corner():
    # e_(0,0) twice, complex, two arrays; the stacked check annihilators (and
    # the transposed creators) kill it and have no other null direction.  Both
    # map the n1+n2 = s block to the s-1 block only, so the null space is read
    # block by block, where the s = 0 column, with no rows, gives the one zero
    for n_max in (4, 8, 12, 24):
        lad = build_ladder(n_max)
        unit = np.zeros(lad.space.dim, dtype=complex)
        unit[lad.space.index(0, 0)] = 1.0
        charge = lad.space.total
        for chi in (CHI_Q, -CHI_Q, 0.3j):
            frame = bounded_frame(chi, lad)
            ket, bra = is_vacuum(frame)
            assert ket.dtype == bra.dtype == complex and ket is not bra
            assert np.array_equal(ket, unit) and np.array_equal(bra, unit)
            for top, bottom in ((frame.ann1, frame.ann2), (frame.cre1.T, frame.cre2.T)):
                stacked = np.vstack([dense(top), dense(bottom)])
                sigma = _block_singular_values(stacked, np.concatenate([charge, charge]), charge)
                assert len(sigma) == lad.space.dim
                assert np.sum(sigma < 1e-10 * sigma.max()) == 1
                assert not np.any(stacked @ unit)


def test_check_vacuum_rejects_the_original_frame(ladder8):
    # there the joint kernel is |0, n_max>, not e_(0,0)
    with pytest.raises(DomainError, match="bounded frame"):
        is_vacuum(transform(IS, CHI_Q, ladder8))


def test_check_gram_is_identity(rep12):
    g = gram(rep12, is_vacuum(rep12), 3)
    assert g.shape == (16, 16)
    assert np.max(np.abs(g - np.eye(16))) <= 1e-8


def test_check_matrix_elements(params):
    lad = build_ladder(12)
    for branch in (1, -1):
        rep = bounded_frame(IS.quarter(branch), lad)
        h = build_hamiltonian(rep.ladder, params).h
        for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
            kets, bras = basis(rep, [(n1, n2)], is_vacuum(rep))
            ket, bra = kets[:, 0], bras[0]
            got = bra @ (h @ ket)
            want = eigenvalue(IS, n1, n2, branch).as_complex(params)
            assert abs(got - want) <= 1e-10


def test_check_headroom_guard(rep12):
    with pytest.raises(HeadroomError):
        basis(rep12, [(6, 5)], is_vacuum(rep12))  # n1+n2 > n_max - 2


def test_check_h_not_normal(rep12, params):
    h = build_hamiltonian(rep12.ladder, params).h
    witness = max_abs(h @ h.conj().T - h.conj().T @ h)
    assert witness > 1e-6


# --- coordinate reconstruction -----------------------------------------------

@pytest.mark.parametrize("sign", [+1, -1])
def test_xy_reconstruction_at_zero(sign, params):
    lad = build_ladder(12)
    ist = transform(IS, sign * CHI_Q, lad)
    x, y = xy_operators(IS, sign, 0.0, ist, params)
    xp, yp = position_operators(lad, params)
    assert max_abs(x - xp) <= 1e-10
    assert max_abs(y - yp) <= 1e-10


def test_heisenberg_factor(params):
    assert cmath.exp(heisenberg_rate(IS, 1, "ann", 1, params) * 0.0) == 1.0
    t = 0.7
    got = cmath.exp(heisenberg_rate(IS, 1, "ann", -1, params) * t)
    assert abs(got - np.exp((-1j * params.omega - params.lam) * t)) <= 1e-12


def _is_xy_table(sign):
    """x(t), y(t) of IS typed by hand: {(p_lam, p_omega): poly}, prefactor omitted."""
    i = ExactScalar(0, 1)
    b1, b2 = LadderPoly.symbol(B1_ANN), LadderPoly.symbol(B2_ANN)
    b1d, b2d = LadderPoly.symbol(B1_CRE), LadderPoly.symbol(B2_CRE)
    if sign > 0:
        return {(-1, 1): b1d, (-1, -1): b2 * i}, {(1, -1): b1, (1, 1): b2d * (-i)}
    return {(-1, -1): b1, (-1, 1): b2d * i}, {(1, 1): b1d, (1, -1): b2 * (-i)}


@pytest.mark.parametrize("sign", [1, -1])
def test_xy_terms_of_is_are_the_hand_typed_tables(sign):
    assert xy_terms(IS, sign) == _is_xy_table(sign)


def test_xy_symbolic_conjugation():
    for sign in (1, -1):
        x_terms, y_terms = xy_terms(IS, sign)
        assert conjugate_xy_terms(x_terms) == y_terms
        assert conjugate_xy_terms(y_terms) == x_terms
        assert conjugate_xy_terms(conjugate_xy_terms(x_terms)) == x_terms


@pytest.mark.parametrize("sign", [1, -1])
def test_ft_xy_terms_are_not_conjugate_because_the_b2_term_flips_sign(sign):
    x_terms, y_terms = xy_terms(FT, sign)
    conj = conjugate_xy_terms(x_terms)
    assert conj != y_terms
    # the mode-1 terms agree; the mode-2 term of y is minus the conjugate of x's
    mode2 = {k for k, poly in y_terms.items() if set(poly.terms) & {(B2_ANN,), (B2_CRE,)}}
    assert conj.keys() == y_terms.keys() and len(y_terms) == 2 and len(mode2) == 1
    assert all(conj[k] == (-y_terms[k] if k in mode2 else y_terms[k]) for k in y_terms)
