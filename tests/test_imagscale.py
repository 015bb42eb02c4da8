"""Second mixing route: imaginary-angle mixing and its bounded matrix frame.

The original-frame matrices put the joint annihilator nullspace at the top of
the mode-2 ladder, which wrecks normalization there; the bounded frame moves
it back to the corner. Both realizations are covered below.
"""

import cmath
import math

import numpy as np
import pytest

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
)
from bateman.errors import DomainError, HeadroomError, NullspaceError
from bateman.fock import (Operator, build_hamiltonian, build_ladder, coordinates, dense,
                          max_abs, position_operators)
from bateman.ft import FT
from bateman.imagscale import (
    IS,
    NULLSPACE_RTOL,
    _joint_null_vector,
    _stacked,
    bounded_frame,
    conjugate_xy_terms,
    generator_y_matrix,
    generator_z_matrix,
    is_vacuum,
    is_xy_symbolic,
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


# --- original-frame vacuum (diagnostic only) ---------------------------------

def test_plain_vacuum_sits_at_ladder_top(ladder8):
    ket, bra = is_vacuum(transform(IS, 0j, ladder8))
    peak = int(np.argmax(np.abs(ket)))
    assert peak == ladder8.space.index(0, 8)
    assert abs(bra @ ket - 1.0) <= 1e-12


def test_plain_vacuum_defining_property(ladder8):
    ist = transform(IS, CHI_Q, ladder8)
    ket, _ = is_vacuum(ist)
    assert np.max(np.abs(ist.ann1 @ ket)) <= 1e-10
    assert np.max(np.abs(ist.ann2 @ ket)) <= 1e-10


def test_joint_null_vector_is_isolated_top_column(ladder8):
    # both check annihilators vanish on |0, n_max> in the truncation, so its
    # column of the stacked pair is a block with no rows
    ist = transform(IS, CHI_Q, ladder8)
    coords, shape, charge = _stacked(ist.ann1, ist.ann2, ist.charge)
    top = ladder8.space.index(0, 8)
    assert top not in coords[1]
    ket = _joint_null_vector(coords, shape, charge, "check annihilator", ist)
    unit = np.zeros(ladder8.space.dim)
    unit[top] = 1.0
    assert np.array_equal(np.abs(ket), unit)


def test_joint_null_vector_rejects_nullity_nine(ladder8):
    ist = transform(IS, 0, ladder8)  # ann1 = a1 kills every |0, n2>
    # each |0, n2> lies in a sector with rows, so the count comes from singular values
    charge = (ist.charge, ist.charge)
    with pytest.raises(NullspaceError, match="dimension 9"):
        _joint_null_vector(coordinates(ist.ann1), ist.ann1.shape, charge, "check annihilator",
                           ist)


def test_joint_null_vector_rejects_a_pair_that_breaks_its_charge(ladder8):
    # one entry of ann1 from |0, 0> to itself keeps n1 - n2 instead of lowering it
    ist = transform(IS, CHI_Q, ladder8)
    zero = ladder8.space.index(0, 0)
    stray = Operator(ladder8.space.dim, {0: np.where(np.arange(ladder8.space.dim) == zero,
                                                     0.5, 0.0).astype(complex)})
    with pytest.raises(DomainError, match=r"outside the declared sectors, first \(0, 0\)"):
        _joint_null_vector(*_stacked(ist.ann1 + stray, ist.ann2, ist.charge),
                           "check annihilator", ist)


def declared(stacked: np.ndarray, parts) -> tuple:
    """(row, column) charges that declare each (rows, cols) in parts a sector, lowered by 1."""
    row_charge, col_charge = np.empty(stacked.shape[0]), np.empty(stacked.shape[1])
    for q, (rows, cols) in enumerate(parts):
        row_charge[rows], col_charge[cols] = q - 1, q
    return row_charge, col_charge


def test_joint_null_vector_matches_full_svd():
    # a null direction inside a block that has rows, next to full-rank blocks
    rng = np.random.default_rng(5)
    stacked = np.zeros((9, 7), dtype=complex)
    deficient = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
    a_rows, a_cols = [0, 3, 5, 8], [1, 4, 6]
    b_rows, b_cols = [1, 2, 4, 6, 7], [0, 2, 3, 5]
    stacked[np.ix_(a_rows, a_cols)] = deficient
    stacked[np.ix_(b_rows, b_cols)] = rng.standard_normal((5, 4)) + 1j
    charge = declared(stacked, [(a_rows, a_cols), (b_rows, b_cols)])
    got = _joint_null_vector(*matrix_coordinates(stacked), charge, "test", None)
    want = np.linalg.svd(stacked)[2][-1].conj()
    assert np.max(np.abs(stacked @ got)) <= 1e-13
    assert abs(abs(np.vdot(want, got)) - 1.0) <= 1e-12
    assert not np.any(got[[0, 2, 3, 5]])


def matrix_coordinates(m: np.ndarray) -> tuple[tuple, tuple[int, int]]:
    """(rows, cols, values) of the nonzero entries of a dense matrix, and its shape."""
    rows, cols = np.nonzero(m)
    return (rows, cols, m[rows, cols]), m.shape


def _per_block_null_vector(stacked: np.ndarray, blocks) -> np.ndarray:
    """Reference: the null vector from one SVD per connected block, with the same global cutoff."""
    parts = []
    for rows, cols in blocks(*np.nonzero(stacked), stacked.shape):
        if len(rows) == 0:
            parts.append((cols, np.zeros(0), np.eye(len(cols), dtype=complex)))
        elif len(cols):
            _, sigma, vh = np.linalg.svd(stacked[np.ix_(rows, cols)])
            parts.append((cols, sigma, vh))
    cutoff = NULLSPACE_RTOL * max(sigma[0] for _, sigma, _ in parts if len(sigma))
    vector = np.zeros(stacked.shape[1], dtype=complex)
    for cols, sigma, vh in parts:
        if np.sum(sigma < cutoff) + len(cols) - len(sigma):
            vector[cols] = vh[-1].conj()
    return vector


@pytest.mark.parametrize("n_max", [8, 12])
def test_joint_null_vector_matches_per_block_svd(n_max, connected_blocks):
    # the declared sectors give the null vector of one SVD per connected block,
    # bit for bit: it comes from a sector with columns and no rows
    lad = build_ladder(n_max)
    for frame in (transform(IS, CHI_Q, lad), bounded_frame(CHI_Q, lad),
                  bounded_frame(-0.3j, lad)):
        for label, (top, bottom) in (("ket", (frame.ann1, frame.ann2)),
                                     ("bra", (frame.cre1.T, frame.cre2.T))):
            got = _joint_null_vector(*_stacked(top, bottom, frame.charge), label, frame)
            want = _per_block_null_vector(np.vstack([dense(top), dense(bottom)]),
                                          connected_blocks)
            assert np.array_equal(got, want), (type(frame), label)


def test_joint_null_vector_batches_same_shape_blocks(connected_blocks):
    # three complex 4x3 blocks in one stack, one of rank 2, beside a 2x2 block:
    # the null vector is complex and comes out of a batched SVD
    rng = np.random.default_rng(8)
    stacked = np.zeros((14, 11), dtype=complex)
    rows, cols = [0, 4, 5, 13], [1, 2, 7]
    parts = [(rows, cols), ([1, 2, 3, 6], [0, 3, 4]), ([7, 8, 9, 10], [5, 6, 8]),
             ([11, 12], [9, 10])]
    for j, (r, c) in enumerate(parts[:3]):
        block = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        if j == 0:
            block[:, 2] = block[:, :2] @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        stacked[np.ix_(r, c)] = block
    stacked[np.ix_([11, 12], [9, 10])] = rng.standard_normal((2, 2))
    got = _joint_null_vector(*matrix_coordinates(stacked), declared(stacked, parts), "test", None)
    assert np.array_equal(got, _per_block_null_vector(stacked, connected_blocks))
    assert np.max(np.abs(stacked @ got)) <= 1e-14 and np.any(got.imag)
    assert not np.any(np.delete(got, cols))


# --- bounded frame -----------------------------------------------------------

@pytest.fixture(scope="module")
def rep12():
    return bounded_frame(CHI_Q, build_ladder(12))


def test_check_rep_rejects_real_angle(ladder8):
    with pytest.raises(DomainError):
        bounded_frame(0.5, ladder8)


def test_check_vacuum_at_corner(rep12):
    ket, bra = is_vacuum(rep12)
    assert int(np.argmax(np.abs(ket))) == rep12.space.index(0, 0)
    assert abs(bra @ ket - 1.0) <= 1e-12
    assert np.max(np.abs(rep12.ann1 @ ket)) <= 1e-12
    assert np.max(np.abs(rep12.ann2 @ ket)) <= 1e-12


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
            ket, bra = basis(rep, n1, n2, is_vacuum(rep))
            got = bra @ (h @ ket)
            want = eigenvalue(IS, n1, n2, branch).as_complex(params)
            assert abs(got - want) <= 1e-10


def test_check_headroom_guard(rep12):
    with pytest.raises(HeadroomError):
        basis(rep12, 6, 5, is_vacuum(rep12))  # n1+n2 > n_max - 2


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


def test_xy_symbolic_conjugation():
    for sign in (1, -1):
        x_terms, y_terms = is_xy_symbolic(sign)
        assert conjugate_xy_terms(x_terms) == y_terms
        assert conjugate_xy_terms(y_terms) == x_terms
        assert conjugate_xy_terms(conjugate_xy_terms(x_terms)) == x_terms
