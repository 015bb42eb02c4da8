"""The generic machinery, once per construction: rotation (ft) and imaginary scale (is)."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from numpy.linalg import matrix_power

from bateman import algebra
from bateman.algebra import B1_ANN, B1_CRE, B2_ANN, B2_CRE, ExactScalar
from bateman.construction import (
    basis,
    eigenvalue,
    hamiltonian_formal,
    heisenberg_rate,
    plain_in_modes,
    transform,
    xy_operators,
)
from bateman.errors import DomainError, HeadroomError
from bateman.fock import (Operator, build_hamiltonian, build_ladder, dense, exp_block, max_abs,
                          position_operators)
from bateman.ft import FT, ft_vacuum_series
from bateman.imagscale import IS, bounded_frame, is_vacuum
from bateman.params import derive_params

ROUTES = pytest.mark.parametrize("con", [FT, IS], ids=["ft", "is"])


@ROUTES
def test_eigenvalue_matches_formal_element(con):
    for branch in ("+", "-"):
        parts = hamiltonian_formal(con, branch)  # (H0 / hw, H1 / ihl)
        for n1 in range(4):
            for n2 in range(4 - n1):
                got = [algebra.basis_matrix_element(n1, n2, h, n1, n2) for h in parts]
                want = eigenvalue(con, n1, n2, branch)
                assert got == [ExactScalar.of(want.p), ExactScalar.of(want.q)]


@ROUTES
@pytest.mark.parametrize("branch", [1, -1])
def test_substitution_inverts_the_mixing(con, branch, ladder8):
    # the exact plain-mode expressions, evaluated on the mixed matrices at the
    # decoupling angle, must give back the plain ladder matrices
    mixed = transform(con, con.quarter(branch), ladder8)
    matrices = {B1_ANN: mixed.ann1, B1_CRE: mixed.cre1, B2_ANN: mixed.ann2, B2_CRE: mixed.cre2}
    for name, poly in plain_in_modes(con, branch).items():
        value = sum((coeff.to_complex() * matrices[word[0]] for word, coeff in poly.terms.items()),
                    Operator(ladder8.space.dim, {}))
        assert max_abs(value - getattr(ladder8, name)) <= 1e-14


@ROUTES
def test_heisenberg_factors_are_reciprocal(con, params):
    t = 0.7
    for mode in (1, 2):
        for branch in (1, -1):
            ann = cmath.exp(heisenberg_rate(con, mode, "ann", branch, params) * t)
            cre = cmath.exp(heisenberg_rate(con, mode, "cre", branch, params) * t)
            assert cmath.exp(heisenberg_rate(con, mode, "ann", branch, params) * 0.0) == 1.0
            assert abs(ann * cre - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        heisenberg_rate(con, 3, "ann", 1, params)


#: mode -> (w, l): the annihilator rate is w*i*omega + l*branch*lambda; creators negate it
RATE_TABLES = {"ft": {1: (-1, 1), 2: (1, 1)}, "is": {1: (-1, 1), 2: (-1, -1)}}


@pytest.mark.parametrize("con,table", [(FT, RATE_TABLES["ft"]), (IS, RATE_TABLES["is"])],
                         ids=["ft", "is"])
def test_heisenberg_rates_match_the_rate_table(con, table, params):
    # the rates derived from p_map/q_map equal the hand-written table bit for bit
    for p in (params, derive_params(1.3, 0.7, 2.1)):
        for mode, (w, lam_sign) in table.items():
            for branch in (1, -1):
                ann = w * 1j * p.omega + lam_sign * branch * p.lam
                assert heisenberg_rate(con, mode, "ann", branch, p) == ann
                assert heisenberg_rate(con, mode, "cre", branch, p) == -ann


#: the 25 states with n1, n2 <= 4, far below the top rung of n_max 24
XY_N_MAX = 24
XY_STATES = [(n1, n2) for n1 in range(5) for n2 in range(5)]


def _xy_deviation(con, branch, t, params, xy_params):
    """Largest gap of x(t), y(t) from U^H x U, U = e^{-iHt/hbar}, on the low block B.

    xy_params feeds `xy_operators` alone, so a defect in its scalar factors shows.
    """
    lad = build_ladder(XY_N_MAX)
    space = lad.space
    block = np.array([space.index(n1, n2) for n1, n2 in XY_STATES])
    h = build_hamiltonian(lad, params).h
    u = exp_block(h * (-1j * t / params.hbar), space.difference, None, block)
    x_t, y_t = xy_operators(con, branch, t, transform(con, con.quarter(branch), lad), xy_params)
    x, y = position_operators(lad, params)
    return max(np.max(np.abs(dense(x_t, block, block) - u.conj().T @ (x @ u))),
               np.max(np.abs(dense(y_t, block, block) - u.conj().T @ (y @ u))))


XY_PARAMS = [derive_params(1.0, 1.0, 1.25), derive_params(1.3, 0.7, 2.1)]


@ROUTES
@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("params", XY_PARAMS, ids=["m1-g1-k1.25", "m1.3-g0.7-k2.1"])
def test_xy_at_finite_time_is_the_heisenberg_evolution(con, branch, params):
    for t in (0.25, 0.5):
        assert _xy_deviation(con, branch, t, params, params) <= 1e-12


@ROUTES
@pytest.mark.parametrize("field,factor", [("lam", 2.0), ("omega", 3.0)])
def test_xy_at_finite_time_catches_a_wrong_rate(con, field, factor):
    params = XY_PARAMS[0]
    wrong = dataclasses.replace(params, **{field: factor * getattr(params, field)})
    # far past the 1e-12 that the true rates keep
    assert _xy_deviation(con, 1, 0.5, params, wrong) > 1e-3


def test_headroom_belongs_to_the_frame(ladder8):
    # the original-frame rotation basis may use any occupation of the space;
    # the bounded frame keeps two rungs clear of the boundary
    bar = transform(FT, 0.3, ladder8)
    kets, bras = basis(bar, [(5, 4)], ft_vacuum_series(0.3, ladder8.space))
    assert kets.shape == bras.T.shape == (ladder8.space.dim, 1)
    rep = bounded_frame(IS.quarter(1), ladder8)
    basis(rep, [(3, 3)], is_vacuum(rep))
    for states in ([(4, 3)], [(0, 0), (4, 3)], [(1, 1), (0, 7), (2, 0)]):
        with pytest.raises(HeadroomError):
            basis(rep, states, is_vacuum(rep))
    with pytest.raises(DomainError):
        basis(rep, [(0, 0), (-1, 2)], is_vacuum(rep))


def _basis_state_by_state(modes, n1, n2, vacuum):
    """The walk of one state: cre2 n2 times then cre1 n1 times on the ket, ann1 n1 times
    then ann2 n2 times on the bra, each vector divided by sqrt(n1! n2!) at the end."""
    ket, bra = vacuum
    for op in [modes.cre2] * n2 + [modes.cre1] * n1:
        ket = op @ ket
    for op in [modes.ann1] * n1 + [modes.ann2] * n2:
        bra = bra @ op
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2))
    return ket / norm, bra / norm


def _hex(vector):
    return [x.hex() for x in np.ravel(np.column_stack([vector.real, vector.imag]))]


@pytest.mark.parametrize("n_max", [4, 8, 12, 24])
def test_basis_block_equals_the_state_by_state_walk(n_max):
    # the walk shares each power of the first operator and each chain of the
    # second, and every vector keeps the bits of its own walk, signed zeros too
    lad = build_ladder(n_max)
    frames = [(transform(FT, theta, lad), ft_vacuum_series(theta, lad.space))
              for theta in (0.3, -0.5)]
    frames += [(rep, is_vacuum(rep)) for rep in (bounded_frame(IS.quarter(b), lad)
                                                 for b in (1, -1))]
    for modes, vacuum in frames:
        cap = min(5, modes.headroom)
        triangle = [(n1, n2) for n1 in range(cap + 1) for n2 in range(cap + 1 - n1)]
        singles = [[state] for state in triangle]
        for states in [triangle, triangle[::-1], [(1, 1), (1, 1)], *singles]:
            kets, bras = basis(modes, states, vacuum)
            assert kets.shape == bras.T.shape == (lad.space.dim, len(states))
            for j, (n1, n2) in enumerate(states):
                ket, bra = _basis_state_by_state(modes, n1, n2, vacuum)
                assert _hex(kets[:, j]) == _hex(ket) and _hex(bras[j]) == _hex(bra)
        assert [side.shape for side in basis(modes, [], vacuum)] == [(lad.space.dim, 0),
                                                                     (0, lad.space.dim)]


@pytest.mark.parametrize("n1,n2", [(0, 0), (2, 0), (0, 3), (3, 2)])
def test_basis_matches_matrix_powers(n1, n2, ladder8):
    # reference: the whole creator powers applied to the vacuum, as a product of matrices
    bar = transform(FT, 0.3, ladder8)
    rep = bounded_frame(IS.quarter(1), ladder8)
    for modes, vacuum in ((bar, ft_vacuum_series(0.3, ladder8.space)),
                          (rep, is_vacuum(rep))):
        ket0, bra0 = vacuum
        norm = math.sqrt(math.factorial(n1) * math.factorial(n2))
        cre1, cre2 = dense(modes.cre1), dense(modes.cre2)
        ann1, ann2 = dense(modes.ann1), dense(modes.ann2)
        want_ket = matrix_power(cre1, n1) @ matrix_power(cre2, n2) @ ket0 / norm
        want_bra = bra0 @ matrix_power(ann1, n1) @ matrix_power(ann2, n2) / norm
        kets, bras = basis(modes, [(n1, n2)], vacuum)
        ket, bra = kets[:, 0], bras[0]
        assert np.max(np.abs(ket - want_ket)) <= 1e-12 * np.max(np.abs(want_ket))
        assert np.max(np.abs(bra - want_bra)) <= 1e-12 * np.max(np.abs(want_bra))
