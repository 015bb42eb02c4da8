"""The generic machinery, once per construction: rotation (ft) and imaginary scale (is)."""

import cmath
import math

import numpy as np
import pytest
from numpy.linalg import matrix_power

from bateman import algebra
from bateman.algebra import B1_ANN, B1_CRE, B2_ANN, B2_CRE
from bateman.construction import (
    basis,
    eigenvalue,
    hamiltonian_formal,
    heisenberg_rate,
    plain_in_modes,
    transform,
)
from bateman.errors import DomainError, HeadroomError
from bateman.fock import Operator, dense, max_abs
from bateman.ft import FT, ft_vacuum_series
from bateman.imagscale import IS, bounded_frame, is_vacuum

ROUTES = pytest.mark.parametrize("con", [FT, IS], ids=["ft", "is"])


@ROUTES
def test_eigenvalue_matches_formal_element(con):
    for branch in ("+", "-"):
        h = hamiltonian_formal(con, branch)
        for n1 in range(4):
            for n2 in range(4 - n1):
                got = algebra.basis_matrix_element(n1, n2, h, n1, n2)
                assert got == eigenvalue(con, n1, n2, branch).exact()


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


def test_headroom_belongs_to_the_frame(ladder8):
    # the original-frame rotation basis may use any occupation of the space;
    # the bounded frame keeps two rungs clear of the boundary
    bar = transform(FT, 0.3, ladder8)
    ket, bra = basis(bar, 5, 4, ft_vacuum_series(0.3, ladder8.space))
    assert ket.shape == bra.shape == (ladder8.space.dim,)
    rep = bounded_frame(IS.quarter(1), ladder8)
    basis(rep, 3, 3, is_vacuum(rep))
    with pytest.raises(HeadroomError):
        basis(rep, 4, 3, is_vacuum(rep))


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
        ket, bra = basis(modes, n1, n2, vacuum)
        assert np.max(np.abs(ket - want_ket)) <= 1e-12 * np.max(np.abs(want_ket))
        assert np.max(np.abs(bra - want_bra)) <= 1e-12 * np.max(np.abs(want_bra))
