"""Truncated two-mode ladder matrices: structure, commutators, exponentials."""

import math

import numpy as np
import pytest

from bateman.errors import DimensionMismatch, DomainError
from bateman.fock import (
    FockSpace,
    build_hamiltonian,
    build_ladder,
    commutator,
    interior_deviation,
    interior_projector,
    matrix_exp,
    position_operators,
    window_mask,
    windowed_deviation,
)


def test_space_indexing():
    space = FockSpace(4)
    assert space.dim == 25
    assert space.index(0, 0) == 0
    assert space.index(1, 0) == 5  # flat index = n1*(n_max+1) + n2
    assert space.occupations(space.index(3, 2)) == (3, 2)
    with pytest.raises(DomainError):
        space.index(5, 0)
    assert len(list(space.iter_occupations())) == 25


def test_min_n_max_enforced():
    with pytest.raises(DomainError):
        build_ladder(1)


def test_ladder_action(ladder8):
    space = ladder8.space
    ket = np.zeros(space.dim)
    ket[space.index(2, 3)] = 1.0
    out = ladder8.a1 @ ket
    assert out[space.index(1, 3)] == pytest.approx(math.sqrt(2))
    out = ladder8.a2_dag @ ket
    assert out[space.index(2, 4)] == pytest.approx(2.0)
    # adjoint structure holds exactly for the truncated matrices
    assert np.array_equal(ladder8.a1_dag, ladder8.a1.conj().T)
    assert np.array_equal(ladder8.a2_dag, ladder8.a2.conj().T)


def test_commutators_interior(ladder8):
    space = ladder8.space
    eye = np.eye(space.dim, dtype=complex)
    pairs = [
        (ladder8.a1, ladder8.a1_dag, eye),
        (ladder8.a2, ladder8.a2_dag, eye),
        (ladder8.a1, ladder8.a2_dag, 0 * eye),
        (ladder8.a1, ladder8.a2, 0 * eye),
    ]
    for a, b, want in pairs:
        assert interior_deviation(commutator(a, b), want, space, 1) <= 1e-13


def test_boundary_defect_corner():
    # single-mode [a, a+] = I - (N+1)|N><N| for the truncated chain; the
    # float route carries sqrt(n)^2 rounding, so 1e-13 instead of equality
    for n_top in (3, 6):
        root = np.sqrt(np.arange(1, n_top + 1))
        a = np.diag(root, 1)
        defect = commutator(a, a.T) - np.eye(n_top + 1)
        expected = np.zeros((n_top + 1, n_top + 1))
        expected[n_top, n_top] = -(n_top + 1)
        assert np.max(np.abs(defect - expected)) <= 1e-13


def test_interior_projector_margin(ladder8):
    p = interior_projector(ladder8.space, 2)
    kept = int(np.sum(np.real(np.diag(p))))
    assert kept == 7 * 7
    with pytest.raises(DomainError):
        interior_projector(ladder8.space, -1)


def test_window_mask(ladder8):
    keep = window_mask(ladder8.space, 3)
    assert int(keep.sum()) == 10  # states with n1+n2 <= 3
    with pytest.raises(DomainError):
        window_mask(ladder8.space, -1)


def test_matrix_exp_basics():
    assert np.allclose(matrix_exp(np.zeros((4, 4))), np.eye(4))
    d = np.diag([0.3, -1.2, 2.0 + 0.5j])
    assert np.allclose(matrix_exp(d), np.diag(np.exp(np.diag(d))), atol=1e-14)
    with pytest.raises(DimensionMismatch):
        matrix_exp(np.zeros((2, 3)))


def test_matrix_exp_against_taylor():
    rng = np.random.default_rng(7)
    a = 0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for j in range(1, 40):
        term = term @ a / j
        series = series + term
    assert np.max(np.abs(matrix_exp(a) - series)) < 1e-12


def test_exp_inverse_property(ladder8):
    from bateman.ft import generator_matrix

    x = generator_matrix(ladder8)
    prod = matrix_exp(0.3 * x) @ matrix_exp(-0.3 * x)
    assert np.max(np.abs(prod - np.eye(ladder8.space.dim))) < 1e-10


def test_hamiltonian_hermitian_and_commuting(ladder8, params):
    ham = build_hamiltonian(ladder8, params)
    assert np.max(np.abs(ham.h - ham.h.conj().T)) == 0.0
    # H0 and H1 commute away from the truncation boundary
    dev = interior_deviation(commutator(ham.h0, ham.h1), 0 * ham.h, ladder8.space, 2)
    assert dev < 1e-13


def test_position_operators_hermitian(ladder8, params):
    x, y = position_operators(ladder8, params)
    assert np.max(np.abs(x - x.conj().T)) < 1e-14
    assert np.max(np.abs(y - y.conj().T)) < 1e-14


def test_windowed_deviation_shape_guard(ladder8):
    with pytest.raises(DimensionMismatch):
        windowed_deviation(np.zeros((3, 3)), np.zeros((4, 4)), ladder8.space, 2)

