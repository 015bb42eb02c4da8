"""Exact ladder-symbol oracle: normal ordering, pairings, matrix elements.

Everything here is exact complex-rational arithmetic; assertions use == on
purpose. The cross-check against truncated matrices at n_max = degree+2 is
the one place floats enter, bounded by 1e-12.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bateman.algebra import (
    B1_ANN,
    B1_CRE,
    B2_ANN,
    B2_CRE,
    CQ,
    ExactScalar,
    LadderPoly,
    U_HW,
    U_IHL,
    basis_matrix_element,
    matrix_vacuum_pairing,
    normal_order,
    random_poly,
    to_matrix,
    vacuum_pairing,
)
from bateman.errors import MixedUnitError
from bateman.fock import build_ladder
from bateman.construction import hamiltonian_formal
from bateman.ft import FT
from bateman.imagscale import IS


def test_normal_order_single_commutation():
    got = normal_order(LadderPoly.word((B1_ANN, B1_CRE)))
    want = LadderPoly.word((B1_CRE, B1_ANN)) + LadderPoly.one()
    assert got == want


def test_normal_order_distinct_modes():
    got = normal_order(LadderPoly.word((B1_ANN, B2_CRE)))
    assert got == LadderPoly.word((B2_CRE, B1_ANN))


def test_normal_order_quartic():
    # b1 b1 b1+ b1+ = b1+^2 b1^2 + 4 b1+ b1 + 2
    got = normal_order(LadderPoly.word((B1_ANN, B1_ANN, B1_CRE, B1_CRE)))
    want = (
        LadderPoly.word((B1_CRE, B1_CRE, B1_ANN, B1_ANN))
        + LadderPoly.word((B1_CRE, B1_ANN)) * ExactScalar.of(4)
        + LadderPoly.one() * ExactScalar.of(2)
    )
    assert got == want


def test_normal_order_idempotent():
    messy = (
        LadderPoly.word((B1_ANN, B2_ANN, B1_CRE, B2_CRE))
        + LadderPoly.word((B2_ANN, B2_CRE, B2_ANN)) * ExactScalar.surd(Fraction(1, 3), 2)
    )
    once = normal_order(messy)
    assert normal_order(once) == once


def test_vacuum_pairing_examples():
    one = LadderPoly.one()
    assert vacuum_pairing(one, one) == ExactScalar.of(1)
    assert vacuum_pairing(
        LadderPoly.symbol(B1_ANN), LadderPoly.symbol(B1_CRE)
    ) == ExactScalar.of(1)
    # <0| b1^2 b2 . b1+^2 b2+ |0> = 2! * 1!
    bra = LadderPoly.word((B1_ANN, B1_ANN, B2_ANN))
    ket = LadderPoly.word((B1_CRE, B1_CRE, B2_CRE))
    assert vacuum_pairing(bra, ket) == ExactScalar.of(2)


def test_number_operator_element():
    num = LadderPoly.word((B1_CRE, B1_ANN))
    assert basis_matrix_element(3, 2, num, 3, 2) == ExactScalar.of(3)


def test_hamiltonian_elements_exact():
    h_plus = hamiltonian_formal(FT, "+")
    got = basis_matrix_element(1, 0, h_plus, 1, 0)
    assert got == ExactScalar.unit(U_HW, 1) + ExactScalar.unit(U_IHL, 2)
    assert got.as_integer_pair() == (1, 2)
    assert basis_matrix_element(2, 0, h_plus, 1, 1).is_zero()


@pytest.mark.parametrize("con,expect", [
    (FT, lambda n1, n2, b: (n1 - n2, b * (n1 + n2 + 1))),
    (IS, lambda n1, n2, b: (n1 + n2 + 1, b * (n1 - n2))),
], ids=["ft", "is"])
def test_diagonal_spectra_oracle(con, expect):
    for b in (+1, -1):
        h = hamiltonian_formal(con, "+" if b > 0 else "-")
        for n1 in range(4):
            for n2 in range(4 - n1):
                got = basis_matrix_element(n1, n2, h, n1, n2)
                assert got.as_integer_pair() == expect(n1, n2, b)


def test_biorthonormality_delta():
    one = LadderPoly.one()
    for m1 in range(3):
        for m2 in range(3):
            for n1 in range(3):
                for n2 in range(3):
                    got = basis_matrix_element(m1, m2, one, n1, n2)
                    if (m1, m2) == (n1, n2):
                        assert got == ExactScalar.of(1)
                    else:
                        assert got.is_zero()


def test_surd_arithmetic_exact():
    half_sqrt2 = ExactScalar.surd(Fraction(1, 2), 2)
    assert half_sqrt2 * half_sqrt2 == ExactScalar.of(Fraction(1, 2))
    i_unit = ExactScalar.of(CQ(Fraction(0), Fraction(1)))
    assert i_unit * i_unit == ExactScalar.of(-1)
    assert (i_unit * i_unit).conjugated() == ExactScalar.of(-1)


def test_mixed_units_rejected():
    hw = ExactScalar.unit(U_HW)
    ihl = ExactScalar.unit(U_IHL)
    with pytest.raises(MixedUnitError):
        hw * ihl


def test_unit_scalars_evaluate(params):
    v = ExactScalar.unit(U_HW, 2) + ExactScalar.unit(U_IHL, -1)
    assert v.to_complex(params) == 2.0 * params.hbar * params.omega - 1j * params.hbar * params.lam


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_matrices(seed):
    rng = random.Random(seed)
    poly = random_poly(rng, max_degree=5, max_terms=4)
    ladder = build_ladder(poly.degree() + 2)
    exact = vacuum_pairing(LadderPoly.one(), poly).to_complex()
    numeric = matrix_vacuum_pairing(poly, ladder)
    assert abs(exact - numeric) <= 1e-12


def test_to_matrix_round_trip(ladder8):
    # (b1+ b1) as a matrix must reproduce the mode-1 number operator
    num = LadderPoly.word((B1_CRE, B1_ANN))
    mat = to_matrix(num, ladder8)
    assert np.allclose(mat.toarray(), (ladder8.a1_dag @ ladder8.a1).toarray())
