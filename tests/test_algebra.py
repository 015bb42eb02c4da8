"""Exact ladder-symbol oracle: normal ordering, pairings, matrix elements.

Everything here is exact complex-rational arithmetic; assertions use == on
purpose. The cross-check against truncated matrices at n_max = degree+2 is
the one place floats enter, bounded by 1e-12.
"""

import math
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
    U_ONE,
    apply_to_monomial_ket,
    basis_column,
    basis_matrix_element,
    matrix_element,
    matrix_elements,
    matrix_vacuum_pairing,
    normal_order,
    random_poly,
    to_matrix,
    vacuum_pairing,
)
from bateman.errors import DomainError, MixedUnitError
from bateman.fock import build_ladder, dense
from bateman.construction import hamiltonian_formal, hamiltonian_from_plain
from bateman.ft import FT
from bateman.imagscale import IS
from bateman.verify import _SWEEP_STATES


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
    assert np.allclose(dense(mat), dense(ladder8.a1_dag @ ladder8.a1))


# --- matrix_elements: batched word walks against the whole matrix -------------

_LOW_OCCUPATIONS = [(a, b) for a in range(3) for b in range(3)]


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _seeded_polys(count=200):
    rng = random.Random(20260823)
    return [random_poly(rng, max_degree=6) for _ in range(count)]


def _by_ladder_size(polys, size):
    groups = {}
    for poly in polys:
        groups.setdefault(size(poly.degree()), []).append(poly)
    return {n_max: (build_ladder(n_max), group) for n_max, group in groups.items()}


def test_matrix_element_matches_whole_matrix_on_seeded_polys():
    for ladder, polys in _by_ladder_size(_seeded_polys(), lambda d: d + 5).values():
        mats = [to_matrix(poly, ladder) for poly in polys]
        for m in _LOW_OCCUPATIONS:
            bra = np.zeros(ladder.space.dim, dtype=complex)
            bra[ladder.space.index(*m)] = 1.0
            for n in _LOW_OCCUPATIONS:
                ket = np.zeros(ladder.space.dim, dtype=complex)
                ket[ladder.space.index(*n)] = 1.0
                for got, mat in zip(matrix_elements(polys, ladder, m, n), mats):
                    assert abs(got - bra @ (mat @ ket)) <= 1e-14
        for poly in polys:
            assert (matrix_vacuum_pairing(poly, ladder)
                    == matrix_element(poly, ladder, (0, 0), (0, 0)))


def test_matrix_element_reads_bra_row_and_ket_column(ladder8, params):
    # b1+ b2: <1, 0| b1+ b2 |0, 1> = 1 but <0, 1| b1+ b2 |1, 0> = 0; the hw tag needs params
    poly = LadderPoly.word((B1_CRE, B2_ANN), ExactScalar.unit(U_HW, 3))
    hw = params.hbar * params.omega
    assert matrix_element(poly, ladder8, (1, 0), (0, 1), params) == 3 * hw
    assert matrix_element(poly, ladder8, (0, 1), (1, 0), params) == 0
    # b1 b1+ b1+ |0, 0> = 2 |1, 0>: the words act right to left
    word = LadderPoly.word((B1_ANN, B1_CRE, B1_CRE))
    assert matrix_element(word, ladder8, (1, 0), (0, 0)) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DomainError):
        matrix_element(poly, ladder8, (9, 0), (0, 0), params)


# --- the batched walk against the one-word-at-a-time walk ---------------------

def _per_word_element(poly, ladder, bra, ket, params=None):
    """Reference: each word's ladder matrices applied right to left to its own vector."""
    symbol_map = {B1_CRE: ladder.a1_dag, B2_CRE: ladder.a2_dag,
                  B1_ANN: ladder.a1, B2_ANN: ladder.a2}
    start = np.zeros(ladder.space.dim, dtype=complex)
    start[ladder.space.index(*ket)] = 1.0
    row = ladder.space.index(*bra)
    total = 0.0 + 0.0j
    for word, coeff in poly.terms.items():
        vec = start
        for sym in reversed(word):
            vec = symbol_map[sym] @ vec
        total += coeff.to_complex(params) * vec[row]
    return total


def test_matrix_elements_equal_the_per_word_walk_at_the_vacuum():
    # the cross-validation's batches: one walk per ladder size, bit for bit the per-word walk
    for ladder, polys in _by_ladder_size(_seeded_polys(), lambda d: max(2, d + 2)).values():
        got = matrix_elements(polys, ladder, (0, 0), (0, 0))
        assert _bits(got) == _bits([_per_word_element(p, ladder, (0, 0), (0, 0)) for p in polys])
        assert _bits(got) == _bits([matrix_vacuum_pairing(p, ladder) for p in polys])


def test_matrix_elements_equal_the_per_word_walk_on_low_occupations(params):
    polys = _seeded_polys(60) + [LadderPoly.word((B1_CRE, B2_ANN), ExactScalar.unit(U_HW, 3))]
    ladder = build_ladder(6 + 5)
    for bra in _LOW_OCCUPATIONS:
        for ket in _LOW_OCCUPATIONS:
            got = matrix_elements(polys, ladder, bra, ket, params)
            want = [_per_word_element(p, ladder, bra, ket, params) for p in polys]
            assert _bits(got) == _bits(want)
    assert matrix_elements([], ladder, (0, 0), (0, 0)) == []


# --- the integer-weight column kernel against a per-symbol reference ----------

def _reference_apply(op, n1, n2):
    """The per-symbol walk: every state amplitude an ExactScalar at every step."""
    result = {}
    for word, coeff in op.terms.items():
        states = {(n1, n2): ExactScalar.of(1)}
        for sym in reversed(word):
            nxt = {}
            for (k1, k2), amp in states.items():
                if sym == B1_ANN:
                    occ, amp = ((k1 - 1, k2), amp * ExactScalar.of(k1)) if k1 else (None, None)
                elif sym == B2_ANN:
                    occ, amp = ((k1, k2 - 1), amp * ExactScalar.of(k2)) if k2 else (None, None)
                elif sym == B1_CRE:
                    occ = (k1 + 1, k2)
                else:
                    occ = (k1, k2 + 1)
                if occ is not None:
                    nxt[occ] = nxt.get(occ, ExactScalar.zero()) + amp
            states = nxt
        for occ, amp in states.items():
            result[occ] = result.get(occ, ExactScalar.zero()) + amp * coeff
    return {occ: amp for occ, amp in result.items() if not amp.is_zero()}


def _reference_element(m1, m2, op, n1, n2):
    """<<m1, m2| op |n1, n2>> from the reference walk and its own normalization."""
    amp = _reference_apply(op, n1, n2).get((m1, m2))
    if amp is None:
        return ExactScalar.zero()
    ratio = Fraction(math.factorial(m1) * math.factorial(m2),
                     math.factorial(n1) * math.factorial(n2))
    # sqrt(p/q) = sqrt(p*q)/q; surd() takes the square part out of p*q
    return amp * ExactScalar.surd(Fraction(1, ratio.denominator),
                                  ratio.numerator * ratio.denominator)


_KETS = [(n1, n2) for n1 in range(4) for n2 in range(4)]


def test_monomial_walk_matches_reference_on_seeded_polys():
    rng = random.Random(20260823)
    for _ in range(200):
        poly = random_poly(rng, max_degree=6)
        for n1, n2 in _KETS:
            assert apply_to_monomial_ket(poly, n1, n2) == _reference_apply(poly, n1, n2)


@pytest.mark.parametrize("word,ket", [
    ((B1_ANN, B1_ANN), (1, 0)),                   # second b1 meets k1 = 0
    ((B1_CRE, B1_CRE, B1_ANN, B1_ANN), (1, 2)),   # creators after the walk died
    ((B2_CRE, B2_ANN, B2_ANN, B2_ANN), (3, 2)),
    ((B1_ANN, B2_CRE, B2_ANN), (0, 0)),
])
def test_walk_past_zero_stays_zero(word, ket):
    poly = LadderPoly.word(word, CQ(Fraction(2, 3), Fraction(-1, 5))) + LadderPoly.one()
    got = apply_to_monomial_ket(poly, *ket)
    assert got == _reference_apply(poly, *ket) == {ket: ExactScalar.of(1)}


def _surd_poly():
    # coefficients with sqrt(2), and words whose factorial ratios are not squares
    return (LadderPoly.word((B1_CRE, B2_ANN), ExactScalar.surd(Fraction(1, 3), 2))
            + LadderPoly.word((B1_ANN, B1_ANN, B2_CRE), ExactScalar.surd(-2, 8))
            + LadderPoly.word((B2_CRE, B2_ANN), ExactScalar.surd(5, 2))
            + LadderPoly.word((B1_CRE,), Fraction(1, 2)))


_COLUMN_OPS = {
    **{f"{label}{b}": (con, b) for label, con in (("ft", FT), ("is", IS)) for b in "+-"},
    "surd": None,
}


@pytest.mark.parametrize("name", sorted(_COLUMN_OPS))
def test_basis_column_matches_per_element(name):
    op = _surd_poly() if name == "surd" else hamiltonian_from_plain(*_COLUMN_OPS[name])
    for n1, n2 in _SWEEP_STATES:
        column = basis_column(op, n1, n2)
        assert all(not v.is_zero() for v in column.values())
        for m1, m2 in _SWEEP_STATES:
            want = _reference_element(m1, m2, op, n1, n2)
            assert column.get((m1, m2), ExactScalar.zero()) == want
            assert basis_matrix_element(m1, m2, op, n1, n2) == want


def test_basis_column_surd_elements():
    op = _surd_poly()
    # b1+ b2 from (0, 1) to (1, 0): weight 1, factorial ratio 1
    assert basis_column(op, 0, 1)[(1, 0)] == ExactScalar.surd(Fraction(1, 3), 2)
    # b1 b1 b2+ from (2, 0) to (0, 1): weight 2, ratio 1/2, coefficient -4 sqrt2
    assert basis_column(op, 2, 0)[(0, 1)] == ExactScalar.of(-8)
    # b1+ / 2 from (1, 0) to (2, 0): weight 1, ratio 2
    assert basis_column(op, 1, 0)[(2, 0)] == ExactScalar.surd(Fraction(1, 2), 2)


# --- exact fast paths of the scalar products ---------------------------------

_SCALARS = [
    *[ExactScalar.unit(tag, CQ(Fraction(3, 4), Fraction(-2, 5))) for tag in (U_ONE, U_HW, U_IHL)],
    *[ExactScalar.surd(CQ(Fraction(-1, 6), Fraction(1, 2)), 2) * ExactScalar.unit(tag)
      for tag in (U_ONE, U_HW, U_IHL)],
    ExactScalar.unit(U_HW, 2) + ExactScalar.unit(U_IHL, -1) + ExactScalar.of(Fraction(1, 3)),
    ExactScalar.zero(),
]


@pytest.mark.parametrize("k", [0, 1, -3, 7, Fraction(-2, 3)])
@pytest.mark.parametrize("x", _SCALARS, ids=repr)
def test_rational_factor_fast_path(x, k):
    got = x * k
    assert got == x * ExactScalar.of(k) == k * x
    if k == 0 or x.is_zero():
        assert got.is_zero() and got.root == 1 and got == ExactScalar.zero()
    else:
        assert got.root == x.root


@pytest.mark.parametrize("root", [1, 2])
@pytest.mark.parametrize("tag", [U_ONE, U_HW, U_IHL])
def test_real_scalar_product_equals_the_general_product(tag, root):
    c = CQ(Fraction(3, 4), Fraction(-2, 5))
    x = ExactScalar({tag: c}, root)
    for k in (Fraction(-2, 3), Fraction(5), Fraction(1)):
        real = ExactScalar.of(k)
        # the four-multiply complex product, on x's tag and root
        want = ExactScalar({tag: c * CQ(k, Fraction(0))}, root)
        assert x * real == real * x == want
        assert (x * real).root == root
    assert x * ExactScalar.of(1) is x and ExactScalar.of(1) * x is x and x * 1 is x


def _stores_no_zero(poly):
    return all(not coeff.is_zero() and all(not c.is_zero() for c in coeff._coeffs.values())
               for coeff in poly._terms.values())


def test_rebuilt_polys_equal_the_results_of_arithmetic():
    # sums, products, normal orders and random_poly skip __init__: each result must
    # equal its rebuild through __init__, hash alike and store no zero
    one = LadderPoly.one()
    polys = _seeded_polys()
    for p, q in zip(polys, polys[1:]):
        for result in (p, one * p, p * one, p + q, p * q, (p * q).normal_order(), -p,
                       p.conjugated(), p * ExactScalar.of(Fraction(-2, 3))):
            rebuilt = LadderPoly(result.terms)
            assert rebuilt == result and hash(rebuilt) == hash(result)
            assert _stores_no_zero(result)
        for empty in (p + (-p), p - p, p * 0, (p - p).normal_order()):
            assert empty.is_zero() and empty._terms == {}
    scalar = ExactScalar.unit(U_HW, 2) + ExactScalar.of(Fraction(1, 3))
    assert (scalar - ExactScalar.unit(U_HW, 2))._coeffs == {U_ONE: CQ(Fraction(1, 3))}
    assert (scalar - scalar)._coeffs == {} and (scalar - scalar).root == 1


def test_root_one_products_and_cq_factors():
    sqrt2 = ExactScalar.surd(1, 2)
    assert sqrt2.root == 2
    assert sqrt2 * sqrt2 == ExactScalar.of(2)
    assert (sqrt2 * sqrt2).root == 1
    # (1/2 + 3i)(-2/7 + i/3) = -8/7 - 29/42 i, on the hw tag
    a = ExactScalar.unit(U_HW, CQ(Fraction(1, 2), Fraction(3)))
    b = ExactScalar.of(CQ(Fraction(-2, 7), Fraction(1, 3)))
    assert a * b == b * a == ExactScalar.unit(U_HW, CQ(Fraction(-8, 7), Fraction(-29, 42)))
    c = CQ(Fraction(2, 3), Fraction(-5, 4))
    for k in (0, 1, -3, 7, Fraction(-2, 3)):
        assert c * k == c * CQ.of(k) == k * c
