"""Exact ladder-symbol oracle: normal ordering, pairings, matrix elements.

Everything here is exact complex-rational arithmetic; assertions use == on
purpose. The cross-check against truncated matrices at n_max = degree+2 is
the one place floats enter, bounded by 1e-12.
"""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bateman import algebra, ft
from bateman.algebra import (
    B1_ANN,
    B1_CRE,
    B2_ANN,
    B2_CRE,
    ExactScalar,
    LadderPoly,
    apply_to_monomial_ket,
    basis_column,
    basis_matrix_element,
    matrix_elements,
    random_poly,
    vacuum_expectation,
    vacuum_pairing,
)
from bateman.errors import DomainError, RadicalMismatch
from bateman.fock import Operator, build_ladder, dense, identity
from bateman.cli import main
from bateman.construction import hamiltonian_formal, hamiltonian_from_plain
from bateman.ft import FT
from bateman.imagscale import IS
from bateman.verify import (
    _SWEEP_STATES,
    VerifyConfig,
    _oracle_draws,
    check_oracle_cross_validation,
    run_suite,
)


def test_normal_order_single_commutation():
    got = LadderPoly.word((B1_ANN, B1_CRE)).normal_order()
    want = LadderPoly.word((B1_CRE, B1_ANN)) + LadderPoly.one()
    assert got == want


def test_normal_order_distinct_modes():
    got = LadderPoly.word((B1_ANN, B2_CRE)).normal_order()
    assert got == LadderPoly.word((B2_CRE, B1_ANN))


def test_normal_order_quartic():
    # b1 b1 b1+ b1+ = b1+^2 b1^2 + 4 b1+ b1 + 2
    got = LadderPoly.word((B1_ANN, B1_ANN, B1_CRE, B1_CRE)).normal_order()
    want = (
        LadderPoly.word((B1_CRE, B1_CRE, B1_ANN, B1_ANN))
        + LadderPoly.word((B1_CRE, B1_ANN)) * ExactScalar.of(4)
        + LadderPoly.one() * ExactScalar.of(2)
    )
    assert got == want


def test_normal_order_idempotent():
    messy = (
        LadderPoly.word((B1_ANN, B2_ANN, B1_CRE, B2_CRE))
        + LadderPoly.word((B2_ANN, B2_CRE, B2_ANN)) * ExactScalar(Fraction(1, 3), 0, 2)
    )
    once = messy.normal_order()
    assert once.normal_order() == once


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
    # (H0 / hw, H1 / ihl): the element hw + 2 ihl
    parts = hamiltonian_formal(FT, "+")
    got = [basis_matrix_element(1, 0, h, 1, 0) for h in parts]
    assert got == [ExactScalar.of(1), ExactScalar.of(2)]
    assert all(basis_matrix_element(2, 0, h, 1, 1).is_zero() for h in parts)


@pytest.mark.parametrize("con,expect", [
    (FT, lambda n1, n2, b: (n1 - n2, b * (n1 + n2 + 1))),
    (IS, lambda n1, n2, b: (n1 + n2 + 1, b * (n1 - n2))),
], ids=["ft", "is"])
def test_diagonal_spectra_oracle(con, expect):
    for b in (+1, -1):
        parts = hamiltonian_formal(con, "+" if b > 0 else "-")
        for n1 in range(4):
            for n2 in range(4 - n1):
                got = [basis_matrix_element(n1, n2, h, n1, n2) for h in parts]
                assert got == [ExactScalar.of(v) for v in expect(n1, n2, b)]


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
    half_sqrt2 = ExactScalar(Fraction(1, 2), 0, 2)
    assert half_sqrt2 * half_sqrt2 == ExactScalar.of(Fraction(1, 2))
    i_unit = ExactScalar(0, 1)
    assert i_unit * i_unit == ExactScalar.of(-1)
    assert (i_unit * i_unit).conjugated() == ExactScalar.of(-1)


def test_a_root_with_a_square_factor_is_split_at_construction():
    # sqrt(4) = 2 and 3 sqrt(12) = 6 sqrt(3): equal values compare equal, hash alike and add
    assert ExactScalar(1, 0, 4) == ExactScalar.of(2) and ExactScalar(1, 0, 4).root == 1
    assert hash(ExactScalar(1, 0, 4)) == hash(ExactScalar.of(2))
    assert ExactScalar(1, 0, 4) + ExactScalar.of(2) == ExactScalar.of(4)
    assert ExactScalar(3, -1, 12) == ExactScalar(6, -2, 3)
    assert ExactScalar(3, -1, 12) + ExactScalar(0, 1, 3) == ExactScalar(6, -1, 3)
    assert ExactScalar(Fraction(1, 2), 0, 8) * ExactScalar(1, 0, 2) == ExactScalar.of(2)
    with pytest.raises(RadicalMismatch):
        ExactScalar(1, 0, 8) + ExactScalar.of(1)
    with pytest.raises(DomainError):
        ExactScalar(1, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_matrices(seed):
    rng = random.Random(seed)
    poly = random_poly(rng, max_degree=5, max_terms=4)
    ladder = build_ladder(poly.degree() + 2)
    exact = vacuum_pairing(LadderPoly.one(), poly).to_complex()
    numeric = matrix_elements([(ladder, poly, (0, 0), (0, 0))])[0]
    assert abs(exact - numeric) <= 1e-12


def to_matrix(poly, ladder) -> Operator:
    """The poly on the truncated matrices as one whole matrix: the reference for
    matrix_elements."""
    symbol_map = {B1_CRE: ladder.a1_dag, B2_CRE: ladder.a2_dag,
                  B1_ANN: ladder.a1, B2_ANN: ladder.a2}
    total = Operator(ladder.space.dim, {})
    for word, coeff in poly.terms.items():
        if word:
            acc = symbol_map[word[0]]
            for sym in word[1:]:
                acc = acc @ symbol_map[sym]
        else:
            acc = identity(ladder.space.dim)
        total = total + coeff.to_complex() * acc
    return total


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
                got_all = matrix_elements([(ladder, poly, m, n) for poly in polys])
                for got, mat in zip(got_all, mats):
                    assert abs(got - bra @ (mat @ ket)) <= 1e-14


def test_matrix_element_reads_bra_row_and_ket_column(ladder8):
    # b1+ b2: <1, 0| b1+ b2 |0, 1> = 1 but <0, 1| b1+ b2 |1, 0> = 0
    poly = LadderPoly.word((B1_CRE, B2_ANN), ExactScalar(3, Fraction(1, 2)))
    assert matrix_elements([(ladder8, poly, (1, 0), (0, 1))])[0] == 3 + 0.5j
    assert matrix_elements([(ladder8, poly, (0, 1), (1, 0))])[0] == 0
    # b1 b1+ b1+ |0, 0> = 2 |1, 0>: the words act right to left
    word = LadderPoly.word((B1_ANN, B1_CRE, B1_CRE))
    assert matrix_elements([(ladder8, word, (1, 0), (0, 0))])[0] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DomainError):
        matrix_elements([(ladder8, poly, (9, 0), (0, 0))])


# --- the batched walk against the one-word-at-a-time walk ---------------------

def _per_word_element(poly, ladder, bra, ket):
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
        total += coeff.to_complex() * vec[row]
    return total


def test_matrix_elements_equal_the_per_word_walk_at_the_vacuum():
    # the cross-validation's pairings: each ladder size alone, bit for bit the per-word walk
    for ladder, polys in _by_ladder_size(_seeded_polys(), lambda d: max(2, d + 2)).values():
        got = matrix_elements([(ladder, p, (0, 0), (0, 0)) for p in polys])
        assert _bits(got) == _bits([_per_word_element(p, ladder, (0, 0), (0, 0)) for p in polys])
        assert _bits(got) == _bits([matrix_elements([(ladder, p, (0, 0), (0, 0))])[0]
                                    for p in polys])


def test_matrix_elements_equal_the_per_word_walk_on_low_occupations():
    polys = _seeded_polys(60) + [LadderPoly.word((B1_CRE, B2_ANN), ExactScalar(3, 0, 2))]
    ladder = build_ladder(6 + 5)
    for bra in _LOW_OCCUPATIONS:
        for ket in _LOW_OCCUPATIONS:
            got = matrix_elements([(ladder, p, bra, ket) for p in polys])
            want = [_per_word_element(p, ladder, bra, ket) for p in polys]
            assert _bits(got) == _bits(want)
    assert matrix_elements([]) == []


def test_matrix_elements_equal_the_per_word_walk_over_mixed_ladder_sizes():
    # one call over every size the cross-validation reads (n_max 2 to 11), its pairings and
    # elements interleaved as the check asks for them, bit for bit the per-word walk
    ladders = {n_max: build_ladder(n_max) for n_max in range(2, 12)}
    rng = random.Random(20260823)
    elements = []
    for poly in _seeded_polys():
        elements.append((ladders[max(2, poly.degree() + 2)], poly, (0, 0), (0, 0)))
        bra, ket = rng.choice(_LOW_OCCUPATIONS), rng.choice(_LOW_OCCUPATIONS)
        elements.append((ladders[poly.degree() + 5], poly, bra, ket))
    assert {lad.space.n_max for lad, *_ in elements} == set(range(2, 12))
    got = matrix_elements(elements)
    assert _bits(got) == _bits([_per_word_element(p, lad, bra, ket)
                                for lad, p, bra, ket in elements])


def test_one_walk_reads_each_element_at_its_own_bra_and_ket():
    # every poly at every low (bra, ket) pair in one walk, bit for bit each element alone
    polys = _seeded_polys(12) + [LadderPoly.word((B1_CRE, B2_ANN), ExactScalar(3, 0, 2))]
    ladder = build_ladder(6 + 5)
    elements = [(ladder, p, bra, ket) for p in polys for bra in _LOW_OCCUPATIONS
                for ket in _LOW_OCCUPATIONS]
    got = matrix_elements(elements)
    assert _bits(got) == _bits([_per_word_element(p, ladder, bra, ket)
                                for _, p, bra, ket in elements])
    assert _bits(got) == _bits([matrix_elements([element])[0] for element in elements])


def test_matrix_elements_refuses_a_ladder_with_two_diagonals(ladder8):
    # the walk keeps one position per word, which a second diagonal would split
    poly = LadderPoly.word((B1_ANN,))
    a1 = ladder8.a1
    two = Operator(a1.shape[0], {**a1.diagonals, 0: np.ones(a1.shape[0], dtype=complex)})
    for name in ("a1", "a1_dag", "a2", "a2_dag"):
        bent = dataclasses.replace(ladder8, **{name: two})
        with pytest.raises(DomainError, match="one diagonal"):
            matrix_elements([(bent, poly, (0, 0), (1, 0))])
    # an operator that stores no diagonal is refused too
    bent = dataclasses.replace(ladder8, a2=Operator(a1.shape[0], {}))
    with pytest.raises(DomainError, match="one diagonal"):
        matrix_elements([(bent, poly, (0, 0), (1, 0))])


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
    # sqrt(p/q) = sqrt(p*q)/q; the constructor takes the square part out of p*q
    return amp * ExactScalar(Fraction(1, ratio.denominator), 0,
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
    poly = LadderPoly.word(word, ExactScalar(Fraction(2, 3), Fraction(-1, 5))) + LadderPoly.one()
    got = apply_to_monomial_ket(poly, *ket)
    assert got == _reference_apply(poly, *ket) == {ket: ExactScalar.of(1)}


def _surd_poly():
    # coefficients with sqrt(2), and words whose factorial ratios are not squares
    return (LadderPoly.word((B1_CRE, B2_ANN), ExactScalar(Fraction(1, 3), 0, 2))
            + LadderPoly.word((B1_ANN, B1_ANN, B2_CRE), ExactScalar(-2, 0, 8))
            + LadderPoly.word((B2_CRE, B2_ANN), ExactScalar(5, 0, 2))
            + LadderPoly.word((B1_CRE,), Fraction(1, 2)))


_COLUMN_OPS = {
    **{f"{label}{b}": (con, b) for label, con in (("ft", FT), ("is", IS)) for b in "+-"},
    "surd": None,
}


@pytest.mark.parametrize("name", sorted(_COLUMN_OPS))
def test_basis_column_matches_per_element(name):
    ops = [_surd_poly()] if name == "surd" else hamiltonian_from_plain(*_COLUMN_OPS[name])
    for op, (n1, n2) in itertools.product(ops, _SWEEP_STATES):
        column = basis_column(op, n1, n2)
        assert all(not v.is_zero() for v in column.values())
        for m1, m2 in _SWEEP_STATES:
            want = _reference_element(m1, m2, op, n1, n2)
            assert column.get((m1, m2), ExactScalar.zero()) == want
            assert basis_matrix_element(m1, m2, op, n1, n2) == want


def test_basis_column_surd_elements():
    op = _surd_poly()
    # b1+ b2 from (0, 1) to (1, 0): weight 1, factorial ratio 1
    assert basis_column(op, 0, 1)[(1, 0)] == ExactScalar(Fraction(1, 3), 0, 2)
    # b1 b1 b2+ from (2, 0) to (0, 1): weight 2, ratio 1/2, coefficient -4 sqrt2
    assert basis_column(op, 2, 0)[(0, 1)] == ExactScalar.of(-8)
    # b1+ / 2 from (1, 0) to (2, 0): weight 1, ratio 2
    assert basis_column(op, 1, 0)[(2, 0)] == ExactScalar(Fraction(1, 2), 0, 2)


# --- exact fast paths of the scalar products ---------------------------------

_SCALARS = [
    ExactScalar(Fraction(3, 4), Fraction(-2, 5)),
    ExactScalar(Fraction(-1, 6), Fraction(1, 2), 2),
    ExactScalar(Fraction(1, 3), 2, 6),
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


def _general_product(x, y):
    """The four-multiply complex product of x and y; the constructor splits its root."""
    return ExactScalar(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re, x.root * y.root)


@pytest.mark.parametrize("xroot, yroot", list(itertools.product((1, 2, 3), repeat=2)))
def test_real_scalar_product_equals_the_general_product(xroot, yroot):
    # a real rational of root 1 on either side scales the other; every product on the grid,
    # shortcut or not, is the general product exactly, with the same parts and root
    parts = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5)]
    xs = [ExactScalar(re, im, xroot) for re in parts for im in parts]
    ys = [ExactScalar(re, im, yroot) for re in parts for im in parts]
    shortcuts = 0
    for x, y in itertools.product(xs, ys):
        want = _general_product(x, y)
        got = x * y
        assert got == want and got.key() == want.key() and hash(got) == hash(want)
        shortcuts += (x.root == 1 and not x.im) or (y.root == 1 and not y.im)
    if 1 in (xroot, yroot):
        assert shortcuts > len(xs)
    x = ExactScalar(Fraction(3, 4), Fraction(-2, 5), xroot)
    assert x * ExactScalar.of(1) is x and ExactScalar.of(1) * x is x and x * 1 is x


def _stores_no_zero(poly):
    return all(not coeff.is_zero() for coeff in poly._terms.values())


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
    scalar = ExactScalar(Fraction(1, 3), 2, 2)
    assert (scalar - ExactScalar(0, 2, 2)).key() == (Fraction(1, 3), 0, 2)
    assert (scalar - scalar).key() == (0, 0, 1)


def test_root_one_products_and_complex_factors():
    sqrt2 = ExactScalar(1, 0, 2)
    assert sqrt2.root == 2
    assert sqrt2 * sqrt2 == ExactScalar.of(2)
    assert (sqrt2 * sqrt2).root == 1
    # (1/2 + 3i)(-2/7 + i/3) = -8/7 - 29/42 i
    a = ExactScalar(Fraction(1, 2), Fraction(3))
    b = ExactScalar(Fraction(-2, 7), Fraction(1, 3))
    assert a * b == b * a == ExactScalar(Fraction(-8, 7), Fraction(-29, 42))
    c = ExactScalar(Fraction(2, 3), Fraction(-5, 4))
    for k in (0, 1, -3, 7, Fraction(-2, 3)):
        assert c * k == c * ExactScalar.of(k) == k * c


# --- per-mode normal forms against the fixed-point rewriting ------------------

def _reference_normal_order(poly):
    """Fixed-point rewriting: swap the first out-of-order pair of each word, adding the
    contraction when it is b b+ of one mode, until every word is canonical."""
    done, pending = {}, poly.terms
    while pending:
        nxt = {}
        for word, coeff in pending.items():
            idx = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
            if idx is None:
                rewritten = [(word, done)]
            else:
                a, b = word[idx], word[idx + 1]
                rewritten = [(word[:idx] + (b, a) + word[idx + 2:], nxt)]
                if (a, b) in ((B1_ANN, B1_CRE), (B2_ANN, B2_CRE)):
                    rewritten.append((word[:idx] + word[idx + 2:], nxt))
            for new_word, target in rewritten:
                target[new_word] = target.get(new_word, ExactScalar.zero()) + coeff
        pending = {w: c for w, c in nxt.items() if not c.is_zero()}
    return LadderPoly(done)


def test_normal_order_matches_the_rewriting_on_every_word_up_to_degree_6():
    coeff = ExactScalar(Fraction(2, 3), Fraction(-1, 5))
    words = [w for n in range(7) for w in itertools.product(range(4), repeat=n)]
    assert len(words) == 5461
    for word in words:
        poly = LadderPoly.word(word, coeff)
        assert poly.normal_order() == _reference_normal_order(poly), word


def test_normal_order_matches_the_rewriting_on_the_checks_messy_poly():
    h0, h1 = hamiltonian_formal(FT, "+")
    messy = ft.ft_generator_poly() * (h0 + h1) + LadderPoly.word(
        (B2_ANN, B1_ANN, B2_CRE, B1_CRE), Fraction(3, 7)
    )
    assert messy.normal_order() == _reference_normal_order(messy)
    assert messy.normal_order() != messy


def test_vacuum_pairing_is_the_constant_term_of_the_normal_ordered_product():
    polys = _seeded_polys(120)
    for bra, ket in zip(polys[::2], polys[1::2]):
        want = (bra * ket).normal_order().terms.get((), ExactScalar.zero())
        assert vacuum_pairing(bra, ket) == want
        want = (bra.conjugated() * ket).normal_order().terms.get((), ExactScalar.zero())
        assert vacuum_pairing(bra.conjugated(), ket) == want


@pytest.mark.parametrize("word", [(B1_ANN, B1_CRE), (B2_ANN, B1_ANN, B1_CRE, B2_CRE)],
                         ids=["b1 b1+", "b2 b1 b1+ b2+"])
def test_cross_validation_catches_one_multiplicity_off_by_1(monkeypatch, params, word):
    # the mutant adds 1 to the multiplicity of the empty word in one word's form
    cfg = VerifyConfig(params=params)
    words = {w for poly, _ in _oracle_draws(cfg.seed) for w in poly.terms}
    assert word in words
    assert check_oracle_cross_validation(cfg).passed
    form = algebra._word_normal_form

    def bent(w):
        return [(c, k + 1 if w == word and not c else k) for c, k in form(w)]

    assert bent(word) != form(word)
    monkeypatch.setattr(algebra, "_word_normal_form", bent)
    result = check_oracle_cross_validation(cfg)
    assert not result.passed and result.deviation > 0.1


def test_normal_order_check_catches_a_canonical_multiplicity_off_by_1(monkeypatch, capsys):
    # the mutant adds 1 to the b1+ b1 multiplicity in the forms of two words, leaving
    # the empty word's multiplicity, which the oracle's vacuum pairings read, alone
    words = {(B2_ANN, B1_ANN, B2_CRE, B1_CRE), (B1_ANN, B1_CRE, B1_ANN, B1_CRE)}
    form = algebra._word_normal_form

    def bent(w):
        return [(c, k + 1 if w in words and c == (B1_CRE, B1_ANN) else k) for c, k in form(w)]

    assert all(bent(w) != form(w) for w in words)
    monkeypatch.setattr(algebra, "_word_normal_form", bent)
    assert main(["verify", "algebra"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "algebra.normal-order" in [c["check_id"] for c in report["checks"] if not c["passed"]]


# --- the shared zero and exact scalar equality --------------------------------

def test_zero_is_one_shared_instance_that_stays_empty(params):
    zero = ExactScalar.zero()
    assert zero is ExactScalar.zero()
    run_suite("all", VerifyConfig(params=params))
    assert ExactScalar.zero() is zero
    assert zero.key() == (0, 0, 1) and zero.is_zero()


def _scalar_grid():
    """Scalars on roots 1, 2, 3, each value built twice: by the constructor, and by
    arithmetic on its real part, its imaginary part and sqrt(root)."""
    values = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)),
              (Fraction(-2, 3), Fraction(1, 2))]
    grid = [ExactScalar.zero(), ExactScalar.of(0), ExactScalar(0, 0, 2)]
    for root in (1, 2, 3):
        for re, im in values:
            grid.append(ExactScalar(re, im, root))
            grid.append((ExactScalar(0, im) + ExactScalar.of(re)) * ExactScalar(1, 0, root))
    return grid


def test_scalar_equality_is_key_equality_and_equal_scalars_hash_alike():
    grid = _scalar_grid()
    equal_pairs = 0
    for a in grid:
        for b in grid:
            assert (a == b) == (a.key() == b.key())
            if a == b:
                assert hash(a) == hash(b)
                equal_pairs += a is not b
    # each value equals its twin built the other way, and the zeros are one instance
    assert equal_pairs == len(grid) - 3
    assert grid[0] is grid[1] is grid[2] is ExactScalar.zero()


# --- the oracle's draws, exact half and element reads -------------------------

def _randint_poly(rng, max_degree=6, max_terms=5):
    """random_poly as rng.randint draws it: the reference for the getrandbits draws."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randint(0, 3) for _ in range(length))
        coeff = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        algebra._accumulate(terms, word, coeff)
    return LadderPoly._checked(terms)


def test_random_poly_draws_what_randint_draws():
    # a Python release that changes randint's rejection rule fails here
    for seed in range(300):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            got, want = random_poly(rng), _randint_poly(reference)
            assert got == want and list(got.terms) == list(want.terms)
        assert rng.randint(0, 10**6) == reference.randint(0, 10**6)
    rng, reference = random.Random(7), random.Random(7)
    for degree, terms in ((0, 1), (1, 2), (5, 4), (9, 8)):
        assert random_poly(rng, degree, terms) == _randint_poly(reference, degree, terms)
    assert rng.getstate() == reference.getstate()


def test_vacuum_pairing_is_the_expectation_of_the_product():
    polys = _seeded_polys(120)
    for bra, ket in zip(polys[::2], polys[1::2]):
        assert vacuum_pairing(bra, ket) == vacuum_expectation(bra * ket)
        assert vacuum_pairing(bra.conjugated(), ket) == vacuum_expectation(bra.conjugated() * ket)
    assert vacuum_expectation(LadderPoly.one()) == ExactScalar.of(1)
    assert vacuum_expectation(LadderPoly.zero()) is ExactScalar.zero()


def test_basis_matrix_element_is_its_basis_column_entry():
    # occupations up to 4 give factorial ratios such as 3!/1! = 6, whose square roots are surds
    occupations = [(a, b) for a in range(5) for b in range(5)]
    zero = ExactScalar.zero()
    surds = 0
    for op in [_surd_poly(), *hamiltonian_from_plain(FT, +1), *_seeded_polys(12)]:
        for n1, n2 in occupations:
            column = basis_column(op, n1, n2)
            for m1, m2 in occupations:
                got = basis_matrix_element(m1, m2, op, n1, n2)
                assert got == column.get((m1, m2), zero)
                surds += got.root != 1
    assert surds > 0


def test_to_complex_is_float_of_each_part_times_the_root():
    parts = [Fraction(n, d) for n in (-7, -1, 0, 1, 3, 10**15 + 1, 2**53 + 1, -(3**40))
             for d in (1, 3, 7, 2**60, 10**20 + 3)]
    for re in parts:
        for im in parts[::3]:
            for root in (1, 2, 3, 6):
                got = ExactScalar(re, im, root).to_complex()
                want = complex(re.numerator / re.denominator,
                               im.numerator / im.denominator) * math.sqrt(root)
                assert np.array([got]).tobytes() == np.array([want]).tobytes()
                if root == 1:
                    assert got == complex(float(re), float(im))
    huge = Fraction(10**400, 3)
    for value in (ExactScalar(huge), ExactScalar(1, -huge)):
        with pytest.raises(OverflowError):
            complex(float(value.re), float(value.im))
        with pytest.raises(OverflowError):
            value.to_complex()


def test_zero_scalar_evaluates_to_zero():
    for zero in (ExactScalar.zero(), ExactScalar.of(0), ExactScalar(0, 0, 2)):
        got = zero.to_complex()
        assert type(got) is complex and np.array([got]).tobytes() == np.array([0j]).tobytes()


# --- integer parts against Fraction arithmetic -----------------------------------

_PART = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_FRACTION_SCALARS = st.tuples(st.one_of(st.just(Fraction(0)), _PART),
                              st.one_of(st.just(Fraction(0)), _PART),
                              st.sampled_from([1, 2, 3, 6]))


def _fraction_key(re: Fraction, im: Fraction, root: int) -> tuple:
    """(re, im, root) with the square part of root moved into re and im, as key() reads
    it; the zero has root 1."""
    if not (re or im):
        return (0, 0, 1)
    s = max(k for k in range(1, root + 1) if root % (k * k) == 0)
    return (re * s, im * s, root // (s * s))


def _check_parts(x: ExactScalar) -> None:
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (Fraction(x.a, x.d), Fraction(x.b, x.d))


@settings(max_examples=300, deadline=None)
@given(_FRACTION_SCALARS, _FRACTION_SCALARS)
def test_integer_parts_follow_fraction_arithmetic(xs, ys):
    # the scalar keeps (a + i b) / d * sqrt(root) in Python ints over one denominator;
    # every operation must give the key, the hash and the float that Fraction
    # arithmetic on (re, im, root) gives
    x, y = ExactScalar(*xs), ExactScalar(*ys)
    (xr, xi, xroot), (yr, yi, yroot) = _fraction_key(*xs), _fraction_key(*ys)
    for value, want in ((x, (xr, xi, xroot)), (y, (yr, yi, yroot)),
                        (x * y, _fraction_key(xr * yr - xi * yi, xr * yi + xi * yr,
                                              xroot * yroot)),
                        (x.conjugated(), _fraction_key(xr, -xi, xroot)),
                        (-x, _fraction_key(-xr, -xi, xroot))):
        _check_parts(value)
        assert value.key() == want and value == ExactScalar(*want)
        assert hash(value) == hash(ExactScalar(*want))
        got = np.array([value.to_complex()]).tobytes()
        assert got == np.array([complex(float(want[0]), float(want[1]))
                                * math.sqrt(want[2])]).tobytes()
    if x.is_zero() or y.is_zero() or xroot == yroot:
        root = yroot if x.is_zero() else xroot
        for value, want in ((x + y, _fraction_key(xr + yr, xi + yi, root)),
                            (x - y, _fraction_key(xr - yr, xi - yi, root))):
            _check_parts(value)
            assert value.key() == want and value == ExactScalar(*want)
    else:
        with pytest.raises(RadicalMismatch):
            x + y
        with pytest.raises(RadicalMismatch):
            x - y
