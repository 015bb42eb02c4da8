"""Truncated two-mode ladder matrices: structure, commutators, exponentials."""

import math

import numpy as np
import pytest
import scipy.linalg

from bateman.errors import DimensionMismatch, DomainError, NumericalError
from bateman.fock import (
    FockSpace,
    Operator,
    _closed_blocks,
    _pade_choice,
    block_stacks,
    blocks,
    build_hamiltonian,
    build_ladder,
    commutator,
    coordinates,
    dense,
    from_coordinates,
    identity,
    interior_deviation,
    interior_mask,
    intertwining_deviation,
    matrix_exp,
    max_abs,
    position_operators,
    window_mask,
)


def as_operator(m: np.ndarray) -> Operator:
    rows, cols = np.nonzero(m)
    return from_coordinates(rows, cols, m[rows, cols], len(m))


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
    assert np.array_equal(dense(ladder8.a1_dag), dense(ladder8.a1).conj().T)
    assert np.array_equal(dense(ladder8.a2_dag), dense(ladder8.a2).conj().T)


def test_commutators_interior(ladder8):
    space = ladder8.space
    eye, zero = identity(space.dim), Operator(space.dim, {})
    pairs = [
        (ladder8.a1, ladder8.a1_dag, eye),
        (ladder8.a2, ladder8.a2_dag, eye),
        (ladder8.a1, ladder8.a2_dag, zero),
        (ladder8.a1, ladder8.a2, zero),
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
    space = ladder8.space
    keep = interior_mask(space, 2)
    assert keep.dtype == bool and int(keep.sum()) == 7 * 7
    assert all(keep[space.index(n1, n2)] == (n1 <= 6 and n2 <= 6)
               for n1, n2 in space.iter_occupations())
    with pytest.raises(DomainError):
        interior_mask(space, -1)
    with pytest.raises(DomainError):
        interior_mask(space, 9)


def test_interior_deviation_equals_projected_product(ladder8):
    # the mask restriction gives the value of max |P (a - b) P| with P the 0/1 projector
    rng = np.random.default_rng(3)
    dim = ladder8.space.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = np.diag(interior_mask(ladder8.space, 3).astype(complex))
    got = interior_deviation(as_operator(a), Operator(dim, {}), ladder8.space, 3)
    assert got == np.max(np.abs(p @ a @ p))


def test_window_mask(ladder8):
    keep = window_mask(ladder8.space, 3)
    assert int(keep.sum()) == 10  # states with n1+n2 <= 3
    # reference: the mask state by state in flat-index order
    want = [n1 + n2 <= 3 for n1, n2 in ladder8.space.iter_occupations()]
    assert keep.dtype == bool and keep.tolist() == want
    with pytest.raises(DomainError):
        window_mask(ladder8.space, -1)


def test_blocks_partition_and_reassemble():
    rng = np.random.default_rng(11)
    m = np.zeros((7, 6), dtype=complex)
    for i, j in ((0, 0), (2, 0), (2, 3), (4, 1), (5, 5), (6, 5)):
        m[i, j] = rng.standard_normal() + 1j
    parts = blocks(*np.nonzero(m), m.shape)
    rows = np.concatenate([r for r, _ in parts])
    cols = np.concatenate([c for _, c in parts])
    assert sorted(rows) == list(range(7)) and sorted(cols) == list(range(6))
    assert [(list(r), list(c)) for r, c in parts] == [
        ([0, 2], [0, 3]), ([1], []), ([3], []), ([4], [1]), ([5, 6], [5]),
        ([], [2]), ([], [4]),
    ]
    rebuilt = np.zeros_like(m)
    for r, c in parts:
        rebuilt[np.ix_(r, c)] = m[np.ix_(r, c)]
    assert np.array_equal(rebuilt, m)


@pytest.mark.parametrize("n_max", [2, 5, 8])
def test_blocks_of_csr_match_dense_pattern(n_max, params):
    # the coordinates of an operator and of its dense pattern give one partition
    from bateman.ft import generator_matrix
    from bateman.imagscale import _stacked, bounded_frame, generator_y_matrix

    lad = build_ladder(n_max)
    rep = bounded_frame(1j * math.pi / 4, lad)
    cases = [(coordinates(op), op.shape, dense(op))
             for op in (generator_matrix(lad), generator_y_matrix(lad.a2, lad.a2_dag),
                        build_hamiltonian(rep.ladder, params).h)]
    cases.append((*_stacked(rep.ann1, rep.ann2), np.vstack([dense(rep.ann1), dense(rep.ann2)])))
    for coords, shape, full in cases:
        got = blocks(*coords[:2], shape)
        want = blocks(*np.nonzero(full), full.shape)
        assert [(list(r), list(c)) for r, c in got] == [(list(r), list(c)) for r, c in want]
        stacked = [(list(r), list(c), block)
                   for rows, cols, stack in block_stacks(coords, shape, got)
                   for r, c, block in zip(rows, cols, stack)]
        assert sorted((r, c) for r, c, _ in stacked) == sorted(
            (list(r), list(c)) for r, c in got)
        for r, c, block in stacked:
            assert np.array_equal(block, full[np.ix_(r, c)])


@pytest.mark.parametrize("n_max", [3, 8])
def test_blocks_follow_conserved_quantities(n_max):
    from bateman.ft import generator_matrix
    from bateman.imagscale import generator_y_matrix

    lad = build_ladder(n_max)
    space = lad.space
    # X conserves n1 - n2 and moves n1 + n2 by 2: one block per (n1 - n2, parity)
    # on each side, both sides on the same sector
    x = generator_matrix(lad)
    for rows, cols in blocks(*coordinates(x)[:2], x.shape):
        sectors = {space.occupations(i)[0] - space.occupations(i)[1] for i in (*rows, *cols)}
        assert len(sectors) == 1
    # Y acts on mode 2 alone and conserves the parity of n2
    y = generator_y_matrix(lad.a2, lad.a2_dag)
    for rows, cols in blocks(*coordinates(y)[:2], y.shape):
        keys = {(space.occupations(i)[0], space.occupations(i)[1] % 2) for i in (*rows, *cols)}
        assert len(keys) == 1


def test_matrix_exp_basics():
    assert np.allclose(dense(matrix_exp(Operator(4, {}))), np.eye(4))
    d = np.diag([0.3, -1.2, 2.0 + 0.5j])
    got = dense(matrix_exp(as_operator(d)))
    assert np.allclose(got, np.diag(np.exp(np.diag(d))), atol=1e-14)
    with pytest.raises(DimensionMismatch):
        matrix_exp(Operator(2, {})) @ Operator(3, {})


def test_matrix_exp_against_taylor():
    rng = np.random.default_rng(7)
    a = 0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for j in range(1, 40):
        term = term @ a / j
        series = series + term
    assert np.max(np.abs(dense(matrix_exp(as_operator(a))) - series)) < 1e-12


def test_matrix_exp_matches_dense_expm(params):
    from bateman.ft import generator_matrix
    from bateman.imagscale import bounded_frame, generator_y_matrix, generator_z_matrix

    for n_max in (8, 24):
        lad = build_ladder(n_max)
        y = generator_y_matrix(lad.a2, lad.a2_dag)
        # a pattern from y + y.T would be empty
        assert np.array_equal(dense(y + y.T), 0 * dense(y))
        ops = {
            "X": 0.3 * generator_matrix(lad),
            "Y": 0.7j * y,
            "Z quarter": 1j * math.pi / 4 * generator_z_matrix(lad),
            "H": -0.4j * build_hamiltonian(lad, params).h,
        }
        if n_max == 8:
            ops["Z"] = 0.25j * generator_z_matrix(lad)
            check = bounded_frame(1j * math.pi / 4, lad)
            ops["H check"] = -0.4j * build_hamiltonian(check.ladder, params).h
        for name, a in ops.items():
            want = scipy.linalg.expm(dense(a))
            got = matrix_exp(a)
            assert isinstance(got, Operator) and got.dtype == complex, (n_max, name)
            got = dense(got)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n_max, name)


def test_matrix_exp_squares_large_norm_blocks():
    from bateman.ft import generator_matrix

    for n_max in (8, 12):
        a = 3.0 * generator_matrix(build_ladder(n_max))
        # the largest sector block is past theta_13, so it is scaled and squared
        norm = max(abs(a).T.row_sums())  # the largest column sum
        assert _pade_choice(norm)[1] >= 2
        want = scipy.linalg.expm(dense(a))
        got = dense(matrix_exp(a))
        assert np.max(want) > 1e10
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n_max


def test_matrix_exp_varies_degree_and_scaling_inside_one_stack():
    # seven 5x5 blocks in one stack, listed out of 1-norm order: every degree,
    # two scalings of degree 13, and two norms that share (m, s)
    rng = np.random.default_rng(11)
    norms = [40.0, 0.01, 1.5, 0.2, 0.6, 12.0, 0.8]
    blocks_ = []
    for norm in norms:
        block = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        blocks_.append(block * (norm / np.abs(block).sum(axis=0).max()))
    choices = [_pade_choice(norm) for norm in norms]
    assert len(set(choices)) == 6 and len({m for m, _ in choices}) == 5
    assert len({s for _, s in choices}) == 3
    a = as_operator(scipy.linalg.block_diag(*blocks_))
    coords = coordinates(a)
    (_, _, stack), = block_stacks(coords, a.shape, _closed_blocks(*coords[:2], a.shape[0]))
    assert stack.shape == (7, 5, 5)
    got = dense(matrix_exp(a))
    for k, block in enumerate(blocks_):
        want = scipy.linalg.expm(block)
        part = got[5 * k:5 * k + 5, 5 * k:5 * k + 5]
        assert np.max(np.abs(part - want)) <= 1e-13 * np.max(np.abs(want)), norms[k]
    off_block = got.copy()
    for k in range(len(blocks_)):
        off_block[5 * k:5 * k + 5, 5 * k:5 * k + 5] = 0
    assert not np.any(off_block)


def test_matrix_exp_numerical_errors():
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        matrix_exp(as_operator(bad))
    # e^800 is past the largest double
    with pytest.raises(NumericalError, match="overflowed"):
        matrix_exp(as_operator(np.diag([800.0, 1.0])))
    # finite entries whose column sum overflows
    with pytest.raises(NumericalError, match="overflowed"):
        matrix_exp(as_operator(np.full((2, 2), 1e308)))


def test_exp_inverse_property(ladder8):
    from bateman.ft import generator_matrix

    x = generator_matrix(ladder8)
    prod = matrix_exp(0.3 * x) @ matrix_exp(-0.3 * x)
    assert max_abs(prod - identity(ladder8.space.dim)) < 1e-10


def test_hamiltonian_hermitian_and_commuting(ladder8, params):
    ham = build_hamiltonian(ladder8, params)
    assert max_abs(ham.h - ham.h.conj().T) == 0.0
    # H0 and H1 commute away from the truncation boundary
    dev = interior_deviation(commutator(ham.h0, ham.h1), 0 * ham.h, ladder8.space, 2)
    assert dev < 1e-13


def test_position_operators_hermitian(ladder8, params):
    x, y = position_operators(ladder8, params)
    assert max_abs(x - x.conj().T) < 1e-14
    assert max_abs(y - y.conj().T) < 1e-14


def test_intertwining_deviation_shape_guard(ladder8):
    keep = window_mask(ladder8.space, 2)
    with pytest.raises(DimensionMismatch):
        intertwining_deviation(Operator(3, {}), [(Operator(4, {}), Operator(4, {}))], keep)

