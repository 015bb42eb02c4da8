"""Truncated two-mode ladder matrices: structure, commutators, exponentials."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from bateman import fock
from bateman.errors import DimensionMismatch, DomainError, NumericalError
from bateman.fock import (
    FockSpace,
    Operator,
    _pade_choice,
    build_hamiltonian,
    build_ladder,
    commutator,
    dense,
    exp_block,
    from_coordinates,
    identity,
    interior_deviation,
    interior_mask,
    intertwining_deviation,
    low_block,
    matrix_exp,
    max_abs,
    position_operators,
    sector_exp,
    single_mode_lowering,
    window_mask,
)


def as_operator(m: np.ndarray) -> Operator:
    rows, cols = np.nonzero(m)
    return from_coordinates(rows, cols, m[rows, cols], len(m))


def with_entries(op: Operator, entries) -> Operator:
    """op with (row, col, value) entries added where op holds none."""
    full = dense(op)
    rows, cols = np.nonzero(full)
    extra_rows, extra_cols, extra_values = zip(*entries)
    return from_coordinates(np.append(rows, extra_rows), np.append(cols, extra_cols),
                            np.append(full[rows, cols], extra_values), op.shape[0])


def occupations(n_max: int) -> list[tuple[int, int]]:
    """Every (n1, n2) in flat-index order."""
    return [(n1, n2) for n1 in range(n_max + 1) for n2 in range(n_max + 1)]


def n1_and_n2_parity(space: FockSpace) -> np.ndarray:
    """2 n1 + (n2 mod 2) of every state: the charge of the two-mode Y."""
    n1, n2 = np.divmod(np.arange(space.dim), space.n_max + 1)
    return 2 * n1 + n2 % 2


def test_space_indexing():
    space = FockSpace(4)
    assert space.dim == 25
    assert space.index(0, 0) == 0
    assert space.index(1, 0) == 5  # flat index = n1*(n_max+1) + n2
    assert space.occupations(space.index(3, 2)) == (3, 2)
    with pytest.raises(DomainError):
        space.index(5, 0)
    assert [space.occupations(i) for i in range(space.dim)] == occupations(4)


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
        assert interior_deviation(commutator(a, b), want, space) <= 1e-13


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
               for n1, n2 in occupations(space.n_max))
    with pytest.raises(DomainError):
        interior_mask(space, -1)
    with pytest.raises(DomainError):
        interior_mask(space, 9)


def test_interior_deviation_equals_projected_product(ladder8):
    # the mask restriction gives the value of max |P (a - b) P| with P the 0/1
    # projector off the top rung of each mode
    rng = np.random.default_rng(3)
    dim = ladder8.space.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = np.diag(interior_mask(ladder8.space, 1).astype(complex))
    got = interior_deviation(as_operator(a), Operator(dim, {}), ladder8.space)
    assert got == np.max(np.abs(p @ a @ p))


def test_low_block_shrinks_with_the_resolution():
    assert [low_block(n) for n in (4, 9, 10, 12, 19, 20, 24, 48)] == [0, 0, 1, 2, 5, 6, 6, 6]


def test_window_mask(ladder8):
    keep = window_mask(ladder8.space, 3)
    assert int(keep.sum()) == 10  # states with n1+n2 <= 3
    # reference: the mask state by state in flat-index order
    want = [n1 + n2 <= 3 for n1, n2 in occupations(8)]
    assert keep.dtype == bool and keep.tolist() == want
    with pytest.raises(DomainError):
        window_mask(ladder8.space, -1)


def test_space_charges():
    space = FockSpace(3)
    for i, (n1, n2) in enumerate(occupations(3)):
        assert (space.difference[i], space.total[i]) == (n1 - n2, n1 + n2)
    assert space.difference is space.difference  # computed once per space


def test_blocks_partition_and_reassemble(connected_blocks):
    # the label-propagation reference that the declared sectors are checked against
    rng = np.random.default_rng(11)
    m = np.zeros((7, 6), dtype=complex)
    for i, j in ((0, 0), (2, 0), (2, 3), (4, 1), (5, 5), (6, 5)):
        m[i, j] = rng.standard_normal() + 1j
    parts = connected_blocks(*np.nonzero(m), m.shape)
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


def stacked_pair(top, bottom, charge: np.ndarray) -> tuple[tuple, tuple, tuple]:
    """Pattern, shape and (row, column) charges of the (2n, n) matrix of top over bottom."""
    n = top.shape[0]
    return (np.nonzero(np.vstack([dense(top), dense(bottom)])), (2 * n, n),
            (np.tile(charge, 2), charge))


@pytest.mark.parametrize("n_max", [2, 5, 8])
def test_blocks_of_csr_match_dense_pattern(n_max, params, monkeypatch):
    # with the kernel made the identity, sector_exp returns the blocks it gathers
    # from the stored diagonals: every sector, and each one the dense block
    from bateman.ft import generator_matrix
    from bateman.imagscale import bounded_frame, generator_y_matrix

    lad = build_ladder(n_max)
    space = lad.space
    rep = bounded_frame(1j * math.pi / 4, lad)
    monkeypatch.setattr(fock, "_stack_exp", lambda stack: stack)
    for op, charge in ((generator_matrix(lad), space.difference),
                       (generator_y_matrix(lad.a2, lad.a2_dag), n1_and_n2_parity(space)),
                       (build_hamiltonian(rep.ladder, params.r).h, rep.charge)):
        full = dense(op)
        stacks = sector_exp(op, charge)
        assert [idx.shape[1] for idx, _ in stacks] == sorted({idx.shape[1] for idx, _ in stacks})
        read = np.concatenate([idx.ravel() for idx, _ in stacks])
        assert sorted(read) == list(range(space.dim))
        for idx, blocks in stacks:
            # one sector per row of idx, ascending in charge and in state
            assert len(set(charge[idx[:, 0]].tolist())) == len(idx)
            assert np.all(charge[idx] == charge[idx[:, :1]])
            assert np.all(np.diff(charge[idx[:, 0]]) > 0) and np.all(np.diff(idx) > 0)
            for rows, block in zip(idx, blocks):
                assert np.array_equal(block, full[np.ix_(rows, rows)])


@pytest.mark.parametrize("n_max", [3, 8])
def test_blocks_follow_conserved_quantities(n_max, connected_blocks):
    # every declared sector is a union of the connected blocks of the pattern:
    # X and Z conserve n1 - n2, the single-mode Y chain the parity (the two-mode
    # Y n1 and the parity of n2), and the stacked check pairs of both frames
    # lower their frame's charge by 1
    from bateman.construction import transform
    from bateman.ft import generator_matrix
    from bateman.imagscale import IS, bounded_frame, generator_y_matrix, generator_z_matrix

    lad = build_ladder(n_max)
    ann = single_mode_lowering(n_max + 1)
    parity = np.arange(n_max + 1) % 2
    cases = [(np.nonzero(dense(op)), op.shape, (charge, charge))
             for op, charge in ((generator_matrix(lad), lad.space.difference),
                                (generator_z_matrix(lad), lad.space.difference),
                                (generator_y_matrix(ann, ann.T), parity),
                                (generator_y_matrix(lad.a2, lad.a2_dag),
                                 n1_and_n2_parity(lad.space)))]
    for chi in (0j, 1j * math.pi / 4):
        for frame in (transform(IS, chi, lad), bounded_frame(chi, lad)):
            for top, bottom in ((frame.ann1, frame.ann2), (frame.cre1.T, frame.cre2.T)):
                pattern, shape, (row_charge, col_charge) = stacked_pair(top, bottom,
                                                                        frame.charge)
                cases.append((pattern, shape, (row_charge, col_charge - 1)))
    for pattern, shape, (row_charge, col_charge) in cases:
        for rows, cols in connected_blocks(*pattern, shape):
            assert len({*row_charge[rows].tolist(), *col_charge[cols].tolist()}) == 1


def test_sectors_reject_an_entry_between_charges(ladder8):
    from bateman.ft import generator_matrix

    space = ladder8.space
    # entries of X from |0, 0> (n1 - n2 = 0) to |0, 1> (n1 - n2 = -1), and from
    # |2, 0> to |3, 0>; the message counts both and names the first stored
    crossed = with_entries(generator_matrix(ladder8), [
        (space.index(0, 0), space.index(0, 1), 0.5), (space.index(2, 0), space.index(3, 0), 0.25)])
    message = ("2 entries lie outside the declared sectors, first (0, 1): row label 0, "
               "column label -1")
    for exp in (sector_exp, matrix_exp):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            exp(0.3 * crossed, space.difference)
    with pytest.raises(DimensionMismatch):
        matrix_exp(0.3 * generator_matrix(ladder8), space.difference[:-1])


def test_a_stored_zero_between_charges_is_neither_rejected_nor_scattered(ladder8):
    from bateman.ft import generator_matrix
    from bateman.imagscale import generator_y_matrix

    space = ladder8.space
    # sectors without a zero entry, where a scattered 0 would overwrite one
    rng = np.random.default_rng(5)
    full = as_operator(scipy.linalg.block_diag(*(rng.standard_normal((k, k)) for k in (3, 3, 2))))
    x = 0.3 * generator_matrix(ladder8)
    cases = [
        (full, np.repeat(np.arange(3), [3, 3, 2]),
         [with_entries(full, [(0, 3, 0.0), (7, 1, 0.0)])]),
        # a stored 0.0 from |0, 0> to |0, 1>, and a whole stored diagonal of
        # zeros that joins every n1 - n2 to the next one down
        (x, space.difference,
         [with_entries(x, [(space.index(0, 0), space.index(0, 1), 0.0)]),
          x + (ladder8.a2 - ladder8.a2)]),
    ]
    for op, charge, zeroed in cases:
        want = sector_exp(op, charge)
        for other in zeroed:
            assert len(other.diagonals) > len(op.diagonals)
            got = sector_exp(other, charge)
            assert len(got) == len(want)
            for (got_idx, got_blocks), (want_idx, want_blocks) in zip(got, want):
                assert np.array_equal(got_idx, want_idx)
                assert np.array_equal(got_blocks, want_blocks)
    # the two-mode Y stores the 0 weight of a2 at n2 = n_max: a2 a2 holds a 0
    # from |n1, n_max - 1> to |n1 + 1, 0> and from |n1, n_max> to |n1 + 1, 1>,
    # each between two sectors of n1 and the parity of n2
    y = generator_y_matrix(ladder8.a2, ladder8.a2_dag)
    charge = n1_and_n2_parity(space)
    rows = np.flatnonzero(y.diagonals[2] == 0)
    assert rows.size and np.all(charge[rows] != charge[rows + 2])
    assert sum(idx.size for idx, _ in sector_exp(0.7j * y, charge)) == space.dim


def _kernel_cases():
    from bateman.ft import generator_matrix
    from bateman.imagscale import bounded_frame, generator_z_matrix

    for n_max in (4, 8, 12, 24, 48):
        lad = build_ladder(n_max)
        for name, g in (("X", generator_matrix(lad)), ("Z", generator_z_matrix(lad))):
            for angle in (0.3, 0.3j):
                yield pytest.param(n_max, angle * g, lad.space.difference,
                                   id=f"{name}-{angle}-{n_max}")
    for n_max in (8, 24):
        frame = bounded_frame(1j * math.pi / 4, build_ladder(n_max))
        g = generator_matrix(frame.ladder)
        yield pytest.param(n_max, -0.4j * g, frame.charge, id=f"bounded-{n_max}")


@pytest.mark.parametrize("n_max,a,charge", list(_kernel_cases()))
def test_sector_reads_equal_the_full_exponential_bit_for_bit(n_max, a, charge):
    full = matrix_exp(a, charge)
    space = FockSpace(n_max)
    rng = np.random.default_rng(n_max)
    reads = [np.flatnonzero(space.total <= low_block(n_max) + 1),  # a similarity block
             np.array([space.index(0, 0), space.index(1, 0), space.index(2, 1)]),
             np.sort(rng.choice(space.dim, size=5, replace=False))]
    for states in reads:
        stacks = sector_exp(a, charge, states)
        # exactly the sectors that hold a state read
        read = np.concatenate([idx.ravel() for idx, _ in stacks])
        assert set(charge[read].tolist()) == set(charge[states].tolist())
        assert len(read) == np.isin(charge, charge[states]).sum()
        for idx, blocks in stacks:
            for rows, block in zip(idx, blocks):
                assert np.array_equal(block, dense(full, rows, rows))
        assert np.array_equal(exp_block(a, charge, states, states), dense(full, states, states))
        assert np.array_equal(exp_block(a, charge, cols=states), dense(full, cols=states))
        assert np.array_equal(exp_block(a, charge, rows=states), dense(full, rows=states))
    # every sector when nothing is named, and a real input stays real
    stacks = sector_exp(a, charge)
    assert sum(idx.size for idx, _ in stacks) == space.dim
    real = not any(w.imag.any() for w in a.diagonals.values())
    assert all(blocks.dtype == (float if real else complex) for _, blocks in stacks)


def test_sector_reads_reject_an_entry_outside_the_sectors_read(ladder8):
    from bateman.ft import generator_matrix

    space = ladder8.space
    # one entry from |3, 0> (n1 - n2 = 3) to |3, 1> (n1 - n2 = 2); the state read,
    # |0, 0>, lies in neither sector
    crossed = with_entries(generator_matrix(ladder8),
                           [(space.index(3, 0), space.index(3, 1), 0.5)])
    vacuum = np.array([space.index(0, 0)])
    with pytest.raises(DomainError, match="row label 3, column label 2"):
        sector_exp(0.3 * crossed, space.difference, vacuum)
    with pytest.raises(DomainError, match="row label 3, column label 2"):
        exp_block(0.3 * crossed, space.difference, vacuum, vacuum)
    with pytest.raises(DimensionMismatch):
        exp_block(0.3 * generator_matrix(ladder8), space.difference[:-1], vacuum, vacuum)


def test_matrix_exp_basics():
    assert np.allclose(dense(matrix_exp(Operator(4, {}), np.zeros(4))), np.eye(4))
    d = np.diag([0.3, -1.2, 2.0 + 0.5j])
    got = dense(matrix_exp(as_operator(d), np.arange(3)))
    assert np.allclose(got, np.diag(np.exp(np.diag(d))), atol=1e-14)
    with pytest.raises(DimensionMismatch):
        matrix_exp(Operator(2, {}), np.zeros(2)) @ Operator(3, {})


def test_matrix_exp_against_taylor():
    rng = np.random.default_rng(7)
    a = 0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    series = np.eye(6, dtype=complex)
    term = np.eye(6, dtype=complex)
    for j in range(1, 40):
        term = term @ a / j
        series = series + term
    assert np.max(np.abs(dense(matrix_exp(as_operator(a), np.zeros(6))) - series)) < 1e-12


def test_matrix_exp_matches_dense_expm(params):
    from bateman.ft import generator_matrix
    from bateman.imagscale import bounded_frame, generator_y_matrix, generator_z_matrix

    for n_max in (8, 24):
        lad = build_ladder(n_max)
        y = generator_y_matrix(lad.a2, lad.a2_dag)
        # a pattern from y + y.T would be empty
        assert np.array_equal(dense(y + y.T), 0 * dense(y))
        difference = lad.space.difference
        ops = {
            "X": (0.3 * generator_matrix(lad), difference),
            "Y": (0.7j * y, n1_and_n2_parity(lad.space)),
            "Z quarter": (1j * math.pi / 4 * generator_z_matrix(lad), difference),
            "H": (-0.4j * build_hamiltonian(lad, params.r).h, difference),
        }
        if n_max == 8:
            ops["Z"] = (0.25j * generator_z_matrix(lad), difference)
            check = bounded_frame(1j * math.pi / 4, lad)
            ops["H check"] = (-0.4j * build_hamiltonian(check.ladder, params.r).h, check.charge)
        for name, (a, charge) in ops.items():
            want = scipy.linalg.expm(dense(a))
            got = matrix_exp(a, charge)
            assert isinstance(got, Operator) and got.dtype == complex, (n_max, name)
            got = dense(got)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n_max, name)


def test_matrix_exp_squares_large_norm_blocks():
    from bateman.ft import generator_matrix

    for n_max in (8, 12):
        lad = build_ladder(n_max)
        a = 3.0 * generator_matrix(lad)
        # the largest sector block is past theta_13, so it is scaled and squared
        norm = np.abs(dense(a)).sum(axis=0).max()  # the largest column sum
        assert _pade_choice(norm)[1] >= 2
        want = scipy.linalg.expm(dense(a))
        got = dense(matrix_exp(a, lad.space.difference))
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
    charge = np.repeat(np.arange(7), 5)
    (idx, stack), = sector_exp(a, charge)
    assert idx.shape == (7, 5) and stack.shape == (7, 5, 5)
    got = dense(matrix_exp(a, charge))
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
        matrix_exp(as_operator(bad), np.zeros(3))
    # e^800 is past the largest double
    with pytest.raises(NumericalError, match="overflowed"):
        matrix_exp(as_operator(np.diag([800.0, 1.0])), np.zeros(2))
    # finite entries whose column sum overflows
    with pytest.raises(NumericalError, match="overflowed"):
        matrix_exp(as_operator(np.full((2, 2), 1e308)), np.zeros(2))


def test_exp_inverse_property(ladder8):
    from bateman.ft import generator_matrix

    x = generator_matrix(ladder8)
    charge = ladder8.space.difference
    prod = matrix_exp(0.3 * x, charge) @ matrix_exp(-0.3 * x, charge)
    assert max_abs(prod - identity(ladder8.space.dim)) < 1e-10


def test_hamiltonian_hermitian_and_commuting(ladder8, params):
    ham = build_hamiltonian(ladder8, params.r)
    assert max_abs(ham.h - ham.h.conj().T) == 0.0
    # H0 is diagonal and H1 normal ordered: they commute on the whole truncated space
    assert max_abs(commutator(ham.h0, ham.h1)) < 1e-13


def test_position_operators_hermitian(ladder8):
    x, y = position_operators(ladder8)
    assert max_abs(x - x.conj().T) < 1e-14
    assert max_abs(y - y.conj().T) < 1e-14


def test_intertwining_deviation_shape_guard(ladder8):
    from bateman.ft import generator_matrix

    # keep and the pairs agree, so only the generator of u is the wrong size
    pairs = [(ladder8.a1, ladder8.a1_dag)]
    keep = window_mask(ladder8.space, 2)
    for size in (ladder8.space.dim - 1, ladder8.space.dim + 1):
        with pytest.raises(DimensionMismatch):
            intertwining_deviation(Operator(size, {}), np.zeros(size, dtype=int), pairs, keep)
    g = generator_matrix(ladder8)
    with pytest.raises(DimensionMismatch):
        intertwining_deviation(g, ladder8.space.difference, pairs, keep[:-1])
    with pytest.raises(DimensionMismatch):
        intertwining_deviation(g, ladder8.space.difference, [(Operator(4, {}), Operator(4, {}))],
                               keep)


def _ascending_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right with every entry summing its terms in ascending inner index."""
    return np.add.reduce(left.T[:, :, None] * right[:, None, :], axis=0)


def _dense_route_deviation(generator, charge, pairs, keep) -> float:
    """intertwining_deviation by dense products over the reached states B1: the products
    u[B, B1] a[B1, B] and m[B, B1] u[B1, B], each read with `dense`."""
    mask, reach = keep.astype(float), keep.copy()
    for a, m in pairs:
        reach |= (abs(a) @ mask != 0) | (mask @ abs(m) != 0)
    block, near = np.flatnonzero(keep), np.flatnonzero(reach)
    u = exp_block(generator, charge, near, near)
    inner = keep[near]
    u_out, u_in = u[inner], u[:, inner]
    gap = np.max([np.abs(_ascending_product(u_out, dense(a, near, block))
                         - _ascending_product(dense(m, block, near), u_in)).max()
                  for a, m in pairs])
    return float(gap) / float(np.abs(u_out[:, inner]).max())


def _full_product_deviation(generator, charge, pairs, keep) -> float:
    """intertwining_deviation off the full Operator products u @ a and m @ u."""
    block = np.flatnonzero(keep)
    u = matrix_exp(generator, charge)
    gap = np.max([np.abs(dense(u @ a - m @ u, block, block)).max() for a, m in pairs])
    return float(gap) / float(np.abs(dense(u, block, block)).max())  # np.max keeps a NaN


def _intertwining_cases(n_max):
    """(generator, charge, pairs, keep) of the similarity checks at n_max: FT at 0.3 and
    -0.6, IS at 0.3i, and FT at 0.3 with a NaN in the plain a1 on the compared block."""
    from bateman.construction import transform
    from bateman.ft import FT, generator_matrix
    from bateman.imagscale import IS, generator_z_matrix

    lad = build_ladder(n_max)
    keep = window_mask(lad.space, low_block(n_max))
    names = ("ann1", "cre1", "ann2", "cre2")
    cases = []
    for con, g, angle in ((FT, generator_matrix(lad), 0.3), (FT, generator_matrix(lad), -0.6),
                          (IS, generator_z_matrix(lad), 0.3j)):
        plain, modes = transform(con, 0.0, lad), transform(con, angle, lad)
        cases.append((angle * g, lad.space.difference,
                      [(getattr(plain, n), getattr(modes, n)) for n in names], keep))
    (k, w), = lad.a1.diagonals.items()
    bent = dataclasses.replace(lad, a1=Operator(lad.space.dim, {k: np.where(
        np.arange(len(w)) == lad.space.index(0, 0), complex(math.nan), w)}))
    plain, modes = transform(FT, 0.0, bent), transform(FT, 0.3, lad)
    cases.append((0.3 * generator_matrix(lad), lad.space.difference,
                  [(getattr(plain, n), getattr(modes, n)) for n in names],
                  window_mask(lad.space, max(1, low_block(n_max)))))
    return cases


def _tilde_cases():
    from bateman.imagscale import TILDE_CHAIN_N_MAX, generator_y_matrix, tilde_pair

    rungs = np.arange(TILDE_CHAIN_N_MAX + 1)
    ann = single_mode_lowering(TILDE_CHAIN_N_MAX + 1)
    return [(phi * generator_y_matrix(ann, ann.T), rungs % 2,
             list(zip((ann, ann.T), tilde_pair(phi, ann, ann.T))),
             rungs <= low_block(TILDE_CHAIN_N_MAX)) for phi in (0.2j, 0.3j)]


@pytest.mark.parametrize("n_max", [8, 12, 24, 48, "tilde"])
def test_intertwining_block_equals_the_full_products(n_max):
    # the products read off the stored diagonals sum each entry in ascending state
    # index, as the dense products over the reached states and the Operator products
    # u @ a and m @ u do, so all three routes give the deviation bit for bit; a NaN
    # in a ladder entry on the block reaches it on every route
    cases = _tilde_cases() if n_max == "tilde" else _intertwining_cases(n_max)
    for case in cases:
        got = intertwining_deviation(*case)
        for want in (_dense_route_deviation(*case), _full_product_deviation(*case)):
            assert got.hex() == want.hex()
    if n_max != "tilde":
        assert math.isnan(got)