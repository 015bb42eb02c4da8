"""The offset-diagonal operators equal, entry for entry, the dense np.kron formulas.

Every operator below has at most one nonzero term per entry in each product
and each sum (or sums the same terms in the same order), so the operator
and the dense reference must agree exactly, not within a tolerance.  The
ladder itself is also compared, entry for entry and byte for byte, with the
scipy.sparse Kronecker construction of the same ladder.  The operator
algebra itself is checked against dense numpy on random operators whose
entries are small integers, where every sum is exact.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bateman.construction import transform
from bateman.errors import DimensionMismatch
from bateman.fock import (
    Operator,
    build_hamiltonian,
    build_ladder,
    dense,
    from_coordinates,
    identity,
    interior_deviation,
    single_mode_lowering,
)
from bateman.ft import FT, generator_matrix
from bateman.imagscale import IS, bounded_frame, generator_y_matrix, generator_z_matrix

N_MAXES = pytest.mark.parametrize("n_max", [2, 5, 8])


def dense_ladder(n_max: int) -> dict[str, np.ndarray]:
    """Reference: the single-mode ladder tensored with np.kron."""
    size = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, size)), k=1).astype(complex)
    eye = np.eye(size, dtype=complex)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    return {"a1": a1, "a1_dag": a1.conj().T, "a2": a2, "a2_dag": a2.conj().T}


def assert_csr_equal(got, want: np.ndarray) -> None:
    assert isinstance(got, Operator)
    assert np.array_equal(dense(got), want)


@N_MAXES
def test_ladder_matches_kron(n_max):
    lad = build_ladder(n_max)
    for name, want in dense_ladder(n_max).items():
        assert_csr_equal(getattr(lad, name), want)


def kron_ladder(n_max: int) -> dict[str, sp.csr_array]:
    """Reference: the single-mode CSR ladder tensored with sp.kron, creators by conj().T."""
    size = n_max + 1
    a = sp.diags_array(np.sqrt(np.arange(1.0, size)), offsets=1, shape=(size, size),
                       dtype=complex, format="csr")
    assert np.array_equal(dense(single_mode_lowering(size)), a.toarray())
    eye = sp.eye_array(size, dtype=complex, format="csr")
    a1 = sp.kron(a, eye, format="csr")
    a2 = sp.kron(eye, a, format="csr")
    return {"a1": a1, "a1_dag": a1.conj().T.tocsr(), "a2": a2, "a2_dag": a2.conj().T.tocsr()}


@pytest.mark.parametrize("n_max", range(2, 25))
def test_direct_ladder_matches_sparse_kron(n_max):
    lad = build_ladder(n_max)
    for name, want in kron_ladder(n_max).items():
        got = getattr(lad, name)
        assert isinstance(got, Operator) and got.shape == want.shape
        full = dense(got)
        rows, cols = np.nonzero(full)  # the row-major order of the CSR reference
        want = want.tocoo()
        assert np.array_equal(rows, want.row), name
        assert np.array_equal(cols, want.col), name
        # bytes, not values: the creators' -0.0 imaginary parts must match too
        assert full.dtype == want.data.dtype, name
        assert full[rows, cols].tobytes() == want.data.tobytes(), name


@pytest.mark.parametrize("n_max", [2, 8, 24])
def test_direct_ladder_commutators_are_identity_inside(n_max):
    lad = build_ladder(n_max)
    eye = identity(lad.space.dim)
    for ann, cre in ((lad.a1, lad.a1_dag), (lad.a2, lad.a2_dag)):
        # sqrt(n+1)^2 - sqrt(n)^2 is 1 up to rounding, the tolerance of the interior check
        assert interior_deviation(ann @ cre - cre @ ann, eye, lad.space) <= 1e-12


@N_MAXES
def test_hamiltonian_matches_kron(n_max, params):
    d = dense_ladder(n_max)
    # H / hbar omega
    h0 = d["a1_dag"] @ d["a1"] - d["a2_dag"] @ d["a2"]
    h1 = 1j * params.r * (d["a1"] @ d["a2"] - d["a1_dag"] @ d["a2_dag"])
    ham = build_hamiltonian(build_ladder(n_max), params.r)
    assert_csr_equal(ham.h0, h0)
    assert_csr_equal(ham.h1, h1)
    assert_csr_equal(ham.h, h0 + h1)


@N_MAXES
def test_generators_match_kron(n_max):
    d = dense_ladder(n_max)
    lad = build_ladder(n_max)
    x = d["a1"] @ d["a2"] + d["a1_dag"] @ d["a2_dag"]
    assert_csr_equal(generator_matrix(lad), x)
    assert_csr_equal(generator_y_matrix(lad.a2, lad.a2_dag),
                     -0.5j * (d["a2"] @ d["a2"] - d["a2_dag"] @ d["a2_dag"]))
    assert_csr_equal(generator_z_matrix(lad), -1j * x)


@N_MAXES
@pytest.mark.parametrize("con,angle", [
    (FT, 0.3), (FT, math.pi / 4), (FT, -math.pi / 4),
    (IS, 0.2j), (IS, 1j * math.pi / 4), (IS, -1j * math.pi / 4),
], ids=["ft-0.3", "ft-quarter", "ft-minus-quarter", "is-0.2i", "is-quarter", "is-minus-quarter"])
def test_transform_matches_kron(n_max, con, angle):
    # reference: the mixing rows applied to the dense ladder, as transform did on dense arrays
    d = dense_ladder(n_max)
    (m1, m2), (p1, p2) = con.mixing(complex(angle))
    second = m2[0] * d["a1"] + m2[1] * d["a2_dag"]
    partner = p2[0] * d["a1_dag"] + p2[1] * d["a2"]
    ann2, cre2 = (second, partner) if con.second_annihilates else (partner, second)
    modes = transform(con, angle, build_ladder(n_max))
    assert_csr_equal(modes.ann1, m1[0] * d["a1"] + m1[1] * d["a2_dag"])
    assert_csr_equal(modes.cre1, p1[0] * d["a1_dag"] + p1[1] * d["a2"])
    assert_csr_equal(modes.ann2, ann2)
    assert_csr_equal(modes.cre2, cre2)


@N_MAXES
@pytest.mark.parametrize("chi", [0.2j, 1j * math.pi / 4, -1j * math.pi / 4])
def test_check_rep_matches_kron(n_max, chi, params):
    d = dense_ladder(n_max)
    b1, b1d, b2, b2d = d["a1"], d["a1_dag"], d["a2"], d["a2_dag"]
    ch, sh = cmath.cosh(chi), cmath.sinh(chi)
    h0 = b1d @ b1 + b2 @ b2d  # H / hbar omega
    h1 = -params.r * (b1 @ b2d - b1d @ b2)
    rep = bounded_frame(chi, build_ladder(n_max))
    ham = build_hamiltonian(rep.ladder, params.r)
    assert_csr_equal(rep.ann1, ch * b1 - sh * b2)
    assert_csr_equal(rep.cre1, ch * b1d + sh * b2d)
    assert_csr_equal(rep.ann2, -sh * b1 + ch * b2)
    assert_csr_equal(rep.cre2, sh * b1d + ch * b2d)
    assert_csr_equal(ham.h0, h0)
    assert_csr_equal(ham.h1, h1)
    assert_csr_equal(ham.h, h0 + h1)


def random_operator(rng, n: int) -> Operator:
    """Random n x n operator with small-integer complex entries on random diagonals.

    Some stored entries are zero, as on a ladder's diagonal, so stored zeros
    are exercised too.
    """
    stored = [k for k in range(1 - n, n) if rng.random() < 0.5]
    return Operator(n, {k: (rng.integers(-3, 4, n - abs(k))
                            + 1j * rng.integers(-3, 4, n - abs(k))) for k in stored})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_operator_algebra_matches_dense(n, seed):
    # integer entries keep every sum exact, so each result must equal numpy's
    rng = np.random.default_rng(seed)
    a, b = random_operator(rng, n), random_operator(rng, n)
    da, db = dense(a), dense(b)
    v = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)
    assert np.array_equal(dense(a @ b), da @ db)
    assert np.array_equal(a @ v, da @ v)
    assert np.array_equal(v @ a, v @ da)
    assert np.array_equal(dense(a + b), da + db)
    assert np.array_equal(dense(a - b), da - db)
    assert np.array_equal(dense(-a), -da)
    assert np.array_equal(dense(2j * a), 2j * da) and np.array_equal(dense(a / 2), da / 2)
    assert np.array_equal(dense(a.T), da.T) and np.array_equal(dense(a.conj()), da.conj())
    assert np.array_equal(dense(abs(a)), np.abs(da))
    rows = rng.random(n) < 0.5                   # a mask
    cols = rng.permutation(n)[:rng.integers(0, n + 1)]  # indices in any order
    assert np.array_equal(dense(a, rows, cols), da[np.ix_(rows, cols)])
    assert np.array_equal(dense(a, cols=cols), da[:, cols])
    r, c = np.nonzero(da)
    assert np.array_equal(dense(from_coordinates(r, c, da[r, c], n)), da)
    with pytest.raises(DimensionMismatch):
        a @ Operator(n + 1, {})
    with pytest.raises(DimensionMismatch):
        a @ np.zeros(n + 1)
    # a block of columns on the right: each column as the vector product makes it
    k = int(rng.integers(0, 4))
    block = rng.integers(-3, 4, (n, k)) + 1j * rng.integers(-3, 4, (n, k))
    assert np.array_equal(a @ block, da @ block)
    floats = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    columns = np.array([a @ floats[:, j] for j in range(k)]).T.reshape(n, k)
    assert (a @ floats).tobytes() == columns.tobytes()
    with pytest.raises(DimensionMismatch):
        block.T @ a  # only a vector may stand on the left; this is not read as A^T X
    with pytest.raises(DimensionMismatch):
        a @ np.zeros((n + 1, 2))
    with pytest.raises(DimensionMismatch):
        a @ np.zeros((n, 2, 2))
