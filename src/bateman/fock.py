"""Truncated two-mode Fock space: ladder matrices, Hamiltonians, commutators.

Per-mode occupation is capped at n_max.  The flat index of |n1, n2> is
n1*(n_max+1) + n2.  Truncation spoils canonical commutators only on the
top rung n_max of each mode; `interior_deviation` compares off that rung,
where products of up to three ladders equal their infinite-space values.

Operators are `Operator`s: square matrices held as their stored diagonals,
{offset k: np.diagonal(dense, k)}.  A ladder shifts the flat index by one
fixed offset, n_max+1 for mode 1 and 1 for mode 2, weighted by sqrt of the
higher occupation, so it is a single diagonal; the generators, both
Hamiltonians and the mixed modes are sums of products of ladders and hold a
few.  Sums, products and matrix-vector products are loops over offsets with
numpy slices: no index arrays are stored, sorted or merged.  Every entry of a
product sums its terms in ascending offset of the left factor, and every
entry of a matrix-vector product in ascending offset, the column order in
which a CSR product sums them.  An operator also applies to a block of
column vectors, shape (n, k), in one pass per offset: each column gets the
same multiplies and adds, in the same order, as it would alone, so a block
product is bit for bit its columns' products.  A vector may stand on the
left (`v @ A`), a block may not.
State vectors and Gram matrices stay dense numpy arrays.  The one cubic
kernel, the exponential, runs on the sectors of a charge that the caller
declares, one label per state (`FockSpace` holds n1 - n2 and n1 + n2).
That kernel, `sector_exp`, checks that every nonzero entry lies inside one
sector, nothing is discovered from the pattern; it gathers the sectors of
each size into one dense (k, r, r) stack and makes one batched Padé scaling
and squaring per stack, so small blocks do not pay one LAPACK call (and one
BLAS thread start-up) each.  It exponentiates only the sectors that hold
the states a caller reads: `exp_block` reads a dense block of e^a from
them, `intertwining_deviation` the block around a low-occupation window,
and `matrix_exp` runs it over every sector.  numpy is the only numerical
dependency.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalError

__all__ = [
    "FockSpace",
    "Operator",
    "LadderSet",
    "HamiltonianSet",
    "identity",
    "from_coordinates",
    "dense",
    "single_mode_lowering",
    "build_ladder",
    "build_hamiltonian",
    "commutator",
    "max_abs",
    "interior_mask",
    "interior_deviation",
    "low_block",
    "window_mask",
    "intertwining_deviation",
    "sector_exp",
    "matrix_exp",
    "exp_block",
    "position_operators",
    "X_SCALE",
]

@dataclass(frozen=True)
class FockSpace:
    """Index bookkeeping for the (n_max+1)**2 dimensional product space."""

    n_max: int

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.n_max and 0 <= n2 <= self.n_max):
            raise DomainError(f"occupation ({n1}, {n2}) outside [0, {self.n_max}]")
        return n1 * (self.n_max + 1) + n2

    def occupations(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.n_max + 1)

    @cached_property
    def difference(self) -> np.ndarray:
        """n1 - n2 of every state: the charge of X, Z and every mixing of a1 with a2+."""
        return np.subtract(*np.divmod(np.arange(self.dim), self.n_max + 1))

    @cached_property
    def total(self) -> np.ndarray:
        """n1 + n2 of every state: the charge of every mixing of a1 with a2 (bounded frame)."""
        return np.add(*np.divmod(np.arange(self.dim), self.n_max + 1))


def _rows(k: int, n: int) -> tuple[int, int]:
    """First and one-past-last row of diagonal k of an n x n matrix."""
    return max(0, -k), n - max(0, k)


class Operator:
    """An n x n matrix held as its stored diagonals.

    diagonals maps each stored offset k, in ascending order, to the n - |k|
    entries (r, r + k) in ascending row r, as `np.diagonal(dense, k)` lists
    them; every offset not stored is zero.  The arrays are never written
    after construction, so operators share them (the transpose does).
    Supported: `@` with an operator or a vector on either side or a block of
    columns on the right, `+`, `-`, scalar `*` and `/`, `.T`, `.conj()` and
    `abs()`.
    """

    __slots__ = ("shape", "diagonals")
    ndim = 2
    __array_ufunc__ = None  # numpy hands `vector @ op` and `scalar * op` to this class

    def __init__(self, n: int, diagonals: dict[int, np.ndarray]):
        self.shape = (n, n)
        self.diagonals = diagonals

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*self.diagonals.values()) if self.diagonals else np.dtype(complex)

    def _map(self, fn) -> Operator:
        return Operator(self.shape[0], {k: fn(w) for k, w in self.diagonals.items()})

    def _same_shape(self, other: Operator) -> int:
        if other.shape != self.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return self.shape[0]

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        n = self._same_shape(other)
        out = dict(self.diagonals)
        for k, w in other.diagonals.items():
            out[k] = w if k not in out else out[k] + w
        return Operator(n, dict(sorted(out.items())))

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        n = self._same_shape(other)
        out = dict(self.diagonals)
        for k, w in other.diagonals.items():
            out[k] = -w if k not in out else out[k] - w
        return Operator(n, dict(sorted(out.items())))

    def __neg__(self) -> Operator:
        return self._map(np.negative)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._map(lambda w: w * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self * (1 / scalar)  # as a CSR array divides: one reciprocal, then multiplies

    def __abs__(self) -> Operator:
        return self._map(np.abs)

    def conj(self) -> Operator:
        return self._map(np.conj)

    @property
    def T(self) -> Operator:
        # diagonal -k of the transpose lists the entries of diagonal k in the same order
        return Operator(self.shape[0], {-k: w for k, w in reversed(self.diagonals.items())})

    def __matmul__(self, other):
        if isinstance(other, Operator):
            return self._product(other)
        return self._apply(np.asarray(other))

    def __rmatmul__(self, other):
        # v @ A = A^T v: ascending offsets of A^T sum each entry in ascending row of A
        other = np.asarray(other)
        if other.ndim != 1:
            raise DimensionMismatch(f"cannot apply shape {other.shape} to a {self.shape} operator "
                                    f"from the left; only a vector can stand there")
        return self.T._apply(other)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """self @ x for a vector x of shape (n,) or a block of columns of shape (n, k)."""
        n = self.shape[0]
        if x.shape[:1] != (n,) or x.ndim > 2:
            raise DimensionMismatch(f"cannot apply a {self.shape} operator to shape {x.shape}")
        out = np.zeros(x.shape, dtype=np.result_type(x, *self.diagonals.values()))
        for k, w in self.diagonals.items():
            lo, hi = _rows(k, n)
            out[lo:hi] += (w if x.ndim == 1 else w[:, None]) * x[lo + k:hi + k]
        return out

    def _product(self, other: Operator) -> Operator:
        """self @ other, one slice product per pair of offsets (i, k), on the rows they share.

        Diagonal i + k of the product gathers the terms of every such pair;
        the left offsets run in ascending order, so each entry sums them in
        ascending i.
        """
        n = self._same_shape(other)
        if not (self.diagonals and other.diagonals):
            return Operator(n, {})
        dtype = np.result_type(*self.diagonals.values(), *other.diagonals.values())
        sums: dict[int, np.ndarray] = {}
        for i, w in self.diagonals.items():
            first_i = max(0, -i)
            for k, v in other.diagonals.items():
                m = i + k
                lo, hi = max(first_i, -m), min(n - max(0, i), n - m)
                if lo >= hi:
                    continue
                if m not in sums:
                    sums[m] = np.zeros(n - abs(m), dtype=dtype)
                first_k, first_m = max(0, -k), max(0, -m)
                sums[m][lo - first_m:hi - first_m] += (
                    w[lo - first_i:hi - first_i] * v[lo + i - first_k:hi + i - first_k])
        return Operator(n, dict(sorted(sums.items())))


def identity(n: int) -> Operator:
    return Operator(n, {0: np.ones(n, dtype=complex)})


def from_coordinates(rows, cols, values, n: int) -> Operator:
    """The n x n operator with values[j] at (rows[j], cols[j]); coordinates must not repeat."""
    rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values)
    shift = cols - rows + n - 1  # offset k at shift k + n - 1, so no sort is needed
    stored = np.zeros(2 * n - 1, dtype=bool)
    stored[shift] = True
    offsets = np.flatnonzero(stored) - (n - 1)
    full = np.zeros((len(offsets), n), dtype=values.dtype)  # row r of diagonal k at [., r]
    full[(np.cumsum(stored) - 1)[shift], rows] = values
    return Operator(n, {k: full[j, slice(*_rows(k, n))]
                        for j, k in enumerate(offsets.tolist())})


def dense(a: Operator, rows=None, cols=None) -> np.ndarray:
    """a[np.ix_(rows, cols)] as a dense array.

    rows and cols are index arrays without repeats or boolean masks; None takes them all.
    """
    n = a.shape[0]
    everything = np.arange(n)
    rows = everything if rows is None else everything[rows]
    cols = everything if cols is None else everything[cols]
    where = np.full(n, -1)
    where[cols] = np.arange(len(cols))
    out = np.zeros((len(rows), len(cols)), dtype=a.dtype)
    if not (len(rows) and len(cols)):
        return out
    reach = (int(cols.min() - rows.max()), int(cols.max() - rows.min()))
    for k, w in a.diagonals.items():
        if not reach[0] <= k <= reach[1]:  # the diagonal misses the block
            continue
        lo, hi = _rows(k, n)
        i = np.flatnonzero((rows >= lo) & (rows < hi))
        i = i[where[rows[i] + k] >= 0]
        out[i, where[rows[i] + k]] = w[rows[i] - lo]
    return out


@dataclass(frozen=True)
class LadderSet:
    """Annihilation/creation operators for both modes, one diagonal each."""

    space: FockSpace
    a1: Operator
    a1_dag: Operator
    a2: Operator
    a2_dag: Operator


@dataclass(frozen=True)
class HamiltonianSet:
    """h0 (oscillator part), h1 (damping coupling) and their sum, in units of hbar omega."""

    h0: Operator
    h1: Operator
    h: Operator


def single_mode_lowering(size: int) -> Operator:
    """Lowering operator of one mode truncated to occupations 0 .. size-1."""
    return Operator(size, {1: np.sqrt(np.arange(1.0, size)).astype(complex)})


def build_ladder(n_max: int) -> LadderSet:
    """Both modes' ladders as shifts of the flat index; requires n_max >= 2.

    a1 moves |n1, n2> by the stride n_max+1 and a2 by 1, each weighted by
    sqrt of the higher occupation of the pair (0 where a2 would carry n2 past
    n_max into the next n1).  The creators carry the conjugated weights
    (imaginary part -0.0), so every operator is bit for bit the Kronecker
    product of `single_mode_lowering` with the identity and its conjugate
    transpose.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    size = n_max + 1
    dim = size * size
    n1, n2 = np.divmod(np.arange(dim), size)
    up2 = np.where(n2 < n_max, np.sqrt(n2 + 1.0), 0.0)
    return LadderSet(
        space=FockSpace(n_max),
        a1=Operator(dim, {size: np.sqrt(n1[:-size] + 1.0).astype(complex)}),
        a1_dag=Operator(dim, {-size: np.sqrt(n1[size:]).astype(complex).conj()}),
        a2=Operator(dim, {1: up2[:-1].astype(complex)}),
        a2_dag=Operator(dim, {-1: up2[:-1].astype(complex).conj()}),
    )


def build_hamiltonian(ladder: LadderSet, r: float) -> HamiltonianSet:
    """H / hbar omega = (n1 - n2) + i r (a1 a2 - a1+ a2+), with r = lambda / omega."""
    h0 = ladder.a1_dag @ ladder.a1 - ladder.a2_dag @ ladder.a2
    h1 = 1j * r * (ladder.a1 @ ladder.a2 - ladder.a1_dag @ ladder.a2_dag)
    return HamiltonianSet(h0=h0, h1=h1, h=h0 + h1)


def commutator(a, b):
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def max_abs(x) -> float:
    """Largest entry modulus of a numpy array or an Operator (entries not stored count as 0)."""
    if isinstance(x, Operator):
        return float(np.max([np.abs(w).max() for w in x.diagonals.values()], initial=0.0))
    return float(np.abs(x).max())


def _masked_max_abs(a: Operator, keep: np.ndarray) -> float:
    """Largest entry modulus of a over the rows and columns that the boolean mask keeps."""
    n = a.shape[0]
    peaks = []
    for k, w in a.diagonals.items():
        lo, hi = _rows(k, n)
        inside = keep[lo:hi] & keep[lo + k:hi + k]
        if inside.any():
            peaks.append(np.abs(w[inside]).max())
    return float(np.max(peaks, initial=0.0))


def interior_mask(space: FockSpace, margin: int) -> np.ndarray:
    """Boolean mask selecting basis states with occupations n_i <= n_max - margin."""
    if margin < 0 or margin > space.n_max:
        raise DomainError(f"margin must lie in [0, {space.n_max}], got {margin}")
    low = np.arange(space.n_max + 1) <= space.n_max - margin
    return np.logical_and.outer(low, low).ravel()


def interior_deviation(a: Operator, b: Operator, space: FockSpace) -> float:
    """max |a - b| entrywise off the top rung of each mode, on both sides.

    A truncated product of ladders differs from its infinite-space value only
    in the terms that pass through occupation n_max + 1.  From a state below
    the top rung that takes two raising steps, so a product of at most three
    ladders (a commutator of mixed modes, [op, H]) can come back no lower
    than n_max: dropping exactly the top rung (`interior_mask(space, 1)`)
    leaves the entries where the identity holds, and no more is dropped.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return _masked_max_abs(a - b, interior_mask(space, 1))


def low_block(n_max: int) -> int:
    """Largest total occupation on which a truncated exponential is compared.

    The products read e^{angle G} one rung past the block, and the truncated
    exponential matches the untruncated one only a few spreading lengths below
    n_max, so the block shrinks with the resolution: 6 from n_max 20 up, 0 at
    n_max 9 and below.
    """
    return min(6, max(0, (n_max - 8) // 2))


def window_mask(space: FockSpace, cap: int) -> np.ndarray:
    """Boolean mask selecting basis states with total occupation n1+n2 <= cap.

    Exponential-map comparisons need this instead of the interior: the truncated
    e^{theta X} carries exponentially large weight near the top corner, so
    agreement with closed forms holds on a fixed low-occupation block that
    stays put while n_max grows.
    """
    if cap < 0:
        raise DomainError(f"window cap must be >= 0, got {cap}")
    return space.total <= cap


def intertwining_deviation(generator: Operator, charge: np.ndarray, pairs,
                           keep: np.ndarray) -> float:
    """max |u a - m u| over (a, m) in pairs on the kept block B, over max |u| on B.

    u = e^generator, whose sectors are those of charge; keep masks the states
    B.  u a and m u on B read u only between B and the states B1 that an a or
    m joins to B (B included), so only the sectors that B1 reaches are
    exponentiated (`exp_block`).  Each stored diagonal of a or m adds one term
    to every entry (`_landings`): a column of u[B, B1] times its weight to u a,
    its weight times a row of u[B1, B] to m u.  The terms come in ascending
    state index, the order of a dense product over B1, which adds only exact
    zeros between them, so the products keep the dense products' bits.
    """
    pairs = list(pairs)
    shape = generator.shape
    if len(keep) != shape[0]:
        raise DimensionMismatch(f"{len(keep)} kept-state labels for a {shape} generator")
    mask, reach = keep.astype(float), keep.copy()
    for a, m in pairs:
        if a.shape != shape or m.shape != shape:
            raise DimensionMismatch(f"pair {a.shape}, {m.shape} for a {shape} generator")
        reach |= (abs(a) @ mask != 0) | (mask @ abs(m) != 0)  # != 0 keeps a NaN's state
    block, near = np.flatnonzero(keep), np.flatnonzero(reach)
    u = exp_block(generator, charge, near, near)
    inner = keep[near]
    at = np.full(3 * shape[0], -1)  # at[n + s] places state s in B1, -1 off it or off 0..n-1
    at[shape[0] + near] = np.arange(len(near))
    u_out, u_in = u[inner], u[:, inner]  # u[B, B1], u[B1, B]
    gaps = []
    for a, m in pairs:
        ua, mu = np.zeros((2, len(block), len(block)), dtype=np.result_type(u, a.dtype, m.dtype))
        for j, l, w in _landings(a.T, block, at):  # a[l, j] = a.T[j, l]
            ua[:, j] += u_out[:, l] * w
        for i, l, w in _landings(m, block, at):
            mu[i] += w[:, None] * u_in[l]
        gaps.append(np.abs(ua - mu).max())
    return float(np.max(gaps)) / float(np.abs(u_out[:, inner]).max())  # np.max keeps a NaN


def _landings(op: Operator, block: np.ndarray, at: np.ndarray):
    """(j, l, w) per stored diagonal of op, ascending: op[block[j], s] = w for the states s
    at l = at[n + s] >= 0; -1 marks a state that op joins to B only by exact zeros."""
    n = op.shape[0]
    for k, w in op.diagonals.items():
        if not w.any():  # a diagonal of exact zeros adds exact zeros
            continue
        l = at[block + (n + k)]
        j = np.flatnonzero(l >= 0)
        yield j, l[j], w[block[j] - max(0, -k)]


#: Padé degree m -> largest 1-norm at which the [m/m] approximant of e^A is exact to double
#: precision in backward error (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}


def _pade_rows(m: int) -> np.ndarray:
    """Coefficients of the [m/m] approximant's U/A (row 0) and V (row 1) on I, A^2, A^4, ...

    The coefficients are b_j = (2m-j)! / (j! (m-j)!), Higham's times the
    common factor (2m)!/m!, which cancels in V^-1 U.  Degree 13 evaluates on
    I, A^2, A^4, A^6 only, as U/A = A^6 row 2 + row 0 and V = A^6 row 3 +
    row 1, so it gets four rows.
    """
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]], dtype=float)
    return np.array([b[1:8:2], b[0:7:2], [0, *b[9::2]], [0, *b[8::2]]], dtype=float)


_PADE_ROWS = {m: _pade_rows(m) for m in _PADE_THETA}


def _polynomials(rows: np.ndarray, powers: list[np.ndarray]) -> np.ndarray:
    """Every row applied to (I, A^2, A^4, ...), as one (len(rows), k, n, n) array.

    The terms are summed from the highest power down, as Higham writes them.
    """
    coeff = rows[:, :, None, None, None]
    out = coeff[:, -1] * powers[-1]
    for j in range(len(powers) - 1, 0, -1):
        out += coeff[:, j] * powers[j - 1]
    out.reshape(*out.shape[:2], -1)[..., ::out.shape[-1] + 1] += rows[:, :1, None]
    return out


def _pade_exp(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """e^a for a (k, n, n) stack: the [m/m] Padé approximant of a / 2^s, squared s times."""
    if s:
        a = a * 2.0 ** -s
    rows = _PADE_ROWS[m].astype(a.dtype)  # a stack times rows of its own dtype needs no cast
    powers = [a @ a]  # A^2, A^4, ...
    while len(powers) < rows.shape[1] - 1:
        powers.append(powers[-1] @ powers[0])
    terms = _polynomials(rows, powers)
    u_in, v = powers[2] @ terms[2:] + terms[:2] if m == 13 else terms
    u = a @ u_in
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _pade_choice(norm: float) -> tuple[int, int]:
    """(m, s) for a matrix of 1-norm norm (Higham 2005, Algorithm 2.3).

    The lowest degree m whose theta bounds the norm, with s = 0; past
    theta_13, degree 13 and the fewest halvings s that bring it under.
    """
    for m, theta in _PADE_THETA.items():
        if norm <= theta:
            return m, 0
    if not math.isfinite(norm):
        raise NumericalError("matrix_exp overflowed; argument norm too large")
    return 13, math.ceil(math.log2(norm / _PADE_THETA[13]))


def _stack_exp(a: np.ndarray) -> np.ndarray:
    """e^a for a (k, n, n) stack by scaling and squaring, degree and scaling per matrix.

    When the smallest and the largest 1-norm in the stack get the same
    (m, s), as the equal-norm blocks of one sector pair do, the stack runs
    at once; otherwise each run of equal (m, s) in 1-norm order does.
    """
    norm = np.abs(a).sum(axis=1).max(axis=1)
    choice = _pade_choice(norm.min())
    if choice == _pade_choice(norm.max()):
        return _pade_exp(a, *choice)
    order = np.argsort(norm, kind="stable")
    choices = [_pade_choice(x) for x in norm[order].tolist()]
    out = np.empty_like(a)
    start = 0
    for choice, run in itertools.groupby(choices):
        mine = order[start:start + len(list(run))]
        out[mine] = _pade_exp(a[mine], *choice)
        start += len(mine)
    return out


def _check_charge(a: Operator, charge: np.ndarray) -> None:
    if len(charge) != a.shape[0]:
        raise DimensionMismatch(f"{len(charge)} charge labels for a {a.shape} operator")


def sector_exp(a: Operator, charge: np.ndarray, states=None
               ) -> list[tuple[np.ndarray, np.ndarray]]:
    """e^a on the sectors of charge that hold one of states (every sector for None).

    a must join only states of equal charge: every nonzero entry is checked,
    those outside the sectors read too, so e^a is the direct sum of the
    exponentials of its sectors and exactly 0 between them.  The sectors read
    are ordered by size, then by charge, and one pass over the stored
    diagonals scatters their entries into one buffer, of which each size's
    (k, r, r) stack is a view; each stack is exponentiated at once
    (`_stack_exp`), with finiteness guards on input and output.  One
    (indices, blocks) pair per size, ascending: indices is (k, r), with the
    sectors in ascending charge and each sector's states ascending, and
    blocks[j] is e^a on np.ix_(indices[j], indices[j]).  A real a (every
    imaginary part 0) runs in real arithmetic and gives real blocks.  Each
    block is computed from its own sector alone, so it is bit for bit the
    same whichever other sectors are read with it.
    """
    _check_charge(a, charge)
    n = a.shape[0]
    diagonals = a.diagonals.items()
    if not all(np.isfinite(w).all() for _, w in diagonals):
        raise NumericalError("matrix_exp input contains non-finite entries")
    real = not any(np.imag(w).any() for _, w in diagonals)
    _, sector, count = np.unique(charge, return_inverse=True, return_counts=True)
    members = np.argsort(sector, kind="stable")  # sector by sector, ascending state in each
    ends = np.cumsum(count)
    read = np.zeros(len(count), dtype=bool)
    read[sector if states is None else sector[states]] = True
    group = np.flatnonzero(read)
    group = group[np.argsort(count[group], kind="stable")]
    size = count[group]
    start = np.cumsum(size * size) - size * size  # of each sector's block in the buffer
    # entry (r, c) of a sector read lands at row_at[r] + local[c]
    local = np.empty(n, dtype=np.intp)
    local[members] = np.arange(n) - np.repeat(ends - count, count)
    block_at = np.zeros(len(count), dtype=np.intp)
    block_at[group] = start
    row_at = block_at[sector] + local * count[sector]
    buffer = np.zeros(int((size * size).sum()), dtype=float if real else complex)
    crossing = []
    for k, w in diagonals:
        hit = np.flatnonzero(w)  # a stored 0 may join two charges
        rows = hit + max(0, -k)
        cols = rows + k
        off = np.flatnonzero(charge[rows] != charge[cols])
        if off.size:
            crossing.append((rows[off], cols[off]))
        elif not crossing:
            keep = read[sector[rows]]
            buffer[row_at[rows[keep]] + local[cols[keep]]] = (w.real if real else w)[hit[keep]]
    if crossing:
        r, c = (int(side[0]) for side in crossing[0])
        raise DomainError(f"{sum(len(rows) for rows, _ in crossing)} entries lie outside the "
                          f"declared sectors, first ({r}, {c}): row label {charge[r]}, column "
                          f"label {charge[c]}")
    firsts = np.flatnonzero(np.diff(size, prepend=0)).tolist()
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        for j, stop in zip(firsts, firsts[1:] + [len(group)]):
            r = int(size[j])
            idx = members[(ends[group[j:stop]] - r)[:, None] + np.arange(r)]
            blocks = _stack_exp(buffer[start[j]:start[j] + (stop - j) * r * r].reshape(-1, r, r))
            if not np.all(np.isfinite(blocks)):
                raise NumericalError("matrix_exp overflowed; argument norm too large")
            out.append((idx, blocks))
    return out


def matrix_exp(a: Operator, charge: np.ndarray) -> Operator:
    """e^a as a complex Operator: every sector of `sector_exp`, scattered."""
    rows, cols, values = [], [], []
    for idx, blocks in sector_exp(a, charge):
        size = idx.shape[1]
        rows.append(np.repeat(idx, size, axis=1).ravel())
        cols.append(np.repeat(idx[:, None, :], size, axis=1).ravel())
        values.append(blocks.ravel())
    return from_coordinates(np.concatenate(rows), np.concatenate(cols),
                            np.concatenate(values).astype(complex), a.shape[0])


def exp_block(a: Operator, charge: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """e^a[np.ix_(rows, cols)] as a dense complex array, as `dense` reads an Operator.

    rows and cols are index arrays without repeats; None takes them all.
    e^a is 0 between sectors, so only the sectors of charges that rows and
    cols share are exponentiated (`sector_exp`).
    """
    _check_charge(a, charge)
    n = a.shape[0]
    everything = np.arange(n)
    rows = everything if rows is None else everything[rows]
    cols = everything if cols is None else everything[cols]
    shared = rows[np.isin(charge[rows], charge[cols])]
    row_at, col_at = np.full(n, -1), np.full(n, -1)
    row_at[rows], col_at[cols] = np.arange(len(rows)), np.arange(len(cols))
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for idx, blocks in sector_exp(a, charge, shared):
        r, c = row_at[idx][:, :, None], col_at[idx][:, None, :]
        hit = (r >= 0) & (c >= 0)
        out[np.broadcast_to(r, hit.shape)[hit], np.broadcast_to(c, hit.shape)[hit]] = blocks[hit]
    return out


#: x_i = sqrt(1/2) (a_i + a_i+) in units of the oscillator length sqrt(hbar / m omega)
X_SCALE = math.sqrt(0.5)


def position_operators(ladder: LadderSet) -> tuple[Operator, Operator]:
    """(x, y) in units of sqrt(hbar / m omega), from the pair x, y = (x1 +- x2)/sqrt2."""
    x1 = X_SCALE * (ladder.a1 + ladder.a1_dag)
    x2 = X_SCALE * (ladder.a2 + ladder.a2_dag)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * (x1 + x2), inv_sqrt2 * (x1 - x2)
