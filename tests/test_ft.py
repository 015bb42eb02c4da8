"""First mixing route: real-angle mixing, its eigenbasis, norms, dynamics."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bateman.construction import (
    basis,
    eigenvalue,
    gram,
    hamiltonian_formal,
    hamiltonian_from_plain,
    heisenberg_rate,
    identity_report,
    normalize_branch,
    plain_in_modes,
    similarity_deviation,
    transform,
    xy_operators,
)
from bateman.errors import DomainError, FitError, NumericalError, SeriesDivergence
from bateman.fock import FockSpace, build_ladder, dense, max_abs, position_operators
from bateman.ft import (
    FIT_THETA_GRID,
    FT,
    TREND_THETA_GRID,
    _chain_exp,
    _chain_standard_norms,
    _logaddexp,
    ft_basis_similarity,
    ft_norm_exponent_fit,
    ft_standard_norm,
    ft_vacuum_series,
    generator_matrix,
)



# --- transform ---------------------------------------------------------------

def test_transform_identity_at_zero(ladder8):
    ft = transform(FT, 0.0, ladder8)
    assert np.array_equal(dense(ft.ann1), dense(ladder8.a1))
    assert np.array_equal(dense(ft.cre2), dense(ladder8.a2_dag))


def test_transform_quarter_turn(ladder8):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    ft = transform(FT, math.pi / 4, ladder8)
    assert np.array_equal(dense(ft.ann1), dense(c * ladder8.a1 - s * ladder8.a2_dag))
    assert np.array_equal(dense(ft.cre1), dense(c * ladder8.a1_dag + s * ladder8.a2))
    assert np.array_equal(dense(ft.ann2), dense(c * ladder8.a2 - s * ladder8.a1_dag))
    assert np.array_equal(dense(ft.cre2), dense(c * ladder8.a2_dag + s * ladder8.a1))


def test_transform_rejects_nonfinite(ladder8):
    with pytest.raises(DomainError):
        transform(FT, float("nan"), ladder8)


def test_generator_matrix(ladder8):
    want = ladder8.a1 @ ladder8.a2 + ladder8.a1_dag @ ladder8.a2_dag
    assert np.array_equal(dense(generator_matrix(ladder8)), dense(want))


def test_similarity_on_low_window():
    # margin-style comparison diverges with n_max for this similarity;
    # the low-occupation window is the convergent statement
    lad = build_ladder(24)
    for theta in (0.1, 0.3):
        assert similarity_deviation(FT, transform(FT, theta, lad), generator_matrix(lad)) <= 1e-10


# --- eigenvalues -------------------------------------------------------------

def test_eigenvalue_examples(params):
    assert (eigenvalue(FT, 0, 0, "+").p, eigenvalue(FT, 0, 0, "+").q) == (0, 1)
    assert (eigenvalue(FT, 0, 0, "-").p, eigenvalue(FT, 0, 0, "-").q) == (0, -1)
    e = eigenvalue(FT, 2, 1, "+")
    assert (e.p, e.q) == (1, 4)
    assert e.as_complex(params) == 1.0 + 2.0j


def test_formal_two_routes_agree():
    for branch in ("+", "-"):
        assert hamiltonian_formal(FT, branch) == hamiltonian_from_plain(FT, branch)


def test_plain_in_bars_inverts():
    # substituting the bar expansion back must reproduce the plain symbols
    d = plain_in_modes(FT, "+")
    assert sorted(d.keys()) == ["a1", "a1_dag", "a2", "a2_dag"]
    for expr in d.values():
        assert expr.degree() == 1


def test_branch_normalization():
    assert normalize_branch("+") == normalize_branch(1) == 1
    assert normalize_branch("-") == normalize_branch(-1) == -1
    for bad in ("x", "plus", "minus", 0, 2):
        with pytest.raises(DomainError):
            normalize_branch(bad)


# --- reduced structure at the decoupling angle -------------------------------

@pytest.mark.parametrize("sign", [+1, -1])
def test_h1_reduces_at_quarter_turn(sign, params):
    lad = build_ladder(12)
    modes = transform(FT, sign * math.pi / 4, lad)
    bound = 1e-10 * lad.space.dim
    assert identity_report(FT, modes, params.r) <= bound
    assert identity_report(FT, modes, params.r, sign) <= bound


# --- vacuum series and basis -------------------------------------------------

def test_vacuum_series_at_zero():
    space = FockSpace(8)
    ket, bra = ft_vacuum_series(0.0, space)
    e00 = np.zeros(space.dim)
    e00[space.index(0, 0)] = 1.0
    assert np.allclose(ket, e00)
    assert abs(bra @ ket - 1.0) == 0.0


def test_vacuum_series_pairing_normalized():
    ket, bra = ft_vacuum_series(0.3, FockSpace(12))
    assert abs(bra @ ket - 1.0) <= 1e-10


def test_vacuum_series_diverges_at_wall():
    with pytest.raises(SeriesDivergence):
        ft_vacuum_series(math.pi / 4, FockSpace(8))


def test_basis_two_routes():
    ft = transform(FT, 0.3, build_ladder(24))
    vacuum = ft_vacuum_series(0.3, ft.space)
    states = ((0, 0), (1, 0), (1, 1), (2, 1))
    kets, bras = basis(ft, states, vacuum)
    for k1, b1, (k2, b2) in zip(kets.T, bras, ft_basis_similarity(ft, states), strict=True):
        assert np.max(np.abs(k1 - k2)) <= 1e-10
        assert np.max(np.abs(b1 - b2)) <= 1e-10
        assert abs(b1 @ k1 - 1.0) <= 1e-12


def test_gram_is_identity():
    ft = transform(FT, 0.3, build_ladder(24))
    g = gram(ft, ft_vacuum_series(0.3, ft.space), 3)
    assert g.shape == (16, 16)
    assert np.max(np.abs(g - np.eye(16))) <= 1e-8


# --- standard norms ----------------------------------------------------------

def test_standard_norm_closed_forms():
    # Theta = 2 * Re(theta); closed forms 1/cos, 1/cos^2, (2-cos^2)/cos^3
    assert ft_standard_norm(0.0, 0, 0) == 1.0
    assert abs(ft_standard_norm(math.pi / 6, 0, 0) - 2.0) <= 1e-12
    assert abs(ft_standard_norm(math.pi / 6, 1, 1) - 14.0) <= 1e-11
    big = math.cos(1.0)
    assert abs(ft_standard_norm(0.5, 1, 0) - 1.0 / big**2) <= 1e-12 / big**2


def test_standard_norm_diverges_past_wall():
    with pytest.raises(SeriesDivergence):
        ft_standard_norm(math.pi / 4, 0, 0)


def test_norm_trend_grows_toward_wall():
    vals = [ft_standard_norm(t / 2, 0, 0) for t in TREND_THETA_GRID]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 5.0 and vals[-1] > 1e3


@pytest.mark.parametrize("n1,n2,want", [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)])
def test_norm_exponent_fit(n1, n2, want):
    got = ft_norm_exponent_fit(FIT_THETA_GRID, n1, n2)
    assert abs(got - want) <= 0.1


def test_standard_norm_near_wall_matches_high_precision_sum():
    mpmath = pytest.importorskip("mpmath")

    def gauss_sum(big, n1, n2):
        with mpmath.workdps(50):
            c, t = mpmath.cos(mpmath.mpf(big)), mpmath.tan(mpmath.mpf(big))
            return mpmath.fsum(
                t ** (2 * j) * mpmath.binomial(n1, j) * mpmath.binomial(n2, j)
                * c ** -(n1 + n2 - 2 * j + 1)
                for j in range(min(n1, n2) + 1)
            )

    for big in TREND_THETA_GRID:
        for n1 in range(7):
            for n2 in range(5):
                want = gauss_sum(big, n1, n2)
                got = ft_standard_norm(big / 2.0, n1, n2)
                assert abs(got - want) / want <= 1e-8, (big, n1, n2)


def test_standard_norm_is_even_and_rejects_bad_input():
    assert ft_standard_norm(-0.35, 2, 1) == ft_standard_norm(0.35, 2, 1)
    with pytest.raises(NumericalError):
        ft_standard_norm(TREND_THETA_GRID[-1] / 2.0, 200, 200)
    with pytest.raises(DomainError):
        ft_standard_norm(math.nan, 0, 0)


def _chain_standard_norm(big_theta, n1, n2):
    """The batched chain route run on one state alone."""
    return _chain_standard_norms([(big_theta, n1, n2)])[0]


@pytest.mark.parametrize("n1,n2", [(0, 0), (2, 1), (6, 4)])
def test_chain_route_agrees_with_the_sum(n1, n2):
    for big in (0.3, 1.0, 1.4):
        chain = _chain_standard_norm(big, n1, n2)
        assert abs(chain - ft_standard_norm(big / 2.0, n1, n2)) <= 1e-14 * chain


NEAR_WALL = (math.pi / 2 - 10.0 ** -1, math.pi / 2 - 10.0 ** -1.5)
NORMS_STATES = ((0, 0), (1, 0), (1, 1), (2, 1))


@pytest.mark.parametrize("n1,n2", NORMS_STATES)
def test_chain_route_agrees_with_the_sum_near_the_wall(n1, n2):
    # the linear-space sum rescales by powers of two and cancels nothing, so
    # it holds round-off where the norms grow like cos^-(n1+n2+1)
    for big in NEAR_WALL:
        chain = _chain_standard_norm(big, n1, n2)
        assert abs(chain - ft_standard_norm(big / 2.0, n1, n2)) <= 1e-14 * chain


def test_batched_chains_equal_each_chain_alone():
    # chains of different lengths, starts and steps share one padded batch;
    # every row freezes on its own test, so each value is bit for bit its own
    cases = [(big, n1, n2) for big in (0.3, 1.4, *NEAR_WALL) for n1, n2 in NORMS_STATES]
    cases.append((-1.0, 6, 4))
    assert _chain_standard_norms(cases) == [_chain_standard_norm(*case) for case in cases]


def test_chain_rescales_without_rounding():
    # e^{s T} e_0 on two sites joined by c is (cosh sc, sinh sc): at sc = 1000
    # its sum passes the rescaling ceiling, and far past the largest double
    starts, s = np.array([0, 3]), np.array([1.0, 0.5])
    couplings = np.zeros((2, 20))
    couplings[0, 0] = 1000.0
    couplings[1] = 1.0
    mantissas, exponents = _chain_exp(starts, s, couplings)
    assert exponents[0] > 600 and exponents[1] == 0
    assert np.all(np.isfinite(mantissas)) and mantissas.max() < 2.0 ** 600
    log_u = np.log(mantissas[0, :2]) + exponents[0] * math.log(2.0)
    assert np.allclose(log_u, 1000.0 - math.log(2.0), rtol=1e-14, atol=0)
    assert not mantissas[0, 2:].any()
    # the other row gets its own values, as alone
    alone, shift = _chain_exp(starts[1:], s[1:], couplings[1:])
    assert shift[0] == 0 and np.array_equal(alone[0], mantissas[1])


def test_chain_route_raises_without_a_tail_to_resolve():
    with pytest.raises(NumericalError):
        _chain_standard_norm(0.0, 1, 0)


def test_norm_fit_needs_three_samples():
    with pytest.raises(FitError):
        ft_norm_exponent_fit(FIT_THETA_GRID[:2], 0, 0)


def test_norm_fit_needs_distinct_samples():
    # every Theta coincides (or is mirrored), so -log cos Theta has no spread to divide by
    with pytest.raises(FitError, match="distinct"):
        ft_norm_exponent_fit([FIT_THETA_GRID[0]] * 3, 0, 0)
    with pytest.raises(FitError, match="distinct"):
        ft_norm_exponent_fit([0.5, -0.5, 0.5], 0, 0)


@pytest.mark.parametrize("n1,n2", NORMS_STATES)
def test_norm_exponent_fit_is_the_least_squares_line(n1, n2):
    xs = [-math.log(math.cos(t)) for t in FIT_THETA_GRID]
    ys = [math.log(ft_standard_norm(t / 2.0, n1, n2)) for t in FIT_THETA_GRID]
    want = np.polyfit(xs, ys, 1)[0]
    assert abs(ft_norm_exponent_fit(FIT_THETA_GRID, n1, n2) - want) <= 8 * math.ulp(want)


#: equal arguments, both infinities, NaN, signed zeros, gaps up to and past 700
_LOGADDEXP_GRID = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 36.0, -36.0, 700.0, -700.0,
                   709.5, 745.0, -745.0, 1e300, -1e300, math.inf, -math.inf, math.nan)


def test_logaddexp_has_the_bits_of_numpys():
    for x in _LOGADDEXP_GRID:
        for y in _LOGADDEXP_GRID:
            with np.errstate(invalid="ignore"):  # inf - inf
                want = float(np.logaddexp(x, y))
            assert _logaddexp(x, y).hex() == want.hex(), (x, y)


def test_logaddexp_fold_has_the_bits_of_numpys_reduce():
    # the terms of ft_standard_norm are folded left to right, as np.logaddexp.reduce does
    rng = np.random.default_rng(20261021)
    for _ in range(2000):
        terms = (rng.standard_normal(rng.integers(1, 5)) * 10.0 ** rng.integers(-3, 4)).tolist()
        want = float(np.logaddexp.reduce(terms))
        assert functools.reduce(_logaddexp, terms).hex() == want.hex(), terms


# --- Heisenberg factors and coordinate reconstruction ------------------------

def test_heisenberg_factor_at_zero(params):
    for mode in (1, 2):
        for kind in ("ann", "cre"):
            for branch in (1, -1):
                assert cmath.exp(heisenberg_rate(FT, mode, kind, branch, params.r) * 0.0) == 1.0


def test_heisenberg_factor_closed_form(params):
    t = 0.7  # in units of 1 / omega
    got = cmath.exp(heisenberg_rate(FT, 1, "ann", -1, params.r) * t)
    want = np.exp((-1j - params.r) * t)
    assert abs(got - want) <= 1e-12


def test_heisenberg_conjugate_product(params):
    # matched ann/cre factors carry opposite exponents
    t = 0.7
    prod = (cmath.exp(heisenberg_rate(FT, 1, "ann", 1, params.r) * t)
            * cmath.exp(heisenberg_rate(FT, 1, "cre", 1, params.r) * t))
    assert abs(prod - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 5.0), st.sampled_from([1, 2]), st.sampled_from([1, -1]))
def test_heisenberg_modulus(params, t, mode, branch):
    # modulus is set by branch and kind alone; mode only moves the phase
    rate = branch * params.r
    for kind, s in (("ann", +1), ("cre", -1)):
        got = abs(cmath.exp(heisenberg_rate(FT, mode, kind, branch, params.r) * t))
        assert abs(got - math.exp(s * rate * t)) <= 1e-9 * math.exp(abs(rate) * t)


@pytest.mark.parametrize("sign", [+1, -1])
def test_xy_reconstruction_at_zero(sign, params):
    lad = build_ladder(12)
    x, y = xy_operators(FT, sign, 0.0, lad, params.r)
    xp, yp = position_operators(lad)
    assert max_abs(x - xp) <= 1e-10
    assert max_abs(y - yp) <= 1e-10


