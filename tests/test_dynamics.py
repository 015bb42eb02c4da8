"""Time evolution factors, stability classes, dual-pairing conservation.

All of it is read off the eigen record of a construction: `Eigen.stability`
is the sign of q, and each state evolves by e^{-i E t / hbar}.
"""

import cmath
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bateman.cli import main
from bateman.construction import (
    StabilityClass,
    dual_factor,
    eigenvalue,
    eom_residual,
    pairing_norm_in_time,
    schrodinger_factor,
    xy_mode_exponents,
)
from bateman.errors import DomainError
from bateman.ft import FT
from bateman.imagscale import IS

T_GRID = (0.0, 1.0, 10.0)
ROUTES = {"ft": FT, "is": IS}


def classify(approach, branch, n1, n2):
    return eigenvalue(ROUTES[approach], n1, n2, branch).stability


def test_schrodinger_factor_basics():
    assert schrodinger_factor(1j, 1.0) == cmath.exp(1)
    # real eigenvalue: pure phase
    v = schrodinger_factor(2.5, 0.7)
    assert abs(abs(v) - 1.0) <= 1e-15


def test_dual_factor_reciprocal():
    for ev in (1j, 2.0 - 0.5j, -3.0 + 1j):
        prod = schrodinger_factor(ev, 1.3) * dual_factor(ev, 1.3)
        assert abs(prod - 1.0) <= 1e-12


def test_eigen_record_dispatch():
    # an unknown approach name is rejected where names live: the cli's --approach
    r = eigenvalue(FT, 1, 0, "+")
    assert (r.p, r.q) == (1, 2)
    r = eigenvalue(IS, 1, 0, "+")
    assert (r.p, r.q) == (2, 1)


def test_classification_examples():
    assert classify("ft", "+", 2, 1) is StabilityClass.GROWING
    assert classify("ft", "-", 2, 1) is StabilityClass.DECAYING
    assert classify("is", "+", 1, 1) is StabilityClass.STABLE
    assert classify("is", "-", 2, 0) is StabilityClass.DECAYING


def test_first_mixing_never_stable():
    # q = branch*(n1+n2+1) cannot vanish
    for branch in ("+", "-"):
        for n1 in range(7):
            for n2 in range(7):
                assert classify("ft", branch, n1, n2) is not StabilityClass.STABLE


def test_second_mixing_stable_on_diagonal():
    for branch in ("+", "-"):
        for n1 in range(7):
            for n2 in range(7):
                got = classify("is", branch, n1, n2)
                if n1 == n2:
                    assert got is StabilityClass.STABLE
                else:
                    assert got is not StabilityClass.STABLE


def test_branch_flip_swaps_growth():
    flip = {StabilityClass.GROWING: StabilityClass.DECAYING,
            StabilityClass.DECAYING: StabilityClass.GROWING,
            StabilityClass.STABLE: StabilityClass.STABLE}
    for approach in ("ft", "is"):
        for n1 in range(5):
            for n2 in range(5):
                assert classify(approach, "-", n1, n2) is flip[classify(approach, "+", n1, n2)]


def test_pairing_norm_conserved_exactly(params):
    for con in (FT, IS):
        for branch in ("+", "-"):
            got = pairing_norm_in_time(eigenvalue(con, 1, 0, branch), T_GRID, params)
            assert got == [1.0, 1.0, 1.0]


def test_pairing_norm_cross_vanishes(params):
    got = pairing_norm_in_time(eigenvalue(FT, 1, 0, "+"), T_GRID, params, other=(0, 1))
    assert got == [0.0, 0.0, 0.0]


def test_state_evolution_record(params, capsys):
    # `bateman evolve` reports the rates and class of the record it evolves
    assert eigenvalue(IS, 2, 0, "-").as_complex(params) == 3.0 - 1.0j
    assert main(["evolve", "--approach", "is", "--branch", "-", "--n1", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["amplitude_rate"] == -1.0
    assert report["phase_rate"] == -3.0
    assert report["stability"] == StabilityClass.DECAYING.value


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([FT, IS]), st.sampled_from([1, -1]),
       st.integers(0, 5), st.integers(0, 5), st.floats(0.0, 4.0))
def test_factor_modulus_tracks_rate(params, con, branch, n1, n2, t):
    ev = eigenvalue(con, n1, n2, branch).as_complex(params)
    got = abs(schrodinger_factor(ev, t, params.hbar)) ** 2
    want = math.exp(2.0 * ev.imag / params.hbar * t)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_xy_mode_exponents(params):
    table = xy_mode_exponents(params)
    lam, om = params.lam, params.omega
    assert table["damped"] == (complex(-lam, om), complex(-lam, -om))
    assert table["amplified"] == (complex(lam, om), complex(lam, -om))


def test_eom_residual_roots(params):
    for sign, (s1, s2) in xy_mode_exponents(params).items():
        assert abs(eom_residual(s1, sign, params)) <= 1e-12 * params.k
        assert abs(eom_residual(s2, sign, params)) <= 1e-12 * params.k


def test_eom_residual_rejects_undamped_guess(params):
    # dropping the damping term must show up as a nonzero residual
    assert abs(eom_residual(1j * params.omega, "damped", params)) > 0.1
    with pytest.raises(DomainError):
        eom_residual(1j, "weird", params)
