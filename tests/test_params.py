"""Parameter validation and derived frequencies."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from bateman.errors import DomainError, OverdampedError
from bateman.params import derive_params


def test_canonical_set_exact():
    p = derive_params(m=1.0, gamma=1.0, k=1.25)
    assert p.omega == 1.0
    assert p.lam == 0.5
    assert p.hbar == 1.0


def test_frequency_identity(params):
    # omega**2 + lam**2 == k/m is the defining relation of the reduced frequency
    assert params.omega**2 + params.lam**2 == pytest.approx(params.k / params.m, abs=1e-15)


def test_quadratic_roots(params):
    # s = -lam +- i omega must solve m s^2 + gamma s + k = 0
    for sgn in (+1, -1):
        s = complex(-params.lam, sgn * params.omega)
        res = params.m * s * s + params.gamma * s + params.k
        assert abs(res) < 1e-14


def test_boundary_rejected():
    # 4 m k == gamma**2 sits on the critically damped line: excluded
    with pytest.raises(OverdampedError):
        derive_params(m=1.0, gamma=2.0, k=1.0)
    with pytest.raises(OverdampedError):
        derive_params(m=1.0, gamma=3.0, k=1.0)


@pytest.mark.parametrize("bad", [
    dict(m=0.0, gamma=1.0, k=1.25),
    dict(m=-1.0, gamma=1.0, k=1.25),
    dict(m=1.0, gamma=0.0, k=1.25),
    dict(m=1.0, gamma=1.0, k=1.25, hbar=0.0),
    dict(m=float("nan"), gamma=1.0, k=1.25),
    dict(m=float("inf"), gamma=1.0, k=1.25),
    # subnormal inputs: 1/hbar overflows, and the checks read NaN
    dict(m=1.0, gamma=1.0, k=1.25, hbar=1e-310),
    dict(m=1.0, gamma=1.0, k=1.25, hbar=5e-324),
    dict(m=1.0, gamma=1e-320, k=1.25),
    dict(m=1.0, gamma=1e-308, k=1.25),
    dict(m=1e10, gamma=1e-300, k=1e-310),
    # normal inputs whose lam = gamma/(2m) = 5e-311 is subnormal
    dict(m=1e10, gamma=1e-300, k=1.25),
])
def test_bad_inputs_rejected(bad):
    with pytest.raises(DomainError):
        derive_params(**bad)


def test_smallest_normal_inputs_accepted():
    tiny = sys.float_info.min
    p = derive_params(m=0.5, gamma=tiny, k=0.5, hbar=tiny)
    assert (p.hbar, p.lam, p.omega) == (tiny, tiny, 1.0)
    with pytest.raises(DomainError, match=r"lam = gamma/\(2m\) = 1.1125369292536007e-308,"):
        derive_params(m=1.0, gamma=tiny, k=0.5)  # lam = tiny / 2


@pytest.mark.parametrize("inputs,omega", [
    (dict(m=1e-200, gamma=1.0, k=1e200), "nan"),    # k/m and lam**2 both overflow: inf - inf
    (dict(m=1e-300, gamma=1e-300, k=1e10), "inf"),  # k/m overflows, lam = 0.5
])
def test_inputs_whose_frequencies_overflow_rejected(inputs, omega):
    # each input is finite, positive and underdamped; only the derived omega is not finite
    with pytest.raises(DomainError, match=f"not finite: k/m = inf, .*omega = {omega}$"):
        derive_params(**inputs)


@given(
    m=st.floats(0.1, 10.0),
    gamma=st.floats(0.01, 1.0),
    k=st.floats(0.5, 10.0),
)
def test_derivation_properties(m, gamma, k):
    if 4.0 * m * k <= gamma * gamma:
        return
    p = derive_params(m=m, gamma=gamma, k=k)
    assert p.omega > 0 and p.lam > 0
    assert math.isclose(p.omega**2 + p.lam**2, k / m, rel_tol=1e-12)
    assert math.isclose(p.lam, gamma / (2 * m), rel_tol=1e-15)
