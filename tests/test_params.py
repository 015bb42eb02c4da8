"""Parameter validation and derived frequencies."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

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
    # underdamped by one rounding: k/m - lam**2 rounds below 0, and omega to 0
    dict(m=0.7326433490014181, gamma=1.5046735787072876, k=0.7725595890366207),
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


@pytest.mark.parametrize("inputs,omega,lam", [
    (dict(m=1e-200, gamma=1.0, k=1e200), 8.660254037844386e199, 5e199),  # k/m, lam**2 overflow
    (dict(m=1e-300, gamma=1e-300, k=1e10), 1e155, 0.5),  # k/m overflows
], ids=["nan", "inf"])
def test_inputs_whose_intermediates_overflow_are_derived(inputs, omega, lam):
    # omega once read nan (inf - inf) and inf, and both were rejected as not finite
    p = derive_params(**inputs)
    assert math.isclose(p.omega, omega, rel_tol=1e-15) and p.lam == lam
    assert p.r == p.lam / p.omega


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0 ** 1000])
def test_a_common_scale_of_m_gamma_k_keeps_the_frequencies(scale):
    # 4 m k and gamma**2 overflow or underflow: each scale was rejected as overdamped,
    # as inf <= inf or 0 <= 0
    want = derive_params(1.0, 1.0, 1.0)
    got = derive_params(scale, scale, scale)
    assert (got.omega, got.lam, got.r) == (want.omega, want.lam, want.r) == (
        math.sqrt(0.75), 0.5, 0.5 / math.sqrt(0.75))


def test_subnormal_damping_ratio_rejected():
    # lam = 5e-121 and omega = 1e200 are normal, r = lam / omega = 5e-321 is not
    with pytest.raises(DomainError, match=r"damping ratio r = lam/omega = .* = 5e-321 is not a "
                                          r"normal float"):
        derive_params(m=1e-100, gamma=1e-220, k=1e300)


@given(m=st.floats(1e-60, 1e60), k=st.floats(1e-60, 1e60), zeta=st.floats(0.0, 1.2))
@settings(max_examples=300, deadline=None)
def test_frequencies_keep_the_bits_of_the_direct_formula(m, k, zeta):
    # wherever 4 m k, gamma**2, k/m and lam**2 are normal floats, the scaled derivation
    # gives the decision and the bits of the formula on the inputs themselves
    tiny = sys.float_info.min
    gamma = 2.0 * math.sqrt(m * k) * zeta
    lam = gamma / (2.0 * m)
    if not (tiny <= gamma and tiny <= lam * lam):
        return
    underdamped = 4.0 * m * k > gamma * gamma
    omega = math.sqrt(max(0.0, k / m - lam * lam))
    try:
        p = derive_params(m, gamma, k)
    except OverdampedError:
        assert not underdamped
        return
    except DomainError:  # a frequency or their ratio below the normal floats
        assert underdamped and (min(lam, omega) < tiny or lam / omega < tiny)
        return
    assert underdamped and (p.omega, p.lam) == (omega, lam)


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
