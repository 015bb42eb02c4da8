"""Physical parameters of the damped-amplified oscillator pair.

The model couples a damped coordinate x (m*x'' + gamma*x' + k*x = 0) to its
amplified mirror y (m*y'' - gamma*y' + k*y = 0).  Only the underdamped regime
4*m*k > gamma**2 is admitted; the boundary case is rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, OverdampedError

__all__ = ["PhysicalParams", "derive_params"]

#: the normal floats: a parameter or derived value outside [_TINY, _HUGE] is rejected
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


@dataclass(frozen=True)
class PhysicalParams:
    """Validated parameter set with the derived frequencies and their ratio.

    omega is the reduced frequency sqrt(k/m - gamma**2/(4 m**2)) and lam the
    damping rate gamma/(2 m), so omega**2 + lam**2 == k/m.  r = lam/omega is
    the one number the operators depend on: H / hbar omega = (n1 - n2) +
    i r (a1 a2 - a1+ a2+).
    """

    m: float
    gamma: float
    k: float
    hbar: float
    omega: float
    lam: float
    r: float


def derive_params(m: float, gamma: float, k: float, hbar: float = 1.0) -> PhysicalParams:
    """Validate (m, gamma, k, hbar) and derive (omega, lam, r).

    Raises OverdampedError when 4*m*k <= gamma**2 (boundary included) and
    DomainError for non-positive, subnormal or non-finite inputs, and for inputs whose
    omega, lam or r is subnormal.  The test and the formulas run on m, k and gamma
    scaled near 1 by powers of two (2^-a, 2^-c and 2^-(a+c)/2, a and c the binary
    exponents of m and k, c - a even), which round nothing: where 4*m*k, gamma**2,
    k/m and lam**2 are normal floats they give those bits, where not the true answer.
    """
    values = {"m": m, "gamma": gamma, "k": k, "hbar": hbar}
    for name, value in values.items():
        if not _TINY <= value <= _HUGE:  # a NaN fails too
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            raise DomainError(f"{name} must be a normal float (>= {_TINY!r}), got {value!r}")
    a, c = math.frexp(m)[1], math.frexp(k)[1]
    c += (c - a) % 2
    m1, k1 = math.ldexp(m, -a), math.ldexp(k, -c)
    g1 = gamma * 2.0 ** (-(a + c) // 2)  # inf, not an error, where gamma**2 >> 4*m*k
    if 4.0 * m1 * k1 <= g1 * g1:
        raise OverdampedError(f"underdamped regime requires 4*m*k > gamma**2; got "
                              f"gamma/(2 sqrt(m k)) = {g1 / (2.0 * math.sqrt(m1 * k1))!r}")
    lam1 = g1 / (2.0 * m1)
    omega1 = math.sqrt(max(0.0, k1 / m1 - lam1 * lam1))  # 0 where the gap rounds to <= 0
    lam, omega = math.ldexp(lam1, (c - a) // 2), math.ldexp(omega1, (c - a) // 2)
    if not (_TINY <= omega and _TINY <= lam):  # both stay below sqrt(k/m) < 9e307
        # a subnormal frequency has lost precision, and 1/omega or 1/lam overflows
        raise DomainError(f"derived frequencies are not normal floats: "
                          f"lam = gamma/(2m) = {lam!r}, omega = {omega!r}")
    r = lam1 / omega1  # below 2^28: omega1 is 0 (rejected above) or at least 2^-28
    if not _TINY <= r:
        raise DomainError(f"the damping ratio r = lam/omega = {lam!r}/{omega!r} = {r!r} "
                          f"is not a normal float")
    return PhysicalParams(m=m, gamma=gamma, k=k, hbar=hbar, omega=omega, lam=lam, r=r)
