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

#: the normal floats: a parameter or frequency outside [_TINY, _HUGE] is rejected
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


@dataclass(frozen=True)
class PhysicalParams:
    """Validated parameter set with the derived frequencies.

    omega is the reduced frequency sqrt(k/m - gamma**2/(4 m**2)) and lam the
    damping rate gamma/(2 m), so omega**2 + lam**2 == k/m.
    """

    m: float
    gamma: float
    k: float
    hbar: float
    omega: float
    lam: float


def derive_params(m: float, gamma: float, k: float, hbar: float = 1.0) -> PhysicalParams:
    """Validate (m, gamma, k, hbar) and derive (omega, lam).

    Raises OverdampedError when 4*m*k <= gamma**2 (boundary included) and
    DomainError for non-positive, subnormal or non-finite inputs, and for inputs whose
    omega or lam is not finite or is subnormal.
    """
    values = {"m": m, "gamma": gamma, "k": k, "hbar": hbar}
    for name, value in values.items():
        if not _TINY <= value <= _HUGE:  # a NaN fails too
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            raise DomainError(f"{name} must be a normal float (>= {_TINY!r}), got {value!r}")
    if 4.0 * m * k <= gamma * gamma:
        raise OverdampedError(
            f"underdamped regime requires 4*m*k > gamma**2; "
            f"got 4*m*k = {4.0 * m * k!r}, gamma**2 = {gamma * gamma!r}"
        )
    lam = gamma / (2.0 * m)
    omega = math.sqrt(k / m - lam * lam)
    if not (_TINY <= omega <= _HUGE and _TINY <= lam <= _HUGE):
        if not (math.isfinite(omega) and math.isfinite(lam)):
            # k/m or lam**2 overflows even though 4*m*k > gamma**2 holds
            raise DomainError(f"derived frequencies are not finite: k/m = {k / m!r}, "
                              f"lam = gamma/(2m) = {lam!r}, omega = {omega!r}")
        # a subnormal frequency has lost precision, and 1/omega or 1/lam overflows
        raise DomainError(f"derived frequencies are not normal floats: "
                          f"lam = gamma/(2m) = {lam!r}, omega = {omega!r}")
    return PhysicalParams(m=m, gamma=gamma, k=k, hbar=hbar, omega=omega, lam=lam)
