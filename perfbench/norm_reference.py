"""Independent high-precision reference for the `bateman norms` report.

The standard squared norm of the rotated basis ket |n1,n2>> follows from the
Gauss (su(1,1) disentangling) factorization of e^{Theta X} as a finite sum,

    N(Theta) = sum_j tan^{2j} Theta * n1! n2! / (j!^2 (n1-j)! (n2-j)!)
               * cos^{-(n1+n2-2j+1)} Theta,

evaluated here with mpmath at 50 significant digits.  Nothing from the
`bateman` package is used, so a defect in the program's own norm chain or its
own series oracle cannot leak into the reference.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 50

# The grid `bateman norms` prints by default, written out independently.
NORMS_STATES = ((0, 0), (1, 0), (1, 1), (2, 1))
NORMS_THETAS = (0.3, 0.6, 1.0, 1.4) + tuple(math.pi / 2 - eps for eps in (1e-1, 1e-2, 1e-3, 1e-4))
# Theta grid of the exponent fits (mirrors bateman.ft.FIT_THETA_GRID).
FIT_THETAS = tuple(math.pi / 2 - 10.0 ** (-j) for j in (1, 2, 3))
# Rows at these Theta are the known near-wall defect of the program's norm
# chain: they are counted in norm_rows_off but do not fail an invocation.
KNOWN_OFF_THETAS = (math.pi / 2 - 1e-3, math.pi / 2 - 1e-4)

ROW_RTOL = 1e-8


def standard_norm(big_theta: float, n1: int, n2: int) -> mpmath.mpf:
    """Finite Gauss-factorization sum at the exact binary value of big_theta."""
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(big_theta)
        c, t = mpmath.cos(theta), mpmath.tan(theta)
        fac = mpmath.factorial
        return mpmath.fsum(
            t ** (2 * j)
            * fac(n1) * fac(n2) / (fac(j) ** 2 * fac(n1 - j) * fac(n2 - j))
            * c ** -(n1 + n2 - 2 * j + 1)
            for j in range(min(n1, n2) + 1)
        )


def fit_slope(thetas, n1: int, n2: int) -> float:
    """Least-squares slope of log N against -log cos Theta, as `norms` fits it."""
    with mpmath.workdps(DIGITS):
        xs = [-mpmath.log(mpmath.cos(mpmath.mpf(t))) for t in thetas]
        ys = [mpmath.log(standard_norm(t, n1, n2)) for t in thetas]
        x_bar = mpmath.fsum(xs) / len(xs)
        y_bar = mpmath.fsum(ys) / len(ys)
        num = mpmath.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
        den = mpmath.fsum((x - x_bar) ** 2 for x in xs)
        return float(num / den)


def norms_reference() -> tuple[dict, dict]:
    """({(n1, n2, Theta): norm}, {(n1, n2): fit slope}) for the default report."""
    rows = {
        (n1, n2, theta): float(standard_norm(theta, n1, n2))
        for (n1, n2) in NORMS_STATES
        for theta in NORMS_THETAS
    }
    slopes = {(n1, n2): fit_slope(FIT_THETAS, n1, n2) for (n1, n2) in NORMS_STATES}
    return rows, slopes


def rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
