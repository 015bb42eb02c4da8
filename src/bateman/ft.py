"""Rotation route: the pseudo-Bogoliubov construction FT.

The rotation generator X = a1 a2 + a1+ a2+ mixes a1 with a2+.  At the
rotation angles theta = +-pi/4 the interaction part of H becomes proportional
to the total bar-mode number operator, so the full H is diagonal on the bar
basis with complex eigenvalues hbar*omega*(n1-n2) +- i*hbar*lambda*(n1+n2+1).

`FT` holds the route's data for the generic machinery in `construction`
(eigenvalues, bar matrices, the similarity check against e^{theta X}, basis
and Gram, Heisenberg factors, x(t), y(t), the exact substitution).  What only
this route has lives here: the generator X, the geometric vacuum series, the
bar basis read off e^{+-theta X}, and the standard norms of the bar basis
with their divergence at |Theta| = pi/2.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .algebra import B1_ANN, B1_CRE, B2_ANN, B2_CRE, ExactScalar, LadderPoly
from .construction import Construction, MixedModes
from .errors import DomainError, FitError, NumericalError, SeriesDivergence
from .fock import FockSpace, LadderSet, Operator, exp_block
from .params import PhysicalParams

__all__ = [
    "FT",
    "generator_matrix",
    "ft_vacuum_series",
    "ft_basis_similarity",
    "ft_norm_closed_forms",
    "ft_standard_norm",
    "ft_norm_exponent_fit",
    "ft_generator_poly",
    "FIT_THETA_GRID",
    "TREND_THETA_GRID",
    "NORMS_STATES",
    "MODERATE_GRID",
    "EDGE_EPSILONS",
]

#: relative size below which a chain Taylor term, or the chain's neglected tail, is negligible
_CONV = 1e-19
_CONV_LOG = math.log(_CONV)
#: a chain row whose sum passes this is scaled down by a power of two, far from overflow
_CHAIN_CEILING = 2.0 ** 600

#: Theta grids for the divergence study: pi/2 - 10^-j
FIT_THETA_GRID = tuple(math.pi / 2 - 10.0 ** (-j) for j in (1, 2, 3))
TREND_THETA_GRID = tuple(math.pi / 2 - 10.0 ** (-j) for j in (1, 2, 3, 4))
#: the states and the Theta grid of `norms` and `ft.norm.closed-forms`; `norms`
#: adds Theta = pi/2 - eps for each of EDGE_EPSILONS
NORMS_STATES = ((0, 0), (1, 0), (1, 1), (2, 1))
MODERATE_GRID = (0.3, 0.6, 1.0, 1.4)
EDGE_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)


# ---------------------------------------------------------------------------
# the construction


def _rotation(theta: complex):
    """(bar_ann1, bar_cre2) = [[c, -s], [s, c]] (a1, a2+);
    (bar_cre1, bar_ann2) = [[c, s], [-s, c]] (a1+, a2)."""
    c, s = cmath.cos(theta), cmath.sin(theta)
    return ((c, -s), (s, c)), ((c, s), (-s, c))


def _rotation_h1(bar: MixedModes, q_form: Operator, params: PhysicalParams) -> Operator:
    """H1 = i hbar lambda [cos 2theta (b1 b2 - b1+ b2+) + sin 2theta (N1 + N2 + 1)]."""
    c2, s2 = cmath.cos(2 * bar.angle), cmath.sin(2 * bar.angle)
    return (1j * params.hbar * params.lam) * (
        c2 * (bar.ann1 @ bar.ann2 - bar.cre1 @ bar.cre2) + s2 * q_form
    )


def _rotation_at_quarter(branch: int):
    """Inverse rotation at theta = branch*pi/4: cos = sqrt2/2, sin = branch*sqrt2/2."""
    c = ExactScalar(Fraction(1, 2), 0, 2)
    s = c * branch
    return ((c, s), (-s, c)), ((c, -s), (s, c))


FT = Construction(
    angle_name="theta",
    imaginary_angle=False,
    mixing=_rotation,
    second_annihilates=False,
    p_map=(1, -1, 0),
    q_map=(1, 1, 1),
    quarter=lambda branch: branch * math.pi / 4,
    h1_mixed=_rotation_h1,
    substitution=_rotation_at_quarter,
    xy_phase=1,
)


# ---------------------------------------------------------------------------
# the generator


def generator_matrix(ladder: LadderSet) -> Operator:
    """X = a1 a2 + a1+ a2+ on the truncated space."""
    return ladder.a1 @ ladder.a2 + ladder.a1_dag @ ladder.a2_dag


# ---------------------------------------------------------------------------
# vectors


#: the vacuum series needs |tan theta| < 1; fl(tan(pi/4)) rounds to 0.999...9 < 1,
#: so the bound keeps a float cushion below 1
VACUUM_TAN_LIMIT = 1.0 - 1e-12


def ft_vacuum_series(theta: complex, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Truncated bar vacuum pair: ket (tan^n/cos) and bra ((-tan)^n/cos) on |n,n>.

    Well-defined only for |tan theta| < 1; the pairing bra.ket telescopes to 1
    up to the geometric tail |tan theta|^(2(n_max+1)).
    """
    theta = complex(theta)
    t = cmath.tan(theta)
    if abs(t) >= VACUUM_TAN_LIMIT:
        raise SeriesDivergence(
            f"|tan theta| = {abs(t):.6g} >= 1: vacuum series diverges at theta={theta}"
        )
    inv_cos = 1.0 / cmath.cos(theta)
    ket = np.zeros(space.dim, dtype=complex)
    bra = np.zeros(space.dim, dtype=complex)
    power = 1.0 + 0.0j
    for n in range(space.n_max + 1):
        idx = space.index(n, n)
        ket[idx] = inv_cos * power
        bra[idx] = inv_cos * power * ((-1) ** n)
        power *= t
    return ket, bra


def ft_basis_similarity(bar: MixedModes, states) -> list[tuple[np.ndarray, np.ndarray]]:
    """The bar basis pairs e^{theta X}|n1,n2> and <n1,n2|e^{-theta X}, one per (n1, n2) in states.

    Each ket is a column of e^{theta X} and each bra a row of e^{-theta X};
    only the sectors that hold the states are exponentiated (`fock.exp_block`).
    """
    x = generator_matrix(bar.ladder)
    idx = [bar.space.index(n1, n2) for n1, n2 in states]
    kets = exp_block(bar.angle * x, bar.charge, cols=idx).T
    bras = exp_block(-bar.angle * x, bar.charge, rows=idx)
    return list(zip(kets, bras))


# ---------------------------------------------------------------------------
# standard norms and their divergence


def ft_norm_closed_forms(big_theta: float) -> dict[tuple[int, int], float]:
    """Hand-derived standard norms 1/cos, 1/cos^2, (2 - cos^2)/cos^3 of (0,0), (1,0), (1,1)."""
    c = math.cos(big_theta)
    return {(0, 0): 1.0 / c, (1, 0): 1.0 / c**2, (1, 1): (2.0 - c * c) / c**3}


def ft_standard_norm(theta: complex, n1: int, n2: int) -> float:
    """Standard (dagger) squared norm of the bar basis ket |n1,n2>>.

    This is <n1,n2|e^{Theta X}|n1,n2> with Theta = theta + conj(theta).  The
    su(1,1) disentangling of e^{Theta X} (Perelomov; Celeghini, Rasetti and
    Vitiello for this model) makes it a sum of min(n1, n2) + 1 positive terms,
    N = sum_j C(n1,j) C(n2,j) tan^{2j} Theta cos^{-(n1+n2-2j+1)} Theta, summed
    in log space so the blowup near the wall |Theta| = pi/2 stays accurate.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")
    big_theta = 2.0 * complex(theta).real
    if not math.isfinite(big_theta):
        raise DomainError(f"theta must be finite, got {theta}")
    if abs(big_theta) >= math.pi / 2:
        raise SeriesDivergence(
            f"|theta + conj(theta)| = {abs(big_theta):.6g} >= pi/2: standard norm diverges"
        )
    if big_theta == 0.0:
        return 1.0
    log_cos = math.log(math.cos(big_theta))
    log_tan2 = 2.0 * math.log(abs(math.tan(big_theta)))
    log_fact = math.lgamma(n1 + 1) + math.lgamma(n2 + 1)
    log_norm = float(np.logaddexp.reduce([
        j * log_tan2 + log_fact - 2.0 * math.lgamma(j + 1)
        - math.lgamma(n1 - j + 1) - math.lgamma(n2 - j + 1)
        - (n1 + n2 - 2 * j + 1) * log_cos
        for j in range(min(n1, n2) + 1)
    ]))
    if log_norm > 700.0:
        raise NumericalError(f"standard norm overflows float64 (log = {log_norm:.3g})")
    return math.exp(log_norm)


def _chain_exp(starts: np.ndarray, s: np.ndarray, couplings: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """e^{s_i T_i} e_{starts_i} for a batch of nonnegative tridiagonal chains T_i.

    Row i of couplings holds the couplings of chain i, zero past its end.
    All Taylor terms are componentwise nonnegative, so the series is summed
    in linear space and nothing cancels.  Returns (mantissas, exponents):
    row i of the result is mantissas[i] * 2**exponents[i], since a row whose
    sum nears overflow is scaled by a power of two, which rounds nothing.
    A row freezes once its term falls below _CONV of its sum; every step
    acts on each row alone, so a chain gets the same values in any batch.
    """
    rows = np.arange(len(starts))
    term = np.zeros((len(starts), couplings.shape[1] + 1))
    term[rows, starts] = 1.0
    acc, out = term.copy(), term.copy()
    exponents = np.zeros(len(starts), dtype=int)
    scale, peak = s[:, None], couplings.max(axis=1)
    caps = (4.4 * s * peak).astype(int) + 200
    # every entry of e^{s T} e_j is at most e^{s ||T||_inf} <= e^{2 s peak}: a batch whose
    # rows all stay a factor 2 below the ceiling (for the round-off of the sums) skips the test
    guarded = bool((2.0 * s * peak).max() > math.log(_CHAIN_CEILING / 2))
    reach, cap = int(starts.max()), int(caps.min())
    for m in range(1, int(caps.max()) + 1):
        width = min(term.shape[1], reach + m + 1)  # no term reaches further yet
        t, c, a = term[:, :width], couplings[:, :width - 1], acc[:, :width]
        down = c * t[:, 1:]
        np.multiply(c, t[:, :-1], out=t[:, 1:])  # numpy buffers the overlapping operands
        t[:, 0] = 0.0
        t[:, :-1] += down
        t *= scale / m
        a += t
        top = a.max(axis=1)
        if guarded and top.max() > _CHAIN_CEILING:
            big = top > _CHAIN_CEILING
            shift = np.frexp(top[big])[1]
            acc[big] = np.ldexp(acc[big], -shift[:, None])
            term[big] = np.ldexp(term[big], -shift[:, None])
            exponents[rows[big]] += shift
            top = a.max(axis=1)
        done = t.max(axis=1) < _CONV * top
        if m >= cap and (~done & (m >= caps)).any():
            raise NumericalError("chain exponential series did not converge")
        if done.any():
            out[rows[done]] = acc[done]
            live = ~done
            rows, starts, scale, caps = rows[live], starts[live], scale[live], caps[live]
            term, acc, couplings = term[live], acc[live], couplings[live]
            if not len(rows):
                return out, exponents
            reach, cap = int(starts.max()), int(caps.min())
    raise NumericalError("chain exponential series did not converge")


def _chain_standard_norms(cases) -> list[float]:
    """Independent route to ft_standard_norm: ||e^{(Theta/2) T} e_q0||^2 on a finite chain.

    One value per (Theta, n1, n2) in cases, all chains summed as one batch
    (`_chain_exp`).  T is X restricted to the occupation-difference chain
    through (n1, n2).  The amplitudes decay like tan^q(Theta/2) per site, so
    the chain is sized from that geometric tail and never capped; its cost
    grows like (pi/2 - |Theta|)^-2, so it is meant for moderate Theta.  If
    the tail is not resolved (the decay ratio rounds to 1, or the measured
    end amplitude is not negligible) it raises NumericalError instead of
    returning a truncated value.
    """
    starts, steps, ratios, sizes, rows = [], [], [], [], []
    for big_theta, n1, n2 in cases:
        s_half = abs(big_theta) / 2.0  # diagonal elements of exp are even in Theta
        ratio = math.tan(s_half) ** 2
        if not 0.0 < ratio < 1.0:
            raise NumericalError(f"no geometric chain tail to resolve at Theta={big_theta!r}")
        log_ratio = math.log(ratio)
        # squared amplitudes fall like q^(n1+n2) ratio^q along the chain
        geometric = (_CONV_LOG + math.log1p(-ratio)) / log_ratio
        sites = int(geometric - (n1 + n2) * math.log(geometric + n1 + n2 + 1) / log_ratio) + 24
        q = np.arange(sites - 1, dtype=float)
        rows.append(np.sqrt((q + abs(n1 - n2) + 1.0) * (q + 1.0)))
        starts.append(min(n1, n2))
        steps.append(s_half)
        ratios.append(ratio)
        sizes.append(sites)
    couplings = np.zeros((len(rows), max(sizes) - 1))
    for padded, row in zip(couplings, rows):
        padded[:len(row)] = row
    mantissas, exponents = _chain_exp(np.array(starts), np.array(steps), couplings)
    norms = []
    for (big_theta, _, _), ratio, sites, u, exponent in zip(cases, ratios, sizes, mantissas,
                                                           exponents.tolist()):
        peak = int(np.frexp(u.max())[1])
        u = np.ldexp(u[:sites], -peak)  # largest entry in [1/2, 1): its square cannot overflow
        norm = float(np.sum(u * u))
        tail = u[-1] ** 2 * ratio / (1.0 - ratio)
        if not tail <= norm * _CONV:
            raise NumericalError(f"chain of {sites} sites leaves a relative tail of "
                                 f"{tail / norm:.3g} at Theta={big_theta!r}")
        if math.log2(norm) + 2 * (exponent + peak) >= 1024:
            raise NumericalError(f"chain norm overflows float64 at Theta={big_theta!r}")
        norms.append(math.ldexp(norm, 2 * (exponent + peak)))
    return norms


def ft_norm_exponent_fit(thetas, n1: int, n2: int) -> float:
    """Least-squares slope of log norm against -log cos Theta; expected n1+n2+1."""
    thetas = [float(t) for t in thetas]
    if len(thetas) < 3:
        raise FitError(f"exponent fit needs >= 3 samples, got {len(thetas)}")
    xs = np.array([-math.log(math.cos(t)) for t in thetas])
    ys = np.array([math.log(ft_standard_norm(t / 2.0, n1, n2)) for t in thetas])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# exact symbol route


def ft_generator_poly() -> LadderPoly:
    """X = b1 b2 + b1+ b2+ as an exact polynomial."""
    return LadderPoly.word((B1_ANN, B2_ANN)) + LadderPoly.word((B1_CRE, B2_CRE))
