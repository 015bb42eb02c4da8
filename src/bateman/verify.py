"""Verification suites: every operator identity, spectrum formula, and norm
law checked at desk scale with explicit deviations and tolerances.

Checks are pure functions of a VerifyConfig; results carry (deviation,
tolerance, passed) so reports stay self-describing.  Each check declares its
claim, its tolerance and the truncation it reads (`_check`), so
check.description(cfg), check.tolerance(cfg) and check.n_max are read without
running it; its body returns only its deviation, and a detail dict if it has
one.  A check's suite is its id's prefix, and the checks of each suite are
declared here in the order they report.  Exact checks declare tolerance 0 and
count mismatches.  A corrupt hook is
provided as a negative control for the reporting pipeline: it inflates the
targeted check's deviation and must flip the exit status.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from . import algebra, ft, imagscale
from .construction import (
    Construction,
    StabilityClass,
    basis,
    dual_factor,
    eigenvalue,
    eom_residual,
    gram,
    hamiltonian_formal,
    hamiltonian_from_plain,
    heisenberg_rate,
    identity_report,
    mode2_split,
    pairing_norm_in_time,
    schrodinger_factor,
    similarity_deviation,
    transform,
    xy_mode_exponents,
    xy_operators,
    xy_terms,
)
from .algebra import (
    B1_ANN,
    B1_CRE,
    B2_ANN,
    B2_CRE,
    ExactScalar,
    LadderPoly,
)
from .errors import BatemanError, DomainError, SeriesDivergence
from .fock import (
    Operator,
    build_hamiltonian,
    build_ladder,
    commutator,
    dense,
    identity,
    interior_deviation,
    interior_mask,
    low_block,
    max_abs,
    position_operators,
    sector_exp,
    single_mode_lowering,
)
from .params import PhysicalParams, derive_params

__all__ = ["CheckResult", "VerifyConfig", "SUITE_NAMES", "run_suite", "all_passed"]

#: largest accepted --n-max.  Operators are stored as their diagonals, offsets x dim
#: complex entries of 16 bytes; most hold a few offsets, the largest is an exponential
#: of X or Z, whose sector blocks fill 2 n_max + 1 offsets of the (n_max+1)^2 states
MAX_VERIFY_N_MAX = 48


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    deviation: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyConfig:
    params: PhysicalParams
    n_max: int | None = None      # overrides each check's default truncation
    theta: float = 0.3            # series-safe rotation angle for vacuum/Gram checks
    seed: int = 20260823
    corrupt_check: str | None = None

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 4:
            raise DomainError(f"verify needs n_max >= 4, got {self.n_max}")
        if self.n_max is not None and self.n_max > MAX_VERIFY_N_MAX:
            offsets, dim = 2 * self.n_max + 1, (self.n_max + 1) ** 2
            raise DomainError(f"verify needs n_max <= {MAX_VERIFY_N_MAX}, got {self.n_max}: one "
                              f"exponential could take {offsets} offsets x {dim:,} states x 16 "
                              f"= {16 * offsets * dim:,} bytes")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")
        if abs(math.tan(self.theta)) >= ft.VACUUM_TAN_LIMIT:
            raise DomainError(f"|tan theta| = {abs(math.tan(self.theta)):.6g} >= 1: vacuum series "
                              f"diverges at theta={self.theta}")
        if abs(self.theta) >= math.pi / 4:
            # |tan| repeats with period pi, but e^{theta X} does not: past the
            # quarter turn it is no longer the rotation that the series sums
            raise DomainError(f"|theta| = {abs(self.theta):.6g} >= pi/4: e^{{theta X}} is not the "
                              f"rotation the vacuum series describes")

    def resolve(self, default_n_max: int) -> int:
        return self.n_max if self.n_max is not None else default_n_max


@lru_cache(maxsize=16)
def _ladder(n_max: int):
    return build_ladder(n_max)


def _worst(*deviations: float) -> float:
    """The largest deviation, or NaN when any is NaN; max() drops a NaN that is not first."""
    if any(math.isnan(d) for d in deviations):
        return math.nan
    return max(deviations)


#: each suite's checks in report order, filed by `_check` under their id's prefix
SUITES: dict[str, list] = {}


def _check(check_id: str, description, tolerance, n_max: int | None = None, **args):
    """Declare a check: the claim it reports, its tolerance and the truncation it reads.

    description and tolerance are each a constant or a function of (cfg, n_max), with
    n_max resolved as cfg.resolve(n_max), or None for a check without a ladder.
    check.description(cfg) and check.tolerance(cfg) give what check(cfg) reports
    without running the body.  The body returns only what it measures: its deviation,
    or (deviation, detail).  A check that reads a truncated ladder declares its default
    n_max, and its body is called as body(cfg, ladder of cfg.resolve(n_max), **args);
    any other body as body(cfg, **args).  args holds a shared body's own arguments for
    this check, such as its construction `con`, paper formula or angles.  The check is
    filed in SUITES under its id's prefix, after the checks declared before it.
    """
    def declared(value):
        if not callable(value):
            return lambda cfg: value
        return lambda cfg: value(cfg, None if n_max is None else cfg.resolve(n_max))

    def declare(body):
        @wraps(body)
        def check(cfg: VerifyConfig) -> CheckResult:
            if n_max is None:
                measured = body(cfg, **args)
            else:
                measured = body(cfg, _ladder(cfg.resolve(n_max)), **args)
            deviation, detail = measured if isinstance(measured, tuple) else (measured, {})
            tolerance = check.tolerance(cfg)
            if cfg.corrupt_check == check_id:
                deviation = deviation + 10.0 * tolerance + 1.0
                detail = dict(detail, corrupted=True)
            return CheckResult(check_id=check_id, description=check.description(cfg),
                               deviation=float(deviation), tolerance=float(tolerance),
                               passed=bool(deviation <= tolerance), detail=detail)

        check.check_id, check.n_max = check_id, n_max
        check.description, check.tolerance = declared(description), declared(tolerance)
        SUITES.setdefault(check_id.split(".")[0], []).append(check)
        return check

    return declare


# ---------------------------------------------------------------------------
# algebra suite


@_check("algebra.params", "parameter derivation and quadratic roots", 1e-10)
def check_params_examples(cfg: VerifyConfig):
    dev = 0.0
    mismatch = 0
    p = derive_params(1.0, 1e-9, 1.0)
    dev = _worst(dev, abs(p.omega - 1.0), abs(p.lam - 5e-10))
    p = derive_params(1.0, 1.0, 1.25)
    dev = _worst(dev, abs(p.omega - 1.0), abs(p.lam - 0.5))
    try:
        derive_params(1.0, 2.0, 1.0)  # 4mk == gamma^2 boundary must be rejected
        mismatch += 1
    except BatemanError:
        pass
    for q in (cfg.params, derive_params(1.3, 0.7, 2.1)):
        for sign, roots in xy_mode_exponents(q).items():
            for s in roots:
                dev = _worst(dev, abs(eom_residual(s, sign, q)) / (1 + q.r * q.r))  # over k
        # omega^2 + lam^2 = k/m, scaled near 1 by powers of two: k/m is 1e310 at m 1e-300
        a, e = math.frexp(q.m)[1], math.frexp(q.omega)[1]
        w, lam = math.ldexp(q.omega, -e), math.ldexp(q.lam, -e)
        k_m = math.ldexp(q.k, -a - 2 * e) / math.ldexp(q.m, -a)
        dev = _worst(dev, abs(w**2 + lam**2 - k_m) / k_m)
    return dev + mismatch


@_check("algebra.normal-order", "normal ordering examples and idempotence", 0.0)
def check_normal_order(cfg: VerifyConfig):
    one, num1 = LadderPoly.one(), LadderPoly.word((B1_CRE, B1_ANN))
    num2 = LadderPoly.word((B2_CRE, B2_ANN))
    # (word, its normal form), every canonical word's multiplicity stated, not only the constant's
    examples = [
        ((B1_ANN, B1_CRE), num1 + one),
        ((B1_ANN, B2_CRE), LadderPoly.word((B2_CRE, B1_ANN))),
        ((B1_ANN, B1_ANN, B1_CRE, B1_CRE),
         LadderPoly.word((B1_CRE, B1_CRE, B1_ANN, B1_ANN)) + num1 * 4 + one * 2),
        ((B2_ANN, B1_ANN, B2_CRE, B1_CRE),
         LadderPoly.word((B1_CRE, B2_CRE, B1_ANN, B2_ANN)) + num1 + num2 + one),
        ((B1_ANN, B1_CRE, B1_ANN, B1_CRE),
         LadderPoly.word((B1_CRE, B1_CRE, B1_ANN, B1_ANN)) + num1 * 3 + one),
    ]
    mismatch = sum(LadderPoly.word(word).normal_order() != want for word, want in examples)
    h0, h1 = hamiltonian_formal(ft.FT, "+")
    messy = ft.ft_generator_poly() * (h0 + h1) + LadderPoly.word(
        (B2_ANN, B1_ANN, B2_CRE, B1_CRE), Fraction(3, 7)
    )
    once = messy.normal_order()
    if once.normal_order() != once:
        mismatch += 1
    return mismatch


@_check("algebra.vacuum-pairing", "vacuum pairing examples (n1! n2! weights)", 0.0)
def check_vacuum_pairing(cfg: VerifyConfig):
    one = LadderPoly.one()
    examples = [(one, one, 1),  # (bra, ket, pairing)
                (LadderPoly.symbol(B1_ANN), LadderPoly.symbol(B1_CRE), 1),
                (LadderPoly.word((B1_ANN, B1_ANN, B2_ANN)),
                 LadderPoly.word((B1_CRE, B1_CRE, B2_CRE)), 2)]
    return sum(algebra.vacuum_pairing(bra, ket) != ExactScalar.of(want)
               for bra, ket, want in examples)


@_check("algebra.biorthonormality", "pairing of basis monomials is Kronecker delta", 0.0)
def check_biorthonormality(cfg: VerifyConfig):
    one = LadderPoly.one()
    occupations = [(a, b) for a in range(4) for b in range(4)]
    mismatch = 0
    for ket in occupations:
        column = algebra.basis_column(one, *ket)
        # an absent element is zero on both sides: only the stored bras and the ket can differ
        for bra in {ket, *column}.intersection(occupations):
            want = ExactScalar.of(1 if bra == ket else 0)
            if column.get(bra, ExactScalar.zero()) != want:
                mismatch += 1
    return mismatch


@_check("algebra.matrix-element", "number operator and diagonal H elements", 0.0)
def check_matrix_element_examples(cfg: VerifyConfig):
    mismatch = 0
    number1 = LadderPoly.word((B1_CRE, B1_ANN))
    if algebra.basis_matrix_element(3, 2, number1, 3, 2) != ExactScalar.of(3):
        mismatch += 1
    parts = hamiltonian_formal(ft.FT, "+")  # (H0 / hw, H1 / ihl): the element hw + 2 ihl
    got = [algebra.basis_matrix_element(1, 0, h, 1, 0) for h in parts]
    if got != [ExactScalar.of(1), ExactScalar.of(2)]:
        mismatch += 1
    if any(not algebra.basis_matrix_element(2, 0, h, 1, 1).is_zero() for h in parts):
        mismatch += 1
    return mismatch


@_check("algebra.commutators.interior", "ladder commutators on the interior projection", 1e-12,
        n_max=12)
def check_commutators_interior(cfg: VerifyConfig, lad):
    space = lad.space
    eye = identity(space.dim)
    zero = Operator(space.dim, {})
    dev = 0.0
    # [a1, a2+] is read on the whole matrix below, where it is largest
    pairs = ((lad.a1, lad.a1_dag, eye), (lad.a2, lad.a2_dag, eye), (lad.a2, lad.a1_dag, zero),
             (lad.a1, lad.a2, zero), (lad.a1_dag, lad.a2_dag, zero))
    for x, y, want in pairs:
        dev = _worst(dev, interior_deviation(commutator(x, y), want, space))
    cross = max_abs(commutator(lad.a1, lad.a2_dag))
    dev = _worst(dev, cross)
    return dev, {"cross_mode_exact": cross}


def _exact_single_mode_defect(n_top: int) -> int:
    """Mismatch count for [a, a+] = I - (N+1)|N><N| in exact radical arithmetic;
    matrices hold only their nonzero entries, {(row, col): entry}."""
    size = n_top + 1
    zero = ExactScalar.zero()
    low = {(m, m + 1): ExactScalar(1, 0, m + 1) for m in range(size - 1)}
    raise_ = {(c, r): value for (r, c), value in low.items()}

    def mul(a, b):
        out = {}
        for (r, k), left in a.items():
            for (j, c), right in b.items():
                if j == k:
                    out[r, c] = out.get((r, c), zero) + left * right
        return out

    comm_lr = mul(low, raise_)
    comm_rl = mul(raise_, low)
    mismatch = 0
    for r in range(size):
        for c in range(size):
            got = comm_lr.get((r, c), zero) - comm_rl.get((r, c), zero)
            want = ExactScalar.of(-n_top if r == n_top else 1) if r == c else zero
            mismatch += got != want
    return mismatch


@_check("algebra.boundary-defect", "truncated [a, a+] equals I - (N+1)|N><N| exactly", 0.0,
        n_max=8)
def check_boundary_defect(cfg: VerifyConfig, lad):
    n_top = lad.space.n_max
    mismatch = _exact_single_mode_defect(n_top)
    # float route for the same structure, on the package's single-mode ladder
    low = single_mode_lowering(n_top + 1)
    want = np.ones(n_top + 1)
    want[n_top] = -n_top
    float_dev = max_abs(commutator(low, low.T) - Operator(n_top + 1, {0: want}))
    if float_dev > 1e-13:
        mismatch += 1
    return mismatch, {"float_deviation": float_dev}


@_check("algebra.h-structure", "H Hermitian when truncated; basis change non-unitary; [H0,H1]=0",
        0.0, n_max=12)
def check_h_structure(cfg: VerifyConfig, lad):
    ham = build_hamiltonian(lad, cfg.params.r)
    herm_dev = max_abs(ham.h - ham.h.conj().T)
    # complex eigenvalues coexist with a Hermitian truncation because the
    # basis change e^{theta X} is non-unitary (X itself is Hermitian); it is 0
    # between sectors, so u^H u - I is read stack by stack
    x = ft.generator_matrix(lad)
    nonunitary = _worst(*(max_abs(u.conj().transpose(0, 2, 1) @ u - np.eye(u.shape[1]))
                          for _, u in sector_exp(0.3 * x, lad.space.difference)))
    # H0 is diagonal and H1 normal ordered, so the truncated [H0, H1] vanishes up to
    # round-off; it is read relative to max|H0| max|H1|
    comm_dev = max_abs(commutator(ham.h0, ham.h1)) / (max_abs(ham.h0) * max_abs(ham.h1))
    # a NaN counts as a mismatch
    mismatch = (not herm_dev <= 1e-13) + (not nonunitary >= 0.1) + (not comm_dev <= 1e-10)
    return mismatch, {"hermiticity": herm_dev, "nonunitarity": nonunitary,
                      "h0_h1_commutator": comm_dev}


def _oracle_draws(seed: int) -> list[tuple]:
    """200 (poly, element) draws; every tenth poly also gets a (bra, ket) pair, else None."""
    rng = random.Random(seed)
    draws = []
    for trial in range(200):
        poly = algebra.random_poly(rng, max_degree=6)
        element = None
        if trial % 10 == 0:
            element = ((rng.randint(0, 2), rng.randint(0, 2)),
                       (rng.randint(0, 2), rng.randint(0, 2)))
        draws.append((poly, element))
    return draws


def _oracle_exact(draws: list[tuple]) -> list[complex]:
    """Each draw's vacuum expectation, then its element if it has one, from the exact algebra."""
    values = []
    for poly, element in draws:
        values.append(algebra.vacuum_expectation(poly).to_complex())
        if element is not None:
            (m1, m2), (n1, n2) = element
            values.append(algebra.basis_matrix_element(m1, m2, poly, n1, n2).to_complex())
    return values


def _oracle_numeric(draws: list[tuple]) -> list[complex]:
    """The same values on ladders of n_max = degree + 2 (at least 2) for the pairings, degree
    + 5 for the elements: one walk over every ladder size."""
    requests = []  # (n_max, poly, bra, ket) in the order of the exact values
    for poly, element in draws:
        requests.append((max(2, poly.degree() + 2), poly, (0, 0), (0, 0)))
        if element is not None:
            requests.append((poly.degree() + 5, poly, *element))
    ladders = {n: _ladder(n) for n in {n for n, *_ in requests}}
    return algebra.matrix_elements([(ladders[n], *element) for n, *element in requests])


@_check("algebra.cross-validation", "200 random polynomials: exact oracle vs truncated matrices",
        1e-12)
def check_oracle_cross_validation(cfg: VerifyConfig):
    draws = _oracle_draws(cfg.seed)
    gaps = [abs(exact - numeric)
            for exact, numeric in zip(_oracle_exact(draws), _oracle_numeric(draws))]
    return _worst(*gaps)


# ---------------------------------------------------------------------------
# ft and is suites: each ft check followed by its is twin, a shared body above both


_SWEEP_STATES = [(n1, n2) for n1 in range(6) for n2 in range(6) if n1 + n2 <= 5]


def _spectrum(cfg: VerifyConfig, con: Construction, law, p_floor: int | None = None):
    mismatch = 0
    for branch in (+1, -1):
        parts = hamiltonian_from_plain(con, branch)  # (H0 / hw, H1 / ihl)
        for (n1, n2) in _SWEEP_STATES:
            want = eigenvalue(con, n1, n2, branch)
            if (want.p, want.q) != law(n1, n2, branch):
                mismatch += 1
            if p_floor is not None and want.p < p_floor:
                mismatch += 1
            for h, value in zip(parts, (want.p, want.q)):
                column = algebra.basis_column(h, n1, n2)
                # an absent element is zero on both sides: only stored bras and the ket can differ
                for bra in {(n1, n2), *column}.intersection(_SWEEP_STATES):
                    got = column.get(bra, ExactScalar.zero())
                    if got != ExactScalar.of(value if bra == (n1, n2) else 0):
                        mismatch += 1
    return mismatch


check_ft_spectrum = _check(
    "ft.spectrum", "exact eigenvalues hw(n1-n2) +- ihl(n1+n2+1), n1+n2 <= 5, both branches", 0.0,
    con=ft.FT, law=lambda n1, n2, branch: (n1 - n2, branch * (n1 + n2 + 1)))(_spectrum)
check_is_spectrum = _check(
    "is.spectrum", "exact eigenvalues hw(n1+n2+1) +- ihl(n1-n2), real part >= hw", 0.0,
    con=imagscale.IS, law=lambda n1, n2, branch: (n1 + n2 + 1, branch * (n1 - n2)),
    p_floor=1)(_spectrum)  # real part bounded below by hbar omega


def _derivation(cfg: VerifyConfig, con: Construction):
    return sum(hamiltonian_from_plain(con, branch) != hamiltonian_formal(con, branch)
               for branch in (+1, -1))


check_ft_derivation = _check(
    "ft.h-derivation", "substituted H normal-orders to the diagonal bar form exactly", 0.0,
    con=ft.FT)(_derivation)
check_is_derivation = _check(
    "is.h-derivation", "substituted H normal-orders to the diagonal check form exactly", 0.0,
    con=imagscale.IS)(_derivation)


def _closed_form(cfg: VerifyConfig, lad, con: Construction, at_zero):
    t0 = transform(con, 0.0, lad)
    dev = _worst(*(max_abs(getattr(t0, name) - want) for name, want in at_zero(lad).items()))
    tq = transform(con, con.quarter(+1), lad)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return _worst(dev, max_abs(tq.ann1 - inv_sqrt2 * (lad.a1 - lad.a2_dag)))


check_ft_reconstruction = _check(
    "ft.reconstruction", "bar operators at theta=0 and theta=pi/4 match closed combinations",
    1e-14, n_max=12, con=ft.FT,
    at_zero=lambda lad: {"ann1": lad.a1, "cre2": lad.a2_dag,
                         "cre1": lad.a1_dag, "ann2": lad.a2})(_closed_form)
check_is_closed_form = _check(
    "is.closed-form", "check operators at chi=0 and chi=i pi/4 match closed combinations",
    1e-14, n_max=12, con=imagscale.IS,
    # mode 2 is already swapped at chi = 0
    at_zero=lambda lad: {"ann1": lad.a1, "ann2": (-1j) * lad.a2_dag,
                         "cre1": lad.a1_dag, "cre2": (-1j) * lad.a2})(_closed_form)


@_check("ft.similarity", "e^{theta X} a = (bar a) e^{theta X} on the low block", 1e-8, n_max=24)
def check_ft_similarity(cfg: VerifyConfig, lad):
    thetas = sorted({0.1, cfg.theta})
    x = ft.generator_matrix(lad)
    dev = _worst(*(similarity_deviation(ft.FT, transform(ft.FT, theta, lad), x)
                   for theta in thetas))
    return dev, {"thetas": list(thetas), "window": low_block(lad.space.n_max),
                 "n_max": lad.space.n_max}


@_check("ft.exp-inverse", "exp(theta X) exp(-theta X) = identity", 1e-12, n_max=8)
def check_exp_inverse(cfg: VerifyConfig, lad):
    x = ft.generator_matrix(lad)
    # both exponentials are 0 between sectors, and theta X and -theta X share
    # their sectors and stacks: u u^{-1} is one batched product per stack
    raw, u_rows, inv_rows = 0.0, 0.0, 0.0
    for (_, u), (_, u_inv) in zip(sector_exp(cfg.theta * x, lad.space.difference),
                                  sector_exp(-cfg.theta * x, lad.space.difference)):
        raw = _worst(raw, max_abs(u @ u_inv - np.eye(u.shape[1])))
        u_rows = _worst(u_rows, max_abs(np.abs(u).sum(axis=2)))
        inv_rows = _worst(inv_rows, max_abs(np.abs(u_inv).sum(axis=2)))
    # ||e^{theta X}|| grows like e^{theta n_max}; the resolution-independent
    # statement is the residual relative to the factor norms (max row sums)
    kappa = u_rows * inv_rows
    return raw / kappa, {"raw_deviation": raw, "kappa": kappa}


@_check("is.tilde", "mode-2 squeeze: similarity routes, pi/2 closed form, Z composition", 1e-8,
        n_max=12)
def check_is_tilde(cfg: VerifyConfig, lad):
    dev_sim = _worst(*(imagscale.tilde_similarity_deviation(phi) for phi in (0.2j, 0.3j)))
    t_ann, t_cre = imagscale.tilde_pair(math.pi / 2, lad.a2, lad.a2_dag)
    dev_cf = _worst(max_abs(t_ann - (-1j) * lad.a2_dag), max_abs(t_cre - (-1j) * lad.a2))
    z_built = lad.a1_dag @ t_ann + t_cre @ lad.a1
    dev_z = max_abs(z_built - imagscale.generator_z_matrix(lad))
    chi_lad = _ladder(cfg.resolve(24))
    dev_chi = similarity_deviation(imagscale.IS, transform(imagscale.IS, 0.3j, chi_lad),
                                   imagscale.generator_z_matrix(chi_lad))
    return _worst(dev_sim, dev_cf, dev_z, dev_chi), {
        "squeeze_similarity": dev_sim, "closed_form": dev_cf, "z_composition": dev_z,
        "chi_similarity": dev_chi}


def _commutators(cfg: VerifyConfig, lad, con: Construction, angle):
    space = lad.space
    eye = identity(space.dim)
    zero = Operator(space.dim, {})
    dev = 0.0
    for a in (con.quarter(+1), con.quarter(-1), angle(cfg)):
        tr = transform(con, a, lad)
        # the two operators mixed from (a1, a2+) commute on the whole truncated space
        same_side, cross = mode2_split(con, tr)
        dev = _worst(dev, interior_deviation(commutator(tr.ann1, tr.cre1), eye, space))
        dev = _worst(dev, interior_deviation(commutator(tr.ann2, tr.cre2), eye, space))
        dev = _worst(dev, interior_deviation(commutator(tr.ann1, cross), zero, space))
        dev = _worst(dev, max_abs(commutator(tr.ann1, same_side)))
    return dev


check_ft_commutators = _check(
    "ft.commutators", "bar-mode commutation relations on the interior", 1e-12,
    n_max=12, con=ft.FT, angle=lambda cfg: cfg.theta)(_commutators)
check_is_commutators = _check(
    "is.commutators", "check-mode commutation relations on the interior", 1e-12,
    n_max=12, con=imagscale.IS, angle=lambda cfg: 0.37j)(_commutators)


def _identity_roundoff(cfg: VerifyConfig, n_max: int) -> float:
    """Round-off of an h-identity: 4 eps per row of the (n_max+1)^2 matrix, in units of
    the entries of H / hbar omega, max(1, r) (1 at the defaults)."""
    return 4 * float(np.finfo(float).eps) * (n_max + 1) ** 2 * max(1, cfg.params.r)


def _identity_quarter(cfg: VerifyConfig, lad, con: Construction):
    return _worst(*(identity_report(con, transform(con, con.quarter(branch), lad), cfg.params.r,
                                    branch) for branch in (+1, -1)))


check_ft_identity_quarter = _check(
    "ft.h-identity.quarter", "H0/H1 equal their bar number-operator forms at theta=+-pi/4",
    _identity_roundoff, n_max=12, con=ft.FT)(_identity_quarter)
check_is_identity_quarter = _check(
    "is.h-identity.quarter", "H0/H1 equal their check number-operator forms at chi=+-i pi/4",
    _identity_roundoff, n_max=12, con=imagscale.IS)(_identity_quarter)


def _identity_generic(cfg: VerifyConfig, lad, con: Construction, angle):
    return identity_report(con, transform(con, angle(cfg), lad), cfg.params.r)


check_ft_identity_generic = _check(
    "ft.h-identity.generic", "H0/H1 equal the full cos2theta/sin2theta bar expressions",
    _identity_roundoff, n_max=12, con=ft.FT, angle=lambda cfg: cfg.theta)(_identity_generic)
check_is_identity_generic = _check(
    "is.h-identity.generic", "H0/H1 equal the full cosh/sinh check expressions at generic chi",
    _identity_roundoff, n_max=12, con=imagscale.IS, angle=lambda cfg: 0.2j)(_identity_generic)


def _ft_vacuum_tail(cfg: VerifyConfig, n_max: int) -> float:
    # the pairing sums tan^2 per rung, and the truncation drops every rung past n_max
    return abs(math.tan(cfg.theta)) ** (2 * (n_max + 1))


@_check("ft.vacuum-series", "vacuum pairing telescopes to 1; divergence signaled at pi/4",
        lambda cfg, n_max: max(1e-12, 2.0 * _ft_vacuum_tail(cfg, n_max)), n_max=24)
def check_ft_vacuum(cfg: VerifyConfig, lad):
    ket, bra = ft.ft_vacuum_series(cfg.theta, lad.space)
    dev = abs(bra @ ket - 1.0)
    mismatch = 0
    k0, b0 = ft.ft_vacuum_series(0.0, lad.space)
    unit = np.zeros(lad.space.dim)
    unit[lad.space.index(0, 0)] = 1.0
    if max_abs(k0 - unit) != 0.0 or max_abs(b0 - unit) != 0.0:
        mismatch += 1
    try:
        ft.ft_vacuum_series(math.pi / 4, lad.space)
        mismatch += 1
    except SeriesDivergence:
        pass
    return dev + mismatch, {"geometric_tail": _ft_vacuum_tail(cfg, lad.space.n_max)}


@_check("is.vacuum", "bounded-frame vacuum e_(0,0): check annihilators kill it, check creators "
        "kill it from the left, (b1, b2) mixing has |det| 1 (both branches)", 1e-12, n_max=8)
def check_is_vacuum(cfg: VerifyConfig, lad):
    zero = [lad.space.index(0, 0)]
    one_quantum = [lad.space.index(1, 0), lad.space.index(0, 1)]
    kernel, det_gap = 0.0, 0.0
    for branch in (+1, -1):
        frame = imagscale.bounded_frame(imagscale.IS.quarter(branch), lad)
        ket, bra = imagscale.is_vacuum(frame)
        kernel = _worst(kernel, max_abs(frame.ann1 @ ket), max_abs(frame.ann2 @ ket),
                        max_abs(bra @ frame.cre1), max_abs(bra @ frame.cre2))
        # the mixings of (b1, b2) and (b1+, b2+), read off the entries from e_(1,0)
        # and e_(0,1) to e_(0,0) (of the transposed creators).  Only with the
        # ladder weights, which is.commutators checks, does an invertible
        # mixing leave e_(0,0) the only joint kernel vector on each side
        for first, second in ((frame.ann1, frame.ann2), (frame.cre1.T, frame.cre2.T)):
            (a, b), (c, d) = (dense(op, zero, one_quantum)[0] for op in (first, second))
            det_gap = _worst(det_gap, abs(abs(a * d - b * c) - 1.0))
    return _worst(kernel, det_gap), {"kernel": kernel, "det_gap": det_gap}


def _gram_q_cap(n_max: int) -> int:
    """The largest occupation a Gram pairs, two rungs of headroom per quantum below n_max."""
    return min(3, max(0, (n_max - 2) // 2))


def _gram(cfg: VerifyConfig, lad, frame):
    modes, vacuum = frame(cfg, lad)
    pairing = gram(modes, vacuum, _gram_q_cap(lad.space.n_max))
    return max_abs(pairing - np.eye(pairing.shape[0]))


def _ft_frame(cfg: VerifyConfig, lad):
    return transform(ft.FT, cfg.theta, lad), ft.ft_vacuum_series(cfg.theta, lad.space)


def _ft_gram_tolerance(cfg: VerifyConfig, n_max: int) -> float:
    # the series tail per rung is tan^2, but the monomial normalization of the
    # worst pair (2*q_cap rungs up) gives back roughly one power per rung;
    # the single power with a x10 cushion bounds the measured gap at every n_max
    tail = abs(math.tan(cfg.theta)) ** (n_max + 1 - 2 * _gram_q_cap(n_max))
    return max(1e-10, 10.0 * tail)


def _is_frame(cfg: VerifyConfig, lad):
    frame = imagscale.bounded_frame(imagscale.IS.quarter(+1), lad)
    return frame, imagscale.is_vacuum(frame)


check_ft_gram = _check(
    "ft.gram", lambda cfg, n_max: "biorthonormality Gram is identity for occupations <= "
    f"{_gram_q_cap(n_max)}", _ft_gram_tolerance, n_max=24, frame=_ft_frame)(_gram)
check_is_gram = _check(
    "is.gram", lambda cfg, n_max: "bounded-frame Gram is identity for occupations <= "
    f"{_gram_q_cap(n_max)}", 1e-12, n_max=12, frame=_is_frame)(_gram)


def _ft_two_route_tolerance(cfg: VerifyConfig, n_max: int) -> float:
    # both routes truncate the same series; the measured gap decays like a
    # single power of tan per rung (normalization eats the other power)
    return max(1e-8, 50.0 * abs(math.tan(cfg.theta)) ** (n_max - 2))


@_check("ft.basis-two-route", "creator-monomial and exponential-map basis vectors agree",
        _ft_two_route_tolerance, n_max=24)
def check_ft_two_route(cfg: VerifyConfig, lad):
    tr = transform(ft.FT, cfg.theta, lad)
    vacuum = ft.ft_vacuum_series(cfg.theta, lad.space)
    keep = interior_mask(lad.space, 2)
    states = ((0, 0), (1, 0), (2, 1))
    dev = 0.0
    kets, bras = basis(tr, states, vacuum)
    for ket_a, bra_a, (ket_b, bra_b) in zip(kets.T, bras, ft.ft_basis_similarity(tr, states)):
        dev = _worst(dev, max_abs((ket_a - ket_b)[keep]), max_abs((bra_a - bra_b)[keep]))
    return dev


@_check("ft.norm.closed-forms",
        "standard norms match 1/cos, 1/cos^2, (2-cos^2)/cos^3 and the chain route", 1e-8)
def check_ft_norm_closed_forms(cfg: VerifyConfig):
    dev = 0.0
    worst = {}
    cases = [(big_theta, n1, n2) for big_theta in ft.MODERATE_GRID
             for (n1, n2) in ft.NORMS_STATES]
    for (big_theta, n1, n2), chain in zip(cases, ft._chain_standard_norms(cases)):
        closed = ft.ft_norm_closed_forms(big_theta)
        got = ft.ft_standard_norm(big_theta / 2.0, n1, n2)
        wants = {"chain": chain}
        if (n1, n2) in closed:
            wants["closed_form"] = closed[(n1, n2)]
        for route, want in wants.items():
            rel = abs(got - want) / abs(want)
            if not rel <= dev and not math.isnan(dev):  # a NaN is the worst, and stays
                dev = rel
                worst = {"Theta": big_theta, "n1": n1, "n2": n2, "route": route,
                         "got": got, "want": want}
    return dev, worst


@_check("ft.norm.exponent-fits", "divergence exponents fit to n1+n2+1", 0.1)
def check_ft_norm_fits(cfg: VerifyConfig):
    dev = 0.0
    slopes = {}
    for (n1, n2) in ft.NORMS_STATES:
        slope = ft.ft_norm_exponent_fit(ft.FIT_THETA_GRID, n1, n2)
        slopes[f"({n1},{n2})"] = slope
        dev = _worst(dev, abs(slope - (n1 + n2 + 1)))
    return dev, slopes


@_check("ft.norm.trend", "vacuum norm strictly increases toward pi/2 and exceeds 1e3", 0.0)
def check_ft_norm_trend(cfg: VerifyConfig):
    values = [ft.ft_standard_norm(t / 2.0, 0, 0) for t in ft.TREND_THETA_GRID]
    mismatch = sum(not b > a for a, b in zip(values, values[1:])) + (not values[-1] > 1e3)
    return mismatch, {"values": values}


@_check("is.matrix-element", "bounded-frame basis kets and bras are eigenvectors of H, "
        "max|H k - E k| relative to hbar (omega + lambda) (n1 + n2 + 1) (both branches)", 1e-12,
        n_max=12)
def check_is_matrix_element(cfg: VerifyConfig, lad):
    r = cfg.params.r
    cap = min(5, lad.space.n_max - 2)
    states = [(n1, n2) for n1 in range(cap + 1) for n2 in range(cap + 1 - n1)]
    dev = 0.0
    for branch in (+1, -1):
        frame = imagscale.bounded_frame(imagscale.IS.quarter(branch), lad)
        vacuum = imagscale.is_vacuum(frame)
        kets, bras = basis(frame, states, vacuum)
        energy = np.array([rec.p + 1j * rec.q * r for rec in
                           (eigenvalue(imagscale.IS, n1, n2, branch) for n1, n2 in states)])
        # (1 + r) (n1 + n2 + 1) bounds |E / hbar omega| and the size of H / hbar omega on
        # the state, so the round-off of H k stays below it however large r is
        scale = (1 + r) * (np.sum(states, axis=1) + 1)
        h = build_hamiltonian(frame.ladder, r).h
        dev = _worst(dev, max_abs((h @ kets - kets * energy) / scale),
                     max_abs((h.T @ bras.T - bras.T * energy) / scale))
    return dev, {"states": len(states)}


def _heisenberg(cfg: VerifyConfig, lad, con: Construction):
    h = build_hamiltonian(lad, cfg.params.r).h
    dev = 0.0
    for branch in (+1, -1):
        tr = transform(con, con.quarter(branch), lad)
        for mode, kind, op in ((1, "ann", tr.ann1), (2, "ann", tr.ann2),
                               (1, "cre", tr.cre1), (2, "cre", tr.cre2)):
            lhs = commutator(op, h) / 1j
            rate = heisenberg_rate(con, mode, kind, branch, cfg.params.r)
            dev = _worst(dev, interior_deviation(lhs, rate * op, lad.space))
    return dev


def _rate_roundoff(cfg: VerifyConfig, n_max: int) -> float:
    # the rates in units of omega, and the round-off of [op, H / hbar omega], grow with r
    return 1e-10 * max(1, cfg.params.r)


check_ft_heisenberg = _check(
    "ft.heisenberg", "(i hbar)^-1 [bar op, H] equals the closed-form rate times the op",
    _rate_roundoff, n_max=12, con=ft.FT)(_heisenberg)
check_is_heisenberg = _check(
    "is.heisenberg", "(i hbar)^-1 [check op, H] equals the closed-form rate times the op",
    _rate_roundoff, n_max=12, con=imagscale.IS)(_heisenberg)


def _xy(cfg: VerifyConfig, lad, con: Construction):
    x_ref, y_ref = position_operators(lad)
    dev = 0.0
    for branch in (+1, -1):
        x0, y0 = xy_operators(con, branch, 0.0, lad, cfg.params.r)
        dev = _worst(dev, max_abs(x0 - x_ref), max_abs(y0 - y_ref))
    return dev


check_ft_xy = _check("ft.xy-reconstruction", "x(0), y(0) reassemble the rotated position pair",
                     1e-12, n_max=12, con=ft.FT)(_xy)
check_is_xy = _check("is.xy-reconstruction", "x(0), y(0) reassemble the rotated position pair",
                     1e-12, n_max=12, con=imagscale.IS)(_xy)


@_check("is.xy-conjugation", "symbol conjugation maps the x(t) expression onto y(t)", 0.0)
def check_is_conjugation(cfg: VerifyConfig):
    pairs = [xy_terms(imagscale.IS, sign) for sign in (+1, -1)]
    return sum((imagscale.conjugate_xy_terms(x_terms) != y_terms)
               + (imagscale.conjugate_xy_terms(y_terms) != x_terms) for x_terms, y_terms in pairs)


@_check("is.contrast", "integer pairs transpose between the two constructions", 0.0)
def check_contrast(cfg: VerifyConfig):
    mismatch = 0
    for n1 in range(5):
        for n2 in range(5):
            ft_rec = eigenvalue(ft.FT, n1, n2, "+")
            is_rec = eigenvalue(imagscale.IS, n1, n2, "+")
            if ft_rec.p != is_rec.q or ft_rec.q != is_rec.p:
                mismatch += 1
    return mismatch


# ---------------------------------------------------------------------------
# dynamics suite


@_check("dynamics.classification",
        "no stable states in the rotation construction; stability on n1=n2 otherwise", 0.0)
def check_classification(cfg: VerifyConfig):
    mismatch = 0
    for n1 in range(7):
        for n2 in range(7):
            for branch in (+1, -1):
                c_ft = eigenvalue(ft.FT, n1, n2, branch).stability
                if c_ft == StabilityClass.STABLE:
                    mismatch += 1
                want_ft = StabilityClass.GROWING if branch > 0 else StabilityClass.DECAYING
                if c_ft != want_ft:
                    mismatch += 1
                c_is = eigenvalue(imagscale.IS, n1, n2, branch).stability
                if (n1 == n2) != (c_is == StabilityClass.STABLE):
                    mismatch += 1
                if n1 != n2:
                    want_is = (
                        StabilityClass.GROWING
                        if branch * (n1 - n2) > 0
                        else StabilityClass.DECAYING
                    )
                    if c_is != want_is:
                        mismatch += 1
    return mismatch


@_check("dynamics.branch-antisymmetry",
        "branches swap growing and decaying, stability is shared", 0.0)
def check_branch_antisymmetry(cfg: VerifyConfig):
    swap = {
        StabilityClass.GROWING: StabilityClass.DECAYING,
        StabilityClass.DECAYING: StabilityClass.GROWING,
        StabilityClass.STABLE: StabilityClass.STABLE,
    }
    return sum(swap[eigenvalue(con, n1, n2, "+").stability]
               != eigenvalue(con, n1, n2, "-").stability
               for con in (ft.FT, imagscale.IS) for n1 in range(7) for n2 in range(7))


@_check("dynamics.pairing-norm", "bra-ket pairing is exactly constant in time", 0.0)
def check_pairing_norm(cfg: VerifyConfig):
    grid = (0.0, 1.0, 10.0)
    mismatch = 0
    for rec in (eigenvalue(ft.FT, 1, 0, "-"), eigenvalue(imagscale.IS, 2, 1, "+")):
        rate = rec.rate(cfg.params)
        mismatch += pairing_norm_in_time(rec, grid, rate) != [1.0, 1.0, 1.0]
        cross = pairing_norm_in_time(rec, grid, rate, other=(rec.n1 + 1, rec.n2))
        mismatch += cross != [0.0, 0.0, 0.0]
    return mismatch


@_check("dynamics.eom", "x/y mode exponents satisfy the classical equations of motion",
        lambda cfg, n_max: 1e-12 * (1 + cfg.params.r * cfg.params.r))  # 1e-12 k / m omega^2
def check_eom_residuals(cfg: VerifyConfig):
    params = cfg.params
    exps = xy_mode_exponents(params)
    dev = 0.0
    for s in exps["damped"]:
        dev = _worst(dev, abs(eom_residual(s, "damped", params)))
    for s in exps["amplified"]:
        dev = _worst(dev, abs(eom_residual(s, "amplified", params)))
    mismatch = 0
    undamped = abs(eom_residual(1j * params.omega, "damped", params))
    if undamped <= params.r:  # 0.5 gamma omega / m omega^2
        mismatch += 1
    return dev + mismatch, {"undamped_control": undamped}


@_check("dynamics.factor", "scalar evolution factors: decay value, unit modulus, reciprocal pair",
        1e-12)
def check_factor_examples(cfg: VerifyConfig):
    params = cfg.params
    dev = 0.0
    rate = eigenvalue(ft.FT, 0, 0, "-").rate(params)
    got = schrodinger_factor(rate, 1.0 / params.lam)
    dev = _worst(dev, abs(got - math.exp(-1.0)))
    stable = eigenvalue(imagscale.IS, 0, 0, "+").rate(params)
    for t in (0.0, 1.0, 10.0):
        dev = _worst(dev, abs(abs(schrodinger_factor(stable, t)) - 1.0))
    mixed = eigenvalue(imagscale.IS, 1, 0, "+").rate(params)
    # |factor|^2 = e^{2 lambda t} must stay finite: past lambda = 1/2 the times shrink
    # with 1/lambda (the scale is exactly 1 below it)
    scale = 0.5 / max(params.lam, 0.5)
    for t in (0.0, 0.7 * scale, 3.0 * scale):
        factor = schrodinger_factor(mixed, t)
        dev = _worst(dev, abs(factor * dual_factor(mixed, t) - 1.0))
        rhs = math.exp(2.0 * mixed.imag * t)
        dev = _worst(dev, abs(abs(factor) ** 2 - rhs) / max(rhs, 1.0))
    return dev


SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, cfg: VerifyConfig) -> list[CheckResult]:
    """Run one suite (or 'all'); a crashing check is reported under its id, not raised."""
    if name == "all":
        checks = [fn for suite in SUITE_NAMES for fn in SUITES[suite]]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    ids = [fn.check_id for fn in checks]
    if cfg.corrupt_check is not None and cfg.corrupt_check not in ids:
        # a negative control that inflates nothing would report a clean pass
        raise DomainError(f"corrupt check {cfg.corrupt_check!r} is no check of suite {name!r}; "
                          f"its checks are {', '.join(ids)}")
    results = []
    for fn in checks:
        try:
            results.append(fn(cfg))
        except Exception as exc:
            results.append(
                CheckResult(
                    check_id=fn.check_id,
                    description="check raised an error",
                    deviation=math.inf,
                    tolerance=0.0,
                    passed=False,
                    detail={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
