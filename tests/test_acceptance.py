"""End-to-end acceptance gate.

Every guarantee the package makes is rechecked here at its stated tolerance
and runtime budget, one printed line per guarantee. Run with -s (or rely on
capsys.disabled) to see the lines. Each budget is max(1 s, 20 times the
gate's median over 5 runs on a 2-vCPU box), so a slowdown of that order fails.
"""

import math
import random
import time

import numpy as np
import pytest

from bateman import algebra, ft, imagscale
from bateman.algebra import ExactScalar, LadderPoly
from bateman.construction import (
    StabilityClass,
    eigenvalue,
    eom_residual,
    gram,
    hamiltonian_formal,
    identity_report,
    pairing_norm_in_time,
    transform,
    xy_mode_exponents,
    xy_operators,
)
from bateman.errors import BatemanError
from bateman.fock import (
    Operator,
    build_ladder,
    commutator,
    identity,
    interior_deviation,
    position_operators,
)
from bateman.params import derive_params
from bateman.verify import (
    VerifyConfig,
    _exact_single_mode_defect,
    check_ft_heisenberg,
    check_ft_identity_quarter,
    check_ft_xy,
    check_is_heisenberg,
    check_is_identity_quarter,
)

PARAMS = derive_params(m=1.0, gamma=1.0, k=1.25)


def _gate(capsys, label, budget_s, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"FAIL {label} [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"PASS {label}: {detail} [{elapsed:.2f}s]")
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"


def test_exact_spectra_first_mixing(capsys):
    def body():
        checked = 0
        for branch in (1, -1):
            parts = hamiltonian_formal(ft.FT, branch)  # (H0 / hw, H1 / ihl)
            for n1 in range(6):
                for n2 in range(6 - n1):
                    got = [algebra.basis_matrix_element(n1, n2, h, n1, n2) for h in parts]
                    want = (n1 - n2, branch * (n1 + n2 + 1))
                    assert got == [ExactScalar.of(v) for v in want]
                    checked += 1
        return f"{checked} diagonal elements exact, zero tolerance"

    _gate(capsys, "spectrum, rotation route", 1.0, body)


def test_exact_spectra_second_mixing(capsys):
    def body():
        checked = 0
        for branch in (1, -1):
            parts = hamiltonian_formal(imagscale.IS, branch)  # (H0 / hw, H1 / ihl)
            for n1 in range(6):
                for n2 in range(6 - n1):
                    got = [algebra.basis_matrix_element(n1, n2, h, n1, n2) for h in parts]
                    want = (n1 + n2 + 1, branch * (n1 - n2))
                    assert got == [ExactScalar.of(v) for v in want]
                    assert want[0] >= 1  # real part never dips below hbar*omega
                    checked += 1
        return f"{checked} diagonal elements exact, real parts >= hbar*omega"

    _gate(capsys, "spectrum, imaginary-scale route", 1.0, body)


def test_operator_identities_at_split_angles(capsys):
    def body():
        lad = build_ladder(12)
        # the round-off the h-identity checks declare, 4 eps dim at these parameters
        cfg = VerifyConfig(params=PARAMS, n_max=12)
        bound = check_ft_identity_quarter.tolerance(cfg)
        assert bound == check_is_identity_quarter.tolerance(cfg)
        worst = 0.0
        for sign in (1, -1):
            chi = sign * 1j * math.pi / 4
            for con, angle in ((ft.FT, sign * math.pi / 4), (imagscale.IS, chi)):
                modes = transform(con, angle, lad)
                # H1 against the general-angle form, then against the reduced form
                for branch in (None, sign):
                    dev = identity_report(con, modes, PARAMS.r, branch)
                    assert dev <= bound
                    worst = max(worst, dev)
        return f"max deviation {worst:.2e} <= {bound:.2e} (n_max=12, off the top rung)"

    _gate(capsys, "operator identities at the split angles", 1.0, body)


def test_commutator_algebra_and_boundary_defect(capsys):
    def body():
        lad = build_ladder(12)
        space = lad.space
        eye, zero = identity(space.dim), Operator(space.dim, {})
        worst = 0.0
        pairs = [
            (lad.a1, lad.a1_dag, eye),
            (lad.a2, lad.a2_dag, eye),
            (lad.a1, lad.a2_dag, zero),
            (lad.a1, lad.a2, zero),
            (lad.a1_dag, lad.a2_dag, zero),
        ]
        for a, b, want in pairs:
            dev = interior_deviation(commutator(a, b), want, space)
            assert dev <= 1e-12
            worst = max(worst, dev)
        mismatches = _exact_single_mode_defect(8)
        assert mismatches == 0
        return f"interior commutators {worst:.2e} <= 1e-12; boundary defect exact"

    _gate(capsys, "commutator algebra", 1.0, body)


def test_norm_closed_forms_and_exponent_fits(capsys):
    def body():
        worst = 0.0
        for big in (0.3, 0.6, 1.0, 1.4):
            c = math.cos(big)
            forms = {(0, 0): 1.0 / c, (1, 0): 1.0 / c**2, (1, 1): (2.0 - c * c) / c**3}
            for (n1, n2), want in forms.items():
                got = ft.ft_standard_norm(big / 2.0, n1, n2)
                rel = abs(got - want) / abs(want)
                assert rel <= 1e-8
                worst = max(worst, rel)
        worst_fit = 0.0
        for (n1, n2) in ((0, 0), (1, 0), (1, 1), (2, 1)):
            fit = ft.ft_norm_exponent_fit(ft.FIT_THETA_GRID, n1, n2)
            err = abs(fit - (n1 + n2 + 1))
            assert err <= 0.1
            worst_fit = max(worst_fit, err)
        return f"closed forms rel {worst:.2e} <= 1e-8; fit error {worst_fit:.3f} <= 0.1"

    _gate(capsys, "standard-norm closed forms and divergence fits", 1.0, body)


def test_biorthonormality_grams(capsys):
    def body():
        tr = transform(ft.FT, 0.3, build_ladder(24))
        g1 = gram(tr, ft.ft_vacuum_series(0.3, tr.space), 3)
        dev1 = float(np.max(np.abs(g1 - np.eye(g1.shape[0]))))
        assert dev1 <= 1e-8
        rep = imagscale.bounded_frame(1j * math.pi / 4, build_ladder(12))
        g2 = gram(rep, imagscale.is_vacuum(rep), 3)
        dev2 = float(np.max(np.abs(g2 - np.eye(g2.shape[0]))))
        assert dev2 <= 1e-8
        return f"rotation {dev1:.2e}, imaginary-scale {dev2:.2e}, both <= 1e-8"

    _gate(capsys, "biorthonormality Grams", 1.0, body)


def test_heisenberg_derivative_form(capsys):
    def body():
        cfg = VerifyConfig(params=PARAMS)
        worst = 0.0
        for check in (check_ft_heisenberg, check_is_heisenberg):
            result = check(cfg)
            assert result.passed
            assert result.deviation <= 1e-10
            worst = max(worst, result.deviation)
        return f"rate-constant form, interior deviation {worst:.2e} <= 1e-10"

    _gate(capsys, "Heisenberg derivative form", 1.0, body)


def test_eom_certification(capsys):
    def body():
        worst_res = 0.0
        for sign, roots in xy_mode_exponents(PARAMS).items():
            for s in roots:
                res = abs(eom_residual(s, sign, PARAMS))
                assert res <= 1e-12 * (1 + PARAMS.r**2)  # 1e-12 k in units of m omega^2
                worst_res = max(worst_res, res)
        lad = build_ladder(12)
        xp, yp = position_operators(lad)
        worst_xy = 0.0
        for sign in (1, -1):
            x, y = xy_operators(ft.FT, sign, 0.0, lad, PARAMS.r)
            worst_xy = max(worst_xy, interior_deviation(x, xp, lad.space),
                           interior_deviation(y, yp, lad.space))
            x, y = xy_operators(imagscale.IS, sign, 0.0, lad, PARAMS.r)
            worst_xy = max(worst_xy, interior_deviation(x, xp, lad.space),
                           interior_deviation(y, yp, lad.space))
        bound = check_ft_xy.tolerance(VerifyConfig(params=PARAMS))  # 1e-12 at unit length
        assert worst_xy <= bound
        return (f"residuals {worst_res:.2e} <= 1e-12 k / m omega^2; "
                f"t=0 x,y deviation {worst_xy:.2e} <= {bound:.0e}")

    _gate(capsys, "equations of motion", 1.0, body)


def test_stability_classification(capsys):
    def body():
        for branch in ("+", "-"):
            for n1 in range(7):
                for n2 in range(7):
                    got = eigenvalue(ft.FT, n1, n2, branch).stability
                    assert got is not StabilityClass.STABLE
                    got = eigenvalue(imagscale.IS, n1, n2, branch).stability
                    assert (got is StabilityClass.STABLE) == (n1 == n2)
        rec = eigenvalue(ft.FT, 2, 1, "+")
        norms = pairing_norm_in_time(rec, (0.0, 1.0, 10.0), rec.rate(PARAMS))
        assert norms == [1.0, 1.0, 1.0]
        rec = eigenvalue(imagscale.IS, 1, 1, "-")
        norms = pairing_norm_in_time(rec, (0.0, 1.0, 10.0), rec.rate(PARAMS))
        assert norms == [1.0, 1.0, 1.0]
        return "98 classifications; pairing norm exactly constant on {0,1,10}"

    _gate(capsys, "stability classification and pairing conservation", 1.0, body)


def test_oracle_matrix_cross_validation(capsys):
    def body():
        rng = random.Random(20260823)
        worst = 0.0
        for _ in range(200):
            poly = algebra.random_poly(rng, max_degree=6)
            lad = build_ladder(max(2, poly.degree() + 2))
            exact = algebra.vacuum_pairing(LadderPoly.one(), poly).to_complex()
            numeric = algebra.matrix_elements([(lad, poly, (0, 0), (0, 0))])[0]
            dev = abs(exact - numeric)
            assert dev <= 1e-12
            worst = max(worst, dev)
        return f"200 random polynomials, worst gap {worst:.2e} <= 1e-12"

    _gate(capsys, "exact-oracle vs matrix cross-validation", 1.02, body)
