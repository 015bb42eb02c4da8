"""Verification harness: suite dispatch, corrupt-control hook, crash capture."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bateman import construction, ft, imagscale, verify
from bateman.algebra import B1_CRE, B2_ANN, LadderPoly
from bateman.errors import DomainError
from bateman.fock import Operator, build_ladder
from bateman.verify import (
    SUITE_NAMES,
    SUITES,
    VerifyConfig,
    _check,
    all_passed,
    check_ft_norm_closed_forms,
    check_ft_spectrum,
    check_is_spectrum,
    check_oracle_cross_validation,
    run_suite,
)


@pytest.fixture()
def cfg(params):
    return VerifyConfig(params=params)


def test_suite_names_cover_registry():
    assert set(SUITE_NAMES) == set(SUITES)
    assert sum(len(v) for v in SUITES.values()) == 44


def test_algebra_suite_passes(cfg):
    results = run_suite("algebra", cfg)
    assert len(results) == len(SUITES["algebra"])
    assert all_passed(results)
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))


def test_dynamics_suite_passes(cfg):
    assert all_passed(run_suite("dynamics", cfg))


def test_unknown_suite_rejected(cfg):
    with pytest.raises(DomainError):
        run_suite("spectral", cfg)


def test_corrupt_hook_flips_exactly_one(params):
    cfg = VerifyConfig(params=params, corrupt_check="algebra.boundary-defect")
    results = run_suite("algebra", cfg)
    failed = [r for r in results if not r.passed]
    assert [r.check_id for r in failed] == ["algebra.boundary-defect"]
    assert failed[0].detail.get("corrupted") is True
    assert not all_passed(results)


def test_crashing_check_is_reported(params):
    # a coarse truncation once raised through run_suite; now any check that
    # still escapes must come back as an inf-deviation failure under its
    # declared id, not a raise
    @_check("algebra.synthetic-case")
    def boom(cfg):
        raise DomainError("synthetic failure")

    SUITES["algebra"].append(boom)
    try:
        results = run_suite("algebra", VerifyConfig(params=params, n_max=6))
        crashed = [r for r in results if r.deviation == math.inf]
        assert [r.check_id for r in crashed] == ["algebra.synthetic-case"]
        assert not crashed[0].passed
        assert "DomainError" in crashed[0].detail["error"]
    finally:
        SUITES["algebra"].remove(boom)


def test_declared_ids_match_reported_ids(params):
    cfg = VerifyConfig(params=params)
    for suite in ("algebra", "dynamics"):
        results = run_suite(suite, cfg)
        assert [r.check_id for r in results] == [fn.check_id for fn in SUITES[suite]]
    ids = [fn.check_id for checks in SUITES.values() for fn in checks]
    assert len(ids) == len(set(ids)) == 44


def test_n_max_upper_bound(params):
    assert VerifyConfig(params=params, n_max=48).n_max == 48
    with pytest.raises(DomainError, match="bytes"):
        VerifyConfig(params=params, n_max=49)


@pytest.mark.parametrize("states", [None, {(2, 1)}])
def test_norm_closed_forms_check_catches_a_wrong_norm(params, monkeypatch, states):
    # a 1e-6 error in the production norm must fail the check; the (2,1)
    # state has no hand closed form, so only the chain route can catch it
    exact = ft.ft_standard_norm

    def skewed(theta, n1, n2):
        value = exact(theta, n1, n2)
        return value * (1 + 1e-6) if states is None or (n1, n2) in states else value

    cfg = VerifyConfig(params=params)
    assert check_ft_norm_closed_forms(cfg).passed
    monkeypatch.setattr(ft, "ft_standard_norm", skewed)
    result = check_ft_norm_closed_forms(cfg)
    assert not result.passed
    assert 5e-7 < result.deviation < 2e-6


@pytest.mark.parametrize("check", [check_ft_spectrum, check_is_spectrum],
                         ids=lambda fn: fn.check_id)
def test_spectrum_sweep_sees_an_off_diagonal_term(params, monkeypatch, check):
    # b1+ b2 keeps n1 + n2, so its element lands inside the swept block but
    # off the diagonal; the column lookups must report it as a mismatch
    exact = verify.hamiltonian_from_plain
    cfg = VerifyConfig(params=params)
    assert check(cfg).deviation == 0
    monkeypatch.setattr(verify, "hamiltonian_from_plain", lambda con, branch: (
        exact(con, branch) + LadderPoly.word((B1_CRE, B2_ANN), Fraction(1, 7))))
    result = check(cfg)
    assert result.deviation > 0 and not result.passed


@pytest.mark.parametrize("field,value", [("tol_scale", math.nan), ("tol_scale", math.inf),
                                         ("tol_scale", 0.0), ("theta", math.nan),
                                         ("theta", -math.inf), ("margin", 0), ("margin", -3)])
def test_config_rejects_non_finite_and_bad_margin(params, field, value):
    with pytest.raises(DomainError, match=field):
        VerifyConfig(params=params, **{field: value})


@pytest.mark.parametrize("theta", [0.9, -0.9, math.pi / 4, -math.pi / 4, 2.0, 3.0, -2.5])
def test_config_rejects_a_divergent_vacuum_series(params, theta):
    # |tan theta| >= 1: the ft vacuum series has no limit, so no ft check can
    # pass; |tan 3.0| and |tan 2.5| are below 1, but past the quarter turn
    # e^{theta X} is not the rotation that the series sums
    with pytest.raises(DomainError, match="vacuum series (diverges|describes)"):
        VerifyConfig(params=params, theta=theta)


@pytest.mark.parametrize("theta", [0.0, 0.3, -0.78])
def test_config_accepts_a_convergent_vacuum_series(params, theta):
    assert VerifyConfig(params=params, theta=theta).theta == theta


def _ladder_with_vacuum_entry(name, change):
    """verify._ladder with ladder `name`'s entry in the row of |0,0> set to change(entry).

    Each ladder is one diagonal, and that entry is its first: <0,0| a1 |1,0>
    or <0,0| a2 |0,1>.  The conjugate ladder is left alone.
    """
    def ladder(n_max):
        lad = build_ladder(n_max)
        (offset, weights), = getattr(lad, name).diagonals.items()
        weights = weights.copy()
        weights[lad.space.index(0, 0)] = change(weights[lad.space.index(0, 0)])
        return dataclasses.replace(lad, **{name: Operator(lad.space.dim, {offset: weights})})

    return ladder


def test_cross_validation_catches_a_ladder_entry_off_by_1e9(params, monkeypatch):
    # <0,0| a1 |1,0> off by 1e-9 relative, a1_dag left alone: a defect no corrupt hook makes
    cfg = VerifyConfig(params=params)
    assert cfg.corrupt_check is None
    assert check_oracle_cross_validation(cfg).passed
    skewed = _ladder_with_vacuum_entry("a1", lambda w: w * (1.0 + 1e-9))
    monkeypatch.setattr(verify, "_ladder", skewed)
    result = check_oracle_cross_validation(cfg)
    assert result.deviation > 1e-10 and not result.passed


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cross_validation_fails_on_a_non_finite_ladder_entry(params, monkeypatch, value):
    # the walk multiplies the entry into zeros too (inf * 0 is NaN), and a NaN
    # deviation must not be dropped by the running maximum
    monkeypatch.setattr(verify, "_ladder", _ladder_with_vacuum_entry("a1", lambda w: value))
    result = check_oracle_cross_validation(VerifyConfig(params=params))
    assert math.isnan(result.deviation) and not result.passed


def test_commutators_fail_on_a_nan_ladder_entry(params, monkeypatch):
    # [a2, a2+] is NaN at |0,0>, inside the interior; the other pairs read round-off
    monkeypatch.setattr(verify, "_ladder", _ladder_with_vacuum_entry("a2", lambda w: math.nan))
    result = verify.check_commutators_interior(VerifyConfig(params=params))
    assert math.isnan(result.deviation) and not result.passed


def test_exp_inverse_catches_a_matrix_exp_entry_off_by_1e9(cfg, monkeypatch):
    # the largest entry of one block of every e^{theta X} off by 1e-9 relative
    exact = verify.matrix_exp

    def skewed(a):
        u = exact(a)
        offset = max(u.diagonals, key=lambda k: np.abs(u.diagonals[k]).max())
        weights = u.diagonals[offset].copy()
        weights[np.argmax(np.abs(weights))] *= 1.0 + 1e-9
        return Operator(u.shape[0], {**u.diagonals, offset: weights})

    assert verify.check_exp_inverse(cfg).passed
    monkeypatch.setattr(verify, "matrix_exp", skewed)
    result = verify.check_exp_inverse(cfg)
    assert result.deviation > 1e-10 and not result.passed


def test_is_gram_catches_a_bounded_frame_vacuum_entry_off_by_1e9(cfg, monkeypatch):
    # the vacuum ket's dominant entry off by 1e-9 relative after the bra was
    # normalized against it: is.gram reads 1.0e-9 against 1e-12
    # (is.matrix-element, 4.0e-9 against 1.5e-8, lets it pass)
    exact = imagscale.is_vacuum

    def skewed(frame):
        ket, bra = exact(frame)
        ket = ket.copy()
        ket[np.argmax(np.abs(ket))] *= 1.0 + 1e-9
        return ket, bra

    assert verify.check_is_gram(cfg).passed
    monkeypatch.setattr(imagscale, "is_vacuum", skewed)
    result = verify.check_is_gram(cfg)
    assert result.deviation > 5e-10 and not result.passed


@pytest.mark.parametrize("theta", [-0.3, 0.5, 0.6, 0.7, 0.78])
def test_ft_similarity_passes_up_to_the_quarter_turn(params, theta):
    # u a = bar_a u reads only the low block of the truncated e^{theta X},
    # which stays exact up to |tan theta| near 1; u a u^-1 read 1.04 at 0.6
    result = verify.check_ft_similarity(VerifyConfig(params=params, theta=theta))
    assert result.passed and result.deviation <= 1e-9


def test_similarity_checks_catch_an_exponential_at_a_skewed_angle(cfg, monkeypatch):
    # every e^{angle G} built at (1 + 1e-7) angle: the intertwining form must fail
    exact = construction.matrix_exp

    def skewed(a):
        return exact(a * (1.0 + 1e-7))

    assert verify.check_ft_similarity(cfg).passed and verify.check_is_tilde(cfg).passed
    monkeypatch.setattr(construction, "matrix_exp", skewed)
    monkeypatch.setattr(imagscale, "matrix_exp", skewed)
    for check in (verify.check_ft_similarity, verify.check_is_tilde):
        result = check(cfg)
        assert result.deviation > 1e-8 and not result.passed


def test_tol_scale_loosens(params):
    # negative control stays failed even with a large scale: the hook adds
    # an absolute offset, so scaling must not rescue it
    cfg = VerifyConfig(params=params, tol_scale=10.0,
                       corrupt_check="dynamics.factor")
    results = run_suite("dynamics", cfg)
    assert not all_passed(results)


@pytest.mark.parametrize("check", [fn for checks in SUITES.values() for fn in checks],
                         ids=lambda fn: fn.check_id)
def test_every_check_can_fail(params, check):
    # each check passes at a coarse resolution and the negative control flips
    # it under the id it declares
    result = check(VerifyConfig(params=params, n_max=8))
    assert result.passed and result.check_id == check.check_id
    corrupted = check(VerifyConfig(params=params, n_max=8, corrupt_check=check.check_id))
    assert not corrupted.passed and corrupted.check_id == check.check_id
