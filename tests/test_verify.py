"""Verification harness: suite dispatch, corrupt-control hook, crash capture."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from bateman import fock, ft, imagscale, verify
from bateman.algebra import B1_CRE, B2_ANN, LadderPoly
from bateman.errors import DomainError
from bateman.fock import Operator, build_ladder
from bateman.params import derive_params
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
    assert SUITE_NAMES == tuple(SUITES) == ("algebra", "ft", "is", "dynamics")
    assert sum(len(v) for v in SUITES.values()) == 44


#: every suite's check ids in the order its report prints them
_REPORT_ORDER = {
    "algebra": ["algebra.params", "algebra.normal-order", "algebra.vacuum-pairing",
                "algebra.biorthonormality", "algebra.matrix-element",
                "algebra.commutators.interior", "algebra.boundary-defect", "algebra.h-structure",
                "algebra.cross-validation"],
    "ft": ["ft.spectrum", "ft.h-derivation", "ft.reconstruction", "ft.similarity",
           "ft.exp-inverse", "ft.commutators", "ft.h-identity.quarter", "ft.h-identity.generic",
           "ft.vacuum-series", "ft.gram", "ft.basis-two-route", "ft.norm.closed-forms",
           "ft.norm.exponent-fits", "ft.norm.trend", "ft.heisenberg", "ft.xy-reconstruction"],
    "is": ["is.spectrum", "is.h-derivation", "is.closed-form", "is.tilde", "is.commutators",
           "is.h-identity.quarter", "is.h-identity.generic", "is.vacuum", "is.gram",
           "is.matrix-element", "is.heisenberg", "is.xy-reconstruction", "is.xy-conjugation",
           "is.contrast"],
    "dynamics": ["dynamics.classification", "dynamics.branch-antisymmetry",
                 "dynamics.pairing-norm", "dynamics.eom", "dynamics.factor"],
}


def test_each_suite_files_its_checks_in_report_order():
    # a check's suite is its id's prefix, and its place is the order of the declarations
    assert {suite: [fn.check_id for fn in checks] for suite, checks in SUITES.items()} \
        == _REPORT_ORDER


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
    @_check("algebra.synthetic-case", "raises before it measures", 0.0)
    def boom(cfg):
        raise DomainError("synthetic failure")

    try:
        # declaring it files it last in the suite its id names
        assert SUITES["algebra"][-1] is boom
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


#: the default truncation each laddered check declares; is.tilde also reads a chi ladder at 24
_DECLARED_N_MAX = {
    **dict.fromkeys(["ft.similarity", "ft.vacuum-series", "ft.gram", "ft.basis-two-route"], 24),
    **dict.fromkeys(["ft.exp-inverse", "algebra.boundary-defect", "is.vacuum"], 8),
    **dict.fromkeys(["algebra.commutators.interior", "algebra.h-structure", "ft.reconstruction",
                     "ft.commutators", "ft.h-identity.quarter", "ft.h-identity.generic",
                     "ft.heisenberg", "ft.xy-reconstruction", "is.closed-form", "is.tilde",
                     "is.commutators", "is.h-identity.quarter", "is.h-identity.generic",
                     "is.gram", "is.matrix-element", "is.heisenberg", "is.xy-reconstruction"], 12),
}


def _ladder_sizes(monkeypatch, cfg) -> dict[str, list[int]]:
    """The sizes each check of `verify all` asks verify._ladder for, in order."""
    asked, ladder = [], verify._ladder
    monkeypatch.setattr(verify, "_ladder", lambda n_max: asked.append(n_max) or ladder(n_max))
    sizes = {}
    for fn in (fn for suite in SUITE_NAMES for fn in SUITES[suite]):
        asked.clear()
        assert fn(cfg).passed, fn.check_id
        sizes[fn.check_id] = list(asked)
    return sizes


def test_each_laddered_check_declares_the_truncation_it_reads(params, monkeypatch):
    checks = [fn for suite in SUITE_NAMES for fn in SUITES[suite]]
    # readable without running a check; the oracle's sizes follow its polynomial degrees
    assert {fn.check_id: fn.n_max for fn in checks if fn.n_max is not None} == _DECLARED_N_MAX
    sizes = _ladder_sizes(monkeypatch, VerifyConfig(params=params))
    assert {check_id for check_id, asked in sizes.items() if asked} == {
        *_DECLARED_N_MAX, "algebra.cross-validation"}
    assert {check_id: sizes[check_id] for check_id in _DECLARED_N_MAX} == {
        check_id: [n_max, 24] if check_id == "is.tilde" else [n_max]
        for check_id, n_max in _DECLARED_N_MAX.items()}
    overridden = _ladder_sizes(monkeypatch, VerifyConfig(params=params, n_max=10))
    assert {check_id: overridden[check_id] for check_id in _DECLARED_N_MAX} == {
        check_id: [10, 10] if check_id == "is.tilde" else [10] for check_id in _DECLARED_N_MAX}
    assert overridden["algebra.cross-validation"] == sizes["algebra.cross-validation"]


#: the checks that count mismatches and declare tolerance 0
_EXACT = {"algebra.normal-order", "algebra.vacuum-pairing", "algebra.biorthonormality",
          "algebra.matrix-element", "algebra.boundary-defect", "algebra.h-structure",
          "ft.spectrum", "ft.h-derivation", "ft.norm.trend", "is.spectrum", "is.h-derivation",
          "is.xy-conjugation", "is.contrast", "dynamics.classification",
          "dynamics.branch-antisymmetry", "dynamics.pairing-norm"}


@pytest.mark.parametrize("config", [
    {}, {"n_max": 8, "theta": 0.5}, {"n_max": 24, "theta": -0.3},
    # H's entries, the x/y length and max(1, omega, lambda) all above 1
    {"params": derive_params(m=0.5, gamma=0.7, k=2.1, hbar=2.0)},
], ids=["defaults", "n8-theta0.5", "n24-theta-0.3", "scaled"])
def test_declared_description_and_tolerance_are_what_the_check_reports(params, monkeypatch,
                                                                       config):
    cfg = VerifyConfig(**{"params": params, **config})
    checks = [fn for suite in SUITE_NAMES for fn in SUITES[suite]]
    results = [fn(cfg) for fn in checks]
    # the declarations are read without running a body: no ladder is built
    monkeypatch.setattr(verify, "_ladder", None)
    for fn, result in zip(checks, results):
        tolerance = fn.tolerance(cfg)
        assert isinstance(tolerance, float), fn.check_id
        assert tolerance.hex() == result.tolerance.hex(), fn.check_id
        assert fn.description(cfg) == result.description, fn.check_id
    assert len(_EXACT) == 16
    assert {fn.check_id for fn in checks if fn.tolerance(cfg) == 0.0} == _EXACT


@pytest.mark.parametrize("hbar,n_max", [(1e-170, None), (1e200, None), (1e306, 48),
                                        (1e307, None)],
                         ids=["1e-170", "1e+200", "1e+306-48", "1e+307"])
def test_verify_all_passes_at_an_extreme_hbar(hbar, n_max):
    # is.matrix-element's non-normality witness was read on H itself: it
    # underflowed to 0 at 1e-170, failing the guard, and hbar**2 overflowed at
    # 1e200.  The Heisenberg commutators [op, H] overflowed to NaN at 1e307, and
    # at 1e306 with n_max 48.  Both read H / hbar omega, which does not scale with hbar
    params = derive_params(1.0, 1.0, 1.25, hbar=hbar)
    results = run_suite("all", VerifyConfig(params=params, n_max=n_max))
    assert [r.check_id for r in results if not r.passed] == []


@pytest.fixture(scope="module")
def r_half_results():
    """Every ft and is check and algebra.h-structure at the defaults, where r = 1/2."""
    cfg = VerifyConfig(params=derive_params(1.0, 1.0, 1.25))
    return {fn.check_id: fn(cfg) for fn in (*SUITES["ft"], *SUITES["is"],
                                            verify.check_h_structure)}


@pytest.mark.parametrize("inputs", [dict(hbar=3.0), dict(hbar=1e200), dict(gamma=4.0, k=20.0)],
                         ids=["hbar-3", "hbar-1e200", "4gamma-16k"])
def test_matrix_checks_read_r_alone(r_half_results, inputs):
    # each input keeps the bits of r = lam / omega = 1/2 (4 gamma and 16 k scale omega and
    # lam by 4), so every deviation and detail keeps its bits; with H built in physical
    # units 7 to 9 of these checks moved, and the h-identities read 4.4e185 at hbar 1e200
    params = derive_params(**{"m": 1.0, "gamma": 1.0, "k": 1.25, **inputs})
    assert params.r == 0.5
    cfg = VerifyConfig(params=params)
    for fn in (*SUITES["ft"], *SUITES["is"], verify.check_h_structure):
        got, want = fn(cfg), r_half_results[fn.check_id]
        assert got.deviation.hex() == want.deviation.hex(), fn.check_id
        assert repr(got.detail) == repr(want.detail), fn.check_id


@pytest.mark.parametrize("hbar", [1.0, 1e-170, 1e200])
def test_h_structure_fails_on_a_term_that_breaks_commutation(monkeypatch, hbar):
    # hbar omega 1e-3 (a1 a2+ + a2 a1+) in H1 moves n1 - n2 by 2, so [H0, H1] is not 0;
    # on H itself the commutator overflowed to NaN at 1e200 and underflowed to 0 at
    # 1e-170, and neither was counted
    params = derive_params(1.0, 1.0, 1.25, hbar=hbar)
    cfg = VerifyConfig(params=params)
    assert verify.check_h_structure(cfg).passed
    build = verify.build_hamiltonian

    def bent(lad, r):
        ham = build(lad, r)  # H / hbar omega
        h1 = ham.h1 + 1e-3 * (lad.a1 @ lad.a2_dag + lad.a2 @ lad.a1_dag)
        return fock.HamiltonianSet(h0=ham.h0, h1=h1, h=ham.h0 + h1)

    monkeypatch.setattr(verify, "build_hamiltonian", bent)
    result = verify.check_h_structure(cfg)
    assert not result.passed and result.detail["hermiticity"] == 0.0


@pytest.mark.parametrize("hbar", [3.0, 1e200, 1e300])
def test_h_structure_reports_the_commutator_relative_to_its_factors(hbar):
    # the round-off commutator of H0 / hbar and H1 / hbar times hbar^2 read 1.8e-13 at
    # hbar 3 and inf at 1e200 and 1e300; relative to max|H0| max|H1| it is scale-free
    result = verify.check_h_structure(VerifyConfig(params=derive_params(1.0, 1.0, 1.25,
                                                                        hbar=hbar)))
    assert result.passed
    assert 0.0 <= result.detail["h0_h1_commutator"] <= 1e-15


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
    # off the diagonal; the column lookups of either part of H must report it
    exact = verify.hamiltonian_from_plain
    cfg = VerifyConfig(params=params)
    assert check(cfg).deviation == 0
    stray = LadderPoly.word((B1_CRE, B2_ANN), Fraction(1, 7))
    for part in (0, 1):
        def bent(con, branch, part=part):
            parts = list(exact(con, branch))
            parts[part] = parts[part] + stray
            return tuple(parts)

        monkeypatch.setattr(verify, "hamiltonian_from_plain", bent)
        result = check(cfg)
        assert result.deviation > 0 and not result.passed, part


@pytest.mark.parametrize("field,value", [("theta", math.nan), ("theta", -math.inf)])
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


def _ladder_with_rung_bent(names, rung, factor=1.0 + 1e-9):
    """verify._ladder with the sqrt(rung(n_max)) entries of the ladders `names` times factor."""
    def ladder(n_max):
        lad = build_ladder(n_max)
        weight = math.sqrt(rung(n_max))

        def bent(op):
            (offset, weights), = op.diagonals.items()
            weights = np.where(np.abs(weights) == weight, weights * factor, weights)
            return Operator(lad.space.dim, {offset: weights})

        return dataclasses.replace(lad, **{name: bent(getattr(lad, name)) for name in names})

    return ladder


#: the top rung of mode 1, sqrt(n_max) in a1 and a1+
_ladder_with_top_rung_bent = _ladder_with_rung_bent(("a1", "a1_dag"), lambda n_max: n_max)


def test_top_rung_defect_fails_the_checks_that_read_the_top_rung(params, monkeypatch):
    # a1 a1+ climbs from the rung below the top through both bent entries and
    # back, so the bend shows off the top rung; [H0, H1] is compared on the
    # whole matrix.  is.h-identity.quarter still reads round-off under this bend
    monkeypatch.setattr(verify, "_ladder", _ladder_with_top_rung_bent)
    failed = {r.check_id for r in run_suite("all", VerifyConfig(params=params)) if not r.passed}
    assert {"algebra.commutators.interior", "ft.commutators", "is.commutators",
            "algebra.h-structure", "ft.heisenberg", "is.heisenberg", "ft.h-identity.quarter",
            "ft.h-identity.generic", "is.h-identity.generic"} <= failed


def test_commutators_fail_on_a_nan_ladder_entry(params, monkeypatch):
    # [a2, a2+] is NaN at |0,0>, inside the interior; the other pairs read round-off
    monkeypatch.setattr(verify, "_ladder", _ladder_with_vacuum_entry("a2", lambda w: math.nan))
    result = verify.check_commutators_interior(VerifyConfig(params=params))
    assert math.isnan(result.deviation) and not result.passed


def test_commutators_fail_on_a_stray_ladder_entry(params, monkeypatch):
    # a1 gains 1e-3 at (0, 1), an entry off its one diagonal: [a1, a1+] is off
    # by sqrt(2) 1e-3 inside the interior, a defect that only the corrupt
    # hook's negative control otherwise shows
    def ladder(n_max):
        lad = build_ladder(n_max)
        return dataclasses.replace(
            lad, a1=lad.a1 + fock.from_coordinates([0], [1], [1e-3], lad.space.dim))

    cfg = VerifyConfig(params=params)
    assert verify.check_commutators_interior(cfg).passed
    monkeypatch.setattr(verify, "_ladder", ladder)
    result = verify.check_commutators_interior(cfg)
    assert result.deviation > 1e-3 and not result.passed
    assert "corrupted" not in result.detail


def test_boundary_defect_counts_a_wrong_ladder_weight(monkeypatch):
    # the sparse exact product still sees every entry: a weight sqrt(3) -> sqrt(4)
    # spoils [a, a+] at |1><1| and |2><2| of the n_top = 8 chain
    assert verify._exact_single_mode_defect(8) == 0

    exact = verify.ExactScalar

    class Bent(exact):
        def __new__(cls, re=0, im=0, root=1):
            return exact(re, im, 4 if root == 3 else root)

    monkeypatch.setattr(verify, "ExactScalar", Bent)
    assert verify._exact_single_mode_defect(8) == 2


def test_boundary_defect_reads_the_package_ladder(cfg, monkeypatch):
    # the float route squares fock's single-mode ladder: its sqrt(3) weight off by 1e-9
    # relative spoils [a, a+] at |2><2| and |3><3| by 6e-9
    exact = verify.single_mode_lowering

    def bent(size):
        weights = exact(size).diagonals[1].copy()
        weights[2] *= 1.0 + 1e-9
        return Operator(size, {1: weights})

    assert verify.check_boundary_defect(cfg).passed
    monkeypatch.setattr(verify, "single_mode_lowering", bent)
    result = verify.check_boundary_defect(cfg)
    assert result.detail["float_deviation"] > 5e-9 and not result.passed


def test_exp_inverse_catches_a_matrix_exp_entry_off_by_1e9(cfg, monkeypatch):
    # the largest entry of one sector block of every e^{theta X} off by 1e-9
    # relative; the check reads its exponentials stack by stack from sector_exp
    exact = verify.sector_exp

    def skewed(a, charge, states=None):
        stacks = exact(a, charge, states)
        j = max(range(len(stacks)), key=lambda j: np.abs(stacks[j][1]).max())
        idx, blocks = stacks[j]
        blocks = blocks.copy()
        flat = blocks.reshape(-1)
        flat[np.argmax(np.abs(flat))] *= 1.0 + 1e-9
        return [*stacks[:j], (idx, blocks), *stacks[j + 1:]]

    assert verify.check_exp_inverse(cfg).passed
    monkeypatch.setattr(verify, "sector_exp", skewed)
    result = verify.check_exp_inverse(cfg)
    assert result.deviation > 1e-10 and not result.passed


def test_is_gram_catches_a_bounded_frame_vacuum_entry_off_by_1e9(cfg, monkeypatch):
    # the vacuum ket's dominant entry off by 1e-9 relative after the bra was
    # normalized against it: is.gram reads 1.0e-9 against 1e-12
    # (is.matrix-element lets it pass: a rescaled ket is still an eigenvector)
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


@pytest.mark.parametrize("n_max", [12, 24])
@pytest.mark.parametrize("names,rung", [(("a1", "a1_dag"), 1), (("a1", "a1_dag"), 5),
                                        (("a2", "a2_dag"), 5)],
                         ids=["a1-sqrt1", "a1-sqrt5", "a2-sqrt5"])
def test_is_matrix_element_catches_a_low_rung_bent_by_1e9(params, monkeypatch, n_max, names,
                                                         rung):
    # both is.h-identity checks read round-off under these bends; the whole
    # eigenvector residual reads 4.7e-10, 6.2e-10 and 8.2e-10 against 1e-12
    cfg = VerifyConfig(params=params, n_max=n_max)
    assert verify.check_is_matrix_element(cfg).passed
    monkeypatch.setattr(verify, "_ladder", _ladder_with_rung_bent(names, lambda _: rung))
    result = verify.check_is_matrix_element(cfg)
    assert result.deviation > 1e-10 and not result.passed


def _bounded_frame_with(change):
    """imagscale.bounded_frame with its MixedModes passed through change."""
    exact = imagscale.bounded_frame
    return lambda chi, ladder: change(exact(chi, ladder))


def test_is_matrix_element_fails_on_a_hermitian_h_through_the_residual(cfg, monkeypatch):
    # with the frame's swap phase i set to 1 (a2 -> b2+, a2+ -> b2), H on the swapped
    # ladder is Hermitian, so it has no complex eigenpair: the residual alone fails
    exact = imagscale.bounded_frame

    def phase_one(chi, ladder):
        return exact(chi, dataclasses.replace(ladder, a2=-1j * ladder.a2,
                                              a2_dag=-1j * ladder.a2_dag))

    monkeypatch.setattr(imagscale, "bounded_frame", phase_one)
    result = verify.check_is_matrix_element(cfg)
    assert result.deviation > 1.0 and result.detail == {"states": 21} and not result.passed


def test_is_vacuum_catches_a_stray_entry_in_the_vacuum_column(cfg, monkeypatch):
    # <1,0| ann1 |0,0> = 1e-9: ann1 no longer kills e_(0,0), though every entry
    # the mixing is read from is untouched
    def stray(frame):
        space = frame.space
        entry = np.zeros(space.dim - space.index(1, 0), dtype=complex)
        entry[0] = 1e-9
        return dataclasses.replace(frame, ann1=frame.ann1 + Operator(
            space.dim, {-space.index(1, 0): entry}))

    assert verify.check_is_vacuum(cfg).passed
    monkeypatch.setattr(imagscale, "bounded_frame", _bounded_frame_with(stray))
    result = verify.check_is_vacuum(cfg)
    assert result.detail["kernel"] == 1e-9 and not result.passed


def test_is_vacuum_catches_a_singular_mixing(cfg, monkeypatch):
    # ann2 = ann1 still kills e_(0,0), but then so does any vector that
    # ann1 kills: the mixing determinant is 0
    monkeypatch.setattr(imagscale, "bounded_frame", _bounded_frame_with(
        lambda frame: dataclasses.replace(frame, ann2=frame.ann1)))
    result = verify.check_is_vacuum(cfg)
    assert result.detail == {"kernel": 0.0, "det_gap": 1.0} and not result.passed


def test_is_vacuum_leaves_uniqueness_to_the_commutators(cfg, monkeypatch):
    # a zeroed sqrt(3) weight of a1 (b1 in the bounded frame) puts e_(3,0) in
    # the joint kernel too; is.vacuum reads only the e_(0,0) row and column
    # and passes, and is.commutators is the check that fails
    monkeypatch.setattr(verify, "_ladder", _ladder_with_rung_bent(("a1", "a1_dag"),
                                                                  lambda _: 3, 0.0))
    assert verify.check_is_vacuum(cfg).passed
    assert not verify.check_is_commutators(cfg).passed


@pytest.mark.parametrize("theta", [-0.3, 0.5, 0.6, 0.7, 0.78])
def test_ft_similarity_passes_up_to_the_quarter_turn(params, theta):
    # u a = bar_a u reads only the low block of the truncated e^{theta X},
    # which stays exact up to |tan theta| near 1; u a u^-1 read 1.04 at 0.6
    result = verify.check_ft_similarity(VerifyConfig(params=params, theta=theta))
    assert result.passed and result.deviation <= 1e-9


def test_similarity_checks_catch_an_exponential_at_a_skewed_angle(cfg, monkeypatch):
    # every e^{angle G} built at (1 + 1e-7) angle, in the sector kernel that
    # the full exponential, the similarity blocks and the basis columns share:
    # the intertwining form and the two-route basis must fail
    exact = fock.sector_exp

    def skewed(a, charge, states=None):
        return exact(a * (1.0 + 1e-7), charge, states)

    checks = (verify.check_ft_similarity, verify.check_is_tilde, verify.check_ft_two_route)
    assert all(check(cfg).passed for check in checks)
    monkeypatch.setattr(fock, "sector_exp", skewed)
    for check in checks:
        result = check(cfg)
        assert result.deviation > 1e-8 and not result.passed, result.check_id


@pytest.mark.parametrize("check", [fn for checks in SUITES.values() for fn in checks],
                         ids=lambda fn: fn.check_id)
def test_every_check_can_fail(params, check):
    # each check passes at a coarse resolution and the negative control flips
    # it under the id it declares
    result = check(VerifyConfig(params=params, n_max=8))
    assert result.passed and result.check_id == check.check_id
    corrupted = check(VerifyConfig(params=params, n_max=8, corrupt_check=check.check_id))
    assert not corrupted.passed and corrupted.check_id == check.check_id
