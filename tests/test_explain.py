import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnego.config import load_config
from dpnego.contracts import (
    ContractRequest,
    Decision,
    FeatureKind,
    PurposeKind,
    ResolutionKind,
    validate_request,
)
from dpnego.explain import (
    ExplainConfig,
    FactorMismatch,
    Factors,
    REJECT_SUGGESTIONS,
    ReplayCase,
    explain,
    factors_for,
    privacy_utility_score,
    robustness_probe,
)
from dpnego.negotiation import (
    BudgetLedger,
    EngineConfig,
    NonPositiveEpsilon,
    negotiate,
)

CFG = load_config()
ENGINE = CFG.engine
CATALOG = CFG.catalog


def validated(features, resolution, purpose=PurposeKind.BILLING, proposed=None):
    return validate_request(
        ContractRequest(
            requester_id="r",
            owner_id="o",
            features=tuple(features),
            window_hours=24,
            resolution=resolution,
            purpose=purpose,
            proposed_epsilon=proposed,
        ),
        CATALOG,
    )


# --- privacy-utility score ---------------------------------------------------

def test_pu_score_golden_value():
    # hand arithmetic: 0.25*(1 - 0.1^1.7) + 0.25*sqrt(0.1) + 0.25*0.8 - 0.25*0.1
    got = privacy_utility_score(1.0, 0.4, 0.8, ENGINE)
    assert got == pytest.approx(0.49906878571678726, abs=1e-12)


def test_pu_score_maximal_at_zero_sensitivity_full_trust():
    # normalized risk vanishes at S=0 and trust enters positively, so for any
    # epsilon the (S=0, T=1) score dominates every other (S, T) combination
    for eps in (0.5, 1.0, 5.0, 9.0):
        best = privacy_utility_score(eps, 0.0, 1.0, ENGINE)
        for s in (0.2, 0.8, 1.7):
            for t in (0.0, 0.4, 0.9):
                assert privacy_utility_score(eps, s, t, ENGINE) <= best + 1e-12


def test_pu_score_rejects_zero_epsilon():
    with pytest.raises(NonPositiveEpsilon):
        privacy_utility_score(0.0, 0.4, 0.8, ENGINE)


def test_pu_score_generic_mode_matches_default():
    # the score normalizes by eps_max alone, so objective lambdas set in code
    # ("generic") leave it equal to the shipped engine's
    for lambdas in [(1.0, 1.0, 1.0, 0.8, 1.0), (2.5, 0.3, 0.0, 0.0, 0.7), (0.0,) * 5]:
        generic = EngineConfig(lambdas=lambdas)
        for eps, s, t in [(1.0, 0.4, 0.8), (3.0, 1.2, 0.3), (0.2, 0.0, 1.0)]:
            assert privacy_utility_score(eps, s, t, generic) == pytest.approx(
                privacy_utility_score(eps, s, t, ENGINE), abs=1e-9
            )


# --- explain dispatch --------------------------------------------------------

def test_approval_with_high_consumption_warning():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=1.5)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.APPROVE
    factors = factors_for(req, ledger, 0.9, outcome)
    result = explain(outcome, factors, ledger, ENGINE, CFG.explain)
    assert result.decision is Decision.APPROVE
    assert result.warning_high_consumption  # 1.5 / 1.5 >= 0.5
    assert result.pu_score is not None
    assert "Warning" in result.text


def test_approval_without_warning():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1, proposed=0.5)
    ledger = BudgetLedger(h_max=8.0)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    factors = factors_for(req, ledger, 0.9, outcome)
    result = explain(outcome, factors, ledger, ENGINE, CFG.explain)
    assert not result.warning_high_consumption


def test_rejection_names_constraint_and_suggests():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=0.3)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.REJECT
    factors = factors_for(req, ledger, 0.9, outcome)
    result = explain(outcome, factors, ledger, ENGINE, CFG.explain)
    assert result.violated == "safety_condition"
    assert result.suggestions == REJECT_SUGGESTIONS
    assert len(result.suggestions) == 3


def test_counter_offer_lists_exactly_changed_parameters():
    staged = EngineConfig(safety_mode="staged")
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    ledger = BudgetLedger(h_max=1.0)
    outcome = negotiate(req, ledger, 0.3, staged)
    assert outcome.decision is Decision.COUNTER_OFFER
    factors = factors_for(req, ledger, 0.3, outcome)
    result = explain(outcome, factors, ledger, staged, CFG.explain)
    assert set(result.changed_parameters) == {"resolution", "features"}
    assert any("min5 -> daily" in s for s in result.suggestions)


def test_factor_mismatch_raises():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=8.0)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    bad = Factors(
        s_eff=req.effective_sensitivity,
        trust=0.9,
        purpose_score=1.0,
        h_remaining=8.0,
        eps_star=0.123,
        request=req.request,
    )
    with pytest.raises(FactorMismatch):
        explain(outcome, bad, ledger, ENGINE, CFG.explain)


def test_trace_ids_deterministic():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=8.0)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    factors = factors_for(req, ledger, 0.9, outcome)
    a = explain(outcome, factors, ledger, ENGINE, CFG.explain)
    b = explain(outcome, factors, ledger, ENGINE, CFG.explain)
    assert a.trace_id == b.trace_id


@given(
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=3),
    resolution=st.sampled_from(list(ResolutionKind)),
    h=st.floats(min_value=0.05, max_value=10),
    trust=st.floats(min_value=0, max_value=1),
    mode=st.sampled_from(["upfront", "staged"]),
)
@settings(max_examples=80, deadline=None)
def test_explanation_decision_consistency(features, resolution, h, trust, mode):
    cfg = EngineConfig(safety_mode=mode)
    req = validated(features, resolution)
    ledger = BudgetLedger(h_max=h)
    outcome = negotiate(req, ledger, trust, cfg)
    factors = factors_for(req, ledger, trust, outcome)
    result = explain(outcome, factors, ledger, cfg, CFG.explain)
    assert result.decision == outcome.decision
    if outcome.decision is Decision.REJECT:
        assert result.violated is not None
        assert result.suggestions


# --- robustness probe ----------------------------------------------------------

def _cases(n, h, features, resolution, trust=0.5):
    req = validated(features, resolution)
    return [ReplayCase(request=req, h_remaining=h, trust=trust) for _ in range(n)]


def test_probe_identity_perturbation_is_stable():
    cases = _cases(50, 8.0, [FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)
    report = robustness_probe(cases, 0.0, 1, seed=1, engine_cfg=ENGINE)
    assert report.stability == 1.0
    assert report.flips == 0


def test_probe_boundary_requests_flip():
    # H just below 4*S: the base decision is reject; downward S draws approve
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)  # S 0.4
    h = 4 * 0.4 - 1e-6
    cases = [ReplayCase(request=req, h_remaining=h, trust=0.5) for _ in range(200)]
    report = robustness_probe(cases, 0.5 - 1e-9, 1, seed=2, engine_cfg=ENGINE)
    assert report.stability < 1.0
    assert report.flips == report.flips_at_threshold


def test_probe_rejects_bad_perturbation():
    with pytest.raises(ValueError):
        robustness_probe([], 0.7, 1, seed=1, engine_cfg=ENGINE)


def test_probe_default_stream_stability():
    from dpnego import simulate

    report = simulate.run_probe(CFG, replays=500)
    assert report.stability >= 0.95
    assert report.flips == report.flips_at_threshold


def test_the_package_attribute_explain_is_the_submodule():
    # the package re-exported the function under the submodule's name, so
    # a monkeypatch through dpnego.explain replaced nothing the code calls
    import sys

    import dpnego

    assert dpnego.explain is sys.modules["dpnego.explain"]
    assert "explain" not in dpnego.__all__
