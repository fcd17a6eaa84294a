import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnego.config import load_config
from dpnego.explain import ReplayCase, robustness_probe
from dpnego.contracts import (
    ContractRequest,
    Decision,
    FeatureKind,
    PurposeKind,
    ResolutionKind,
    feature_multiset,
    validate_request,
)
from dpnego.negotiation import (
    BELOW_MINIMUM,
    BUDGET_EXCEEDED,
    SAFETY_CONDITION,
    BudgetLedger,
    BudgetOverdraft,
    EngineConfig,
    NonPositiveEpsilon,
    check_feasibility,
    derive_counter_offer,
    effective_sensitivity,
    negotiate,
    objective,
    optimize_epsilon,
    settle,
)

CFG = load_config()
ENGINE = CFG.engine
CATALOG = CFG.catalog


def validated(features, resolution, purpose=PurposeKind.BILLING, proposed=None, window=24):
    return validate_request(
        ContractRequest(
            requester_id="r",
            owner_id="o",
            features=tuple(features),
            window_hours=window,
            resolution=resolution,
            purpose=purpose,
            proposed_epsilon=proposed,
        ),
        CATALOG,
    )


# --- objective -------------------------------------------------------------

def test_objective_utility_minus_cost_only():
    assert objective(1.0, 0.0, 0.0, 0.0, ENGINE) == pytest.approx(1.85)


def test_objective_full_hand_value():
    # 2 - 0.72 + 0.8 + 0.64 - 0.15
    assert objective(1.0, 0.4, 0.8, 0.8, ENGINE) == pytest.approx(2.57)


def test_objective_rejects_zero_epsilon():
    with pytest.raises(NonPositiveEpsilon):
        objective(0.0, 0.4, 0.5, 0.5, ENGINE)


def test_generic_mode_coincides_with_experimental():
    generic = EngineConfig(objective="generic")
    rng = np.random.default_rng(3)
    for _ in range(50):
        eps = float(rng.uniform(0.01, 10))
        s, t, p = rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0, 1)
        assert objective(eps, s, t, p, generic) == pytest.approx(
            objective(eps, s, t, p, ENGINE), rel=1e-12
        )


# --- optimize_epsilon ------------------------------------------------------

def test_optimize_zero_sensitivity_clamped_at_budget():
    # objective is increasing for S=0, so the argmax is the right endpoint
    cfg = EngineConfig(eps_max=4.0)
    assert optimize_epsilon(0.0, 0.5, 1.0, cfg, 8.0) == pytest.approx(4.0)


def test_optimize_interior_optimum_pinned():
    # dense 1e-4 oracle over (0, 8] puts the stationary point at ~0.7523
    got = optimize_epsilon(0.4, 0.8, 0.8, ENGINE, 8.0)
    assert got == pytest.approx(0.752, abs=1e-9)


def test_optimize_empty_interval():
    assert optimize_epsilon(0.4, 0.5, 0.5, ENGINE, 0.0) is None


def test_optimize_endpoint_exact_for_fractional_budget():
    got = optimize_epsilon(0.0, 0.0, 0.0, ENGINE, 7.0005)
    assert got == 7.0005


def test_optimize_matches_finer_oracle_sample():
    rng = np.random.default_rng(42)
    step = ENGINE.grid_step
    for _ in range(50):
        s = float(rng.uniform(0, 2.5))
        h = float(rng.uniform(0.05, 12.0))
        coarse = optimize_epsilon(s, 0.0, 0.0, ENGINE, h)
        upper = min(ENGINE.eps_max, h)
        fine_grid = np.arange(1, int(upper / (step / 10)) + 1) * (step / 10)
        scores = 2 * np.sqrt(fine_grid) - 1.8 * s * fine_grid**1.7 - 0.15 * fine_grid
        fine = float(fine_grid[int(np.argmax(scores))])
        end_score = 2 * math.sqrt(upper) - 1.8 * s * upper**1.7 - 0.15 * upper
        if end_score > float(np.max(scores)):
            fine = upper
        assert coarse is not None
        assert abs(coarse - fine) <= step + 1e-12


@given(
    s=st.floats(min_value=0, max_value=2.5),
    h=st.floats(min_value=0.01, max_value=12),
    t1=st.floats(min_value=0, max_value=1),
    t2=st.floats(min_value=0, max_value=1),
    p1=st.floats(min_value=0, max_value=1),
    p2=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_additive_terms_never_move_argmax(s, h, t1, t2, p1, p2):
    assert optimize_epsilon(s, t1, p1, ENGINE, h) == optimize_epsilon(s, t2, p2, ENGINE, h)


# --- effective sensitivity -------------------------------------------------

def test_effective_sensitivity_finest_resolution():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    assert effective_sensitivity(req) == pytest.approx(0.4)


def test_effective_sensitivity_daily():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.DAILY)
    assert effective_sensitivity(req) == pytest.approx(0.12)


def test_effective_sensitivity_hourly_pair():
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.HOUR1)
    assert effective_sensitivity(req) == pytest.approx(1.02)


# --- feasibility -----------------------------------------------------------

def test_feasibility_ok():
    assert check_feasibility(2.0, 0.4, "billing", BudgetLedger(8.0), ENGINE) is None


def test_feasibility_budget_exceeded():
    assert (
        check_feasibility(9.0, 0.4, "billing", BudgetLedger(8.0), ENGINE)
        == BUDGET_EXCEEDED
    )


def test_feasibility_below_minimum():
    assert (
        check_feasibility(0.01, 0.4, "billing", BudgetLedger(8.0), ENGINE)
        == BELOW_MINIMUM
    )


def test_eps_min_rules_override():
    from dpnego.negotiation import EpsMinRule

    cfg = EngineConfig(eps_min_rules=(EpsMinRule(band_max=1.0, purpose="profiling", value=0.5),))
    assert cfg.eps_min(0.8, "profiling") == 0.5
    assert cfg.eps_min(0.8, "billing") == cfg.eps_min_default
    assert cfg.eps_min(1.5, "profiling") == cfg.eps_min_default


# --- counter-offer pipeline ------------------------------------------------

def test_counter_load_curve_reaches_aggregate_daily():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    result = derive_counter_offer(req, ENGINE)
    assert result is not None
    modified, s_new = result
    assert s_new == pytest.approx(0.06)
    assert modified.request.resolution == ResolutionKind.DAILY
    assert feature_multiset(modified.request.features) == ("aggregate",)


def test_counter_floor_returns_none():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    assert derive_counter_offer(req, ENGINE) is None


def test_counter_two_features():
    # coarsening runs first, so the pipeline lands on {aggregate, appliance}@daily
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN5)
    result = derive_counter_offer(req, ENGINE)
    assert result is not None
    modified, s_new = result
    assert s_new <= 0.25 * req.effective_sensitivity + 1e-12
    assert s_new == pytest.approx(0.27)


@given(
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=4),
    resolution=st.sampled_from(list(ResolutionKind)),
)
@settings(max_examples=100, deadline=None)
def test_counter_target_always_met(features, resolution):
    req = validated(features, resolution)
    result = derive_counter_offer(req, ENGINE)
    if result is not None:
        _, s_new = result
        assert s_new <= ENGINE.counter_factor * req.effective_sensitivity + 1e-9


# --- counter-offer memo on the validated request ------------------------------

def test_counter_memo_repeats_and_matches_fresh_validation():
    req = validated([FeatureKind.LOCATION, FeatureKind.LOAD_CURVE], ResolutionKind.MIN5)
    first = derive_counter_offer(req, ENGINE)
    assert derive_counter_offer(req, ENGINE) is first
    fresh = validate_request(req.request, CATALOG)
    assert derive_counter_offer(fresh, ENGINE) == first


def test_counter_memo_floor_none_is_remembered():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    assert derive_counter_offer(req, ENGINE) is None
    assert req.counter_offers == {ENGINE.counter_factor: None}
    assert derive_counter_offer(req, ENGINE) is None


def test_counter_memo_does_not_leak_between_requests():
    cfg = EngineConfig(safety_mode="staged")
    ledger = BudgetLedger(h_max=1.0)
    outcomes = []
    for requester, proposed in (("alice", 2.0), ("bob", 3.0)):
        req = validate_request(
            ContractRequest(
                requester_id=requester,
                owner_id="o",
                features=(FeatureKind.LOAD_CURVE,),
                window_hours=24,
                resolution=ResolutionKind.MIN15,
                purpose=PurposeKind.BILLING,
                proposed_epsilon=proposed,
            ),
            CATALOG,
        )
        modified, _ = derive_counter_offer(req, cfg)
        assert (modified.request.requester_id, modified.request.proposed_epsilon) == (
            requester,
            proposed,
        )
        outcomes.append(negotiate(req, ledger, 0.3, cfg))
    assert [o.decision for o in outcomes] == [Decision.COUNTER_OFFER] * 2
    assert [o.modified_request.requester_id for o in outcomes] == ["alice", "bob"]
    assert [o.modified_request.proposed_epsilon for o in outcomes] == [2.0, 3.0]


def test_counter_memo_keyed_by_counter_factor():
    req = validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN5)
    loose = EngineConfig(counter_factor=0.9)
    tight = derive_counter_offer(req, ENGINE)
    relaxed = derive_counter_offer(req, loose)
    assert set(req.counter_offers) == {ENGINE.counter_factor, 0.9}
    assert relaxed != tight
    assert relaxed == derive_counter_offer(validate_request(req.request, CATALOG), loose)
    assert derive_counter_offer(req, ENGINE) is tight


def test_validation_idempotent_with_filled_memo():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)
    blank = validate_request(req.request, CATALOG)
    derive_counter_offer(req, ENGINE)
    assert req.counter_offers and not blank.counter_offers
    assert req == blank == validate_request(req, CATALOG)
    assert repr(req) == repr(blank)
    assert "counter_offers" not in repr(req)
    assert dataclasses.replace(req).counter_offers == {}


def test_probe_unchanged_by_memo():
    requests = [
        validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN5),
        validated([FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL], ResolutionKind.MIN15),
        validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY),
    ]
    cases = [
        ReplayCase(request=req, h_remaining=h, trust=t)
        for req in requests
        for h in (0.3, 1.59, 4.0)
        for t in (0.2, 0.85)
    ]

    def fresh(cases):
        return [
            dataclasses.replace(c, request=validate_request(c.request.request, CATALOG))
            for c in cases
        ]

    reference = robustness_probe(fresh(cases), 0.3, 5, seed=7, engine_cfg=ENGINE)
    assert reference.flips > 0
    for req in requests:
        derive_counter_offer(req, EngineConfig(counter_factor=0.5))
    for _ in range(2):
        assert robustness_probe(cases, 0.3, 5, seed=7, engine_cfg=ENGINE) == reference


# --- negotiate -------------------------------------------------------------

def test_negotiate_budget_clamped_approval():
    # low-sensitivity aggregate request against a nearly spent owner:
    # the unconstrained optimum exceeds the remaining 1.5, so the grant
    # clamps to the full remaining budget exactly
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=1.5)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(1.5)


def test_negotiate_safety_rejection_at_low_budget():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1)
    ledger = BudgetLedger(h_max=0.3)
    outcome = negotiate(req, ledger, 0.9, ENGINE)
    assert outcome.decision is Decision.REJECT
    assert outcome.violated == SAFETY_CONDITION


def test_negotiate_zero_sensitivity_takes_whole_budget():
    from dpnego.contracts import ValidatedRequest

    base = validated([FeatureKind.AGGREGATE], ResolutionKind.MIN5)
    req = ValidatedRequest(
        request=base.request,
        features=(),
        resolution=base.resolution,
        purpose=base.purpose,
        catalog=base.catalog,
    )
    outcome = negotiate(req, BudgetLedger(h_max=8.0), 0.5, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(8.0)


def test_negotiate_is_pure():
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)
    ledger = BudgetLedger(h_max=5.0)
    first = negotiate(req, ledger, 0.7, ENGINE)
    second = negotiate(req, ledger, 0.7, ENGINE)
    assert first == second
    assert ledger.h_remaining == 5.0


def test_negotiate_staged_trusted_minimal_path():
    cfg = EngineConfig(safety_mode="staged")
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.DAILY)
    ledger = BudgetLedger(h_max=0.2)  # below 4*S for stage 1, no counter available
    trusted = negotiate(req, ledger, 0.9, cfg)
    assert trusted.decision is Decision.APPROVE
    assert trusted.epsilon_star == pytest.approx(cfg.eps_min_default)
    untrusted = negotiate(req, ledger, 0.3, cfg)
    assert untrusted.decision is Decision.REJECT


def test_negotiate_staged_counter_path():
    cfg = EngineConfig(safety_mode="staged")
    req = validated([FeatureKind.LOAD_CURVE], ResolutionKind.MIN15)  # S_eff 0.36
    ledger = BudgetLedger(h_max=1.0)  # 1.0 < 4*0.36 so stage 1 fails
    outcome = negotiate(req, ledger, 0.3, cfg)
    assert outcome.decision is Decision.COUNTER_OFFER
    assert outcome.modified_request is not None
    assert outcome.epsilon_star >= cfg.eps_min_default


def test_negotiate_caps_grant_at_proposal():
    req = validated([FeatureKind.AGGREGATE], ResolutionKind.HOUR1, proposed=0.12)
    outcome = negotiate(req, BudgetLedger(h_max=8.0), 0.5, ENGINE)
    assert outcome.decision is Decision.APPROVE
    assert outcome.epsilon_star == pytest.approx(0.12)


@given(
    trust_low=st.floats(min_value=0, max_value=1),
    bump=st.floats(min_value=0, max_value=1),
    h=st.floats(min_value=0.05, max_value=10),
    features=st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=3),
    resolution=st.sampled_from(list(ResolutionKind)),
    mode=st.sampled_from(["upfront", "staged"]),
)
@settings(max_examples=80, deadline=None)
def test_monotone_generosity(trust_low, bump, h, features, resolution, mode):
    # a request approved at trust T is never rejected at higher trust
    cfg = EngineConfig(safety_mode=mode)
    req = validated(features, resolution)
    ledger = BudgetLedger(h_max=h)
    low = negotiate(req, ledger, trust_low, cfg)
    high = negotiate(req, ledger, min(1.0, trust_low + bump), cfg)
    if low.decision is Decision.APPROVE:
        assert high.decision is Decision.APPROVE


# --- settle / budget ledger ------------------------------------------------

def test_settle_subtracts():
    ledger = BudgetLedger(h_max=8.0)
    settle(ledger, "c1", 2.0)
    assert ledger.h_remaining == pytest.approx(6.0)


def test_settle_guards_overdraft():
    ledger = BudgetLedger(h_max=0.05)
    with pytest.raises(BudgetOverdraft):
        settle(ledger, "c1", 0.10)


def test_eighty_grants_exhaust_then_fail():
    ledger = BudgetLedger(h_max=8.0)
    for i in range(80):
        settle(ledger, f"c{i}", 0.10)
    assert ledger.h_remaining == 0.0
    assert ledger.exhausted
    with pytest.raises(BudgetOverdraft):
        settle(ledger, "c80", 0.10)


@given(st.lists(st.floats(min_value=0.01, max_value=3.0), max_size=30))
@settings(max_examples=60, deadline=None)
def test_budget_safety_over_any_sequence(grants):
    ledger = BudgetLedger(h_max=8.0)
    for i, eps in enumerate(grants):
        if eps <= ledger.h_remaining + 1e-9:
            settle(ledger, f"c{i}", eps)
        else:
            with pytest.raises(BudgetOverdraft):
                settle(ledger, f"c{i}", eps)
        assert ledger.h_remaining >= 0.0
        assert ledger.spent <= ledger.h_max + 1e-9
