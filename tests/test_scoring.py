import dataclasses

import pytest
from hypothesis import given, strategies as st

from dpnego.config import load_config
from dpnego.contracts import FeatureCategory, FeatureKind, PurposeKind
from dpnego.scoring import (
    OutOfRange,
    TrustConfig,
    TrustLedger,
    TrustStore,
    purpose_score,
    sensitivity_score,
    trust_score,
    update_trust,
)


CATALOG = load_config().catalog


def cats(*kinds):
    return tuple(CATALOG.feature(k) for k in kinds)


def test_sensitivity_single_load_curve():
    assert sensitivity_score(cats(FeatureKind.LOAD_CURVE)) == pytest.approx(0.4)


def test_sensitivity_location_plus_appliance():
    got = sensitivity_score(cats(FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL))
    assert got == pytest.approx(1.7)


def test_sensitivity_empty_is_zero():
    assert sensitivity_score(()) == 0.0


@given(st.lists(st.sampled_from(list(FeatureKind)), max_size=6))
def test_sensitivity_monotone_under_inclusion(kinds):
    subset = sensitivity_score(cats(*kinds))
    superset = sensitivity_score(cats(*kinds, FeatureKind.AGGREGATE))
    assert superset >= subset


def test_trust_zero_history():
    assert trust_score(TrustLedger(), TrustConfig()) == 0.0


def test_trust_saturated():
    cfg = TrustConfig(beta=(0.4, 0.3, 0.3), n_sat=10)
    ledger = TrustLedger(succ_count=10, quality=1.0, alignment=1.0)
    assert trust_score(ledger, cfg) == pytest.approx(1.0)


def test_trust_hand_value():
    cfg = TrustConfig(beta=(0.4, 0.3, 0.3), n_sat=10)
    ledger = TrustLedger(succ_count=5, quality=0.8, alignment=0.5)
    # 0.4*0.5 + 0.3*0.8 + 0.3*0.5
    assert trust_score(ledger, cfg) == pytest.approx(0.59)


def test_update_completed_increments():
    ledger = TrustLedger(succ_count=3)
    assert update_trust(ledger, "completed").succ_count == 4


def test_update_quality_half_life_one():
    cfg = TrustConfig(half_life_events=1)
    ledger = update_trust(TrustLedger(), "quality_report", 1.0, cfg)
    assert ledger.quality == pytest.approx(0.5)


def test_update_alignment_out_of_range():
    with pytest.raises(OutOfRange):
        update_trust(TrustLedger(), "alignment_report", 1.2)


def replace_reference(ledger, event, value, cfg):
    """update_trust written with dataclasses.replace, as the reference."""
    if event == "completed":
        return dataclasses.replace(ledger, succ_count=ledger.succ_count + 1,
                                   events=ledger.events + 1)
    if value is None or not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{event} value must be in [0,1], got {value}")
    w = cfg.ewma_weight
    if event == "quality_report":
        new = ledger.quality + w * (value - ledger.quality)
        return dataclasses.replace(ledger, quality=new, events=ledger.events + 1)
    new = ledger.alignment + w * (value - ledger.alignment)
    return dataclasses.replace(ledger, alignment=new, events=ledger.events + 1)


@given(
    half_life=st.integers(min_value=1, max_value=20),
    events=st.lists(
        st.tuples(
            st.sampled_from(["completed", "quality_report", "alignment_report"]),
            st.one_of(st.none(), st.floats(min_value=-0.5, max_value=1.5)),
        ),
        max_size=40,
    ),
)
def test_update_trust_matches_replace_reference(half_life, events):
    cfg = TrustConfig(half_life_events=half_life)
    ledger = TrustLedger()
    for event, value in events:
        try:
            expected = replace_reference(ledger, event, value, cfg)
        except OutOfRange:
            with pytest.raises(OutOfRange):
                update_trust(ledger, event, value, cfg)
            continue
        ledger = update_trust(ledger, event, value, cfg)
        assert ledger == expected  # dataclass equality covers events too


def test_trust_ledger_range_checks_still_run():
    with pytest.raises(OutOfRange):
        TrustLedger(quality=1.5)
    with pytest.raises(OutOfRange):
        TrustLedger(succ_count=-1)


def test_purpose_table_values():
    assert purpose_score(PurposeKind.BILLING, CATALOG) == 1.0
    assert purpose_score(PurposeKind.FORECASTING, CATALOG) == 0.8
    assert purpose_score(PurposeKind.GRID_MONITORING, CATALOG) == 0.75
    assert purpose_score(PurposeKind.DEMAND_RESPONSE, CATALOG) == 0.7
    assert purpose_score(PurposeKind.PEER_TRADING, CATALOG) == 0.6
    assert purpose_score(PurposeKind.PROFILING, CATALOG) == 0.1


def test_beta_must_sum_to_one():
    with pytest.raises(ValueError):
        TrustConfig(beta=(0.5, 0.5, 0.5))


@given(
    n=st.integers(min_value=0, max_value=30),
    q=st.floats(min_value=0, max_value=1),
    a=st.floats(min_value=0, max_value=1),
)
def test_trust_bounded(n, q, a):
    score = trust_score(TrustLedger(succ_count=n, quality=q, alignment=a), TrustConfig())
    assert 0.0 <= score <= 1.0


@given(
    n=st.integers(min_value=0, max_value=30),
    q=st.floats(min_value=0, max_value=1),
    a=st.floats(min_value=0, max_value=1),
)
def test_trust_monotone_in_components(n, q, a):
    cfg = TrustConfig()
    base = trust_score(TrustLedger(succ_count=n, quality=q, alignment=a), cfg)
    assert trust_score(TrustLedger(succ_count=n + 1, quality=q, alignment=a), cfg) >= base
    bumped_q = min(1.0, q + 0.1)
    assert trust_score(TrustLedger(succ_count=n, quality=bumped_q, alignment=a), cfg) >= base


@given(events=st.lists(st.tuples(st.sampled_from(["completed", "quality_report", "alignment_report"]),
                                 st.floats(min_value=0, max_value=1)), max_size=40))
def test_replay_reconstructs_bit_exactly(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("trust") / "events.jsonl"
    store = TrustStore()
    for event, value in events:
        store.record("req-a", event, None if event == "completed" else value)
    store.save(path)
    replayed = TrustStore.load(path)
    assert replayed.ledgers == store.ledgers
    assert replayed.score("req-a") == store.score("req-a")


def test_event_sequence_deterministic():
    a = TrustStore()
    b = TrustStore()
    for store in (a, b):
        store.record("r", "completed")
        store.record("r", "quality_report", 0.9)
        store.record("r", "alignment_report", 0.7)
    assert a.score("r") == b.score("r")
