import dataclasses
import re

import pytest
from hypothesis import example, given, strategies as st

from dpnego import scoring
from dpnego.config import load_config
from dpnego.contracts import FeatureKind, PurposeKind, ResolutionKind
from dpnego.scoring import (
    OutOfRange,
    TrustConfig,
    TrustLedger,
    TrustStore,
    fold_trust,
    trust_score,
)


CATALOG = load_config().catalog


def sensitivity(*kinds):
    """The price of ``kinds`` at 5-minute resolution (attenuation 1.0, so the
    coefficients' sum), priced directly so that an empty set (which
    validation refuses) has a value."""
    return CATALOG.price(kinds, ResolutionKind.MIN5)


def test_sensitivity_single_load_curve():
    assert sensitivity(FeatureKind.LOAD_CURVE) == pytest.approx(0.4)


def test_sensitivity_location_plus_appliance():
    got = sensitivity(FeatureKind.LOCATION, FeatureKind.APPLIANCE_LEVEL)
    assert got == pytest.approx(1.7)


def test_sensitivity_empty_is_zero():
    assert sensitivity() == 0.0


@given(st.lists(st.sampled_from(list(FeatureKind)), max_size=6))
def test_sensitivity_monotone_under_inclusion(kinds):
    subset = sensitivity(*kinds)
    superset = sensitivity(*kinds, FeatureKind.AGGREGATE)
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
    assert fold_trust(ledger, [("completed", None)]).succ_count == 4


def test_update_quality_half_life_one():
    cfg = TrustConfig(half_life_events=1)
    ledger = fold_trust(TrustLedger(), [("quality_report", 1.0)], cfg)
    assert ledger.quality == pytest.approx(0.5)
    assert TrustStore(cfg=cfg).record("r", "quality_report", 1.0) == ledger


def test_update_alignment_out_of_range():
    with pytest.raises(OutOfRange):
        fold_trust(TrustLedger(), [("alignment_report", 1.2)])
    store = TrustStore()
    with pytest.raises(OutOfRange):
        store.record("r", "alignment_report", 1.2)
    assert store.ledgers == {}


def replace_reference(ledger, event, value, cfg):
    """One trust event written with dataclasses.replace, as the reference."""
    if event == "completed":
        return dataclasses.replace(ledger, succ_count=ledger.succ_count + 1)
    if value is None or not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{event} value must be in [0,1], got {value}")
    w = cfg.ewma_weight
    if event == "quality_report":
        new = ledger.quality + w * (value - ledger.quality)
        return dataclasses.replace(ledger, quality=new)
    new = ledger.alignment + w * (value - ledger.alignment)
    return dataclasses.replace(ledger, alignment=new)


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
def test_one_event_fold_matches_replace_reference(half_life, events):
    cfg = TrustConfig(half_life_events=half_life)
    ledger = TrustLedger()
    store = TrustStore(cfg=cfg)
    for event, value in events:
        try:
            expected = replace_reference(ledger, event, value, cfg)
        except OutOfRange:
            with pytest.raises(OutOfRange):
                fold_trust(ledger, [(event, value)], cfg)
            with pytest.raises(OutOfRange):
                store.record("r", event, value)
            continue
        ledger = fold_trust(ledger, [(event, value)], cfg)
        assert ledger == expected
        assert store.record("r", event, value) == expected


def test_trust_ledger_range_checks_still_run():
    with pytest.raises(OutOfRange):
        TrustLedger(quality=1.5)
    with pytest.raises(OutOfRange):
        TrustLedger(succ_count=-1)


def test_purpose_table_values():
    assert CATALOG.purpose_scores[PurposeKind.BILLING] == 1.0
    assert CATALOG.purpose_scores[PurposeKind.FORECASTING] == 0.8
    assert CATALOG.purpose_scores[PurposeKind.GRID_MONITORING] == 0.75
    assert CATALOG.purpose_scores[PurposeKind.DEMAND_RESPONSE] == 0.7
    assert CATALOG.purpose_scores[PurposeKind.PEER_TRADING] == 0.6
    assert CATALOG.purpose_scores[PurposeKind.PROFILING] == 0.1


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


def test_event_sequence_deterministic():
    a = TrustStore()
    b = TrustStore()
    for store in (a, b):
        store.record("r", "completed")
        store.record("r", "quality_report", 0.9)
        store.record("r", "alignment_report", 0.7)
    assert a.score("r") == b.score("r")


# --- shared blank ledger and cached EWMA weight ------------------------------

def fresh_reference(events, cfg):
    """TrustStore.record/score written with a fresh TrustLedger() per unseen
    requester, as the reference."""
    ledgers = {}
    for requester, event, value in events:
        try:
            updated = fold_trust(ledgers.get(requester) or TrustLedger(), [(event, value)], cfg)
        except OutOfRange:
            continue
        ledgers[requester] = updated
    return ledgers


@given(
    half_life=st.integers(min_value=1, max_value=20),
    events=st.lists(
        st.tuples(
            st.sampled_from(["req-a", "req-b", "req-c"]),
            st.sampled_from(["completed", "quality_report", "alignment_report"]),
            st.one_of(st.none(), st.floats(min_value=-0.5, max_value=1.5)),
        ),
        max_size=40,
    ),
)
def test_store_with_shared_blank_matches_fresh_ledgers(half_life, events):
    cfg = TrustConfig(half_life_events=half_life)
    store = TrustStore(cfg=cfg)
    for requester, event, value in events:
        try:
            store.record(requester, event, value)
        except OutOfRange:
            continue
    ledgers = fresh_reference(events, cfg)
    assert store.ledgers == ledgers
    for requester in ("req-a", "req-b", "req-c", "req-unseen"):
        expected = trust_score(ledgers.get(requester) or TrustLedger(), cfg)
        assert store.score(requester) == expected
    assert scoring._BLANK == TrustLedger()
    assert store.ledger("req-unseen") == TrustLedger()


@pytest.mark.parametrize("half_life", [1, 2, 3, 5, 7, 10, 64, 1000])
def test_cached_ewma_weight_is_bit_exact(half_life):
    cfg = TrustConfig(half_life_events=half_life)
    assert cfg.ewma_weight.hex() == (1 - 2 ** (-1 / half_life)).hex()
    replaced = dataclasses.replace(cfg, half_life_events=half_life + 1)
    assert replaced.ewma_weight.hex() == (1 - 2 ** (-1 / (half_life + 1))).hex()


def test_cached_ewma_weight_stays_out_of_eq_hash_and_repr():
    cfg = TrustConfig()
    assert "ewma_weight" not in repr(cfg)
    assert cfg == TrustConfig() and hash(cfg) == hash(TrustConfig())
    with pytest.raises(TypeError):
        TrustConfig(ewma_weight=0.5)


# --- folding a run of events -------------------------------------------------

def ledger_bits(store):
    return {rid: (led.succ_count, led.quality.hex(), led.alignment.hex())
            for rid, led in store.ledgers.items()}


VALID_EVENT = st.tuples(
    st.sampled_from(["completed", "quality_report", "alignment_report"]),
    st.floats(min_value=0, max_value=1),
).map(lambda ev: (ev[0], None if ev[0] == "completed" else ev[1]))


def recorded(cfg, seed_events, run):
    """A store built by one ``record`` per event, as the reference."""
    store = TrustStore(cfg=cfg)
    for event, value in seed_events:
        store.record("req-a", event, value)
    for event, value in run:
        store.record("req-a", event, value)
    return store


@given(
    half_life=st.integers(min_value=1, max_value=20),
    seed_events=st.lists(VALID_EVENT, max_size=15),
    run=st.lists(VALID_EVENT, max_size=30),
)
def test_extend_matches_one_record_per_event(half_life, seed_events, run):
    cfg = TrustConfig(half_life_events=half_life)
    store = recorded(cfg, seed_events, [])
    returned = store.extend("req-a", run)
    expected = recorded(cfg, seed_events, run)
    assert ledger_bits(store) == ledger_bits(expected)
    assert returned == store.ledger("req-a")


BAD_EVENTS = [("quality_report", 1.5), ("alignment_report", -0.1), ("quality_report", None),
              ("alignment_report", float("nan")), ("bogus", None), ("completed ", None)]


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("bad", BAD_EVENTS)
def test_extend_with_a_bad_event_changes_nothing(seeded, bad):
    seed_events = [("completed", None), ("quality_report", 0.8)] if seeded else []
    reference = recorded(TrustConfig(), seed_events, [("completed", None)])
    with pytest.raises(Exception) as record_error:
        reference.record("req-a", *bad)

    store = recorded(TrustConfig(), seed_events, [])
    ledgers = dict(store.ledgers)
    run = [("completed", None), ("alignment_report", 0.5), bad, ("quality_report", 0.9)]
    with pytest.raises(Exception) as extend_error:
        store.extend("req-a", run)
    assert type(extend_error.value) is type(record_error.value)
    assert store.ledgers == ledgers


def test_extend_checks_the_ledger_bounds_at_every_event():
    # a weight of 2 takes quality 0 -> 2 -> 0: out of range in the middle only
    cfg = TrustConfig()
    object.__setattr__(cfg, "ewma_weight", 2.0)
    run = [("quality_report", 1.0), ("quality_report", 1.0)]
    with pytest.raises(OutOfRange):
        TrustStore(cfg=cfg).record("req-a", *run[0])
    store = TrustStore(cfg=cfg)
    with pytest.raises(OutOfRange):
        store.extend("req-a", run)
    assert store.ledgers == {}


def test_extend_of_no_events_changes_nothing():
    store = TrustStore()
    assert store.extend("req-a", []) == TrustLedger()
    assert store.ledgers == {}


# --- seeding an owner's ledgers, each with one run of completions and reports

UNIT = st.floats(min_value=0, max_value=1)
REQUESTERS = st.sampled_from(["req-a", "req-b", "req-c"])
START = st.dictionaries(
    REQUESTERS, st.builds(TrustLedger, st.integers(min_value=0, max_value=50), UNIT, UNIT))
# one owner's pairs: (requester, completions, quality, alignment), a
# requester possibly more than once
PAIRS = st.lists(st.tuples(REQUESTERS, st.integers(min_value=0, max_value=20), UNIT, UNIT),
                 max_size=8)


def stores(cfg, start):
    """Two equal stores holding the ledgers ``start``."""
    return TrustStore(cfg=cfg, ledgers=dict(start)), TrustStore(cfg=cfg, ledgers=dict(start))


def seeding_run(completions, quality, alignment):
    return [("completed", None)] * completions + [
        ("quality_report", quality), ("alignment_report", alignment)]


def seed(store, pairs):
    """``seed_history`` of ``pairs``, split into its three columns."""
    return store.seed_history([rid for rid, *_ in pairs], [count for _, count, *_ in pairs],
                              [(quality, alignment) for *_, quality, alignment in pairs])


@given(half_life=st.integers(min_value=1, max_value=20), start=START, pairs=PAIRS)
@example(half_life=1, start={"req-a": TrustLedger(50, 1.0, 0.0)},
         pairs=[("req-a", 0, 0.0, 1.0), ("req-b", 3, 1.0, 1.0)])
@example(half_life=20, start={}, pairs=[("req-a", 20, 1.0, 0.0), ("req-a", 0, 0.5, 0.25)])
def test_seed_history_matches_extend(half_life, start, pairs):
    seeded, extended = stores(TrustConfig(half_life_events=half_life), start)
    seed(seeded, pairs)
    for rid, completions, quality, alignment in pairs:
        extended.extend(rid, seeding_run(completions, quality, alignment))
    assert ledger_bits(seeded) == ledger_bits(extended)


BAD_REPORT = (st.none() | st.just(float("nan")) | st.floats(max_value=0, exclude_max=True)
              | st.floats(min_value=1, exclude_min=True))


@given(start=START, pairs=PAIRS, rid=REQUESTERS, completions=st.integers(min_value=0, max_value=20),
       bad=BAD_REPORT, slot=st.sampled_from(["quality", "alignment"]))
def test_seed_history_with_a_bad_report_changes_nothing(start, pairs, rid, completions, bad, slot):
    """A bad report on the owner's last pair raises what ``extend`` raises on
    that pair's run, and leaves every ledger of the store as it was, the
    ledgers the earlier pairs would have seeded included."""
    reports = {"quality": 0.5, "alignment": 0.5, slot: bad}
    seeded, extended = stores(TrustConfig(), start)
    with pytest.raises(OutOfRange) as extend_error:
        extended.extend(rid, seeding_run(completions, **reports))
    with pytest.raises(OutOfRange, match=re.escape(str(extend_error.value))):
        seed(seeded, [*pairs, (rid, completions, reports["quality"], reports["alignment"])])
    assert seeded.ledgers == extended.ledgers == start


def test_seed_history_refuses_negative_completions():
    start = {"req-a": TrustLedger(3, 0.5, 0.5)}
    store = TrustStore(ledgers=dict(start))
    with pytest.raises(OutOfRange, match="completions must be non-negative"):
        seed(store, [("req-b", 2, 0.5, 0.5), ("req-a", -1, 0.5, 0.5)])
    with pytest.raises(ValueError):
        store.seed_history(["req-a", "req-b"], [1, 1], [(0.5, 0.5)])
    assert store.ledgers == start
