import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from doc_mutations import mutated

from dpnego.config import load_config
from dpnego.contracts import (
    Catalog,
    ContractRequest,
    Decision,
    EmptyFeatureSet,
    FeatureKind,
    NegotiationOutcome,
    NonPositiveWindow,
    PurposeKind,
    RequestMode,
    ResolutionKind,
    UnknownFeature,
    UnknownPurpose,
    ValidationError,
    request_from_dict,
    request_to_dict,
    validate_request,
)
from dpnego.negotiation import EngineConfig, derive_counter_offer


CATALOG = load_config().catalog


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def make_request(**overrides):
    base = dict(
        requester_id="req-1",
        owner_id="own-1",
        features=(FeatureKind.LOAD_CURVE,),
        window_hours=24,
        resolution=ResolutionKind.HOUR1,
        purpose=PurposeKind.BILLING,
    )
    base.update(overrides)
    return ContractRequest(**base)


def test_validate_billing_load_curve(cfg):
    validated = validate_request(make_request(), cfg.catalog)
    assert validated.purpose_score == 1.0
    assert cfg.catalog.price(validated.request.features, ResolutionKind.MIN5) == pytest.approx(0.4)


def test_sensitivity_is_summed_left_to_right(cfg):
    # Python 3.12 and later compensate sum() over floats and give 1.3 here;
    # added left to right, as 3.10 and 3.11 add them, the three coefficients
    # give 1.2999999999999998 on every version
    req = make_request(
        features=(FeatureKind.AGGREGATE, FeatureKind.APPLIANCE_LEVEL, FeatureKind.LOAD_CURVE),
        resolution=ResolutionKind.MIN5,
    )
    validated = validate_request(req, cfg.catalog)
    assert cfg.catalog.price(req.features, ResolutionKind.MIN5).hex() == "0x1.4ccccccccccccp+0"
    assert validated.effective_sensitivity.hex() == "0x1.4ccccccccccccp+0"


@given(st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=6),
       st.sampled_from(list(ResolutionKind)),
       st.fixed_dictionaries({kind: st.floats(0.0, 1.0) for kind in FeatureKind}))
def test_price_is_the_coefficients_added_left_to_right_times_the_attenuation(
        features, resolution, alphas):
    features = tuple(features)
    for catalog in (CATALOG, dataclasses.replace(CATALOG, alphas=alphas)):
        total = 0
        for kind in features:
            total += catalog.alphas[kind]
        want = catalog.attenuations[resolution] * total
        assert catalog.price(features, resolution).hex() == want.hex()
        request = make_request(features=features, resolution=resolution)
        assert validate_request(request, catalog).effective_sensitivity.hex() == want.hex()


def test_empty_feature_set_rejected(cfg):
    with pytest.raises(EmptyFeatureSet):
        validate_request(make_request(features=()), cfg.catalog)


def test_unknown_purpose_rejected():
    doc = {
        "requester_id": "r",
        "owner_id": "o",
        "features": ["load_curve"],
        "window_hours": 24,
        "resolution": "hour1",
        "purpose": "research",
    }
    with pytest.raises(UnknownPurpose):
        request_from_dict(doc)


def test_unknown_feature_rejected():
    doc = {
        "requester_id": "r",
        "owner_id": "o",
        "features": ["dna"],
        "window_hours": 24,
        "resolution": "hour1",
        "purpose": "billing",
    }
    with pytest.raises(UnknownFeature):
        request_from_dict(doc)


def test_non_positive_window_rejected(cfg):
    with pytest.raises(NonPositiveWindow):
        validate_request(make_request(window_hours=0), cfg.catalog)


def test_unknown_json_field_rejected():
    doc = {
        "requester_id": "r",
        "owner_id": "o",
        "features": ["load_curve"],
        "window_hours": 24,
        "resolution": "hour1",
        "purpose": "billing",
        "priority": "high",
    }
    with pytest.raises(ValidationError, match=r"^priority is an unknown key$"):
        request_from_dict(doc)


def json_round_trip(req):
    return request_from_dict(json.loads(json.dumps(request_to_dict(req), sort_keys=True)))


def test_json_round_trip():
    req = make_request(proposed_epsilon=2.5, mode=RequestMode.PERIODIC)
    assert json_round_trip(req) == req


def test_validation_idempotent(cfg):
    req = make_request(features=(FeatureKind.LOCATION, FeatureKind.AGGREGATE))
    once = validate_request(req, cfg.catalog)
    twice = validate_request(once, cfg.catalog)
    assert once == twice


def test_default_alphas(cfg):
    expected = {
        FeatureKind.LOCATION: 1.0,
        FeatureKind.APPLIANCE_LEVEL: 0.7,
        FeatureKind.LOAD_CURVE: 0.4,
        FeatureKind.AGGREGATE: 0.2,
    }
    assert cfg.catalog.alphas == expected


def test_attenuation_strictly_decreasing(cfg):
    order = ["min5", "min15", "min30", "hour1", "daily"]
    values = [cfg.catalog.attenuations[ResolutionKind(r)] for r in order]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_outcome_invariants():
    with pytest.raises(ValueError):
        NegotiationOutcome(Decision.APPROVE)
    with pytest.raises(ValueError):
        NegotiationOutcome(Decision.COUNTER_OFFER, epsilon_star=1.0)
    with pytest.raises(ValueError):
        NegotiationOutcome(Decision.REJECT)
    ok = NegotiationOutcome(Decision.REJECT, violated="safety_condition")
    assert ok.to_dict()["violated"] == "safety_condition"


features_strategy = st.lists(
    st.sampled_from(list(FeatureKind)), min_size=1, max_size=4
).map(tuple)


@given(
    features=features_strategy,
    window=st.integers(min_value=1, max_value=10_000),
    resolution=st.sampled_from(list(ResolutionKind)),
    purpose=st.sampled_from(list(PurposeKind)),
)
def test_validation_idempotent_property(features, window, resolution, purpose):
    req = ContractRequest(
        requester_id="r",
        owner_id="o",
        features=features,
        window_hours=window,
        resolution=resolution,
        purpose=purpose,
    )
    once = validate_request(req, CATALOG)
    assert validate_request(once, CATALOG) == once


@given(
    features=features_strategy,
    window=st.integers(min_value=1, max_value=10_000),
    resolution=st.sampled_from(list(ResolutionKind)),
    purpose=st.sampled_from(list(PurposeKind)),
    epsilon=st.one_of(st.none(), st.floats(min_value=0.01, max_value=10)),
)
def test_serialization_round_trip_property(features, window, resolution, purpose, epsilon):
    req = ContractRequest(
        requester_id="r",
        owner_id="o",
        features=features,
        window_hours=window,
        resolution=resolution,
        purpose=purpose,
        proposed_epsilon=epsilon,
    )
    assert json_round_trip(req) == req


def request_doc(**overrides):
    doc = {
        "requester_id": "r",
        "owner_id": "o",
        "features": ["load_curve"],
        "window_hours": 24,
        "resolution": "hour1",
        "purpose": "billing",
    }
    doc.update(overrides)
    return doc


def enum_error(path, kind, value):
    """The message of the reader refusing ``value`` at ``path`` for ``kind``."""
    return f"{path} must be one of {[m.value for m in kind]}, got {value!r}"


BAD_FIELDS = [
    # (overrides, exception class, message, or (key path, kind, value) of an enum refusal)
    ({"priority": "high"}, ValidationError, "priority is an unknown key"),
    ({"features": ["dna"]}, UnknownFeature, ("features[0]", FeatureKind, "dna")),
    ({"features": ["aggregate", "Aggregate"]}, UnknownFeature,
     ("features[1]", FeatureKind, "Aggregate")),
    ({"resolution": "weekly"}, ValidationError, ("resolution", ResolutionKind, "weekly")),
    ({"resolution": ["hour1"]}, ValidationError, ("resolution", ResolutionKind, ["hour1"])),
    ({"resolution": {"hour1": 1}}, ValidationError,
     ("resolution", ResolutionKind, {"hour1": 1})),
    ({"resolution": None}, ValidationError, ("resolution", ResolutionKind, None)),
    ({"resolution": 1}, ValidationError, ("resolution", ResolutionKind, 1)),
    ({"resolution": ResolutionKind.HOUR1.name}, ValidationError,
     ("resolution", ResolutionKind, ResolutionKind.HOUR1.name)),
    ({"purpose": "research"}, UnknownPurpose, ("purpose", PurposeKind, "research")),
    ({"purpose": ["billing"]}, UnknownPurpose, ("purpose", PurposeKind, ["billing"])),
    ({"purpose": None}, UnknownPurpose, ("purpose", PurposeKind, None)),
    ({"mode": "twice"}, ValidationError, ("mode", RequestMode, "twice")),
    ({"mode": ["one_shot"]}, ValidationError, ("mode", RequestMode, ["one_shot"])),
    ({"mode": None}, ValidationError, ("mode", RequestMode, None)),
]


@pytest.mark.parametrize("overrides, cls, message", BAD_FIELDS)
def test_bad_field_raises_the_class_and_message_of_the_enum_lookup(overrides, cls, message):
    with pytest.raises(ValidationError) as info:
        request_from_dict(request_doc(**overrides))
    assert type(info.value) is cls
    if isinstance(message, tuple):
        message = enum_error(*message)
    assert str(info.value) == message


def test_missing_resolution_or_purpose_raises_as_before():
    for name in ("resolution", "purpose"):
        doc = request_doc()
        del doc[name]
        with pytest.raises(ValidationError) as info:
            request_from_dict(doc)
        assert type(info.value) is ValidationError and str(info.value) == f"{name} is missing"


# A valid request document: its required keys, and any of its optional ones.
request_docs = st.fixed_dictionaries(
    {
        "features": st.lists(st.sampled_from([f.value for f in FeatureKind]), min_size=1, max_size=3),
        "window_hours": st.integers(min_value=1, max_value=10_000),
        "resolution": st.sampled_from([r.value for r in ResolutionKind]),
        "purpose": st.sampled_from([p.value for p in PurposeKind]),
    },
    optional={
        "requester_id": st.text(max_size=6),
        "owner_id": st.text(max_size=6),
        "proposed_epsilon": st.one_of(st.none(), st.floats(min_value=0.01, max_value=10)),
        "max_noise": st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        "mode": st.sampled_from([m.value for m in RequestMode]),
    },
)
REQUIRED_REQUEST_KEYS = [("window_hours",), ("resolution",), ("purpose",)]
NULLABLE_REQUEST_KEYS = [("proposed_epsilon",), ("max_noise",)]


@given(st.data(), request_docs)
def test_any_one_mutation_of_a_request_is_refused_with_its_key_path(data, doc):
    request_from_dict(doc)
    bad, path = data.draw(mutated(doc, REQUIRED_REQUEST_KEYS, NULLABLE_REQUEST_KEYS))
    with pytest.raises(ValidationError) as info:
        request_from_dict(bad)
    assert str(info.value).startswith(f"{path} "), (bad, str(info.value))


def test_every_enum_value_parses_to_its_member():
    for features in ([f.value] for f in FeatureKind):
        for resolution in ResolutionKind:
            for purpose in PurposeKind:
                for mode in RequestMode:
                    got = request_from_dict(request_doc(
                        features=features, resolution=resolution.value,
                        purpose=purpose.value, mode=mode.value))
                    assert got.features == (FeatureKind(features[0]),)
                    assert (got.resolution, got.purpose, got.mode) == (resolution, purpose, mode)
    assert request_from_dict(request_doc()).mode is RequestMode.ONE_SHOT


@pytest.mark.parametrize("bad", ["abc", "1.5", True, False, [1.0], {}, math.nan, math.inf, -1.0, 0])
def test_malformed_proposed_epsilon_rejected(bad):
    with pytest.raises(ValidationError):
        request_from_dict(request_doc(proposed_epsilon=bad))


def test_numeric_proposed_epsilon_accepted():
    assert request_from_dict(request_doc(proposed_epsilon=2)).proposed_epsilon == 2
    assert request_from_dict(request_doc(proposed_epsilon=0.5)).proposed_epsilon == 0.5
    assert request_from_dict(request_doc(proposed_epsilon=None)).proposed_epsilon is None
    assert request_from_dict(request_doc()).proposed_epsilon is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0])
def test_contract_request_rejects_non_positive_or_non_finite_epsilon(bad):
    with pytest.raises(ValidationError):
        make_request(proposed_epsilon=bad)


@pytest.mark.parametrize(
    "bad", [5, "aggregate", None, {"aggregate": 1}, [5], ["aggregate", 1], [None], ("aggregate",)]
)
def test_features_must_be_a_list_of_strings(bad):
    with pytest.raises(ValidationError):
        request_from_dict(request_doc(features=bad))


def test_feature_list_of_strings_accepted():
    got = request_from_dict(request_doc(features=["aggregate", "load_curve"]))
    assert got.features == (FeatureKind.AGGREGATE, FeatureKind.LOAD_CURVE)
    doc = request_doc()
    del doc["features"]
    assert request_from_dict(doc).features == ()  # validate_request then rejects it


@pytest.mark.parametrize(
    "bad", ["abc", "1.5", True, False, [1.0], {}, math.nan, math.inf, -math.inf, -1, 0, 0.0]
)
def test_malformed_max_noise_rejected(bad):
    with pytest.raises(ValidationError):
        request_from_dict(request_doc(max_noise=bad))


def test_numeric_max_noise_accepted():
    assert request_from_dict(request_doc(max_noise=3)).max_noise == 3
    assert request_from_dict(request_doc(max_noise=0.25)).max_noise == 0.25
    assert request_from_dict(request_doc(max_noise=None)).max_noise is None
    assert request_from_dict(request_doc()).max_noise is None


@pytest.mark.parametrize("field", ["requester_id", "owner_id"])
@pytest.mark.parametrize("bad", [None, 5, 1.5, True, ["o"], {"id": "o"}])
def test_ids_must_be_strings(field, bad):
    with pytest.raises(ValidationError):
        request_from_dict(request_doc(**{field: bad}))


def test_ids_are_kept_as_given_or_default_to_empty():
    assert request_from_dict(request_doc(requester_id="None")).requester_id == "None"
    doc = request_doc()
    del doc["requester_id"], doc["owner_id"]
    got = request_from_dict(doc)
    assert (got.requester_id, got.owner_id) == ("", "")


@pytest.mark.parametrize("bad", ["abc", True, math.nan, math.inf, 0.0, -2.0])
def test_contract_request_rejects_bad_max_noise(bad):
    # the constructor is the gate, so a counter-offer built from a request
    # can never carry a bad value either
    with pytest.raises(ValidationError):
        make_request(max_noise=bad)


# --- per-catalog validation memo ---------------------------------------------

def config_feature_tuples(raw):
    """Every feature list named anywhere in the config (the stream bundles)."""
    found = []
    if isinstance(raw, dict):
        if isinstance(raw.get("features"), list):
            found.append(tuple(FeatureKind(f) for f in raw["features"]))
        for value in raw.values():
            found += config_feature_tuples(value)
    elif isinstance(raw, list):
        for value in raw:
            found += config_feature_tuples(value)
    return found


def shapes_with_repeats(seed=11, count=40):
    rng = random.Random(seed)
    kinds = list(FeatureKind)
    return [tuple(rng.choice(kinds) for _ in range(rng.randint(1, 6))) for _ in range(count)]


def test_warm_catalog_matches_a_cold_one(cfg):
    """Validation and counter-offers through a catalog whose memos are filled
    equal those through a fresh catalog, to the bit."""
    engines = (cfg.engine, EngineConfig(counter_factor=0.5))
    warm = load_config().catalog
    bundles = config_feature_tuples(cfg.raw)
    assert len(bundles) > 20
    # no bundle names this pair in this order, and the order is part of the memo key
    shapes = bundles + [(FeatureKind.LOAD_CURVE, FeatureKind.APPLIANCE_LEVEL)] + shapes_with_repeats()
    assert any(len(set(f)) < len(f) for f in shapes)
    for _ in range(2):
        for features in shapes:
            cold = load_config().catalog
            for resolution in ResolutionKind:
                for purpose in PurposeKind:
                    req = make_request(features=features, resolution=resolution, purpose=purpose)
                    got = validate_request(req, warm)
                    want = validate_request(req, cold)
                    assert got == want
                    assert (warm.price(features, ResolutionKind.MIN5).hex()
                            == cold.price(features, ResolutionKind.MIN5).hex())
                    assert got.effective_sensitivity.hex() == want.effective_sensitivity.hex()
                    total = 0
                    for k in features:
                        total += warm.alphas[k]
                    reference = warm.attenuations[resolution] * total
                    assert got.effective_sensitivity.hex() == reference.hex()
                    assert got.purpose_score == want.purpose_score == warm.purpose_scores[purpose]
                    for engine in engines:
                        offer, cold_offer = (derive_counter_offer(v, engine) for v in (got, want))
                        assert offer == cold_offer
                        if offer is not None:
                            assert offer[2].hex() == cold_offer[2].hex()
                            reduced = dataclasses.replace(
                                req, features=offer[0], resolution=offer[1]
                            )
                            assert offer[2].hex() == validate_request(
                                reduced, cold
                            ).effective_sensitivity.hex()
    assert warm._reductions


def test_failed_lookups_raise_every_time(cfg):
    catalog = dataclasses.replace(
        cfg.catalog,
        alphas={k: v for k, v in cfg.catalog.alphas.items() if k is not FeatureKind.LOCATION},
        purpose_scores={
            k: v for k, v in cfg.catalog.purpose_scores.items() if k is not PurposeKind.PROFILING
        },
    )
    validate_request(make_request(), catalog)
    for _ in range(3):
        with pytest.raises(UnknownFeature):
            validate_request(make_request(features=(FeatureKind.LOCATION,)), catalog)
        with pytest.raises(UnknownPurpose):
            validate_request(make_request(purpose=PurposeKind.PROFILING), catalog)
        with pytest.raises(UnknownFeature):  # features are resolved before the purpose
            validate_request(
                make_request(features=(FeatureKind.LOCATION,), purpose=PurposeKind.PROFILING),
                catalog,
            )
        with pytest.raises(EmptyFeatureSet):
            validate_request(make_request(features=()), catalog)
        with pytest.raises(NonPositiveWindow):
            validate_request(make_request(window_hours=0), catalog)
    min5 = make_request(resolution=ResolutionKind.MIN5)
    assert validate_request(min5, catalog).effective_sensitivity == pytest.approx(0.4)


def test_replaced_catalog_starts_with_empty_memos(cfg):
    warm = load_config().catalog
    req = make_request(resolution=ResolutionKind.MIN5)
    before = validate_request(req, warm)
    derive_counter_offer(before, cfg.engine)
    assert warm._reductions
    changed = dataclasses.replace(warm, alphas={**warm.alphas, FeatureKind.LOAD_CURVE: 0.9})
    assert changed._reductions == {}
    after = validate_request(req, changed)
    assert before.effective_sensitivity == pytest.approx(0.4)
    assert after.effective_sensitivity == pytest.approx(0.9)
    assert validate_request(req, warm).effective_sensitivity == pytest.approx(0.4)


def test_memos_leave_catalog_eq_and_repr_alone(cfg):
    warm, cold = load_config().catalog, load_config().catalog
    derive_counter_offer(validate_request(make_request(), warm), cfg.engine)
    assert warm._reductions
    assert warm == cold
    assert repr(warm) == repr(cold)
    assert "_reductions" not in repr(warm)


CATALOG_OUT_OF_RANGE = [
    ("alphas", FeatureKind.LOCATION, 1.5, "[0, 1]"),
    ("alphas", FeatureKind.AGGREGATE, -0.1, "[0, 1]"),
    ("alphas", FeatureKind.LOAD_CURVE, math.nan, "[0, 1]"),
    ("attenuations", ResolutionKind.DAILY, 0.0, "(0, 1]"),
    ("attenuations", ResolutionKind.MIN5, 1.5, "(0, 1]"),
    ("purpose_scores", PurposeKind.PROFILING, -0.5, "[0, 1]"),
    ("purpose_scores", PurposeKind.BILLING, 1.1, "[0, 1]"),
]


@pytest.mark.parametrize("table,kind,value,bounds", CATALOG_OUT_OF_RANGE)
def test_catalog_entry_out_of_range_raises_naming_its_key(table, kind, value, bounds):
    tables = {name: dict(getattr(CATALOG, name))
              for name in ("alphas", "attenuations", "purpose_scores")}
    tables[table][kind] = value
    message = f"catalog.{table}.{kind.value} must be in {bounds}, got {value!r}"
    with pytest.raises(ValueError) as direct:
        Catalog(**tables)
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(CATALOG, **{table: tables[table]})
    assert str(direct.value) == str(replaced.value) == message


def test_catalog_bounds_are_inclusive_except_a_zero_attenuation():
    catalog = Catalog(
        alphas={FeatureKind.AGGREGATE: 0.0, FeatureKind.LOCATION: 1.0},
        attenuations=dict.fromkeys(ResolutionKind, 1.0),
        purpose_scores={PurposeKind.BILLING: 1.0, PurposeKind.PROFILING: 0.0},
    )
    low = validate_request(
        make_request(features=(FeatureKind.AGGREGATE,), purpose=PurposeKind.PROFILING), catalog
    )
    assert catalog.price(low.request.features, ResolutionKind.MIN5) == 0.0
    assert low.effective_sensitivity == low.purpose_score == 0.0
    high = validate_request(make_request(features=(FeatureKind.LOCATION,)), catalog)
    assert catalog.price(high.request.features, ResolutionKind.MIN5) == 1.0
    assert high.effective_sensitivity == high.purpose_score == 1.0


def test_catalog_missing_an_attenuation_raises():
    attenuations = {k: v for k, v in CATALOG.attenuations.items() if k is not ResolutionKind.DAILY}
    with pytest.raises(ValueError, match=r"catalog\.attenuations\.daily is missing"):
        dataclasses.replace(CATALOG, attenuations=attenuations)


def test_catalog_kinds_hash_by_identity(cfg):
    """FeatureKind, ResolutionKind and PurposeKind hash as plain objects (the
    Enum hash runs Python code on every lookup). Members are singletons that
    compare by identity, so every table and memo keyed by them still
    resolves a member however it was obtained."""
    from dpnego.contracts import RESOLUTION_SECONDS

    raw = cfg.raw["catalog"]
    catalog = load_config().catalog
    for kind, table, doc in (
        (FeatureKind, catalog.alphas, raw["alphas"]),
        (ResolutionKind, catalog.attenuations, raw["attenuations"]),
        (PurposeKind, catalog.purpose_scores, raw["purpose_scores"]),
    ):
        assert set(table) == set(kind)
        for member in kind:
            assert hash(member) == object.__hash__(member)
            parsed = kind(member.value)
            assert parsed is member and hash(parsed) == hash(member)
            assert member != member.value and member.value not in table
            assert table[parsed] == doc[member.value]
    for resolution in ResolutionKind:
        assert RESOLUTION_SECONDS[ResolutionKind(resolution.value)] > 0
    engine = EngineConfig()
    for feature in FeatureKind:
        for resolution in ResolutionKind:
            req = validate_request(make_request(
                features=(feature, FeatureKind.LOAD_CURVE), resolution=resolution), catalog)
            shape = derive_counter_offer(req, engine)
            key = ((FeatureKind(feature.value), FeatureKind("load_curve")),
                   ResolutionKind(resolution.value), engine.counter_factor)
            assert key in catalog._reductions and catalog._reductions[key] == shape
    assert len(catalog._reductions) == len(FeatureKind) * len(ResolutionKind)
