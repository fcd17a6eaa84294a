import copy
import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from doc_mutations import key_path, mutated

from dpnego.config import (
    BadConfig,
    DpConfig,
    EcosystemConfig,
    TssConfig,
    build_engine_config,
    default_document,
    from_document,
    load_config,
)
from dpnego.explain import ExplainConfig
from dpnego.negotiation import BudgetLedger, EngineConfig, EpsMinRule, negotiate
from dpnego.scoring import TrustConfig
from dpnego.secretshare import FIELD_PRIME
from dpnego.simulate import read_stream, run_baseline_fixed, run_sweep


def test_dataclass_defaults_equal_the_shipped_config():
    """The dataclass defaults and default_config.json describe one config."""
    cfg = load_config()
    assert EngineConfig() == cfg.engine
    assert TrustConfig() == cfg.trust
    assert ExplainConfig() == cfg.explain
    assert DpConfig() == cfg.dp
    assert TssConfig() == cfg.tss
    assert EcosystemConfig() == cfg.ecosystem
    assert cfg.tss.prime == TssConfig().prime == FIELD_PRIME


@pytest.mark.parametrize("key", ["objective", "lambda", "eps_maximum"])
def test_unknown_engine_key_raises(key):
    doc = {**default_document()["engine"], key: "generic"}
    with pytest.raises(ValueError, match=key):
        build_engine_config(doc)


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_int_for_a_float_default_loads_as_a_float_and_decides_the_same(tmp_path):
    default = load_config()
    cfg = load_config(write_config(tmp_path, {
        "engine": {"eps_max": 10}, "experiments": {"baseline": {"owner_budget": 8}},
    }))
    assert type(cfg.engine.eps_max) is float and cfg.engine == default.engine
    assert type(cfg.experiments["baseline"]["owner_budget"]) is float
    assert cfg.raw == default.raw
    base = json.dumps(run_baseline_fixed(default, requests=200).to_dict())
    assert json.dumps(run_baseline_fixed(cfg, requests=200).to_dict()) == base
    validated, _ = read_stream(default, "sweep")
    for v in validated:
        for trust in (0.2, 0.9):
            ours = negotiate(v, BudgetLedger(h_max=8.0), trust, cfg.engine)
            theirs = negotiate(v, BudgetLedger(h_max=8.0), trust, default.engine)
            assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())


def test_a_list_replaces_the_default_whole(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "trust": {"beta": [1, 0, 0]}, "experiments": {"sweep": {"eps0_values": [3, 9]}},
    }))
    assert cfg.trust.beta == (1.0, 0.0, 0.0) and all(type(b) is float for b in cfg.trust.beta)
    assert [r["eps0"] for r in run_sweep(cfg, interactions=10)["rows"]] == [3, 9]


def test_eps_min_rules_load_as_rules(tmp_path):
    rules = [{"band_max": 1, "purpose": "profiling", "value": 0.5},
             {"band_max": 0.5, "purpose": "*", "value": 0.1}]
    cfg = load_config(write_config(tmp_path, {"engine": {"eps_min_rules": rules}}))
    assert cfg.engine.eps_min_rules == (EpsMinRule(1.0, "profiling", 0.5), EpsMinRule(0.5, "*", 0.1))


@pytest.mark.parametrize("key,value", [
    ("gaussian_delta", 1.25), ("gaussian_delta", 1.0), ("gaussian_delta", 0.0),
    ("max_plan_steps", 0), ("default_output_cap", 0),
])
def test_dp_value_out_of_range_raises(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"dp.{key} must"):
        load_config(write_config(tmp_path, {"dp": {key: value}}))


@pytest.mark.parametrize("engine", [
    {"eps_min_default": 0.0}, {"eps_min_default": -0.05}, {"eps_min_default": 10.5},
    {"eps_max": 1.0, "eps_min_default": 1.5},
    {"eps_min_rules": [{"band_max": 1.0, "purpose": "*", "value": 0.0}]},
    {"eps_min_rules": [{"band_max": 1.0, "purpose": "billing", "value": 11.0}]},
])
def test_eps_min_outside_zero_to_eps_max_raises(tmp_path, engine):
    with pytest.raises(ValueError, match="must be in"):
        load_config(write_config(tmp_path, {"engine": engine}))


def test_eps_min_at_eps_max_loads(tmp_path):
    cfg = load_config(write_config(tmp_path, {"engine": {"eps_min_default": 10.0}}))
    assert cfg.engine.eps_min_default == cfg.engine.eps_max


@pytest.mark.parametrize("where", ["adversary.bundle", "probe.boundary_bundle"])
@pytest.mark.parametrize("key,value", [("weight", 1.0), ("name", "single")])
def test_a_single_request_is_a_request_document(tmp_path, where, key, value):
    # the adversary's and the probe's request take no weight or name: each
    # was checked and then discarded
    name, entry = where.split(".")
    with pytest.raises(BadConfig, match=f"^unknown key experiments\\.{where}\\.{key}$"):
        load_config(write_config(tmp_path, {"experiments": {name: {entry: {key: value}}}}))
    doc = default_document()
    doc["experiments"][name][entry][key] = value
    with pytest.raises(BadConfig, match=f"^experiments\\.{where}\\.{key} is an unknown key$"):
        from_document(doc)


def float_paths(doc, path=()):
    """The path of every float in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if type(value) is float:
            yield path + (key,)
        yield from float_paths(value, path + (key,))


def override_at(default, path, value):
    """The override that sets ``path`` of ``default`` to ``value``: objects
    down to the first array, which is replaced whole."""
    if isinstance(default, list):
        items = copy.deepcopy(default)
        target = items
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return items
    return {path[0]: override_at(default[path[0]], path[1:], value) if path[1:] else value}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_every_float_default_refuses_a_non_finite_value(tmp_path, bad):
    # Python's json reads NaN, Infinity and -Infinity; each of them loaded
    # before, and then died in the engine or rejected every request
    default = default_document()
    paths = list(float_paths(default))
    assert len(paths) > 90
    for path in paths:
        message = f"{key_path(path)} must be a finite number, got {bad!r}"
        # a stream's bundles replace the default list whole, so the merge
        # leaves them to parse_bundle, which load_config runs on each one
        with pytest.raises(BadConfig, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, override_at(default, path, bad)))


eps_min_rules = st.fixed_dictionaries({
    "band_max": st.floats(min_value=0, max_value=5),
    "purpose": st.sampled_from(["*", "billing", "profiling"]),
    "value": st.floats(min_value=0.01, max_value=10),
})


@given(st.data(), eps_min_rules)
def test_any_one_mutation_of_an_eps_min_rule_is_refused_with_its_key_path(data, rule):
    engine = default_document()["engine"]
    build_engine_config({**engine, "eps_min_rules": [rule, rule]})
    bad, path = data.draw(mutated(rule, [("band_max",), ("purpose",), ("value",)]))
    with pytest.raises(BadConfig) as info:
        build_engine_config({**engine, "eps_min_rules": [rule, bad]})
    where = "engine.eps_min_rules[1]"
    assert str(info.value).startswith(f"{where}.{path} "), (bad, str(info.value))
