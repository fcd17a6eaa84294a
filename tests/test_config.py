import json

import pytest

from dpnego.config import (
    DpConfig,
    EcosystemConfig,
    TssConfig,
    build_engine_config,
    default_document,
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
    validated, _ = read_stream(default.experiments["sweep"]["stream"], default)
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
