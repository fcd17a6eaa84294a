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
from dpnego.negotiation import EngineConfig
from dpnego.scoring import TrustConfig
from dpnego.secretshare import FIELD_PRIME


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
