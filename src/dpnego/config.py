"""Configuration loading: the shipped defaults plus user-file overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any

from .contracts import (
    JSON_TYPES,
    Catalog,
    FeatureKind,
    OneOf,
    PurposeKind,
    ResolutionKind,
    _is_number,
    reader,
)
from .explain import ExplainConfig
from .negotiation import EngineConfig, EpsMinRule
from .scoring import TrustConfig
from .secretshare import FIELD_PRIME


class BadConfig(ValueError):
    """A malformed config entry: an unknown key or a wrong JSON type, found
    while merging, or a bad value, found when a command reads it."""


class BadArgument(ValueError):
    """A runner argument outside the range of the config key it overrides;
    ``key`` names the argument and ``problem`` says what is wrong with it."""

    def __init__(self, key: str, problem: str):
        self.key = key
        self.problem = problem
        super().__init__(f"{key} {problem}")


@dataclass(frozen=True)
class EcosystemConfig:
    """Size, budgets and load model of the synthetic prosumer ecosystem."""

    n_prosumers: int = 100
    days: int = 60
    initial_budget: float = 8.0
    start_epoch: int = 1704067200  # 2024-01-01T00:00:00Z
    base_kw: tuple[float, float] = (0.25, 0.65)
    diurnal_amp_kw: tuple[float, float] = (0.3, 0.9)
    heating_coeff_kw_per_degc: tuple[float, float] = (0.02, 0.08)
    heating_setpoint_c: float = 15.0
    appliance_events_per_day: tuple[float, float] = (1.0, 4.0)
    appliance_kw: tuple[float, float] = (0.5, 2.0)
    temp_mean_c: float = 2.0
    temp_daily_amp_c: float = 6.0
    temp_noise_sd_c: float = 2.5

    def __post_init__(self) -> None:
        if self.n_prosumers < 1:
            raise ValueError(f"ecosystem.n_prosumers must be >= 1, got {self.n_prosumers}")
        if self.days < 1:
            raise ValueError(f"ecosystem.days must be >= 1, got {self.days}")
        if not 0.0 < self.initial_budget < math.inf:
            raise ValueError(
                f"ecosystem.initial_budget must be positive and finite, got {self.initial_budget}"
            )


@dataclass(frozen=True)
class CityProfile:
    """Climate-scale parameters for a synthetic city-level series."""

    name: str
    base_kw: float
    seasonal_amp_kw: float
    diurnal_amp_kw: float
    noise_sd_kw: float


@dataclass(frozen=True)
class DpConfig:
    """Release-side privacy settings: Gaussian delta and query-plan limits."""

    gaussian_delta: float = 1e-5
    max_plan_steps: int = 32
    default_output_cap: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.gaussian_delta < 1.0:
            raise ValueError(f"dp.gaussian_delta must be in (0, 1), got {self.gaussian_delta}")
        if self.max_plan_steps < 1:
            raise ValueError(f"dp.max_plan_steps must be >= 1, got {self.max_plan_steps}")
        if self.default_output_cap < 1:
            raise ValueError(f"dp.default_output_cap must be >= 1, got {self.default_output_cap}")


@dataclass(frozen=True)
class TssConfig:
    """The k-of-n Shamir threshold for release authorization, and its field."""

    k: int = 3
    n: int = 5
    prime: int = FIELD_PRIME  # the config has no key for it


@dataclass
class AppConfig:
    """Everything the library and the experiment runners need, assembled from
    one declarative document."""

    catalog: Catalog
    trust: TrustConfig
    engine: EngineConfig
    explain: ExplainConfig
    dp: DpConfig
    tss: TssConfig
    ecosystem: EcosystemConfig
    cities: dict[str, CityProfile]
    experiments: dict[str, Any]
    raw: dict[str, Any] = field(default_factory=dict)


def _deep_merge(base: Any, override: Any, path: str = "") -> Any:
    """``override`` merged over ``base``, a value from the shipped defaults.

    Every key of ``override`` must exist at the same place in ``base`` and
    every value must have the JSON type of the default it replaces: an object
    merges key by key, an array replaces the default whole (each item checked
    against the default's items when those are not objects), a float default
    takes any number (``contracts._is_number``) and stores a float, and
    anything else must have the default's exact type. Any other key or value
    raises ``BadConfig`` naming its key path."""
    if type(base) is float and _is_number(override):
        return float(override)
    if type(override) is not type(base) or type(base) is float:  # float: not a number
        where = path or "the top level"
        raise BadConfig(f"{where} must be {JSON_TYPES[type(base)]}, got {override!r}")
    if isinstance(base, dict):
        merged = dict(base)
        for key, value in override.items():
            key_path = f"{path}.{key}" if path else key
            if key not in base:
                raise BadConfig(f"unknown key {key_path}")
            merged[key] = _deep_merge(base[key], value, key_path)
        return merged
    if isinstance(base, list) and base and not isinstance(base[0], dict):
        return [_deep_merge(base[0], item, f"{path}[{i}]") for i, item in enumerate(override)]
    return override


def default_document() -> dict:
    text = resources.files("dpnego").joinpath("default_config.json").read_text()
    return json.loads(text)


def _build_catalog(doc: dict) -> Catalog:
    return Catalog(
        alphas={FeatureKind(k): v for k, v in doc["alphas"].items()},
        attenuations={ResolutionKind(k): v for k, v in doc["attenuations"].items()},
        purpose_scores={PurposeKind(k): v for k, v in doc["purpose_scores"].items()},
    )


EPS_MIN_RULE_SCHEMA = {
    "band_max": float,
    "purpose": OneOf(("*", *(p.value for p in PurposeKind))),
    "value": float,
}
_read_eps_min_rules = reader([EPS_MIN_RULE_SCHEMA], BadConfig)


def build_engine_config(doc: dict) -> EngineConfig:
    """The engine section as an ``EngineConfig``; a key that names no field
    is an error rather than silently ignored, and a malformed
    ``eps_min_rules`` entry (``EPS_MIN_RULE_SCHEMA``) raises ``BadConfig``."""
    unknown = set(doc) - {f.name for f in fields(EngineConfig)}
    if unknown:
        raise ValueError(f"unknown engine keys: {sorted(unknown)}")
    rules = tuple(EpsMinRule(float(r["band_max"]), r["purpose"], float(r["value"]))
                  for r in _read_eps_min_rules(doc["eps_min_rules"], "engine.eps_min_rules"))
    return EngineConfig(**{**doc, "lambdas": tuple(doc["lambdas"]), "eps_min_rules": rules})


def from_document(doc: dict) -> AppConfig:
    """The application config a merged document describes. Keys and types
    are checked by ``_deep_merge``; the section dataclasses check values."""
    return AppConfig(
        catalog=_build_catalog(doc["catalog"]),
        trust=TrustConfig(**{**doc["trust"], "beta": tuple(doc["trust"]["beta"])}),
        engine=build_engine_config(doc["engine"]),
        explain=ExplainConfig(
            **{**doc["explain"], "pu_lambdas": tuple(doc["explain"]["pu_lambdas"])}
        ),
        dp=DpConfig(**doc["dp"]),
        tss=TssConfig(**doc["tss"]),
        ecosystem=EcosystemConfig(**doc["ecosystem"]),
        cities={name: CityProfile(name=name, **c) for name, c in doc["cities"].items()},
        experiments=doc["experiments"],
        raw=doc,
    )


def load_config(path: str | Path | None = None) -> AppConfig:
    """Build the application config; a user file merges over the defaults by
    the rule of ``_deep_merge``, so an unknown key or a wrong JSON type in it
    raises ``BadConfig``."""
    doc = default_document()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = _deep_merge(doc, json.load(fh))
    return from_document(doc)
