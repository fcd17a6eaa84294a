"""Configuration loading: the shipped defaults plus user-file overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any

from .contracts import Catalog, FeatureKind, PurposeKind, ResolutionKind
from .explain import ExplainConfig
from .negotiation import EngineConfig, EpsMinRule
from .scoring import TrustConfig


class BadConfig(ValueError):
    """A config entry found malformed when a command reads it, after loading."""


@dataclass(frozen=True)
class EcosystemConfig:
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
    gaussian_delta: float = 1e-5
    max_plan_steps: int = 32
    default_output_cap: int = 4


@dataclass(frozen=True)
class TssConfig:
    k: int = 3
    n: int = 5
    prime: int = 2**256 - 2**32 - 977


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


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def default_document() -> dict:
    text = resources.files("dpnego").joinpath("default_config.json").read_text()
    return json.loads(text)


def _build_catalog(doc: dict) -> Catalog:
    return Catalog(
        alphas={FeatureKind(k): float(v) for k, v in doc["alphas"].items()},
        attenuations={ResolutionKind(k): float(v) for k, v in doc["attenuations"].items()},
        purpose_scores={PurposeKind(k): float(v) for k, v in doc["purpose_scores"].items()},
    )


def build_engine_config(doc: dict) -> EngineConfig:
    """The engine section as an ``EngineConfig``; a key that names no field
    is an error rather than silently ignored."""
    unknown = set(doc) - {f.name for f in fields(EngineConfig)}
    if unknown:
        raise ValueError(f"unknown engine keys: {sorted(unknown)}")
    rules = tuple(
        EpsMinRule(float(r["band_max"]), str(r["purpose"]), float(r["value"]))
        for r in doc.get("eps_min_rules", [])
    )
    return EngineConfig(
        lambdas=tuple(float(x) for x in doc["lambdas"]),
        eps_max=float(doc["eps_max"]),
        grid_step=float(doc["grid_step"]),
        eps_min_default=float(doc["eps_min_default"]),
        eps_min_rules=rules,
        counter_factor=float(doc["counter_factor"]),
        trusted_min_trust=float(doc["trusted_min_trust"]),
        trusted_max_sensitivity=float(doc["trusted_max_sensitivity"]),
        safety_factor=float(doc["safety_factor"]),
        safety_mode=doc["safety_mode"],
    )


def from_document(doc: dict) -> AppConfig:
    trust_doc = doc["trust"]
    eco_doc = doc["ecosystem"]
    return AppConfig(
        catalog=_build_catalog(doc["catalog"]),
        trust=TrustConfig(
            beta=tuple(float(b) for b in trust_doc["beta"]),
            n_sat=int(trust_doc["n_sat"]),
            half_life_events=int(trust_doc["half_life_events"]),
        ),
        engine=build_engine_config(doc["engine"]),
        explain=ExplainConfig(
            pu_lambdas=tuple(float(x) for x in doc["explain"]["pu_lambdas"]),
            high_consumption_threshold=float(
                doc["explain"]["high_consumption_threshold"]
            ),
        ),
        dp=DpConfig(
            gaussian_delta=float(doc["dp"]["gaussian_delta"]),
            max_plan_steps=int(doc["dp"]["max_plan_steps"]),
            default_output_cap=int(doc["dp"]["default_output_cap"]),
        ),
        tss=TssConfig(
            k=int(doc["tss"]["k"]),
            n=int(doc["tss"]["n"]),
            prime=int(doc["tss"]["prime_hex"], 16),
        ),
        ecosystem=EcosystemConfig(
            n_prosumers=int(eco_doc["n_prosumers"]),
            days=int(eco_doc["days"]),
            initial_budget=float(eco_doc["initial_budget"]),
        ),
        cities={
            name: CityProfile(
                name=name,
                base_kw=float(c["base_kw"]),
                seasonal_amp_kw=float(c["seasonal_amp_kw"]),
                diurnal_amp_kw=float(c["diurnal_amp_kw"]),
                noise_sd_kw=float(c["noise_sd_kw"]),
            )
            for name, c in doc["cities"].items()
        },
        experiments=doc["experiments"],
        raw=doc,
    )


def load_config(path: str | Path | None = None) -> AppConfig:
    """Build the application config; a user file deep-merges over defaults."""
    doc = default_document()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = _deep_merge(doc, json.load(fh))
    return from_document(doc)
