"""Configuration loading: the shipped defaults plus user-file overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any

from .contracts import (
    JSON_TYPES,
    REQUEST_SCHEMA,
    Catalog,
    ContractRequest,
    FeatureKind,
    OneOf,
    Opt,
    PurposeKind,
    ResolutionKind,
    ValidatedRequest,
    ValidationError,
    _is_number,
    reader,
    validate_request,
)
from .explain import ExplainConfig
from .negotiation import EngineConfig, EpsMinRule
from .scoring import TrustConfig
from .secretshare import FIELD_PRIME


class BadConfig(ValueError):
    """A malformed config entry: an unknown key or a wrong JSON type, found
    while merging, or a value out of range, found when the config is loaded."""


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

    def __post_init__(self) -> None:
        if self.noise_sd_kw < 0:
            raise ValueError(f"cities.{self.name}.noise_sd_kw must be at least 0, "
                             f"got {self.noise_sd_kw}")


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

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"tss.k must be at least 1 and at most tss.n = {self.n}, "
                             f"got {self.k}")


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
    # the requests of experiments.*, read at load: each stream's (request,
    # weight) pairs, and the single requests by key path ("adversary.bundle")
    streams: dict[str, list[tuple[ValidatedRequest, float]]]
    requests: dict[str, ValidatedRequest]
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


# A bundle is a request document plus its name and its weight in the stream.
BUNDLE_SCHEMA = {**REQUEST_SCHEMA, "name": Opt(str, ""), "weight": float}
_read_bundle = reader(BUNDLE_SCHEMA, BadConfig)
_read_request = reader(REQUEST_SCHEMA, BadConfig)


def _validated(fields: dict, catalog: Catalog, where: str) -> ValidatedRequest:
    try:
        return validate_request(ContractRequest(**fields), catalog)
    except ValidationError as exc:
        raise BadConfig(f"{where}: {exc}") from None


def parse_bundle(doc: dict, catalog: Catalog, where: str) -> tuple[ValidatedRequest, float]:
    """The request a bundle's config entry at key path ``where`` describes,
    validated, and its weight, which must be positive; a bad entry raises
    ``BadConfig``."""
    fields = _read_bundle(doc, where)
    weight = fields.pop("weight")
    del fields["name"]
    if weight <= 0:
        raise BadConfig(f"{where}.weight must be positive, got {weight!r}")
    return _validated(fields, catalog, where), weight


# The range of each experiment value that its JSON type does not bound, by
# its key, in a section or in a stream.
_POSITIVE = ("a positive finite number", lambda v: 0 < v < math.inf)
_COUNT = ("at least 0", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NON_EMPTY = ("a non-empty list", lambda v: len(v) > 0)
_UNIT = ("a number in [0, 1]", lambda v: 0 <= v <= 1)
EXPERIMENT_RANGES = {
    "seed": _COUNT,
    "interactions": _COUNT,
    "requests": _COUNT,
    "replays": _COUNT,
    "iterations": _AT_LEAST_1,
    "requesters": _AT_LEAST_1,
    "max_requests": _AT_LEAST_1,
    "reject_streak": _AT_LEAST_1,
    "trials": _AT_LEAST_1,
    "perturbation": ("in [0, 0.5)", lambda v: 0 <= v < 0.5),
    "boundary_bundle_weight": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "risk_weight_factor": ("a non-negative finite number", lambda v: 0 <= v < math.inf),
    # the config merge has checked that each entry is a number
    "h_range": ("two finite numbers [lo, hi] with 0 <= lo <= hi",
                lambda v: len(v) == 2 and 0 <= v[0] <= v[1] < math.inf),
    "owner_budget": _POSITIVE,
    "eps_fix": _POSITIVE,
    "eps0_values": ("a non-empty list of positive numbers",
                    lambda v: len(v) > 0 and all(x > 0 for x in v)),
    "datasets": _NON_EMPTY,
    "patterns": _NON_EMPTY,
    "risk_modes": _NON_EMPTY,
    # a stream's keys; the trust draw's bounds are lo and hi
    "bundles": ("a non-empty list of bundles with positive weights", lambda v: len(v) > 0),
    "counter_accept_prob": _UNIT,
    "lo": _UNIT,
    "hi": _UNIT,
}


# The cross-dataset experiment's CSV sources by dataset name: (file in the
# data directory, schema). ``simulate.load_datasets`` loads these, and one
# synthetic series per ``cities`` key.
CSV_SOURCES = {
    "uci": ("uci_household.csv", "household"),
    "de": ("national_de.csv", "national"),
    "fr": ("national_fr.csv", "national"),
    "it": ("national_it.csv", "national"),
}
RISK_MODES = ("mild", "moderate")


def _check_cross_dataset(exp: dict, cities: dict) -> None:
    """Each dataset the cross-dataset experiment ``exp`` names must be a CSV
    source or a city, and each risk mode one of ``RISK_MODES``."""
    where = "experiments.cross_dataset"
    for name in exp["datasets"]:
        if name not in CSV_SOURCES and name not in cities:
            raise BadConfig(f"{where}.datasets must name a CSV source ({', '.join(CSV_SOURCES)}) "
                            f"or a city ({', '.join(sorted(cities))}), got {name!r}")
    for mode in exp["risk_modes"]:
        if mode not in RISK_MODES:
            raise BadConfig(f"{where}.risk_modes must each be {' or '.join(map(repr, RISK_MODES))}, "
                            f"got {mode!r}")


def _check_ranges(doc: dict, where: str) -> None:
    """Each value in ``doc``, the object at key path ``where``, against its
    key's range in ``EXPERIMENT_RANGES``, and a ``lo`` against its ``hi``."""
    for key, value in doc.items():
        if isinstance(value, dict):
            _check_ranges(value, f"{where}.{key}")
        elif key in EXPERIMENT_RANGES and not EXPERIMENT_RANGES[key][1](value):
            raise BadConfig(f"{where}.{key} must be {EXPERIMENT_RANGES[key][0]}, got {value!r}")
    if doc.get("lo", 0) > doc.get("hi", 1):
        raise BadConfig(f"{where}.lo must not be above trust.hi, got {doc['lo']!r} > {doc['hi']!r}")


def from_document(doc: dict) -> AppConfig:
    """The application config a merged document describes, each value checked
    once, here: keys and types by ``_deep_merge``, the sections by their
    dataclasses, the experiments' requests by their schemas, their other
    values by ``_check_ranges``, the cross-dataset names by
    ``_check_cross_dataset`` and the adversary's ``safety_mode`` as an
    engine setting."""
    catalog = _build_catalog(doc["catalog"])
    experiments = doc["experiments"]
    streams = {name: [parse_bundle(b, catalog, f"experiments.{name}.stream.bundles[{i}]")
                      for i, b in enumerate(exp["stream"]["bundles"])]
               for name, exp in experiments.items() if "stream" in exp}
    adversary = experiments["adversary"]
    requests = {
        # the adversary's proposed_epsilon is part of its request
        "adversary.bundle": {**adversary["bundle"], "proposed_epsilon": adversary["proposed_epsilon"]},
        "probe.boundary_bundle": experiments["probe"]["boundary_bundle"],
    }
    for key, entry in requests.items():
        where = f"experiments.{key}"
        requests[key] = _validated(_read_request(entry, where), catalog, where)
    cfg = AppConfig(
        catalog=catalog,
        trust=TrustConfig(**{**doc["trust"], "beta": tuple(doc["trust"]["beta"])}),
        engine=build_engine_config(doc["engine"]),
        explain=ExplainConfig(
            **{**doc["explain"], "pu_lambdas": tuple(doc["explain"]["pu_lambdas"])}
        ),
        dp=DpConfig(**doc["dp"]),
        tss=TssConfig(**doc["tss"]),
        ecosystem=EcosystemConfig(**doc["ecosystem"]),
        cities={name: CityProfile(name=name, **c) for name, c in doc["cities"].items()},
        experiments=experiments,
        streams=streams,
        requests=requests,
        raw=doc,
    )
    _check_ranges(experiments, "experiments")
    _check_cross_dataset(experiments["cross_dataset"], cfg.cities)
    try:
        replace(cfg.engine, safety_mode=adversary["safety_mode"])
    except ValueError as exc:
        raise BadConfig(f"experiments.adversary.safety_mode: {exc}") from None
    return cfg


def load_config(path: str | Path | None = None) -> AppConfig:
    """Build the application config; a user file merges over the defaults by
    the rule of ``_deep_merge``, so an unknown key or a wrong JSON type in it
    raises ``BadConfig``."""
    doc = default_document()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = _deep_merge(doc, json.load(fh))
    return from_document(doc)
