"""Contract vocabulary: requests, purposes, features, outcomes, and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable


class FeatureKind(Enum):
    LOCATION = "location"
    APPLIANCE_LEVEL = "appliance_level"
    LOAD_CURVE = "load_curve"
    AGGREGATE = "aggregate"


class ResolutionKind(Enum):
    MIN5 = "min5"
    MIN15 = "min15"
    MIN30 = "min30"
    HOUR1 = "hour1"
    DAILY = "daily"


# Coarse-to-fine order used by the counter-offer pipeline.
RESOLUTION_ORDER = (
    ResolutionKind.MIN5,
    ResolutionKind.MIN15,
    ResolutionKind.MIN30,
    ResolutionKind.HOUR1,
    ResolutionKind.DAILY,
)


class PurposeKind(Enum):
    BILLING = "billing"
    FORECASTING = "forecasting"
    GRID_MONITORING = "grid_monitoring"
    DEMAND_RESPONSE = "demand_response"
    PEER_TRADING = "peer_trading"
    PROFILING = "profiling"


class RequestMode(Enum):
    ONE_SHOT = "one_shot"
    PERIODIC = "periodic"
    ON_DEMAND = "on_demand"


class Decision(Enum):
    APPROVE = "approve"
    COUNTER_OFFER = "counter_offer"
    REJECT = "reject"


class ValidationError(ValueError):
    """Base class for request validation failures."""


class UnknownPurpose(ValidationError):
    pass


class UnknownFeature(ValidationError):
    pass


class EmptyFeatureSet(ValidationError):
    pass


class NonPositiveWindow(ValidationError):
    pass


class UnknownField(ValidationError):
    pass


@dataclass(frozen=True)
class FeatureCategory:
    """A feature category together with its risk coefficient."""

    kind: FeatureKind
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")


@dataclass(frozen=True)
class Resolution:
    """A temporal resolution with its sensitivity attenuation factor."""

    value: ResolutionKind
    attenuation: float

    def __post_init__(self) -> None:
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError(f"attenuation must be in (0,1], got {self.attenuation}")


@dataclass(frozen=True)
class Purpose:
    """A declared data-use purpose with its compatibility score."""

    name: PurposeKind
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"purpose score must be in [0,1], got {self.score}")


@dataclass(frozen=True)
class Catalog:
    """The owner-side lookup tables: feature coefficients, resolution
    attenuations, and the fixed purpose-compatibility table.

    Immutable after construction; unknown entries are hard errors rather than
    defaults so that every score in a decision traces back to this table.
    """

    alphas: dict[FeatureKind, float]
    attenuations: dict[ResolutionKind, float]
    purpose_scores: dict[PurposeKind, float]

    def feature(self, kind: FeatureKind) -> FeatureCategory:
        if kind not in self.alphas:
            raise UnknownFeature(f"feature not exposed by owner catalog: {kind.value}")
        return FeatureCategory(kind, self.alphas[kind])

    def resolution(self, value: ResolutionKind) -> Resolution:
        return Resolution(value, self.attenuations[value])

    def purpose(self, name: PurposeKind) -> Purpose:
        if name not in self.purpose_scores:
            raise UnknownPurpose(f"purpose not in compatibility table: {name.value}")
        return Purpose(name, self.purpose_scores[name])


@dataclass(frozen=True)
class ContractRequest:
    """A requester's proposal.

    ``features`` is an ordered collection; repeated categories are permitted
    and each entry contributes its own coefficient to the sensitivity sum
    (a counter-offer may aggregate several distinct streams, each of which
    stays a separate aggregate product).
    """

    requester_id: str
    owner_id: str
    features: tuple[FeatureKind, ...]
    window_hours: int
    resolution: ResolutionKind
    purpose: PurposeKind
    proposed_epsilon: float | None = None
    max_noise: float | None = None
    mode: RequestMode = RequestMode.ONE_SHOT

    def __post_init__(self) -> None:
        if self.proposed_epsilon is not None and self.proposed_epsilon <= 0:
            raise ValidationError("proposed_epsilon must be positive when present")


REQUEST_FIELDS = (
    "requester_id",
    "owner_id",
    "features",
    "window_hours",
    "resolution",
    "purpose",
    "proposed_epsilon",
    "max_noise",
    "mode",
)


def request_to_dict(req: ContractRequest) -> dict[str, Any]:
    return {
        "requester_id": req.requester_id,
        "owner_id": req.owner_id,
        "features": [f.value for f in req.features],
        "window_hours": req.window_hours,
        "resolution": req.resolution.value,
        "purpose": req.purpose.value,
        "proposed_epsilon": req.proposed_epsilon,
        "max_noise": req.max_noise,
        "mode": req.mode.value,
    }


def request_from_dict(doc: dict[str, Any]) -> ContractRequest:
    """Parse the canonical request document. Unknown fields are rejected."""
    unknown = set(doc) - set(REQUEST_FIELDS)
    if unknown:
        raise UnknownField(f"unknown request fields: {sorted(unknown)}")
    try:
        features = tuple(FeatureKind(f) for f in doc.get("features", []))
    except ValueError as exc:
        raise UnknownFeature(str(exc)) from None
    try:
        resolution = ResolutionKind(doc["resolution"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad resolution: {exc}") from None
    try:
        purpose = PurposeKind(doc["purpose"])
    except (KeyError, ValueError):
        raise UnknownPurpose(f"unknown purpose: {doc.get('purpose')!r}") from None
    mode = RequestMode(doc.get("mode", "one_shot"))
    window = doc.get("window_hours")
    if not isinstance(window, int) or isinstance(window, bool):
        raise ValidationError("window_hours must be an integer")
    return ContractRequest(
        requester_id=str(doc.get("requester_id", "")),
        owner_id=str(doc.get("owner_id", "")),
        features=features,
        window_hours=window,
        resolution=resolution,
        purpose=purpose,
        proposed_epsilon=doc.get("proposed_epsilon"),
        max_noise=doc.get("max_noise"),
        mode=mode,
    )


def request_to_json(req: ContractRequest) -> str:
    return json.dumps(request_to_dict(req), sort_keys=True)


def request_from_json(text: str) -> ContractRequest:
    return request_from_dict(json.loads(text))


@dataclass(frozen=True)
class ValidatedRequest:
    """A request with resolved coefficients from the owner catalog.

    Derived values are computed once at construction: ``sensitivity`` is the
    raw sum of feature coefficients, ``effective_sensitivity`` that sum
    attenuated at the requested resolution. ``counter_offers`` memoizes
    ``derive_counter_offer`` by counter factor; this is sound because neither
    the request nor the catalog changes after construction.
    """

    request: ContractRequest
    features: tuple[FeatureCategory, ...]
    resolution: Resolution
    purpose: Purpose
    catalog: Catalog
    sensitivity: float = field(init=False, repr=False, compare=False)
    effective_sensitivity: float = field(init=False, repr=False, compare=False)
    counter_offers: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        s = sum(f.alpha for f in self.features)
        object.__setattr__(self, "sensitivity", s)
        object.__setattr__(self, "effective_sensitivity", self.resolution.attenuation * s)


def validate_request(
    req: ContractRequest | ValidatedRequest, catalog: Catalog
) -> ValidatedRequest:
    """Resolve a proposal against the catalog.

    Idempotent: validating an already-validated request yields an identical
    result as long as the catalog is unchanged.
    """
    if isinstance(req, ValidatedRequest):
        req = req.request
    if not req.features:
        raise EmptyFeatureSet("request must name at least one feature")
    if req.window_hours < 1:
        raise NonPositiveWindow(f"window_hours must be >= 1, got {req.window_hours}")
    features = tuple(catalog.feature(k) for k in req.features)
    return ValidatedRequest(
        request=req,
        features=features,
        resolution=catalog.resolution(req.resolution),
        purpose=catalog.purpose(req.purpose),
        catalog=catalog,
    )


@dataclass(frozen=True)
class ContractPreset:
    """A named request template."""

    name: str
    features: tuple[FeatureKind, ...]
    resolution: ResolutionKind
    window_hours: int
    epsilon: float
    purpose: PurposeKind
    mode: RequestMode

    def request(self, requester_id: str, owner_id: str) -> ContractRequest:
        return ContractRequest(
            requester_id=requester_id,
            owner_id=owner_id,
            features=self.features,
            window_hours=self.window_hours,
            resolution=self.resolution,
            purpose=self.purpose,
            proposed_epsilon=self.epsilon,
            mode=self.mode,
        )


@dataclass(frozen=True)
class NegotiationOutcome:
    """The engine's verdict on one request."""

    decision: Decision
    epsilon_star: float | None = None
    modified_request: ContractRequest | None = None
    violated: str | None = None

    def __post_init__(self) -> None:
        if self.decision is Decision.APPROVE:
            if self.epsilon_star is None or self.modified_request is not None:
                raise ValueError("approve carries epsilon_star and no modified request")
        elif self.decision is Decision.COUNTER_OFFER:
            if self.epsilon_star is None or self.modified_request is None:
                raise ValueError("counter-offer carries epsilon_star and a modified request")
        else:
            if self.violated is None:
                raise ValueError("reject must name the violated constraint")

    def to_dict(self) -> dict[str, Any]:
        return {
            "decision": self.decision.value,
            "epsilon_star": self.epsilon_star,
            "modified_request": (
                request_to_dict(self.modified_request) if self.modified_request else None
            ),
            "violated": self.violated,
        }


def feature_multiset(features: Iterable[FeatureKind]) -> tuple[str, ...]:
    """Canonical, order-insensitive rendering of a feature collection."""
    return tuple(sorted(f.value for f in features))
