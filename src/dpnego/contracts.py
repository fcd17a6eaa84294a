"""Contract vocabulary: requests, purposes, features, outcomes, validation,
and the canonical JSON encoding."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable

_CANONICAL = json.JSONEncoder(sort_keys=True)
# What ``_CANONICAL.encode`` passes the C encoder after its fresh markers dict.
_C_SETTINGS = (
    _CANONICAL.default, encode_basestring_ascii, _CANONICAL.indent,
    _CANONICAL.key_separator, _CANONICAL.item_separator, _CANONICAL.sort_keys,
    _CANONICAL.skipkeys, _CANONICAL.allow_nan,
)


def canonical_json(obj: Any) -> str:
    """The canonical form of every digest and JSON line the package writes:
    the text and exceptions of ``json.dumps(obj, sort_keys=True)``.

    Calls the C encoder as ``JSONEncoder.encode`` does, without the Python
    set-up ``encode`` repeats per call; the markers dict is fresh per call,
    so a circular value still raises ValueError. Without the C accelerator
    this is ``JSONEncoder(sort_keys=True).encode``. It lives in the module
    every other one imports, so using it loads nothing new.
    """
    return "".join(c_make_encoder({}, *_C_SETTINGS)(obj, 0))


if c_make_encoder is None:
    canonical_json = _CANONICAL.encode


def left_sum(values: Iterable[float], start: float = 0) -> float:
    """``start`` plus each value, added left to right in plain float
    arithmetic: what ``sum(values, start)`` gives before Python 3.12, which
    compensates float sums. Every sensitivity and budget total on the
    decision path is summed this way, so it has the same bits on every
    supported Python."""
    for value in values:
        start += value
    return start


class FeatureKind(Enum):
    __hash__ = object.__hash__  # members are singletons; Enum hashes the name in Python
    LOCATION = "location"
    APPLIANCE_LEVEL = "appliance_level"
    LOAD_CURVE = "load_curve"
    AGGREGATE = "aggregate"


class ResolutionKind(Enum):
    __hash__ = object.__hash__  # as FeatureKind
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
    __hash__ = object.__hash__  # as FeatureKind
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


# Reading a member off an Enum class runs Python code before Python 3.12
# (about 0.2 us), so the decision paths compare against these.
APPROVE, COUNTER_OFFER, REJECT = Decision.APPROVE, Decision.COUNTER_OFFER, Decision.REJECT


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


MEMO_LIMIT = 4096  # entries every memo, of the catalog or an engine, holds before it is cleared


@dataclass(frozen=True)
class Catalog:
    """The owner-side lookup tables: feature coefficients, resolution
    attenuations, and the fixed purpose-compatibility table.

    Construction checks every entry: alphas and purpose scores in [0, 1], and
    an attenuation in (0, 1] for every ``ResolutionKind``, any of which the
    counter-offer search may pick. A feature or purpose the tables lack is an
    error at validation, not a default, so that every score in a decision
    traces back to this table. ``_reductions`` memoizes
    ``derive_counter_offer``, sound because the catalog is immutable: the
    reduced (features, resolution, effective sensitivity) or None per
    (features, resolution, counter_factor). Requesters may vary the shape
    without bound (features may repeat), so it is cleared at ``MEMO_LIMIT``
    entries. It takes no part in eq, hash or repr.
    """

    alphas: dict[FeatureKind, float]
    attenuations: dict[ResolutionKind, float]
    purpose_scores: dict[PurposeKind, float]
    _reductions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for resolution in ResolutionKind:
            if resolution not in self.attenuations:
                raise ValueError(f"catalog.attenuations.{resolution.value} is missing")
        for table, bounds, inside in (
            ("alphas", "[0, 1]", lambda v: 0.0 <= v <= 1.0),
            ("attenuations", "(0, 1]", lambda v: 0.0 < v <= 1.0),
            ("purpose_scores", "[0, 1]", lambda v: 0.0 <= v <= 1.0),
        ):
            for kind, value in getattr(self, table).items():
                if not inside(value):
                    raise ValueError(
                        f"catalog.{table}.{kind.value} must be in {bounds}, got {value!r}"
                    )


@dataclass(frozen=True)
class ContractRequest:
    """A requester's proposal.

    ``features`` is an ordered collection; repeated categories are permitted
    and each entry contributes its own coefficient to the sensitivity sum
    (a counter-offer may aggregate several distinct streams, each of which
    stays a separate aggregate product). ``proposed_epsilon`` and
    ``max_noise`` are None or an int or float in (0, inf); the constructor
    checks both, so no request, counter-offers included, carries a bad one.
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
        for name in ("proposed_epsilon", "max_noise"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0 < value < math.inf
            ):
                raise ValidationError(
                    f"{name} must be a positive finite number when present, got {value!r}"
                )


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
_REQUEST_FIELD_SET = frozenset(REQUEST_FIELDS)


def _parser(kind: type[Enum]):
    """``kind(value)`` through a value -> member table built once. A value
    the table lacks or cannot hash goes to ``kind`` itself, which returns or
    raises exactly as it does without the table."""
    table = {member.value: member for member in kind}

    def parse(value: Any):
        try:
            return table[value]
        except (KeyError, TypeError):
            pass
        return kind(value)

    return parse


_feature, _resolution, _purpose, _mode = map(
    _parser, (FeatureKind, ResolutionKind, PurposeKind, RequestMode)
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
    if not isinstance(doc, dict):
        raise ValidationError(f"a request must be a JSON object, got {doc!r}")
    if not _REQUEST_FIELD_SET.issuperset(doc):
        unknown = set(doc) - _REQUEST_FIELD_SET
        raise UnknownField(f"unknown request fields: {sorted(unknown)}")
    names = doc.get("features", [])
    if not isinstance(names, list) or not all(isinstance(f, str) for f in names):
        raise ValidationError(f"features must be a list of strings, got {names!r}")
    try:
        features = tuple(map(_feature, names))
    except ValueError as exc:
        raise UnknownFeature(str(exc)) from None
    try:
        resolution = _resolution(doc["resolution"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad resolution: {exc}") from None
    try:
        purpose = _purpose(doc["purpose"])
    except (KeyError, ValueError):
        raise UnknownPurpose(f"unknown purpose: {doc.get('purpose')!r}") from None
    mode = _mode(doc.get("mode", "one_shot"))
    window = doc.get("window_hours")
    if not isinstance(window, int) or isinstance(window, bool):
        raise ValidationError("window_hours must be an integer")
    # an id is a trust-history key, so it is never coerced (null is not "None")
    requester_id, owner_id = doc.get("requester_id", ""), doc.get("owner_id", "")
    if not isinstance(requester_id, str) or not isinstance(owner_id, str):
        raise ValidationError(
            f"requester_id and owner_id must be strings, got {requester_id!r}, {owner_id!r}"
        )
    # the constructor checks proposed_epsilon and max_noise by type and range
    return ContractRequest(
        requester_id=requester_id,
        owner_id=owner_id,
        features=features,
        window_hours=window,
        resolution=resolution,
        purpose=purpose,
        proposed_epsilon=doc.get("proposed_epsilon"),
        max_noise=doc.get("max_noise"),
        mode=mode,
    )


@dataclass(frozen=True)
class ValidatedRequest:
    """A request and the catalog that scores it.

    The three numbers a decision reads are fixed at construction:
    ``sensitivity``, the sum of the feature coefficients (``sum`` from int 0,
    left to right); ``effective_sensitivity``, that sum times the requested
    resolution's attenuation; and ``purpose_score``. A feature the catalog
    lacks raises ``UnknownFeature``, before a missing purpose raises
    ``UnknownPurpose``. ``outcomes`` memoizes ``NegotiationEngine.negotiate``
    by (engine, remaining budget, whether the trust reaches the engine's
    ``trusted_min_trust``), sound because neither the request nor the catalog
    changes. It takes no part in eq or repr, a ``dataclasses.replace`` copy
    starts with it empty, and it is cleared at ``MEMO_LIMIT`` entries.
    """

    request: ContractRequest
    catalog: Catalog
    sensitivity: float = field(init=False, repr=False, compare=False)
    effective_sensitivity: float = field(init=False, repr=False, compare=False)
    purpose_score: float = field(init=False, repr=False, compare=False)
    outcomes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        req, catalog = self.request, self.catalog
        try:
            s = left_sum(map(catalog.alphas.__getitem__, req.features))
        except KeyError as exc:
            missing = exc.args[0].value
            raise UnknownFeature(f"feature not exposed by owner catalog: {missing}") from None
        score = catalog.purpose_scores.get(req.purpose)
        if score is None:
            raise UnknownPurpose(f"purpose not in compatibility table: {req.purpose.value}")
        object.__setattr__(self, "sensitivity", s)
        object.__setattr__(self, "effective_sensitivity", catalog.attenuations[req.resolution] * s)
        object.__setattr__(self, "purpose_score", score)


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
    return ValidatedRequest(req, catalog)


@dataclass(frozen=True)
class NegotiationOutcome:
    """The engine's verdict on one request."""

    decision: Decision
    epsilon_star: float | None = None
    modified_request: ContractRequest | None = None
    violated: str | None = None

    def __post_init__(self) -> None:
        if self.decision is APPROVE:
            if self.epsilon_star is None or self.modified_request is not None:
                raise ValueError("approve carries epsilon_star and no modified request")
        elif self.decision is COUNTER_OFFER:
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
