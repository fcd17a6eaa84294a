"""Contract vocabulary: requests, purposes, features, outcomes, validation,
and the canonical JSON encoding."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, NamedTuple

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


# The resolution ladder, finest first, with each step's sample spacing in
# seconds: a counter-offer coarsens up it, and a plan never resamples down it.
RESOLUTION_SECONDS = {
    ResolutionKind.MIN5: 300,
    ResolutionKind.MIN15: 900,
    ResolutionKind.MIN30: 1800,
    ResolutionKind.HOUR1: 3600,
    ResolutionKind.DAILY: 86400,
}
RESOLUTION_ORDER = tuple(RESOLUTION_SECONDS)


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


MEMO_LIMIT = 4096  # entries every memo, of the catalog or an engine, holds before it is cleared


@dataclass(frozen=True)
class Catalog:
    """The owner-side lookup tables: feature coefficients, resolution
    attenuations, and the fixed purpose-compatibility table; ``price`` is the
    one sensitivity of a request shape computed from them.

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

    def price(self, features: Iterable[FeatureKind], resolution: ResolutionKind) -> float:
        """The effective sensitivity of a request shape: the attenuation times
        the coefficients added left to right. An unknown feature raises KeyError."""
        return self.attenuations[resolution] * left_sum(map(self.alphas.__getitem__, features))


@dataclass(frozen=True)
class ContractRequest:
    """A requester's proposal.

    ``features`` is an ordered collection; repeated categories are permitted
    and each entry contributes its own coefficient to the sensitivity sum
    (a counter-offer may aggregate several distinct streams, each of which
    stays a separate aggregate product). ``proposed_epsilon`` and
    ``max_noise`` are None or a positive number (``_is_number``); the
    constructor checks both, so no request, counter-offers included, carries
    a bad one.
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
            if value is not None and not (_is_number(value) and value > 0):
                raise ValidationError(
                    f"{name} must be a positive finite number when present, got {value!r}"
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


# --- the document reader --------------------------------------------------------

JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
              float: "a finite number", bool: "a boolean"}


_FLOAT_MAX = sys.float_info.max


def _is_number(value: Any) -> bool:
    """Whether ``value`` is an int or a float, never a bool, that a float
    holds finitely: not NaN, not ±inf and no int beyond the float range."""
    return (type(value) is int or type(value) is float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


class Opt(NamedTuple):
    """An optional key of an object schema: absent, it reads as ``default``,
    as does a value that is ``default`` itself (null, where that is None)."""
    kind: Any
    default: Any = None


class OneOf(NamedTuple):
    """A string looked up in ``table``: an Enum's members by value, or strings
    that stand for themselves. A miss raises ``error`` where one is given."""
    table: Any
    error: type[ValidationError] | None = None


class _Refused(Exception):
    """A refused value: the problem, where the value is (``(parent, key)``
    links up to None, the document) and the error class its schema names."""

    def __init__(self, problem: str, at: Any, error: type[ValidationError] | None = None):
        super().__init__(problem)
        self.problem, self.at, self.error = problem, at, error


def _number(value: Any, at: Any) -> Any:
    if _is_number(value):
        return value
    raise _Refused(f"must be {JSON_TYPES[float]}, got {value!r}", at)


def _compile(kind: Any) -> Callable[[Any, Any], Any]:
    """The function ``read(value, at)`` for ``kind``: a dict is an object
    schema (``{str: kind}``: free keys, each value of ``kind``), ``[kind]`` an
    array, ``(kind, kind)`` a pair, ``float`` a number, and any other type of
    ``JSON_TYPES`` that exact JSON type."""
    if kind is float:
        return _number
    if type(kind) is OneOf:
        table = ({m.value: m for m in kind.table} if isinstance(kind.table, type)
                 else dict(zip(kind.table, kind.table)))
        expected = f"must be one of {list(table)}"

        def read_one_of(value, at):
            try:
                return table[value]
            except (KeyError, TypeError):
                raise _Refused(f"{expected}, got {value!r}", at, kind.error) from None
        return read_one_of
    inside = None
    if type(kind) is list:
        read_item = _compile(kind[0])
        inside = lambda doc, at: tuple([read_item(v, (at, i)) for i, v in enumerate(doc)])
    elif type(kind) is tuple:
        reads = [_compile(k) for k in kind]

        def inside(doc, at):
            if len(doc) != len(reads):
                raise _Refused(f"must be an array of {len(reads)} items, got {doc!r}", at)
            return tuple([read(v, (at, i)) for i, (read, v) in enumerate(zip(reads, doc))])
    elif type(kind) is dict and str in kind:
        read_value = _compile(kind[str])
        inside = lambda doc, at: {k: read_value(v, (at, k)) for k, v in doc.items()}
    elif type(kind) is dict:
        inside = _object(kind)
    json_type = kind if type(kind) is type else list if type(kind) is tuple else type(kind)
    expected = f"must be {JSON_TYPES[json_type]}"

    def read_typed(value, at):
        if type(value) is json_type:
            return inside(value, at) if inside else value
        raise _Refused(f"{expected}, got {value!r}", at)
    return read_typed


_REQUIRED = object()


def _object(schema: dict) -> Callable[[dict, Any], dict]:
    known = frozenset(schema)
    fields = [(key, _compile(k.kind), k.default) if type(k) is Opt
              else (key, _compile(k), _REQUIRED) for key, k in schema.items()]

    def read_object(doc, at):
        if not known.issuperset(doc):
            raise _Refused("is an unknown key", (at, next(k for k in doc if k not in known)))
        out = {}
        for key, read, default in fields:
            value = doc.get(key, default)
            if value is _REQUIRED:
                raise _Refused("is missing", (at, key))
            out[key] = value if value is default else read(value, (at, key))
        return out
    return read_object


def _key_path(at: Any, root: str) -> str:
    if at is None:
        return root
    parent, key = at
    path = _key_path(parent, root)
    return f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key


def reader(kind: Any, error: type[ValueError] | None = None) -> Callable[..., Any]:
    """The function that reads a JSON document of ``kind``, compiled once.

    Nothing is coerced: each value must have its kind's JSON type, and a
    number is what ``_is_number`` accepts. An object refuses a key
    its schema does not name, and a missing key that is not ``Opt``.
    ``read(doc, root="")`` returns the document with its enums looked up, its
    absent keys at their defaults and its arrays as tuples. A refused value
    raises ``error`` (else the ``OneOf``'s own, else ``ValidationError``)
    naming its key path below ``root``, such as ``trust.req-01.quality`` or
    ``[2].scheme.k``."""
    read = _compile(kind)

    def read_document(doc: Any, root: str = "") -> Any:
        try:
            return read(doc, None)
        except _Refused as refused:
            path = _key_path(refused.at, root) or "the document"
            raise (error or refused.error or ValidationError)(
                f"{path} {refused.problem}") from None
    return read_document


REQUEST_SCHEMA = {
    # an id is a trust-history key, so null is not "None"
    "requester_id": Opt(str, ""),
    "owner_id": Opt(str, ""),
    "features": Opt([OneOf(FeatureKind, UnknownFeature)], ()),
    "window_hours": int,
    "resolution": OneOf(ResolutionKind),
    "purpose": OneOf(PurposeKind, UnknownPurpose),
    # the constructor checks that each is positive
    "proposed_epsilon": Opt(float),
    "max_noise": Opt(float),
    "mode": Opt(OneOf(RequestMode), RequestMode.ONE_SHOT),
}
_read_request = reader(REQUEST_SCHEMA)


def request_from_dict(doc: Any) -> ContractRequest:
    """Parse the canonical request document, read by ``REQUEST_SCHEMA``."""
    return ContractRequest(**_read_request(doc))


@dataclass(frozen=True)
class ValidatedRequest:
    """A request and the catalog that scores it.

    The two numbers a decision reads are fixed at construction:
    ``effective_sensitivity``, the price of the request's shape
    (``Catalog.price``), and ``purpose_score``. A feature the catalog
    lacks raises ``UnknownFeature``, before a missing purpose raises
    ``UnknownPurpose``.
    """

    request: ContractRequest
    catalog: Catalog
    effective_sensitivity: float = field(init=False, repr=False, compare=False)
    purpose_score: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        req, catalog = self.request, self.catalog
        try:
            s_eff = catalog.price(req.features, req.resolution)
        except KeyError as exc:
            missing = exc.args[0].value
            raise UnknownFeature(f"feature not exposed by owner catalog: {missing}") from None
        score = catalog.purpose_scores.get(req.purpose)
        if score is None:
            raise UnknownPurpose(f"purpose not in compatibility table: {req.purpose.value}")
        object.__setattr__(self, "effective_sensitivity", s_eff)
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
