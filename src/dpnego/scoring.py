"""Scalar negotiation inputs: sensitivity, trust, and purpose compatibility."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .contracts import Catalog, FeatureCategory, PurposeKind


class OutOfRange(ValueError):
    pass


def sensitivity_score(features: Iterable[FeatureCategory]) -> float:
    """Sum of feature risk coefficients. Empty collections sum to zero."""
    return float(sum(f.alpha for f in features))


def purpose_score(purpose: PurposeKind, catalog: Catalog) -> float:
    """Fixed compatibility-table lookup; total over the purpose enum."""
    return catalog.purpose(purpose).score


@dataclass(frozen=True)
class TrustConfig:
    """Weights and normalization knobs for the trust score.

    ``beta`` must sum to 1 so the clamped score stays a convex combination;
    ``n_sat`` saturates the completed-contract count; ``half_life_events``
    sets the decay of the quality/alignment moving averages.
    """

    beta: tuple[float, float, float] = (0.4, 0.3, 0.3)
    n_sat: int = 10
    half_life_events: int = 5

    def __post_init__(self) -> None:
        if any(b < 0 for b in self.beta):
            raise ValueError("beta components must be non-negative")
        if abs(sum(self.beta) - 1.0) > 1e-9:
            raise ValueError("beta must sum to 1")
        if self.n_sat < 1:
            raise ValueError("n_sat must be >= 1")
        if self.half_life_events < 1:
            raise ValueError("half_life_events must be >= 1")

    @property
    def ewma_weight(self) -> float:
        # weight 0.5 at half-life 1, approaching 0 as the half-life grows
        return 1.0 - 2.0 ** (-1.0 / self.half_life_events)


@dataclass(frozen=True)
class TrustLedger:
    """Per requester-owner evidence: completions, output quality, purpose alignment."""

    succ_count: int = 0
    quality: float = 0.0
    alignment: float = 0.0
    events: int = 0

    def __post_init__(self) -> None:
        if self.succ_count < 0:
            raise OutOfRange("succ_count must be non-negative")
        if not 0.0 <= self.quality <= 1.0:
            raise OutOfRange("quality must be in [0,1]")
        if not 0.0 <= self.alignment <= 1.0:
            raise OutOfRange("alignment must be in [0,1]")


def trust_score(ledger: TrustLedger, cfg: TrustConfig) -> float:
    """Normalized reliability score in [0,1]. A blank history scores 0."""
    b1, b2, b3 = cfg.beta
    n_term = min(ledger.succ_count / cfg.n_sat, 1.0)
    raw = b1 * n_term + b2 * ledger.quality + b3 * ledger.alignment
    return min(1.0, max(0.0, raw))


def update_trust(ledger: TrustLedger, event: str, value: float | None = None,
                 cfg: TrustConfig = TrustConfig()) -> TrustLedger:
    """Apply one behavioural event and return the updated ledger.

    Events: ``completed`` increments the success count; ``quality_report`` and
    ``alignment_report`` fold ``value`` into an exponentially weighted average
    so recent behaviour dominates.
    """
    succ, quality, alignment = ledger.succ_count, ledger.quality, ledger.alignment
    if event == "completed":
        succ += 1
    elif event in ("quality_report", "alignment_report"):
        if value is None or not 0.0 <= value <= 1.0:
            raise OutOfRange(f"{event} value must be in [0,1], got {value}")
        w = cfg.ewma_weight
        if event == "quality_report":
            quality += w * (value - quality)
        else:
            alignment += w * (value - alignment)
    else:
        raise ValueError(f"unknown trust event: {event!r}")
    return TrustLedger(succ_count=succ, quality=quality, alignment=alignment,
                       events=ledger.events + 1)


@dataclass
class TrustStore:
    """All trust ledgers held by one owner, with append-only event persistence.

    The event log is a JSON-lines file; replaying it reconstructs every ledger
    bit-exactly because updates are deterministic in the event sequence.
    """

    cfg: TrustConfig = field(default_factory=TrustConfig)
    ledgers: dict[str, TrustLedger] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)

    def ledger(self, requester_id: str) -> TrustLedger:
        return self.ledgers.get(requester_id, TrustLedger())

    def score(self, requester_id: str) -> float:
        return trust_score(self.ledger(requester_id), self.cfg)

    def record(self, requester_id: str, event: str, value: float | None = None) -> TrustLedger:
        updated = update_trust(self.ledger(requester_id), event, value, self.cfg)
        self.ledgers[requester_id] = updated
        self.log.append({"requester": requester_id, "event": event, "value": value})
        return updated

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path, cfg: TrustConfig = TrustConfig()) -> "TrustStore":
        store = cls(cfg=cfg)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                store.record(entry["requester"], entry["event"], entry["value"])
        return store
