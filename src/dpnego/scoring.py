"""Trust scoring: per-requester evidence ledgers and the normalized score."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class TrustConfig:
    """Weights and normalization knobs for the trust score.

    ``beta`` must sum to 1 so the clamped score stays a convex combination;
    ``n_sat`` saturates the completed-contract count; ``half_life_events``
    sets the decay of the quality/alignment moving averages, whose weight
    ``ewma_weight`` is derived from it once at construction.
    """

    beta: tuple[float, float, float] = (0.4, 0.3, 0.3)
    n_sat: int = 10
    half_life_events: int = 5
    # weight 0.5 at half-life 1, approaching 0 as the half-life grows
    ewma_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.beta) != 3:
            raise ValueError(f"beta must have 3 entries, got {len(self.beta)}")
        if any(b < 0 for b in self.beta):
            raise ValueError("beta components must be non-negative")
        if abs(sum(self.beta) - 1.0) > 1e-9:
            raise ValueError("beta must sum to 1")
        if self.n_sat < 1:
            raise ValueError("n_sat must be >= 1")
        if self.half_life_events < 1:
            raise ValueError("half_life_events must be >= 1")
        object.__setattr__(self, "ewma_weight", 1.0 - 2.0 ** (-1.0 / self.half_life_events))


@dataclass(frozen=True)
class TrustLedger:
    """Per requester-owner evidence: completions, output quality, purpose alignment."""

    succ_count: int = 0
    quality: float = 0.0
    alignment: float = 0.0

    def __post_init__(self) -> None:
        _check_bounds(self.succ_count, self.quality, self.alignment)


def _check_bounds(succ_count: int, quality: float, alignment: float) -> None:
    if succ_count < 0:
        raise OutOfRange("succ_count must be non-negative")
    if not 0.0 <= quality <= 1.0:
        raise OutOfRange("quality must be in [0,1]")
    if not 0.0 <= alignment <= 1.0:
        raise OutOfRange("alignment must be in [0,1]")


def _check_report(event: str, value: float | None) -> None:
    if value is None or not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{event} value must be in [0,1], got {value}")


_BLANK = TrustLedger()  # frozen, so one instance serves every unseen requester


def trust_score(ledger: TrustLedger, cfg: TrustConfig) -> float:
    """Normalized reliability score in [0,1]. A blank history scores 0."""
    b1, b2, b3 = cfg.beta
    n_term = min(ledger.succ_count / cfg.n_sat, 1.0)
    raw = b1 * n_term + b2 * ledger.quality + b3 * ledger.alignment
    return min(1.0, max(0.0, raw))


def fold_trust(ledger: TrustLedger, events: Iterable[tuple[str, float | None]],
               cfg: TrustConfig = TrustConfig()) -> TrustLedger:
    """Apply ``(event, value)`` pairs in order and return the updated ledger.

    Events: ``completed`` increments the success count; ``quality_report`` and
    ``alignment_report`` fold ``value`` into an exponentially weighted average
    so recent behaviour dominates. The run is folded as plain numbers, with
    the value range, the event name and the ledger bounds checked at every
    event, and one ``TrustLedger`` is built at the end. A run of completions
    with one report of each kind is one EMA step per average, which
    ``TrustStore.seed_history`` takes directly.
    """
    succ, quality, alignment = ledger.succ_count, ledger.quality, ledger.alignment
    w = cfg.ewma_weight
    for event, value in events:
        if event == "completed":
            succ += 1
        elif event == "quality_report" or event == "alignment_report":
            _check_report(event, value)
            if event == "quality_report":
                quality += w * (value - quality)
            else:
                alignment += w * (value - alignment)
        else:
            raise ValueError(f"unknown trust event: {event!r}")
        if succ < 0 or not 0.0 <= quality <= 1.0 or not 0.0 <= alignment <= 1.0:
            _check_bounds(succ, quality, alignment)  # the same tests, to raise
    return TrustLedger(succ, quality, alignment)


@dataclass
class TrustStore:
    """All trust ledgers held by one owner: one ``TrustLedger`` per requester,
    changed only by folding events into it."""

    cfg: TrustConfig = field(default_factory=TrustConfig)
    ledgers: dict[str, TrustLedger] = field(default_factory=dict)

    def ledger(self, requester_id: str) -> TrustLedger:
        return self.ledgers.get(requester_id, _BLANK)

    def score(self, requester_id: str) -> float:
        return trust_score(self.ledger(requester_id), self.cfg)

    def record(self, requester_id: str, event: str, value: float | None = None) -> TrustLedger:
        return self.extend(requester_id, ((event, value),))

    def extend(self, requester_id: str, events: Sequence[tuple[str, float | None]]) -> TrustLedger:
        """Fold a run of ``(event, value)`` pairs into one requester's ledger.
        All or nothing: if any event is bad, it raises and the store is left
        unchanged."""
        if not events:
            return self.ledger(requester_id)
        updated = fold_trust(self.ledger(requester_id), events, self.cfg)
        self.ledgers[requester_id] = updated
        return updated

    def seed_history(self, requester_ids: Sequence[str], completions: Sequence[int],
                     reports: Sequence[tuple[float, float]]) -> None:
        """Seed the ledgers of ``requester_ids``: fold into the k-th one's
        ledger ``completions[k]`` completed events, then one quality and one
        alignment report, ``reports[k]``, bit for bit as ``extend`` folds that
        run. A completion changes only the count, and each average takes
        exactly one report, so each run is one EMA step from the ledger it
        starts from (the one an earlier run of the same requester left). All
        or nothing for the store, with ``fold_trust``'s checks: a negative
        count, a report outside [0, 1] or columns of unequal length raise
        before any ledger is written."""
        ledgers, w = self.ledgers, self.cfg.ewma_weight
        seeded: dict[str, TrustLedger] = {}
        runs = zip(requester_ids, completions, reports, strict=True)
        for requester_id, count, (quality, alignment) in runs:
            if count < 0:
                raise OutOfRange(f"completions must be non-negative, got {count}")
            _check_report("quality_report", quality)
            _check_report("alignment_report", alignment)
            base = seeded.get(requester_id) or ledgers.get(requester_id, _BLANK)
            seeded[requester_id] = TrustLedger(base.succ_count + count,
                                               base.quality + w * (quality - base.quality),
                                               base.alignment + w * (alignment - base.alignment))
        ledgers.update(seeded)
