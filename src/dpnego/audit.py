"""Tamper-evident, hash-chained audit log for negotiation decisions."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

GENESIS_HASH = "0" * 64


class ChainCorrupt(ValueError):
    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"audit chain corrupt at record {index}")


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class AuditRecord:
    """One chained decision record. The record hash covers every field
    including the previous record's hash."""

    sequence: int
    timestamp: float
    request_digest: str
    outcome: dict
    explanation_digest: str
    prev_hash: str
    record_hash: str

    def body(self) -> dict:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "request_digest": self.request_digest,
            "outcome": self.outcome,
            "explanation_digest": self.explanation_digest,
            "prev_hash": self.prev_hash,
        }

    def to_dict(self) -> dict:
        doc = self.body()
        doc["record_hash"] = self.record_hash
        return doc

    @classmethod
    def build(
        cls,
        sequence: int,
        timestamp: float,
        request_digest: str,
        outcome: dict,
        explanation_digest: str,
        prev_hash: str,
    ) -> "AuditRecord":
        body = {
            "sequence": sequence,
            "timestamp": timestamp,
            "request_digest": request_digest,
            "outcome": outcome,
            "explanation_digest": explanation_digest,
            "prev_hash": prev_hash,
        }
        return cls(record_hash=_digest(body), **body)


class AuditLog:
    """Append-only record chain. Single writer; any reader may verify."""

    def __init__(self, records: list[AuditRecord] | None = None):
        self.records: list[AuditRecord] = records or []

    def _check_tail(self) -> None:
        if not self.records:
            return
        i = len(self.records) - 1
        tail = self.records[i]
        if tail.record_hash != _digest(tail.body()):
            raise ChainCorrupt(i)
        expected_prev = GENESIS_HASH if i == 0 else self.records[i - 1].record_hash
        if tail.prev_hash != expected_prev:
            raise ChainCorrupt(i)

    def append(
        self,
        request_doc: dict,
        outcome_doc: dict,
        explanation_doc: dict,
        timestamp: float | None = None,
    ) -> AuditRecord:
        self._check_tail()
        prev = self.records[-1].record_hash if self.records else GENESIS_HASH
        record = AuditRecord.build(
            sequence=len(self.records),
            timestamp=time.time() if timestamp is None else timestamp,
            request_digest=_digest(request_doc),
            outcome=outcome_doc,
            explanation_digest=_digest(explanation_doc),
            prev_hash=prev,
        )
        self.records.append(record)
        return record

    def verify(self) -> int | None:
        """Walk the whole chain; return the first corrupt index, or None."""
        prev = GENESIS_HASH
        last_seq = -1
        for i, rec in enumerate(self.records):
            if rec.prev_hash != prev:
                return i
            if rec.record_hash != _digest(rec.body()):
                return i
            if rec.sequence <= last_seq:
                return i
            prev = rec.record_hash
            last_seq = rec.sequence
        return None

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "AuditLog":
        return cls(list(_parse_records(path)))


def _parse_records(path: str | Path) -> Iterator[AuditRecord]:
    """Yield the records of a JSON-lines audit file; a malformed line raises
    JSONDecodeError, KeyError or TypeError when it is reached."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                doc = json.loads(line)
                yield AuditRecord(
                    sequence=doc["sequence"],
                    timestamp=doc["timestamp"],
                    request_digest=doc["request_digest"],
                    outcome=doc["outcome"],
                    explanation_digest=doc["explanation_digest"],
                    prev_hash=doc["prev_hash"],
                    record_hash=doc["record_hash"],
                )


def verify_file(path: str | Path) -> int | None:
    """Verify a JSON-lines audit file; return the first corrupt index or None.

    A parse failure on line i counts as corruption of record i.
    """
    records: list[AuditRecord] = []
    try:
        records.extend(_parse_records(path))
    except (json.JSONDecodeError, KeyError, TypeError):
        return len(records)
    return AuditLog(records).verify()
