"""Tamper-evident, hash-chained audit log for negotiation decisions.

On disk a log is a JSON-lines file, one record per line, that only grows:
saving a log that came from a file appends the new lines in one fsynced
write. ``AuditLog.open_tail`` reads just the last two records, which is all
an append checks; ``AuditLog.load`` and ``verify_file`` read the whole chain.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

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
    """Append-only record chain. Single writer; any reader may verify.

    A log read from a file, or saved to one, remembers it: saving to that file
    again appends only the records it lacks. A log opened with ``open_tail``
    holds just the file's last records; it can extend its own file but can
    neither verify nor write out a whole chain.
    """

    def __init__(self, records: list[AuditRecord] | None = None):
        self.records: list[AuditRecord] = records or []
        # The file that holds the first ``_stored`` records, its size in
        # bytes, and the byte offset of records[0] in it (0 for a whole chain).
        self._path: str | None = None
        self._size = 0
        self._stored = 0
        self._head = 0

    def _first_index(self) -> int:
        """Index in the file of records[0]; a tail counts the lines before it."""
        if not self._head:
            return 0
        with open(self._path, "rb") as fh:
            return sum(1 for line in fh.read(self._head).split(b"\n") if line.strip())

    def _check_tail(self) -> None:
        if not self.records:
            return
        i = len(self.records) - 1
        tail = self.records[i]
        expected_prev = GENESIS_HASH if i == 0 else self.records[i - 1].record_hash
        if tail.record_hash != _digest(tail.body()) or tail.prev_hash != expected_prev:
            raise ChainCorrupt(self._first_index() + i)

    def append(
        self,
        request_doc: dict,
        outcome_doc: dict,
        explanation_doc: dict,
        timestamp: float | None = None,
    ) -> AuditRecord:
        self._check_tail()
        tail = self.records[-1] if self.records else None
        record = AuditRecord.build(
            sequence=0 if tail is None else tail.sequence + 1,
            timestamp=time.time() if timestamp is None else timestamp,
            request_digest=_digest(request_doc),
            outcome=outcome_doc,
            explanation_digest=_digest(explanation_doc),
            prev_hash=GENESIS_HASH if tail is None else tail.record_hash,
        )
        self.records.append(record)
        return record

    def verify(self) -> int | None:
        """Walk the whole chain; return the first corrupt index, or None."""
        if self._first_index():
            raise ValueError("a log opened from its tail holds no whole chain")
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
        """Store the chain at ``path``.

        To the file the log came from, append the records it lacks in one
        write, then flush and fsync. Any other file gets the whole chain,
        written line by line to a temp file that then replaces it.
        """
        if os.path.realpath(path) == self._path:
            self._append_new(path)
        elif self._first_index():
            raise ValueError("a log opened from its tail can only append to its own file")
        else:
            self._size = write_atomic(path, map(_line, self.records))
            self._path = os.path.realpath(path)
        self._stored = len(self.records)

    def _append_new(self, path: str | Path) -> None:
        if len(self.records) == self._stored:
            return
        with open(path, "a+b") as fh:
            fd = fh.fileno()
            size = os.fstat(fd).st_size
            if size != self._size:
                raise ValueError(f"{path} changed after it was read")
            data = "".join(map(_line, self.records[self._stored:])).encode()
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        self._size += len(data)

    @classmethod
    def load(cls, path: str | Path) -> "AuditLog":
        """Every record of a JSON-lines audit file; a malformed record i
        raises ChainCorrupt(i)."""
        log = cls()
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            log._size = os.fstat(fh.fileno()).st_size
            for line in fh:
                if line.strip():
                    try:
                        log.records.append(_record(line))
                    except _MALFORMED:
                        raise ChainCorrupt(len(log.records)) from None
        log._path = os.path.realpath(path)
        log._stored = len(log.records)
        return log

    @classmethod
    def open_tail(cls, path: str | Path) -> "AuditLog":
        """The last two records of a JSON-lines audit file: what ``append``
        checks and ``save`` extends, read without parsing the rest.

        Reads a block from the end of the file and doubles it until it holds
        two whole records or the whole file. A malformed one of the two raises
        ChainCorrupt.
        """
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            block = TAIL_BLOCK
            while True:
                start = max(0, size - block)
                fh.seek(start)
                lines = _last_lines(fh.read(size - start), start, 2)
                if len(lines) == 2 or not start:
                    break
                block *= 2
        log = cls()
        log._path, log._size = os.path.realpath(path), size
        log._head = lines[0][0] if lines else size
        for k, (_, line) in enumerate(lines):
            try:
                log.records.append(_record(line.decode("utf-8", "surrogateescape")))
            except _MALFORMED:
                raise ChainCorrupt(log._first_index() + k) from None
        log._stored = len(log.records)
        return log


# What a malformed line raises in ``_record``: JSONDecodeError is a ValueError.
_MALFORMED = (ValueError, KeyError, TypeError)
TAIL_BLOCK = 4096


def _record(line: str) -> AuditRecord:
    doc = json.loads(line)
    return AuditRecord(
        sequence=doc["sequence"],
        timestamp=doc["timestamp"],
        request_digest=doc["request_digest"],
        outcome=doc["outcome"],
        explanation_digest=doc["explanation_digest"],
        prev_hash=doc["prev_hash"],
        record_hash=doc["record_hash"],
    )


def _line(record: AuditRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True) + "\n"


def _last_lines(data: bytes, start: int, want: int) -> list[tuple[int, bytes]]:
    """Up to ``want`` last non-blank lines of ``data``, the file's bytes from
    offset ``start`` to its end, oldest first with their offsets. A line that
    may begin before ``start`` is not returned."""
    found: list[tuple[int, bytes]] = []
    end = len(data)
    while len(found) < want:
        nl = data.rfind(b"\n", 0, end)
        if nl < 0 and start:
            break
        if data[nl + 1:end].strip():
            found.append((start + nl + 1, data[nl + 1:end]))
        if nl < 0:
            break
        end = nl
    return found[::-1]


def write_atomic(path: str | Path, chunks: Iterable[str]) -> int:
    """Write ``chunks`` to a temp file beside ``path``, fsync it and move it
    over ``path``: a reader sees the old file or the new one, never a part.
    Returns the new file's size in bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
            size = os.fstat(fh.fileno()).st_size
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return size


def verify_file(path: str | Path) -> int | None:
    """Verify a JSON-lines audit file; return the first corrupt index or None.

    A parse failure on line i counts as corruption of record i.
    """
    try:
        return AuditLog.load(path).verify()
    except ChainCorrupt as exc:
        return exc.index
