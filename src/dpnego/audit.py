"""Tamper-evident, hash-chained audit log for negotiation decisions.

On disk a log is a JSON-lines file, one record per line, that only grows:
saving a log that came from a file appends the new lines in one fsynced
write. ``AuditLog.open_tail`` reads just the last two records, which is all
an append checks; ``AuditLog.load`` reads the whole chain and checks each
record as it goes, and ``verify_file`` reports the first that fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, fields
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator

from .contracts import canonical_json

GENESIS_HASH = "0" * 64


class ChainCorrupt(ValueError):
    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"audit chain corrupt at record {index}")


def _digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _document_json(name: str, doc: Any) -> str:
    """``canonical_json(doc)`` of the document ``append`` calls ``name``; a
    value JSON cannot encode (a set, bytes, a tuple key) raises ValueError
    naming the document, as ``_lines`` does for a record."""
    try:
        return canonical_json(doc)
    except TypeError as exc:
        raise ValueError(f"audit {name} is not JSON: {exc}") from None


# ``float.__repr__`` of a non-finite float, and what ``canonical_json`` writes.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _timestamp_json(value: Any) -> str:
    """``canonical_json(value)`` for an int or a float, written as the encoder
    writes it. Any other type, a bool included, raises ValueError: ``_record``
    would refuse it."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise ValueError(f"audit timestamp must be an int or a float, got {value!r}")


def _body_text(outcome_text: str, sequence: int, timestamp: float, request_digest: str,
               explanation_digest: str, prev_hash: str) -> str:
    """``canonical_json`` of the body of a record whose outcome encodes to
    ``outcome_text``, put together in the body's sorted key order. The digests
    must be hex (``append``'s are SHA-256 hex digests, or a tail's
    ``record_hash`` that ``_check_tail`` has matched to one), which JSON writes
    as they are, and the sequence an int (one above a checked tail's)."""
    return (f'{{"explanation_digest": "{explanation_digest}", "outcome": {outcome_text}, '
            f'"prev_hash": "{prev_hash}", "request_digest": "{request_digest}", '
            f'"sequence": {int.__repr__(sequence)}, "timestamp": {_timestamp_json(timestamp)}}}')


@dataclass(frozen=True)
class AuditRecord:
    """One chained decision record. The record hash covers every other field,
    the previous record's hash included."""

    sequence: int
    timestamp: float
    request_digest: str
    outcome: dict
    explanation_digest: str
    prev_hash: str
    record_hash: str

    def body(self) -> dict:
        return {name: getattr(self, name) for name in BODY_FIELDS}

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RECORD_FIELDS}


# A record's fields in their declared order: the six the hash covers, then
# the hash itself.
RECORD_FIELDS = tuple(f.name for f in fields(AuditRecord))
BODY_FIELDS = RECORD_FIELDS[:-1]
_field_values = itemgetter(*RECORD_FIELDS)
_record_values = attrgetter(*RECORD_FIELDS)


def _well_formed(rec: AuditRecord) -> bool:
    """Whether ``rec``'s fields have the types its line reads back as: an int
    sequence, an int or float timestamp (not a bool), a dict outcome, str hashes."""
    ts = rec.timestamp
    return (type(rec.sequence) is int and isinstance(ts, (int, float)) and type(ts) is not bool
            and isinstance(rec.outcome, dict) and isinstance(rec.request_digest, str)
            and isinstance(rec.explanation_digest, str) and isinstance(rec.prev_hash, str)
            and isinstance(rec.record_hash, str))


def _follows(rec: AuditRecord, before: AuditRecord | None, line: str | None = None,
             checked: bool = False) -> bool:
    """Whether ``rec`` may follow ``before`` in a chain (None: ``rec`` is its
    first record). It must be ``_well_formed``, link to ``before``'s hash (the
    genesis hash), have a sequence above ``before``'s int sequence (above -1),
    and carry its own hash, checked from ``line`` if it was read from one
    (``_stored_hash_ok``) or already ``checked`` with its types. A ``before``
    no reader checked (the one before an append's tail) may hold any sequence:
    one that is not an int fails."""
    if not (checked or _well_formed(rec)):
        return False
    if before is None:
        link, last_seq = GENESIS_HASH, -1
    else:
        link, last_seq = before.record_hash, before.sequence
    return rec.prev_hash == link and type(last_seq) is int and rec.sequence > last_seq and (
        checked or _stored_hash_ok(rec, line))


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
        # The last record read from the file and the line that holds it.
        self._read_tail: tuple[AuditRecord | None, str | None] = (None, None)
        # The records ``load`` read and checked, each against its own line.
        self._loaded: tuple[AuditRecord, ...] = ()
        # The last record ``append`` built, its field values and the outcome
        # text its hash covers (``_check_tail``).
        self._built: tuple[AuditRecord | None, tuple, str] = (None, (), "")

    def _first_index(self) -> int:
        """Index in the file of records[0]; a tail counts the lines before it."""
        if not self._head:
            return 0
        with open(self._path, "rb") as fh:
            lines = fh.read(self._head).split(b"\n")
        return sum(1 for line in lines if line.strip(_JSON_SPACE_BYTES))

    def _check_tail(self) -> None:
        """Raise ChainCorrupt unless the last record follows the one before it
        (``_follows``). A record read from a file is checked from its line
        while that line still ``_holds`` it, as ``verify`` checks a loaded
        record, so an in-place edit of its outcome fails. The record ``append``
        last built needs no re-hash while it is the same object, holding the
        same field objects, and its outcome still encodes to the hashed text:
        its other fields are immutable, so its body text is the one hashed,
        and an in-place edit of the outcome fails the comparison. Any other
        record, or one edited in place, is re-encoded.
        """
        i = len(self.records) - 1
        if i < 0:
            return
        rec = self.records[i]
        read, line = self._read_tail
        built, values, outcome_text = self._built
        if rec is read:
            vouched = _holds(line, rec)
        else:
            vouched = (rec is built and all(map(is_, _record_values(rec), values))
                       and canonical_json(rec.outcome) == outcome_text)
        if not _follows(rec, self.records[i - 1] if i else None, checked=vouched):
            raise ChainCorrupt(self._first_index() + i)

    def append(
        self,
        request_doc: dict,
        outcome_doc: dict,
        explanation_doc: dict,
        timestamp: float | None = None,
    ) -> AuditRecord:
        """Chain a record of this decision to the checked tail and return it.

        The request, the explanation and the outcome are each encoded once;
        the hash covers the body text composed around the outcome's encoding
        (``_body_text``), byte for byte ``canonical_json`` of the body. An
        outcome that is not a dict, a document JSON cannot encode, or a
        timestamp that is not an int or a float, raises ValueError and appends
        nothing: ``load`` would refuse it.
        """
        self._check_tail()
        if not isinstance(outcome_doc, dict):
            raise ValueError(f"audit outcome must be a dict, got {type(outcome_doc).__name__}")
        tail = self.records[-1] if self.records else None
        if tail is None:
            sequence, prev_hash = 0, GENESIS_HASH
        else:
            sequence, prev_hash = tail.sequence + 1, tail.record_hash
        if timestamp is None:
            timestamp = time.time()
        request_text = _document_json("request", request_doc)
        explanation_text = _document_json("explanation", explanation_doc)
        outcome_text = _document_json("outcome", outcome_doc)
        request_digest = hashlib.sha256(request_text.encode()).hexdigest()
        explanation_digest = hashlib.sha256(explanation_text.encode()).hexdigest()
        text = _body_text(outcome_text, sequence, timestamp, request_digest, explanation_digest,
                          prev_hash)
        record = AuditRecord(sequence, timestamp, request_digest, outcome_doc, explanation_digest,
                             prev_hash, hashlib.sha256(text.encode()).hexdigest())
        self.records.append(record)
        self._built = (record, _record_values(record), outcome_text)
        return record

    def verify(self) -> int | None:
        """Walk the whole chain; return the first corrupt index, or None. A
        record ``load`` read, not since replaced, is checked from line i of
        its file while that line still ``_holds`` it; any other record, or
        one edited in place, is re-encoded."""
        if self._first_index():
            raise ValueError("a log opened from its tail holds no whole chain")
        lines = []
        if self._loaded:
            with open(self._path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
                lines = [line for line in fh if line.strip(_JSON_SPACE)]
        for i, rec in enumerate(self.records):
            checked = (i < min(len(self._loaded), len(lines)) and rec is self._loaded[i]
                       and _holds(lines[i], rec))
            if not _follows(rec, self.records[i - 1] if i else None, checked=checked):
                return i
        return None

    def save(self, path: str | Path) -> None:
        """Store the chain at ``path``.

        To the file the log came from, append the records it lacks in one
        write, then flush and fsync. Any other file gets the whole chain,
        written line by line to a temp file that then replaces it. A record
        whose line would not verify (``_lines``) raises ValueError and leaves
        the target as it was.
        """
        if os.path.realpath(path) == self._path:
            self._append_new(path)
        elif self._first_index():
            raise ValueError("a log opened from its tail can only append to its own file")
        else:
            self._size = write_atomic(path, _lines(self.records, None))
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
            before = self.records[self._stored - 1] if self._stored else None
            data = "".join(_lines(self.records[self._stored:], before)).encode()
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        self._size += len(data)

    @classmethod
    def load(cls, path: str | Path) -> "AuditLog":
        """Every record of a JSON-lines audit file, each checked as it is read.

        Record i must parse (``_record``) and follow record i-1 (``_follows``,
        which checks its field types). The first record that fails raises
        ChainCorrupt(i).
        """
        log = cls()
        before = None
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            log._size = os.fstat(fh.fileno()).st_size
            for line in fh:
                if not line.strip(_JSON_SPACE):
                    continue
                try:
                    rec = _record(line)
                except _MALFORMED:
                    raise ChainCorrupt(len(log.records)) from None
                if not _follows(rec, before, line):
                    raise ChainCorrupt(len(log.records))
                log.records.append(rec)
                before, log._read_tail = rec, (rec, line)
        log._path = os.path.realpath(path)
        log._stored = len(log.records)
        log._loaded = tuple(log.records)
        return log

    @classmethod
    def open_tail(cls, path: str | Path) -> "AuditLog":
        """The last two records of a JSON-lines audit file: what ``append``
        checks and ``save`` extends, read without parsing the rest.

        Reads a block from the end of the file and doubles it until it holds
        two whole records or the whole file. A malformed one of the two
        (``_record``, ``_well_formed``) raises ChainCorrupt.
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
        for k, (_, raw) in enumerate(lines):
            line = raw.decode("utf-8", "surrogateescape")
            try:
                rec = _record(line)
            except _MALFORMED:
                rec = None
            if rec is None or not _well_formed(rec):
                raise ChainCorrupt(log._first_index() + k)
            log.records.append(rec)
            log._read_tail = rec, line
        log._stored = len(log.records)
        return log


# What a malformed line raises in ``_record``: JSONDecodeError is a ValueError.
_MALFORMED = (ValueError, KeyError, TypeError)
TAIL_BLOCK = 4096
_decode = json.JSONDecoder().raw_decode
# A blank line, which every reader of a log skips, holds JSON whitespace
# only. Any other character (U+2028, U+0085, a control character) makes the
# line a record, and a malformed one.
_JSON_SPACE = " \t\n\r"
_JSON_SPACE_BYTES = _JSON_SPACE.encode()


def _record(line: str) -> AuditRecord:
    """The record on ``line``. As for ``json.loads``, only JSON whitespace may
    surround the one value; a missing field also makes the line malformed.
    Its field types are ``_well_formed``'s to check."""
    text = line.strip(_JSON_SPACE)
    doc, end = _decode(text)
    if end != len(text):
        raise ValueError("audit line has data after its JSON value")
    return AuditRecord(*_field_values(doc))


def _line(record: AuditRecord) -> str:
    return canonical_json(record.to_dict()) + "\n"


def _lines(records: list[AuditRecord], before: AuditRecord | None) -> Iterator[str]:
    """The line of each record, which must follow the one before it (the
    first, ``before``) with its hash checked from that line (``_follows``), so
    that what is written is a chain ``verify_file`` accepts. A record of a
    wrong field type, or whose writer hashed other bytes than its canonical
    line, or whose outcome JSON cannot encode, raises ValueError."""
    for rec in records:
        try:
            line = _line(rec)
        except TypeError as exc:
            raise ValueError(f"audit record {rec.sequence} is not JSON: {exc}") from None
        if not _follows(rec, before, line):
            raise ValueError(f"audit record {rec.sequence} would not verify once written")
        before = rec
        yield line


def _holds(line: str, rec: AuditRecord) -> bool:
    """Whether ``line`` still holds ``rec``: it reads as ``rec`` encodes, and
    carries ``rec``'s hash (``_stored_hash_ok``)."""
    try:
        return _line(_record(line)) == _line(rec) and _stored_hash_ok(rec, line)
    except _MALFORMED:
        return False


def _stored_hash_ok(rec: AuditRecord, line: str | None = None) -> bool:
    """Whether ``rec.record_hash`` is the hash of ``rec``'s body, checked from
    ``line``, the text ``rec`` was read from, if there is one.

    A line ``_line`` wrote is the body's canonical encoding with the member
    ``, "record_hash": "<hash>"`` inserted, so the line without that member
    hashes to ``record_hash`` and nothing is re-encoded. Any other line (other
    spacing or key order, non-ASCII text, a tampered byte), or no line, falls
    back to re-encoding the record. A line whose writer hashed its own
    non-canonical bytes also passes here, where re-encoding would reject it.
    """
    if line is not None:
        member = f', "record_hash": "{rec.record_hash}"'
        at = line.rfind(member)
        if at >= 0 and line.isascii():
            stored = line[:at] + line[at + len(member):].rstrip("\n")
            if hashlib.sha256(stored.encode()).hexdigest() == rec.record_hash:
                return True
    return rec.record_hash == _digest(rec.body())


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
        if data[nl + 1:end].strip(_JSON_SPACE_BYTES):
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

    This is ``AuditLog.load``: the answer is the first record that is
    malformed or does not follow the one before it (``_follows``).
    """
    try:
        AuditLog.load(path)
    except ChainCorrupt as exc:
        return exc.index
    return None
