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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from .contracts import canonical_json

GENESIS_HASH = "0" * 64


class ChainCorrupt(ValueError):
    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"audit chain corrupt at record {index}")


def _document_json(name: str, doc: Any) -> str:
    """``canonical_json(doc)``; a value JSON cannot encode (a set, bytes, a
    tuple key) raises ValueError naming the document."""
    try:
        return canonical_json(doc)
    except TypeError as exc:
        raise ValueError(f"audit {name} is not JSON: {exc}") from None


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ``float.__repr__`` of a non-finite float, and what ``canonical_json`` writes.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The members of a record's body, which its hash covers, in canonical order.
_BODY = ("explanation_digest", "outcome", "prev_hash", "request_digest", "sequence", "timestamp")


def _well_formed(doc: dict) -> bool:
    """Whether ``doc`` holds a record's fields with the types its line reads
    back as: an int sequence, an int or float timestamp (not a bool), a dict
    outcome, str digests and hashes. A missing field raises KeyError."""
    ts = doc["timestamp"]
    return (type(doc["sequence"]) is int and isinstance(ts, (int, float)) and type(ts) is not bool
            and isinstance(doc["outcome"], dict) and isinstance(doc["request_digest"], str)
            and isinstance(doc["explanation_digest"], str) and isinstance(doc["prev_hash"], str)
            and isinstance(doc["record_hash"], str))


class _Outcome:
    """``AuditRecord.outcome``: read, a fresh parse of the record's text. Set
    (by the constructor and ``dataclasses.replace``), the text becomes the
    canonical encoding of the body with this outcome and the record's own
    sequence and ``prev_hash``, under the hash the record was given."""

    def __get__(self, rec, owner=None):
        if rec is None:
            raise AttributeError("outcome")  # the field has no default
        return rec.body()["outcome"]

    def __set__(self, rec, outcome):
        try:
            body = {**json.loads(rec.text), "outcome": outcome, "sequence": rec.sequence,
                    "prev_hash": rec.prev_hash}
            body = {name: body[name] for name in _BODY}
            if not _well_formed({**body, "record_hash": rec.record_hash}):
                raise ValueError("a field has the wrong type")
            object.__setattr__(rec, "text", canonical_json(body))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"not an audit record: {exc}") from None


@dataclass(frozen=True)
class AuditRecord:
    """One chained decision record: the body text its hash covers (the
    previous record's hash included) and the three fields the chain reads.
    ``outcome``, ``body()`` and ``to_dict()`` parse the text on every read, so
    no edit of what they return reaches the record. A record built with a
    changed field (``_Outcome``) no longer matches its hash; a field of a
    wrong type raises ValueError.
    """

    # Slots, not a dict per record: a loaded log holds one record per line.
    __slots__ = ("sequence", "prev_hash", "record_hash", "text")
    sequence: int
    prev_hash: str
    record_hash: str
    text: str
    outcome: dict = _Outcome()

    @classmethod
    def _of(cls, sequence: int, prev_hash: str, record_hash: str, text: str) -> "AuditRecord":
        """The record of ``text``, whose fields the caller has read from it
        or checked."""
        rec = object.__new__(cls)
        init = object.__setattr__
        init(rec, "sequence", sequence)
        init(rec, "prev_hash", prev_hash)
        init(rec, "record_hash", record_hash)
        init(rec, "text", text)
        return rec

    def __reduce__(self):
        # copy and pickle would set the slots through the frozen __setattr__
        return AuditRecord._of, (self.sequence, self.prev_hash, self.record_hash, self.text)

    def body(self) -> dict:
        return json.loads(self.text)

    def to_dict(self) -> dict:
        return {**json.loads(self.text), "record_hash": self.record_hash}


def _sealed(rec: AuditRecord) -> bool:
    """Whether ``rec``'s text hashes to its ``record_hash``."""
    return _hash(rec.text) == rec.record_hash


def _follows(rec: AuditRecord, before: AuditRecord | None) -> bool:
    """Whether ``rec`` may follow ``before`` in a chain (None: ``rec`` is its
    first record): it links to ``before``'s hash (the genesis hash) and has a
    sequence above ``before``'s (above -1)."""
    if before is None:
        return rec.prev_hash == GENESIS_HASH and rec.sequence > -1
    return rec.prev_hash == before.record_hash and rec.sequence > before.sequence


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
            lines = fh.read(self._head).split(b"\n")
        return sum(1 for line in lines if line.strip(_JSON_SPACE_BYTES))

    def _check_tail(self) -> None:
        """Raise ChainCorrupt unless the last record is sealed by its hash and
        follows the one before it."""
        i = len(self.records) - 1
        if i >= 0:
            rec = self.records[i]
            if not (_sealed(rec) and _follows(rec, self.records[i - 1] if i else None)):
                raise ChainCorrupt(self._first_index() + i)

    def append(
        self,
        request_doc: dict,
        outcome_doc: dict,
        explanation_doc: dict,
        timestamp: float | None = None,
    ) -> AuditRecord:
        """Chain a record of this decision to the checked tail and return it.

        The request and the explanation enter the body as digests of their
        canonical encodings. The record keeps the body's canonical text, put
        together around the outcome's encoding in the body's key order, so no
        later edit of the documents reaches it. An outcome that is not a dict,
        a document JSON cannot encode, or a timestamp that is not an int or a
        float, raises ValueError and appends nothing: ``load`` would refuse it.
        """
        self._check_tail()
        if not isinstance(outcome_doc, dict):
            raise ValueError(f"audit outcome must be a dict, got {type(outcome_doc).__name__}")
        if timestamp is None:
            timestamp = time.time()
        if isinstance(timestamp, float):
            stamp = float.__repr__(timestamp)
            stamp = _NON_FINITE.get(stamp, stamp)
        elif isinstance(timestamp, int) and not isinstance(timestamp, bool):
            stamp = int.__repr__(timestamp)
        else:
            raise ValueError(f"audit timestamp must be an int or a float, got {timestamp!r}")
        tail = self.records[-1] if self.records else None
        if tail is None:
            sequence, prev_hash = 0, GENESIS_HASH
        else:
            sequence, prev_hash = tail.sequence + 1, tail.record_hash
        request_digest = _hash(_document_json("request", request_doc))
        explanation_digest = _hash(_document_json("explanation", explanation_doc))
        text = (f'{{"explanation_digest": "{explanation_digest}", '
                f'"outcome": {_document_json("outcome", outcome_doc)}, "prev_hash": "{prev_hash}", '
                f'"request_digest": "{request_digest}", "sequence": {sequence}, '
                f'"timestamp": {stamp}}}')
        record = AuditRecord._of(sequence, prev_hash, _hash(text), text)
        self.records.append(record)
        return record

    def verify(self) -> int | None:
        """Walk the whole chain; return the first corrupt index, or None."""
        if self._first_index():
            raise ValueError("a log opened from its tail holds no whole chain")
        for i, rec in enumerate(self.records):
            if not (_sealed(rec) and _follows(rec, self.records[i - 1] if i else None)):
                return i
        return None

    def save(self, path: str | Path) -> None:
        """Store the chain at ``path``.

        To the file the log came from, append the records it lacks in one
        write, then flush and fsync. Any other file gets the whole chain,
        written line by line to a temp file that then replaces it. A record
        that would not verify there (``_lines``) raises ValueError and leaves
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

        Record i must read as a sealed record (``_read``) and follow record
        i-1 (``_follows``). The first record that fails raises ChainCorrupt(i).
        """
        log = cls()
        before = None
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            log._size = os.fstat(fh.fileno()).st_size
            for line in fh:
                if not line.strip(_JSON_SPACE):
                    continue
                try:
                    rec = _read(line)
                except _MALFORMED:
                    raise ChainCorrupt(len(log.records)) from None
                if not _follows(rec, before):
                    raise ChainCorrupt(len(log.records))
                log.records.append(rec)
                before = rec
        log._path = os.path.realpath(path)
        log._stored = len(log.records)
        return log

    @classmethod
    def open_tail(cls, path: str | Path) -> "AuditLog":
        """The last two records of a JSON-lines audit file: what ``append``
        checks and ``save`` extends, read without parsing the rest.

        Reads a block from the end of the file and doubles it until it holds
        two whole records or the whole file. One of the two that does not read
        as a sealed record (``_read``) raises ChainCorrupt.
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
            try:
                log.records.append(_read(raw.decode("utf-8", "surrogateescape")))
            except _MALFORMED:
                raise ChainCorrupt(log._first_index() + k) from None
        log._stored = len(log.records)
        return log


# What a malformed line raises in ``_read``: JSONDecodeError is a ValueError.
_MALFORMED = (ValueError, KeyError, TypeError)
TAIL_BLOCK = 4096
_decode = json.JSONDecoder().raw_decode
# A blank line, which every reader of a log skips, holds JSON whitespace
# only. Any other character (U+2028, U+0085, a control character) makes the
# line a record, and a malformed one.
_JSON_SPACE = " \t\n\r"
_JSON_SPACE_BYTES = _JSON_SPACE.encode()


def _read(line: str) -> AuditRecord:
    """The record on ``line``, holding the text its hash covers: the line
    without its ``, "record_hash": "<hash>"`` member, as ``_line`` writes it
    or a writer hashed its own bytes, or else (other spacing or key order,
    non-ASCII text) the body's canonical encoding. As for ``json.loads``, only
    JSON whitespace may surround the one value, whose fields must be
    ``_well_formed``. A malformed line, or one whose hash covers neither text,
    raises one of ``_MALFORMED``."""
    line = line.strip(_JSON_SPACE)
    doc, end = _decode(line)
    if end != len(line):
        raise ValueError("audit line has data after its JSON value")
    if not _well_formed(doc):
        raise ValueError("audit record has a field of a wrong type")
    digest = doc["record_hash"]
    member = f', "record_hash": "{digest}"'
    at = line.rfind(member)
    text = line[:at] + line[at + len(member):] if at >= 0 and line.isascii() else None
    if text is None or _hash(text) != digest:
        text = canonical_json({name: doc[name] for name in _BODY})
        if _hash(text) != digest:
            raise ValueError("audit record hash covers neither its line nor its body")
    return AuditRecord._of(doc["sequence"], doc["prev_hash"], digest, text)


def _line(rec: AuditRecord) -> str:
    """``rec``'s line: its text with the ``record_hash`` member where
    ``canonical_json`` puts it, before the last three members, so a canonical
    text gives the canonical line. A text whose last members are others (a
    writer's own key order) gets the member last."""
    text = rec.text
    at = text.rfind(', "request_digest": ')
    if at < 0 or text.find("}", at, -1) >= 0:
        at = len(text) - 1
    return f'{text[:at]}, "record_hash": "{rec.record_hash}"{text[at:]}\n'


def _lines(records: list[AuditRecord], before: AuditRecord | None) -> Iterator[str]:
    """The line of each record, which must be sealed by its hash and follow
    the one before it (the first, ``before``), so that what is written is a
    chain ``verify_file`` accepts; a record that is not raises ValueError."""
    for rec in records:
        if not (_sealed(rec) and _follows(rec, before)):
            raise ValueError(f"audit record {rec.sequence} would not verify once written")
        before = rec
        yield _line(rec)


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
