import dataclasses
import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dpnego.audit import GENESIS_HASH, AuditLog, AuditRecord, ChainCorrupt, verify_file
from dpnego.contracts import canonical_json


REQ = {"requester_id": "r", "features": ["load_curve"]}
OUT = {"decision": "approve", "epsilon_star": 1.5}
EXP = {"text": "approved", "trace_id": "abc"}


def digest(payload):
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def sealed(body):
    """The record of ``body``, built from its canonical text and sealed under
    that text's hash."""
    return AuditRecord(body["sequence"], body["prev_hash"], digest(body), canonical_json(body),
                       body["outcome"])


def build_log(n, t0=1700000000.0):
    log = AuditLog()
    for i in range(n):
        log.append(REQ, {**OUT, "i": i}, EXP, timestamp=t0 + i)
    return log


def test_single_record_chains_from_genesis():
    log = build_log(1)
    assert log.records[0].prev_hash == GENESIS_HASH
    assert log.verify() is None


def test_chain_links_forward():
    log = build_log(5)
    for prev, rec in zip(log.records, log.records[1:]):
        assert rec.prev_hash == prev.record_hash
    assert log.verify() is None


def test_identical_inputs_identical_hashes():
    a = build_log(3)
    b = build_log(3)
    assert [r.record_hash for r in a.records] == [r.record_hash for r in b.records]


def test_tamper_detected_at_index(tmp_path):
    log = build_log(6)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    assert verify_file(path) is None

    lines = path.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["outcome"]["epsilon_star"] = 9.9
    lines[3] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert verify_file(path) == 3


def test_any_single_byte_flip_detected(tmp_path):
    log = build_log(4)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    raw = path.read_bytes()
    # flip one byte inside record 2's line
    lines = raw.split(b"\n")
    target = bytearray(lines[2])
    pos = target.find(b"epsilon") + 2
    target[pos] ^= 0x01
    lines[2] = bytes(target)
    path.write_bytes(b"\n".join(lines))
    bad = verify_file(path)
    assert bad is not None and bad <= 2


def test_append_to_corrupt_tail_raises():
    log = build_log(3)
    object.__setattr__(log.records[-1], "outcome", {"decision": "reject"})
    with pytest.raises(ChainCorrupt):
        log.append(REQ, OUT, EXP, timestamp=1.0)


def test_empty_log_verifies(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert verify_file(path) is None


def test_round_trip(tmp_path):
    log = build_log(4)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    loaded = AuditLog.load(path)
    assert [r.to_dict() for r in loaded.records] == [r.to_dict() for r in log.records]
    assert loaded.verify() is None


def test_sequence_must_increase(tmp_path):
    log = build_log(3)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    doc["sequence"] = 0
    lines[2] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    assert verify_file(path) == 2


def tail_append(path, timestamp=1800000000.0):
    log = AuditLog.open_tail(path)
    record = log.append(REQ, OUT, EXP, timestamp=timestamp)
    log.save(path)
    return record


def test_tail_append_matches_full_rewrite(tmp_path):
    tail_path, full_path = tmp_path / "tail.jsonl", tmp_path / "full.jsonl"
    build_log(5).save(tail_path)
    tail_append(tail_path)

    build_log(5).save(tmp_path / "loaded.jsonl")
    log = AuditLog.load(tmp_path / "loaded.jsonl")
    log.append(REQ, OUT, EXP, timestamp=1800000000.0)
    log.save(full_path)
    assert tail_path.read_bytes() == full_path.read_bytes()


def test_tail_of_empty_file_starts_the_chain(tmp_path):
    path = tmp_path / "audit.jsonl"
    path.write_text("")
    record = tail_append(path)
    assert (record.sequence, record.prev_hash) == (0, GENESIS_HASH)
    assert path.read_text().count("\n") == 1
    assert verify_file(path) is None


def test_tail_of_one_record_file_links_to_genesis(tmp_path):
    path = tmp_path / "audit.jsonl"
    first = build_log(1)
    first.save(path)
    record = tail_append(path)
    assert record.sequence == 1 and record.prev_hash == first.records[0].record_hash
    assert verify_file(path) is None and len(AuditLog.load(path).records) == 2


def test_tail_skips_trailing_blank_lines(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = build_log(3)
    log.save(path)
    path.write_text(path.read_text() + "\n  \n\n")
    record = tail_append(path)
    assert record.prev_hash == log.records[-1].record_hash
    assert verify_file(path) is None and len(AuditLog.load(path).records) == 4


@pytest.mark.parametrize(
    "char", ["\u2028", "\u0085", "\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c"],
    ids=["U+2028", "U+0085", "U+001C", "U+001D", "U+001E", "U+001F", "U+000B", "U+000C"],
)
def test_a_line_of_other_whitespace_is_a_malformed_record(tmp_path, char):
    # A blank line holds JSON whitespace only, for the whole-chain reader and
    # the tail reader alike; str.strip() and bytes.strip() each skip more,
    # and not the same characters.
    from dpnego.cli import main

    path = tmp_path / "audit.jsonl"
    build_log(3).save(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(char + "\n")
    assert verify_file(path) == 3
    with pytest.raises(ChainCorrupt) as info:
        AuditLog.open_tail(path)
    assert info.value.index == 3
    assert main(["audit", "verify", str(path)]) == 3


def test_tail_append_after_unterminated_last_line(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(3).save(path)
    path.write_text(path.read_text().rstrip("\n"))
    tail_append(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and all(json.loads(line) for line in lines)
    assert verify_file(path) is None


def test_tail_record_longer_than_read_block(tmp_path):
    from dpnego.audit import TAIL_BLOCK

    path = tmp_path / "audit.jsonl"
    log = AuditLog()
    for i in range(4):
        log.append(REQ, {**OUT, "note": "x" * (3 * TAIL_BLOCK), "i": i}, EXP, timestamp=float(i))
    log.save(path)
    tail = AuditLog.open_tail(path)
    assert [r.to_dict() for r in tail.records] == [r.to_dict() for r in log.records[-2:]]
    tail.append(REQ, OUT, EXP, timestamp=9.0)
    tail.save(path)
    assert verify_file(path) is None and len(AuditLog.load(path).records) == 5


def tamper_line(path, index, **changes):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    doc["outcome"] = {**doc["outcome"], **changes}
    lines[index] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_tail_raises_at_its_index(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(6).save(path)
    tamper_line(path, 5, epsilon_star=9.9)
    before = path.read_bytes()
    with pytest.raises(ChainCorrupt) as exc:
        tail_append(path)
    assert exc.value.index == 5 == verify_file(path)
    assert path.read_bytes() == before


def test_tail_reader_checks_the_hash_of_both_records(tmp_path):
    # a record keeps only a text its hash covers, so the record before the
    # tail is checked as it is read, as load checks it
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    tamper_line(path, 2, epsilon_star=9.9)
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.open_tail(path)
    assert exc.value.index == 2 == verify_file(path)


def test_tail_with_broken_link_raises(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    other = tmp_path / "other.jsonl"
    build_log(4, t0=1.0).save(other)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = other.read_text().splitlines(keepends=True)[2]
    path.write_text("".join(lines))
    with pytest.raises(ChainCorrupt) as exc:
        tail_append(path)
    assert exc.value.index == 3


def test_malformed_tail_raises_at_its_index(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    path.write_text(path.read_text() + '{"sequence": 4, "truncat\n')
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.open_tail(path)
    assert exc.value.index == 4 == verify_file(path)


def test_malformed_line_reports_an_earlier_bad_record(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(6).save(path)
    tamper_line(path, 2, epsilon_star=9.9)
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4][: len(lines[4]) // 2] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.load(path)
    assert exc.value.index == 2 == verify_file(path)


def test_tail_log_never_truncates_the_file(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(6).save(path)
    before = path.read_bytes()
    tail = AuditLog.open_tail(path)
    assert len(tail.records) == 2
    tail.append(REQ, OUT, EXP, timestamp=7.0)
    tail.save(path)
    tail.save(path)
    after = path.read_bytes()
    assert after.startswith(before) and after.count(b"\n") == 7

    elsewhere = tmp_path / "elsewhere.jsonl"
    elsewhere.write_text("keep\n")
    with pytest.raises(ValueError):
        tail.save(elsewhere)
    with pytest.raises(ValueError):
        tail.verify()
    assert elsewhere.read_text() == "keep\n" and path.read_bytes() == after


def test_save_refuses_a_file_changed_since_it_was_read(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(3).save(path)
    tail = AuditLog.open_tail(path)
    tail.append(REQ, OUT, EXP, timestamp=5.0)
    tail_append(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        tail.save(path)
    assert path.read_bytes() == before


def negotiate_files(tmp_path):
    """A request the default config approves as asked, and its owner's file."""
    request = tmp_path / "request.json"
    request.write_text(json.dumps({
        "requester_id": "req-001", "owner_id": "owner-1", "features": ["aggregate"],
        "window_hours": 1440, "resolution": "hour1", "purpose": "billing",
        "proposed_epsilon": 2.0, "max_noise": None, "mode": "one_shot",
    }))
    owner = tmp_path / "owner.json"
    owner.write_text(json.dumps({"owner_id": "owner-1", "h_max": 8.0, "granted": [], "trust": {}}))
    return request, owner


def test_negotiate_appends_past_a_tampered_middle_record(tmp_path, capsys):
    from dpnego.cli import main

    path = tmp_path / "audit.jsonl"
    build_log(10_000).save(path)
    tamper_line(path, 5000, epsilon_star=9.9)
    request, owner = negotiate_files(tmp_path)
    code = main(["negotiate", "--request", str(request), "--owner", str(owner),
                 "--audit-log", str(path)])
    assert code == 0
    assert path.read_text().count("\n") == 10_001
    capsys.readouterr()
    assert main(["audit", "verify", str(path)]) == 3
    assert "audit chain corrupt at record 5000" in capsys.readouterr().out


def reference_record(doc):
    """The record of a line's document rebuilt from its fields, which
    re-encodes its body; a field of a wrong type raises ValueError."""
    return AuditRecord(doc["sequence"], doc["prev_hash"], doc["record_hash"], json.dumps(doc),
                       doc["outcome"])


def reference_index(path):
    """The first corrupt record of ``path`` found by re-encoding every record:
    parse each line, and on a malformed line report the first bad record of
    the ones before it, or the line itself."""
    records = []
    for line in path.read_bytes().decode("utf-8", "surrogateescape").split("\n"):
        if line.strip():
            try:
                records.append(reference_record(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                bad = AuditLog(records).verify()
                return len(records) if bad is None else bad
    return AuditLog(records).verify()


def nested_hash_log():
    """A log whose record 1 carries a ``record_hash`` member in its outcome."""
    log = build_log(1)
    log.append(REQ, {**OUT, "record_hash": "ab" * 32, "z": 0}, EXP, timestamp=2.0)
    log.append(REQ, OUT, EXP, timestamp=3.0)
    return log


@pytest.mark.parametrize("make_log,target", [(lambda: build_log(4), 2), (nested_hash_log, 1)])
def test_every_byte_flip_matches_the_re_encoding_reference(tmp_path, make_log, target):
    path = tmp_path / "audit.jsonl"
    make_log().save(path)
    raw = path.read_bytes()
    start = sum(len(line) + 1 for line in raw.split(b"\n")[:target])
    end = raw.index(b"\n", start)
    for pos in range(start, end):
        for mask in (0x01, 0x20, 0x80):
            flipped = bytearray(raw)
            flipped[pos] ^= mask
            path.write_bytes(bytes(flipped))
            assert verify_file(path) == reference_index(path), (pos, mask)


def rewrite_line(path, index, **dumps_args):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    lines[index] = json.dumps(dict(reversed(doc.items())), **dumps_args)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("dumps_args", [{}, {"separators": (",", ":")}])
def test_reformatted_line_still_verifies(tmp_path, dumps_args):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    rewrite_line(path, 2, **dumps_args)
    assert verify_file(path) is None is reference_index(path)
    assert len(AuditLog.load(path).records) == 4


def test_nested_record_hash_member_gets_the_reference_verdict(tmp_path):
    path = tmp_path / "audit.jsonl"
    log = nested_hash_log()
    log.save(path)
    assert verify_file(path) is None is reference_index(path)
    # the outcome gains a member equal to the record's own hash
    own = log.records[1].record_hash
    tamper_line(path, 1, record_hash=own)
    assert verify_file(path) == 1 == reference_index(path)


def test_canonical_log_loads_without_re_encoding(tmp_path, monkeypatch):
    from dpnego import audit

    path = tmp_path / "audit.jsonl"
    build_log(1000).save(path)
    calls = []
    real = audit.canonical_json
    monkeypatch.setattr(audit, "canonical_json", lambda payload: calls.append(1) or real(payload))
    assert len(AuditLog.load(path).records) == 1000
    assert calls == []
    rewrite_line(path, 500)
    assert len(AuditLog.load(path).records) == 1000
    assert calls == [1]


def rehash_line(path, index, **fields):
    """Set ``fields`` on record ``index`` and give it the hash of its new body,
    so the line is canonical and carries its own hash."""
    lines = path.read_text().splitlines(keepends=True)
    body = {**json.loads(lines[index]), **fields}
    del body["record_hash"]
    lines[index] = canonical_json({**body, "record_hash": digest(body)}) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("corrupt", [
    lambda path: tamper_line(path, 2, epsilon_star=9.9),
    lambda path: rehash_line(path, 2, prev_hash="1" * 64),
    lambda path: rehash_line(path, 2, sequence=1),
], ids=["wrong-hash", "broken-link", "sequence-repeats"])
def test_load_raises_at_the_first_bad_record(tmp_path, corrupt):
    path = tmp_path / "audit.jsonl"
    build_log(5).save(path)
    corrupt(path)
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.load(path)
    assert exc.value.index == 2 == verify_file(path) == reference_index(path)


# --- one successor rule for append, verify and load -------------------------

def self_hash_line(path, index):
    """Rewrite record ``index`` with its keys in reverse order under the hash
    of those bytes, as a writer that hashes its own encoding would: only the
    check from the stored line accepts it."""
    lines = path.read_text().splitlines(keepends=True)
    doc = json.loads(lines[index])
    del doc["record_hash"]
    stored = json.dumps(dict(reversed(doc.items())))
    own = hashlib.sha256(stored.encode()).hexdigest()
    lines[index] = stored[:-1] + f', "record_hash": "{own}"}}\n'
    path.write_text("".join(lines))


TAILS = {
    "as-written": lambda path: None,
    "sequence-repeats": lambda path: rehash_line(path, 3, sequence=2),
    "sequence-falls": lambda path: rehash_line(path, 3, sequence=0),
    "broken-link": lambda path: rehash_line(path, 3, prev_hash="1" * 64),
    "wrong-hash": lambda path: tamper_line(path, 3, epsilon_star=9.9),
    "reordered": lambda path: rewrite_line(path, 3),
    "self-hashed": lambda path: self_hash_line(path, 3),
}


@pytest.mark.parametrize("corrupt", TAILS.values(), ids=TAILS.keys())
def test_append_refuses_exactly_the_tails_verify_rejects(tmp_path, corrupt):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    corrupt(path)
    bad = verify_file(path)
    if bad is None:
        assert AuditLog.load(path).verify() == bad
    before = path.read_bytes()
    try:
        tail_append(path)
    except ChainCorrupt as exc:
        assert exc.index == bad == 3
        assert path.read_bytes() == before
    else:
        assert bad is None and verify_file(path) is None


def self_hashed_chain(path, n):
    """A chain of ``n`` records written by a writer that encodes each body with
    its keys in reverse order and hashes those bytes: only the check from the
    stored lines accepts it."""
    lines, prev = [], GENESIS_HASH
    for i in range(n):
        body = {**build_log(1).records[0].body(), "sequence": i, "prev_hash": prev}
        stored = json.dumps(dict(reversed(body.items())))
        prev = hashlib.sha256(stored.encode()).hexdigest()
        lines.append(stored[:-1] + f', "record_hash": "{prev}"}}\n')
    path.write_text("".join(lines))


def test_loaded_self_hashed_chain_verifies_as_the_file_does(tmp_path):
    path = tmp_path / "audit.jsonl"
    self_hashed_chain(path, 4)
    assert verify_file(path) is None
    log = AuditLog.load(path)
    assert log.verify() is None
    log.append(REQ, OUT, EXP, timestamp=9.0)
    assert log.verify() is None


def test_save_never_writes_a_chain_that_verify_file_rejects(tmp_path):
    # a self-hashed record keeps the text its writer hashed; written to
    # another file with its hash member last, it reads back as the same text
    path, other = tmp_path / "audit.jsonl", tmp_path / "other.jsonl"
    self_hashed_chain(path, 4)
    other.write_text("kept\n")
    log = AuditLog.load(path)
    log.save(other)
    assert verify_file(other) is None
    assert [r.text for r in AuditLog.load(other).records] == [r.text for r in log.records]
    assert all(line.endswith(f', "record_hash": "{r.record_hash}"}}')
               for line, r in zip(other.read_text().splitlines(), log.records))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.jsonl", "other.jsonl"]
    log = AuditLog.load(path)
    # its own file keeps the stored lines and gains one canonical line
    log.append(REQ, OUT, EXP, timestamp=9.0)
    log.save(path)
    assert verify_file(path) is None and len(AuditLog.load(path).records) == 5


def test_save_refuses_a_record_that_does_not_follow_its_predecessor(tmp_path):
    log = build_log(3)
    log.records[2] = sealed({**log.records[2].body(), "sequence": 1})
    with pytest.raises(ValueError, match="audit record 1 would not verify once written"):
        log.save(tmp_path / "audit.jsonl")
    assert not (tmp_path / "audit.jsonl").exists()


def test_record_replaced_after_load_is_re_encoded(tmp_path):
    # a replaced record holds the canonical encoding of its body, which is not
    # the text a self-hashed record's writer hashed
    path = tmp_path / "audit.jsonl"
    self_hashed_chain(path, 4)
    log = AuditLog.load(path)
    log.records[2] = dataclasses.replace(log.records[2])
    assert log.verify() == 2


IN_PLACE_EDITS = {
    "value": lambda outcome: outcome.__setitem__("epsilon_star", 9.9),
    "key": lambda outcome: outcome.pop("decision"),
}


def chain_file(path, self_hashed):
    if self_hashed:
        self_hashed_chain(path, 4)
    else:
        build_log(4).save(path)


@pytest.mark.parametrize("self_hashed", [False, True], ids=["canonical", "self-hashed"])
@pytest.mark.parametrize("edit", IN_PLACE_EDITS.values(), ids=IN_PLACE_EDITS.keys())
def test_an_edit_of_a_record_s_outcome_reaches_nothing(tmp_path, self_hashed, edit):
    # outcome is a fresh parse of the record's text: editing what it returns
    # leaves the record, verify's answer and the saved bytes as they were
    path = tmp_path / "audit.jsonl"
    chain_file(path, self_hashed)
    for k, log in enumerate((AuditLog.load(path), build_log(4))):
        before, after = tmp_path / f"before{k}.jsonl", tmp_path / f"after{k}.jsonl"
        log.save(before)
        want = json.loads(json.dumps(log.records[1].outcome))
        edit(log.records[1].outcome)
        assert log.records[1].outcome == want
        assert log.verify() is None
        log.save(after)
        assert after.read_bytes() == before.read_bytes()
    assert verify_file(path) is None


@pytest.mark.parametrize("self_hashed", [False, True], ids=["canonical", "self-hashed"])
@pytest.mark.parametrize("read", [AuditLog.load, AuditLog.open_tail], ids=["load", "open_tail"])
@pytest.mark.parametrize("edit", IN_PLACE_EDITS.values(), ids=IN_PLACE_EDITS.keys())
def test_an_edit_of_a_read_tail_s_outcome_reaches_nothing(tmp_path, self_hashed, read, edit):
    # the tail read from a file keeps its text: after an edit of its outcome
    # the append goes ahead and writes what an unedited tail gives
    path, reference = tmp_path / "audit.jsonl", tmp_path / "reference.jsonl"
    chain_file(path, self_hashed)
    reference.write_bytes(path.read_bytes())
    twin = read(reference)
    twin.append(REQ, OUT, EXP, timestamp=9.0)
    twin.save(reference)
    log = read(path)
    want = json.loads(json.dumps(log.records[-1].outcome))
    edit(log.records[-1].outcome)
    assert log.records[-1].outcome == want
    log.append(REQ, OUT, EXP, timestamp=9.0)
    if read == AuditLog.load:
        assert log.verify() is None
    log.save(path)
    assert path.read_bytes() == reference.read_bytes() and verify_file(path) is None


def test_a_record_copies_and_pickles_as_itself():
    import copy
    import pickle

    record = build_log(2).records[1]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin.text == record.text


def test_verify_of_a_loaded_log_reads_no_file(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(5).save(path)
    log = AuditLog.load(path)
    path.unlink()
    assert log.verify() is None


def test_tail_append_refuses_a_sequence_that_does_not_rise(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    rehash_line(path, 3, sequence=2)
    before = path.read_bytes()
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.open_tail(path).append(REQ, OUT, EXP, timestamp=9.0)
    assert exc.value.index == 3 == verify_file(path)
    assert path.read_bytes() == before


def test_negotiate_refuses_a_tail_whose_sequence_does_not_rise(tmp_path, capsys):
    from dpnego.cli import main

    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    rehash_line(path, 3, sequence=2)
    request, owner = negotiate_files(tmp_path)
    log_before, owner_before = path.read_bytes(), owner.read_bytes()
    code = main(["negotiate", "--request", str(request), "--owner", str(owner),
                 "--audit-log", str(path), "--settle"])
    assert code == 3
    assert "audit chain corrupt at record 3" in capsys.readouterr().err
    assert path.read_bytes() == log_before and owner.read_bytes() == owner_before


def test_in_memory_append_refuses_a_sequence_that_does_not_rise():
    log = build_log(4)
    log.records[-1] = sealed({**log.records[-1].body(), "sequence": 2})
    assert log.verify() == 3
    with pytest.raises(ChainCorrupt) as exc:
        log.append(REQ, OUT, EXP, timestamp=9.0)
    assert exc.value.index == 3 and len(log.records) == 4


def test_tail_replaced_after_reading_is_checked_by_re_encoding(tmp_path):
    # the replaced record holds its re-encoded body under the old hash
    path = tmp_path / "audit.jsonl"
    build_log(3).save(path)
    log = AuditLog.open_tail(path)
    log.records[-1] = dataclasses.replace(log.records[-1], outcome={"decision": "reject"})
    with pytest.raises(ChainCorrupt) as exc:
        log.append(REQ, OUT, EXP, timestamp=9.0)
    assert exc.value.index == 2


def test_lone_record_with_sequence_minus_one_is_corrupt(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(1).save(path)
    rehash_line(path, 0, sequence=-1)
    assert verify_file(path) == 0
    for read in (AuditLog.load, tail_append):
        with pytest.raises(ChainCorrupt) as exc:
            read(path)
        assert exc.value.index == 0


# --- the canonical encoding and the record decoder --------------------------

json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**63, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 1e308, 5e-324])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=24,
)


def encoded(encode, value):
    """What ``encode`` makes of ``value``: the text, or the exception's type."""
    try:
        return encode(value)
    except Exception as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_canonical_json_is_json_dumps_with_sorted_keys(value):
    reference = encoded(lambda v: json.dumps(v, sort_keys=True), value)
    assert encoded(canonical_json, value) == reference


def test_canonical_json_raises_as_json_dumps_does():
    circular = {"a": 1}
    circular["self"] = circular
    for value in (circular, {"b": 1, 2: 3}, {None: 1, "a": 2}):
        reference = encoded(lambda v: json.dumps(v, sort_keys=True), value)
        assert isinstance(reference, type) and encoded(canonical_json, value) is reference


def decision_log(n):
    """``n`` requests decided by the default and the staged engine in turns of
    40 on fresh budgets, each explained and appended at a fixed timestamp.
    Requester ids are non-ASCII, and counter-offers carry them into the
    records. Returns the log and the explanations' trace ids."""
    from dpnego.config import build_engine_config, load_config
    from dpnego.contracts import Decision, request_from_dict, validate_request
    from dpnego.explain import explain, factors_for
    from dpnego.negotiation import BudgetLedger, negotiate

    cfg = load_config()
    engines = (cfg.engine, build_engine_config({**cfg.raw["engine"], "safety_mode": "staged"}))
    bundles = cfg.experiments["cross_dataset"]["stream"]["bundles"]
    rng = random.Random(20261018)
    log, trace_ids = AuditLog(), []
    for i in range(n):
        if i % 40 == 0:
            ledger, engine = BudgetLedger(h_max=8.0), engines[i // 40 % 2]
        b = bundles[rng.randrange(len(bundles))]
        doc = {"requester_id": f"r-{i % 7}-é中", "owner_id": "o-1", "features": b["features"],
               "window_hours": b["window_hours"], "resolution": b["resolution"],
               "purpose": b["purpose"], "proposed_epsilon": rng.uniform(0.05, 2.5)}
        validated = validate_request(request_from_dict(doc), cfg.catalog)
        trust = rng.random()
        outcome = negotiate(validated, ledger, trust, engine)
        factors = factors_for(validated, ledger, trust, outcome)
        expl = explain(outcome, factors, ledger, engine, cfg.explain)
        if outcome.decision is Decision.APPROVE:
            ledger.settle(f"c{i}", outcome.epsilon_star)
        log.append(doc, outcome.to_dict(), expl.to_dict(), timestamp=1.7e9 + i / 3)
        trace_ids.append(expl.trace_id)
    return log, trace_ids


def test_decision_log_bytes_and_trace_ids_are_pinned(tmp_path):
    # pinned from the json.dumps(..., sort_keys=True) encoding the shared
    # encoder replaced: digests, lines and trace ids did not move
    log, trace_ids = decision_log(1000)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    assert sum(r.outcome["decision"] == "counter_offer" for r in log.records) == 156
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "fd6009a0c0f9b243e458db0ccf7e1c9c7d7e68bbe3f70575023d492bacbe1022")
    assert hashlib.sha256("\n".join(trace_ids).encode()).hexdigest() == (
        "463821d962039d2c6745f4f6c013a34a6546774fc123187bf4c81884e46b1789")
    assert verify_file(path) is None


def json_loads_index(path):
    """``reference_index`` with the field types checked from each line's
    document, and a blank line holding JSON whitespace only."""
    records = []
    for line in path.read_bytes().decode("utf-8", "surrogateescape").split("\n"):
        if not line.strip(" \t\r"):
            continue
        try:
            doc = json.loads(line)
            strings = ("request_digest", "explanation_digest", "prev_hash", "record_hash")
            if (type(doc["sequence"]) is not int or type(doc["timestamp"]) not in (float, int)
                    or type(doc["outcome"]) is not dict
                    or not all(type(doc[name]) is str for name in strings)):
                raise ValueError("wrong type")
            rec = reference_record(doc)
        except (ValueError, KeyError, TypeError):
            bad = AuditLog(records).verify()
            return len(records) if bad is None else bad
        records.append(rec)
    return AuditLog(records).verify()


CRAFTED_LINES = {
    "leading-tab": lambda line: "\t" + line,
    "trailing-tab": lambda line: line + "\t",
    "leading-space": lambda line: " " + line,
    "trailing-space": lambda line: line + "  ",
    "leading-cr": lambda line: "\r" + line,
    "trailing-cr": lambda line: line + "\r",
    "form-feed-line-before": lambda line: "\x0c\n" + line,
    "leading-form-feed": lambda line: "\x0c" + line,
    "trailing-form-feed": lambda line: line + "\x0c",
    "leading-bom": lambda line: "\ufeff" + line,
    "two-records": lambda line: line + " " + line,
    "trailing-byte": lambda line: line + "x",
    "bare-array": lambda line: "[1, 2]",
    "bare-string": lambda line: '"record"',
    "bare-number": lambda line: "42",
}


@pytest.mark.parametrize("index", [1, 3])
@pytest.mark.parametrize("craft", CRAFTED_LINES.values(), ids=CRAFTED_LINES.keys())
def test_record_decoder_matches_json_loads(tmp_path, craft, index):
    path = tmp_path / "audit.jsonl"
    build_log(4).save(path)
    lines = path.read_text().split("\n")
    lines[index] = craft(lines[index])
    path.write_text("\n".join(lines))
    assert verify_file(path) == json_loads_index(path)


def test_last_line_with_two_records_is_corrupt(tmp_path):
    path = tmp_path / "audit.jsonl"
    build_log(3).save(path)
    lines = path.read_text().splitlines()
    lines[-1] += " " + lines[-1]
    path.write_text("\n".join(lines) + "\n")
    assert verify_file(path) == 2
    with pytest.raises(ChainCorrupt) as exc:
        AuditLog.open_tail(path)
    assert exc.value.index == 2


# --- the composed body text and the tail check --------------------------------

outcome_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**53, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0]) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=16,
)
timestamps = (st.integers() | st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from([-0.0, 0.0, 1.7e9, float("nan"), float("inf"), -float("inf")]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.dictionaries(st.text(), outcome_values, max_size=5), timestamps),
                min_size=1, max_size=4))
def test_composed_body_hashes_as_its_canonical_encoding(entries):
    log = AuditLog()
    for outcome, timestamp in entries:
        record = log.append(REQ, outcome, EXP, timestamp=timestamp)
        assert record.record_hash == digest(record.body())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.jsonl"
        log.save(path)
        assert verify_file(path) is None


@pytest.mark.parametrize("outcome,timestamp", [
    (OUT, True), (OUT, False), (OUT, "x"), (["not", "a", "dict"], 1.0),
], ids=["timestamp-true", "timestamp-false", "timestamp-str", "outcome-list"])
def test_append_refuses_a_field_load_would_refuse(tmp_path, outcome, timestamp):
    log = build_log(2)
    before = list(log.records)
    with pytest.raises(ValueError):
        log.append(REQ, outcome, EXP, timestamp=timestamp)
    assert log.records == before
    log.save(tmp_path / "audit.jsonl")
    assert verify_file(tmp_path / "audit.jsonl") is None


def edit_top_level(log, passed):
    log.records[-1].outcome["epsilon_star"] = 9.9


def edit_nested(log, passed):
    log.records[-1].outcome["modified_request"]["features"][0] = "aggregate"


def edit_passed_dict(log, passed):
    passed["decision"] = "reject"


def edit_body(log, passed):
    log.records[-1].body()["outcome"]["decision"] = "reject"


def edit_to_dict(log, passed):
    log.records[-1].to_dict()["outcome"]["modified_request"]["features"].append("aggregate")


@pytest.mark.parametrize("edit", [edit_top_level, edit_nested, edit_passed_dict, edit_body,
                                  edit_to_dict])
def test_an_edit_of_what_append_took_or_returned_reaches_nothing(tmp_path, edit):
    logs, passed = [], {**OUT, "modified_request": {"features": ["load_curve"]}}
    for k in range(2):
        log = build_log(2)
        log.append(REQ, passed if k else json.loads(json.dumps(passed)), EXP, timestamp=1.0)
        logs.append(log)
    want = logs[0].records[-1].to_dict()
    edit(logs[1], passed)
    assert logs[1].records[-1].to_dict() == want
    for k, log in enumerate(logs):
        log.append(REQ, OUT, EXP, timestamp=2.0)
        assert log.verify() is None
        log.save(tmp_path / f"{k}.jsonl")
    assert (tmp_path / "0.jsonl").read_bytes() == (tmp_path / "1.jsonl").read_bytes()


def open_as(opener, path):
    """A log of 4 records saved to ``path``, as ``opener`` gives it."""
    log = build_log(4)
    log.save(path)
    return {"built": lambda: log, "load": lambda: AuditLog.load(path),
            "open_tail": lambda: AuditLog.open_tail(path)}[opener]()


OPENERS = ["built", "load", "open_tail"]


@pytest.mark.parametrize("opener", OPENERS)
def test_append_never_re_encodes_its_tail(tmp_path, monkeypatch, opener):
    # each tail is checked by hashing the text it keeps; an append encodes its
    # three documents, nothing more
    from dpnego import audit

    log = open_as(opener, tmp_path / "audit.jsonl")
    encoded = []
    real = audit.canonical_json
    monkeypatch.setattr(audit, "canonical_json", lambda doc: encoded.append(doc) or real(doc))
    log.append(REQ, OUT, EXP, timestamp=9.0)
    log.append(REQ, OUT, EXP, timestamp=10.0)
    assert encoded == [REQ, EXP, OUT] * 2


REPLACEMENTS = {
    "outcome": lambda rec: dataclasses.replace(rec, outcome={**rec.outcome, "epsilon_star": 9.9}),
    "sequence": lambda rec: dataclasses.replace(rec, sequence=rec.sequence + 5),
    "prev-hash": lambda rec: dataclasses.replace(rec, prev_hash="1" * 64),
    "record-hash": lambda rec: dataclasses.replace(rec, record_hash="1" * 64),
    "text": lambda rec: dataclasses.replace(
        rec, text=rec.text.replace('"timestamp": ', '"timestamp": 1')),
}


@pytest.mark.parametrize("replace", REPLACEMENTS.values(), ids=REPLACEMENTS.keys())
@pytest.mark.parametrize("opener", OPENERS)
def test_append_and_verify_refuse_a_replaced_tail(tmp_path, opener, replace):
    # a replaced record holds the canonical text of its new fields under the
    # hash it was given, so no field can change and keep the hash
    log = open_as(opener, tmp_path / "audit.jsonl")
    log.records[-1] = replace(log.records[-1])
    before = list(log.records)
    with pytest.raises(ChainCorrupt) as exc:
        log.append(REQ, OUT, EXP, timestamp=9.0)
    assert exc.value.index == 3 and log.records == before
    if opener != "open_tail":
        assert log.verify() == 3
    unchanged = dataclasses.replace(before[-2])
    assert unchanged == before[-2] and unchanged.text == before[-2].text


# --- one rule for the field types: reading, verify, save and append ----------

WRONG_TYPES = {
    "sequence-float": {"sequence": 1.5},
    "sequence-bool": {"sequence": True},
    "sequence-str": {"sequence": "1"},
    "timestamp-bool": {"timestamp": True},
    "timestamp-str": {"timestamp": "1.0"},
    "timestamp-none": {"timestamp": None},
    "outcome-list": {"outcome": ["approve"]},
    "request-digest-int": {"request_digest": 7},
    "explanation-digest-none": {"explanation_digest": None},
}


@pytest.mark.parametrize("fields", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_a_record_of_a_wrong_field_type_cannot_be_built(tmp_path, fields):
    # the constructor, dataclasses.replace included, checks the types a line
    # reads back as, so verify, save and append never meet a wrong one
    log = build_log(2)
    last = log.records[-1]
    body = {**last.body(), "sequence": last.sequence + 1, "prev_hash": last.record_hash, **fields}
    with pytest.raises(ValueError, match="not an audit record"):
        sealed(body)
    with pytest.raises(ValueError, match="not an audit record"):
        dataclasses.replace(last, text=canonical_json(body), sequence=body["sequence"],
                            outcome=body["outcome"])
    assert log.verify() is None
    log.save(tmp_path / "audit.jsonl")
    assert verify_file(tmp_path / "audit.jsonl") is None


@pytest.mark.parametrize("fields", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_readers_refuse_a_line_of_a_wrong_field_type(tmp_path, fields):
    path = tmp_path / "audit.jsonl"
    log = build_log(2)
    body = {**log.records[1].to_dict(), **fields}
    del body["record_hash"]
    path.write_text(canonical_json(log.records[0].to_dict()) + "\n"
                    + canonical_json({**body, "record_hash": digest(body)}) + "\n")
    assert verify_file(path) == 1
    for read in (AuditLog.load, AuditLog.open_tail):
        with pytest.raises(ChainCorrupt) as exc:
            read(path)
        assert exc.value.index == 1


def test_the_append_path_checks_no_field_types(tmp_path, monkeypatch):
    from dpnego import audit

    calls = []
    real = audit._well_formed
    monkeypatch.setattr(audit, "_well_formed", lambda doc: calls.append(1) or real(doc))
    log = build_log(50)
    path = tmp_path / "audit.jsonl"
    log.save(path)
    assert log.verify() is None and calls == []
    assert AuditLog.load(path).verify() is None
    assert len(calls) == 50


UNENCODABLE = {"set": {1, 2}, "bytes": b"x", "object": object(), "tuple-key": {("a",): 1}}


@pytest.mark.parametrize("value", UNENCODABLE.values(), ids=UNENCODABLE.keys())
def test_an_outcome_json_cannot_encode_never_reaches_a_record(tmp_path, value):
    log = build_log(2)
    log.records[1].outcome["x"] = value
    with pytest.raises(ValueError, match="not an audit record"):
        dataclasses.replace(log.records[1], outcome={"x": value})
    path = tmp_path / "audit.jsonl"
    log.save(path)
    assert verify_file(path) is None and "x" not in AuditLog.load(path).records[1].outcome


@pytest.mark.parametrize("document", ["request", "outcome", "explanation"])
@pytest.mark.parametrize("value", [{1, 2}, b"x", {("a",): 1}], ids=["set", "bytes", "tuple-key"])
def test_append_refuses_a_document_json_cannot_encode(document, value):
    log = build_log(2)
    before = list(log.records)
    docs = {"request": REQ, "outcome": OUT, "explanation": EXP}
    docs[document] = {**docs[document], "x": value}
    with pytest.raises(ValueError, match=f"audit {document} is not JSON"):
        log.append(docs["request"], docs["outcome"], docs["explanation"], timestamp=9.0)
    assert log.records == before
    log.append(REQ, OUT, EXP, timestamp=9.0)
    assert log.verify() is None


# --- nothing a caller can reach edits the chain ------------------------------

SOURCES = ["built", "load", "load-self-hashed", "open_tail", "open_tail-self-hashed"]
NESTED_OUT = {**OUT,
              "modified_request": {"features": ["load_curve", "aggregate"], "window": [1, 2]}}


def open_source(source, path):
    """A log of 3 records as ``source`` gives it, the last appended with the
    nested outcome; a file-backed source reads ``path``."""
    if source == "built":
        log = build_log(2)
    else:
        if source.endswith("self-hashed"):
            self_hashed_chain(path, 2)
        else:
            build_log(2).save(path)
        log = (AuditLog.open_tail if source.startswith("open_tail") else AuditLog.load)(path)
    log.append(REQ, json.loads(json.dumps(NESTED_OUT)), EXP, timestamp=5.0)
    return log


def containers(value):
    found = [value]
    for child in value.values() if isinstance(value, dict) else value:
        if isinstance(child, (dict, list)):
            found += containers(child)
    return found


edit_values = json_values | st.sampled_from([{1, 2}, b"x", object(), {("a",): 1}])


def edit_somewhere(data, value):
    """One drawn edit of a dict or list anywhere inside ``value``."""
    target = data.draw(st.sampled_from(containers(value)))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    op = data.draw(st.sampled_from(["set", "delete", "clear"] if keys else ["set"]))
    if op == "clear":
        target.clear()
    elif op == "delete":
        del target[data.draw(st.sampled_from(keys))]
    elif isinstance(target, dict):
        target[data.draw(st.sampled_from(keys) | st.text(max_size=3)) if keys
               else data.draw(st.text(max_size=3))] = data.draw(edit_values)
    elif keys and data.draw(st.booleans()):
        target[data.draw(st.sampled_from(keys))] = data.draw(edit_values)
    else:
        target.append(data.draw(edit_values))


def saved(log, path):
    """The bytes ``save`` leaves: a whole log goes to a new file, a tail
    extends its own."""
    if log._head:
        log.save(path)
        return path.read_bytes()
    out = path.with_name(path.name + ".saved")
    log.save(out)
    return out.read_bytes()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SOURCES), st.data())
def test_no_edit_of_a_reachable_value_changes_a_hash_or_a_saved_line(source, data):
    with tempfile.TemporaryDirectory() as tmp:
        docs = [json.loads(json.dumps(doc)) for doc in (REQ, NESTED_OUT, EXP)]
        logs = [open_source(source, Path(tmp) / name) for name in ("edited", "twin")]
        logs[0].append(*docs, timestamp=6.0)
        logs[1].append(REQ, json.loads(json.dumps(NESTED_OUT)), EXP, timestamp=6.0)
        for _ in range(data.draw(st.integers(1, 4))):
            reach = data.draw(st.sampled_from(["outcome", "body", "to_dict", "passed"]))
            if reach == "passed":
                value = data.draw(st.sampled_from(docs))
            else:
                record = data.draw(st.sampled_from(logs[0].records))
                value = getattr(record, reach) if reach == "outcome" else getattr(record, reach)()
            edit_somewhere(data, value)
        edited, twin = logs
        assert [r.record_hash for r in edited.records] == [r.record_hash for r in twin.records]
        assert [r.outcome for r in edited.records] == [r.outcome for r in twin.records]
        if not edited._head:
            assert edited.verify() is None
        assert saved(edited, Path(tmp) / "edited") == saved(twin, Path(tmp) / "twin")
