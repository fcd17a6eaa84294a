import json

import pytest

from dpnego.audit import GENESIS_HASH, AuditLog, ChainCorrupt, verify_file


REQ = {"requester_id": "r", "features": ["load_curve"]}
OUT = {"decision": "approve", "epsilon_star": 1.5}
EXP = {"text": "approved", "trace_id": "abc"}


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


def test_negotiate_appends_past_a_tampered_middle_record(tmp_path, capsys):
    from dpnego.cli import main

    path = tmp_path / "audit.jsonl"
    build_log(10_000).save(path)
    tamper_line(path, 5000, epsilon_star=9.9)
    request = tmp_path / "request.json"
    request.write_text(json.dumps({
        "requester_id": "req-001", "owner_id": "owner-1", "features": ["aggregate"],
        "window_hours": 1440, "resolution": "hour1", "purpose": "billing",
        "proposed_epsilon": 2.0, "max_noise": None, "mode": "one_shot",
    }))
    owner = tmp_path / "owner.json"
    owner.write_text(json.dumps({"owner_id": "owner-1", "h_max": 8.0, "granted": [], "trust": {}}))
    code = main(["negotiate", "--request", str(request), "--owner", str(owner),
                 "--audit-log", str(path)])
    assert code == 0
    assert path.read_text().count("\n") == 10_001
    capsys.readouterr()
    assert main(["audit", "verify", str(path)]) == 3
    assert "audit chain corrupt at record 5000" in capsys.readouterr().out
