import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpnego.cli import main

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def write_request(tmp_path, **overrides):
    doc = {
        "requester_id": "req-001",
        "owner_id": "owner-1",
        "features": ["aggregate"],
        "window_hours": 1440,
        "resolution": "hour1",
        "purpose": "billing",
        "proposed_epsilon": 2.0,
        "max_noise": None,
        "mode": "one_shot",
    }
    doc.update(overrides)
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc))
    return path


def write_owner(tmp_path, h_max=8.0, granted=(), name="owner.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"owner_id": "owner-1", "h_max": h_max, "granted": list(granted), "trust": {}})
    )
    return path


def test_negotiate_approval_exit_zero(tmp_path, capsys):
    req = write_request(tmp_path)
    owner = write_owner(tmp_path)
    code = main(["negotiate", "--request", str(req), "--owner", str(owner)])
    out = capsys.readouterr().out
    assert code == 0
    assert '"decision": "approve"' in out


def test_negotiate_rejection_exit_two(tmp_path, capsys):
    req = write_request(tmp_path)
    owner = write_owner(tmp_path, granted=[["c0", 7.7]])
    code = main(["negotiate", "--request", str(req), "--owner", str(owner)])
    out = capsys.readouterr().out
    assert code == 2
    assert '"decision": "reject"' in out


def test_negotiate_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    owner = write_owner(tmp_path)
    assert main(["negotiate", "--request", str(bad), "--owner", str(owner)]) == 1


def test_negotiate_unknown_purpose_exit_one(tmp_path, capsys):
    req = write_request(tmp_path, purpose="research")
    owner = write_owner(tmp_path)
    assert main(["negotiate", "--request", str(req), "--owner", str(owner)]) == 1


def test_negotiate_settle_updates_owner_file(tmp_path, capsys):
    req = write_request(tmp_path)
    owner = write_owner(tmp_path)
    code = main([
        "negotiate", "--request", str(req), "--owner", str(owner),
        "--settle", "--contract-id", "c-42",
    ])
    assert code == 0
    doc = json.loads(owner.read_text())
    assert doc["granted"] and doc["granted"][0][0] == "c-42"


def test_sweep_seeded_outputs_identical(tmp_path, capsys):
    for name in ("x", "y"):
        code = main([
            "sweep", "--seed", "7", "--interactions", "150", "--out", str(tmp_path / name),
        ])
        assert code == 0
    x = (tmp_path / "x" / "sweep_summary.json").read_bytes()
    y = (tmp_path / "y" / "sweep_summary.json").read_bytes()
    assert x == y


def test_baseline_summary_has_exhaustion_index(tmp_path, capsys):
    code = main([
        "baseline", "--eps-fix", "0.10", "--requests", "200", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "baseline_summary.json").read_text())
    assert doc["exhaustion_index"] == 80


def test_simulate_zero_interactions_warns(tmp_path, capsys):
    code = main(["simulate", "--interactions", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "rates undefined" in captured.err


def test_audit_verify_ok_and_corrupt(tmp_path, capsys):
    from dpnego.audit import AuditLog

    log = AuditLog()
    for i in range(5):
        log.append({"r": i}, {"decision": "approve"}, {"text": "ok"}, timestamp=float(i))
    path = tmp_path / "audit.jsonl"
    log.save(path)
    assert main(["audit", "verify", str(path)]) == 0

    lines = path.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["outcome"]["decision"] = "reject"
    lines[3] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    code = main(["audit", "verify", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "record 3" in out


def test_audit_verify_empty_log(tmp_path):
    path = tmp_path / "audit.jsonl"
    path.write_text("")
    assert main(["audit", "verify", str(path)]) == 0


def test_audit_verify_missing_file(tmp_path):
    assert main(["audit", "verify", str(tmp_path / "nope.jsonl")]) == 1


def test_tss_split_reconstruct_round_trip(tmp_path, capsys):
    code = main(["tss", "split", "424242", "--seed", "3"])
    shares_json = capsys.readouterr().out
    assert code == 0
    shares_path = tmp_path / "shares.json"
    shares_path.write_text(shares_json)
    code = main(["tss", "reconstruct", str(shares_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "424242"


def test_config_override(tmp_path, capsys):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {"baseline": {"eps_fix": 0.5}}}))
    code = main(["--config", str(override), "baseline", "--requests", "40", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "baseline_summary.json").read_text())
    assert doc["eps_fix"] == 0.5
    assert doc["exhaustion_index"] == 16  # 8.0 / 0.5


def test_negotiate_corrupt_audit_tail_exit_three(tmp_path, capsys):
    from dpnego.audit import AuditLog

    log = AuditLog()
    for i in range(5):
        log.append({"r": i}, {"decision": "approve"}, {"text": "ok"}, timestamp=float(i))
    path = tmp_path / "audit.jsonl"
    log.save(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[4])
    doc["outcome"]["decision"] = "reject"
    lines[4] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    log_before = path.read_bytes()
    req = write_request(tmp_path)
    owner = write_owner(tmp_path)
    owner_before = owner.read_bytes()

    code = main([
        "negotiate", "--request", str(req), "--owner", str(owner),
        "--audit-log", str(path), "--settle", "--contract-id", "c-1",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "audit chain corrupt at record 4" in captured.err
    assert owner.read_bytes() == owner_before
    assert path.read_bytes() == log_before


def test_negotiate_creates_missing_audit_log(tmp_path, capsys):
    from dpnego.audit import verify_file

    path = tmp_path / "audit.jsonl"
    req = write_request(tmp_path)
    owner = write_owner(tmp_path)
    for _ in range(2):
        assert main(["negotiate", "--request", str(req), "--owner", str(owner),
                     "--audit-log", str(path)]) == 0
    assert path.read_text().count("\n") == 2
    assert verify_file(path) is None


def test_concurrent_settles_lose_no_grant(tmp_path):
    """Two processes settle on one owner whose budget fits the first grant
    whole but not two; each must see the other's grant."""
    h_max = 3.0
    owner = write_owner(tmp_path, h_max=h_max)
    req = write_request(tmp_path)
    log = tmp_path / "audit.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "dpnego.cli", "negotiate", "--request", str(req),
             "--owner", str(owner), "--audit-log", str(log), "--settle",
             "--contract-id", f"c-{k}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for k in range(2)
    ]
    approved = []
    for k, proc in enumerate(procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode in (0, 2), err
        outcome, _ = json.JSONDecoder().raw_decode(out)
        if outcome["decision"] == "approve":
            approved.append([f"c-{k}", outcome["epsilon_star"]])
    granted = json.loads(owner.read_text())["granted"]
    assert sorted(granted) == sorted(approved)
    assert len(approved) == 2
    assert sum(e for _, e in granted) <= h_max + 1e-9
    assert log.read_text().count("\n") == 2
