import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doc_mutations import mutated

from dpnego import simulate
from dpnego.cli import EXPERIMENTS, build_parser, main
from dpnego.config import load_config
from dpnego.secretshare import shares_to_json, split

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


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


@pytest.mark.parametrize("h_max, granted, where", [
    (4.0, [["x", -5.0]], "grant 'x' must be a positive finite number"),
    (math.inf, [], "h_max must be a finite number"),
    (8.0, [["x", -math.inf]], "granted[0][1] must be a finite number"),
    (math.nan, [], "h_max must be a finite number"),
    (8.0, [["x", math.nan]], "granted[0][1] must be a finite number"),
    (0.0, [], "h_max must be a positive finite number"),
], ids=["negative-grant", "inf-budget", "minus-inf-grant", "nan-budget", "nan-grant", "zero-budget"])
def test_negotiate_rejects_an_owner_ledger_that_is_not_positive_and_finite(
    tmp_path, capsys, h_max, granted, where
):
    # the owner schema refuses a non-finite number; the ledger, one that is not positive
    req = write_request(tmp_path)
    owner = write_owner(tmp_path, h_max=h_max, granted=granted)
    before = owner.read_bytes()
    code = main(["negotiate", "--request", str(req), "--owner", str(owner), "--settle"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {where}, got ")
    assert owner.read_bytes() == before


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


def test_baseline_zero_requests_warns(capsys):
    code = main(["baseline", "--requests", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["rates_defined"] is False
    assert "rates undefined" in captured.err


def test_sweep_warns_at_zero_interactions_only(tmp_path, capsys):
    code = main(["sweep", "--interactions", "0", "--seed", "2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: zero interactions, rates undefined" in captured.err
    rows = json.loads((tmp_path / "sweep_summary.json").read_text())["rows"]
    assert rows and all(r["accept"] is None for r in rows)
    # a non-zero sweep neither warns nor gains a key
    assert main(["sweep", "--interactions", "5", "--seed", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sorted(json.loads(captured.out)) == ["interactions", "rows", "seed"]


SMALL_FLAGS = {"interactions": 40, "eps_fix": 0.3, "requests": 50, "iterations": 50}


@pytest.mark.parametrize("command", list(EXPERIMENTS))
def test_experiment_command_prints_its_runner_summary(tmp_path, capsys, command):
    runner, flags = EXPERIMENTS[command]
    argv = [command, "--seed", "3", "--out", str(tmp_path / "cli")]
    for key in flags:
        argv += ["--" + key.replace("_", "-"), str(SMALL_FLAGS[key])]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    result = getattr(simulate, runner)(
        load_config(), seed=3, outdir=tmp_path / "direct", **{k: SMALL_FLAGS[k] for k in flags}
    )
    summary = result if isinstance(result, dict) else result.to_dict()
    expected = json.loads(json.dumps({k: v for k, v in summary.items() if k != "trust_trace"}))
    if command == "bench":  # timings differ from run to run
        assert printed.keys() == expected.keys()
        return
    assert printed == expected
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "direct").iterdir())
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


def test_each_experiment_command_takes_seed_out_and_its_runner_arguments():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, (runner, flags) in EXPERIMENTS.items():
        options = {
            opt: action.dest for action in sub.choices[command]._actions
            for opt in action.option_strings if opt not in ("-h", "--help")
        }
        assert options == {"--seed": "seed", "--out": "out",
                           **{"--" + key.replace("_", "-"): key for key in flags}}
        params = inspect.signature(getattr(simulate, runner)).parameters
        assert {"seed", "outdir", *flags} <= params.keys()


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


def test_audit_verify_directory_is_an_error(tmp_path, capsys):
    code = main(["audit", "verify", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert captured.out == ""


def test_missing_dataset_exit_one(monkeypatch, capsys):
    from dpnego import simulate

    def missing(*args, **kwargs):
        raise simulate.MissingDataset("dataset file missing: data/uci_household.csv")

    monkeypatch.setattr(simulate, "run_sweep", missing)
    assert main(["sweep"]) == 1
    assert "dataset file missing" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["5", "--k", "0"],
    ["5", "--n", "0"],
    ["5", "--k", "3", "--n", "2"],
    ["-5"],
])
def test_tss_split_bad_arguments_are_errors(capsys, argv):
    code = main(["tss", "split", *argv, "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


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


def test_negotiate_settles_before_the_audit_write(tmp_path, capsys, monkeypatch):
    """A failed audit write after an approval leaves the grant settled and no
    record: the epsilon stays spent rather than grantable again."""
    from dpnego.audit import AuditLog

    def fail(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(AuditLog, "save", fail)
    path = tmp_path / "audit.jsonl"
    req = write_request(tmp_path)
    owner = write_owner(tmp_path)
    code = main([
        "negotiate", "--request", str(req), "--owner", str(owner),
        "--audit-log", str(path), "--settle", "--contract-id", "c-7",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: disk full" in captured.err
    assert captured.out == ""
    granted = json.loads(owner.read_text())["granted"]
    assert [c for c, _ in granted] == ["c-7"] and granted[0][1] > 0
    assert path.read_bytes() == b""


def assert_malformed_request_exits_one(tmp_path, capsys, old, new):
    """``negotiate --settle`` on the standard request with ``old`` replaced by
    ``new`` exits 1 with an error line and writes nothing."""
    req = tmp_path / "request.json"
    text = write_request(tmp_path).read_text()
    assert old in text
    req.write_text(text.replace(old, new))
    owner = write_owner(tmp_path)
    owner_before = owner.read_bytes()
    path = tmp_path / "audit.jsonl"
    code = main([
        "negotiate", "--request", str(req), "--owner", str(owner),
        "--audit-log", str(path), "--settle",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert owner.read_bytes() == owner_before
    assert not path.exists()


@pytest.mark.parametrize("raw", ['"abc"', "NaN", "Infinity", "-Infinity", "true", "[2.0]"])
def test_negotiate_malformed_proposed_epsilon_exit_one(tmp_path, capsys, raw):
    assert_malformed_request_exits_one(tmp_path, capsys, "2.0", raw)


@pytest.mark.parametrize("raw", ["5", '"aggregate"', "null", "[5]", '{"aggregate": 1}'])
def test_negotiate_malformed_features_exit_one(tmp_path, capsys, raw):
    assert_malformed_request_exits_one(tmp_path, capsys, '["aggregate"]', raw)


@pytest.mark.parametrize("raw", ['"abc"', "NaN", "Infinity", "-1", "0", "true"])
def test_negotiate_malformed_max_noise_exit_one(tmp_path, capsys, raw):
    assert_malformed_request_exits_one(tmp_path, capsys, '"max_noise": null', f'"max_noise": {raw}')


@pytest.mark.parametrize("raw", ["5", "null", '"request"', "[1]"])
def test_negotiate_request_not_an_object_exit_one(tmp_path, capsys, raw):
    text = write_request(tmp_path).read_text()
    assert_malformed_request_exits_one(tmp_path, capsys, text, raw)


@pytest.mark.parametrize("field,value", [("requester_id", "req-001"), ("owner_id", "owner-1")])
@pytest.mark.parametrize("raw", ["null", "5", "true", '["o"]'])
def test_negotiate_non_string_id_exit_one(tmp_path, capsys, field, value, raw):
    # coercing null to "None" would give every such requester one trust history
    assert_malformed_request_exits_one(
        tmp_path, capsys, f'"{field}": "{value}"', f'"{field}": {raw}'
    )


def assert_negotiate_bad_config(tmp_path, capsys, override_doc, text):
    """``negotiate --settle`` under ``override_doc`` exits 1 with a bad-config
    error naming ``text`` and writes nothing."""
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps(override_doc))
    req, owner = write_request(tmp_path), write_owner(tmp_path)
    owner_before = owner.read_bytes()
    code = main(["--config", str(override), "negotiate", "--request", str(req),
                 "--owner", str(owner), "--settle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: bad config")
    assert text in captured.err
    assert captured.out == ""
    assert owner.read_bytes() == owner_before


@pytest.mark.parametrize("key", ["objective", "lambda"])
def test_negotiate_unknown_engine_key_is_a_bad_config(tmp_path, capsys, key):
    assert_negotiate_bad_config(tmp_path, capsys, {"engine": {key: "generic"}}, key)


@pytest.mark.parametrize("section,key,values", [
    ("engine", "lambdas", [1, 1, 1, 1]),
    ("engine", "lambdas", [1, 1, 1, 1, 1, 1]),
    ("explain", "pu_lambdas", [1, 1, 1]),
    ("explain", "pu_lambdas", [1, 1, 1, 1, 1]),
    ("trust", "beta", [0.5, 0.5]),
    ("trust", "beta", [0.25, 0.25, 0.25, 0.25]),
])
def test_negotiate_wrong_lambda_count_is_a_bad_config(tmp_path, capsys, section, key, values):
    assert_negotiate_bad_config(tmp_path, capsys, {section: {key: values}}, key)


@pytest.mark.parametrize("override_doc,text", [
    ({"experiments": {"sweep": {"interaction": 5}}}, "unknown key experiments.sweep.interaction"),
    ({"experiments": {"sweep": {"interactions": 5.5}}}, "experiments.sweep.interactions must"),
    ({"experiments": {"sweep": {"seed": "abc"}}}, "experiments.sweep.seed must"),
    ({"experiments": {"sweep": {"eps0_values": [1, 2.5]}}}, "experiments.sweep.eps0_values[1] must"),
    ({"trust": {"n_sat": 2.7}}, "trust.n_sat must"),
    ({"dp": {"max_plan_step": 3}}, "unknown key dp.max_plan_step"),
    ({"engine": {"eps_max": True}}, "engine.eps_max must"),
    ({"engine": {"lambdas": 5}}, "engine.lambdas must"),
    ({"engine": {"lambdas": ["1", 1, 1, 1, 1]}}, "engine.lambdas[0] must"),
    ({"cities": {"madrid": {"base_kw": 0.8}}}, "unknown key cities.madrid"),
    ([1], "the top level must"),
    ({"experiments": {"adversary": {"engine_overrides": {"safety_mode": "staged"}}}},
     "unknown key experiments.adversary.engine_overrides"),
    # the field prime is fixed; "4" split and could not reconstruct
    ({"tss": {"prime_hex": "4"}}, "unknown key tss.prime_hex"),
    # each loaded: an infinite eps_max died in EngineConfig.grid_points, a
    # NaN lambda or safety factor rejected every request, the rest loaded
    ({"engine": {"eps_max": math.inf}}, "engine.eps_max must be a finite number, got inf"),
    ({"engine": {"lambdas": [math.nan, 1.0, 1.0, 0.8, 1.0]}},
     "engine.lambdas[0] must be a finite number, got nan"),
    ({"engine": {"safety_factor": math.nan}}, "engine.safety_factor must be a finite number"),
    ({"trust": {"beta": [math.nan, 0.3, 0.3]}}, "trust.beta[0] must be a finite number"),
    ({"engine": {"trusted_min_trust": -math.inf}},
     "engine.trusted_min_trust must be a finite number, got -inf"),
    # an integer no float holds died converting to float
    ({"engine": {"eps_max": 10**400}}, "engine.eps_max must be a finite number, got 1000"),
])
def test_override_outside_the_defaults_is_a_bad_config(tmp_path, capsys, override_doc, text):
    assert_negotiate_bad_config(tmp_path, capsys, override_doc, text)


@pytest.mark.parametrize("rule", [
    {"band_max": 1.0, "value": 0.5},
    {"band_max": 1.0, "purpose": "*", "value": 0.5, "note": "extra"},
    {"band_max": 1.0, "purpose": "profilling", "value": 0.5},
    {"band_max": "1", "purpose": "*", "value": 0.5},
    {"band_max": 1.0, "purpose": "*", "value": True},
    "profiling",
    {"band_max": math.nan, "purpose": "*", "value": 0.5},
])
def test_malformed_eps_min_rule_is_a_bad_config(tmp_path, capsys, rule):
    assert_negotiate_bad_config(
        tmp_path, capsys, {"engine": {"eps_min_rules": [rule]}}, "engine.eps_min_rules[0]"
    )


TRUSTED = {"req-001": {"succ_count": 50, "quality": 1.0, "alignment": 1.0}}


@pytest.mark.parametrize("engine,h_max,granted", [
    # with an exhausted owner, a trusted requester was approved at 0 and
    # explain raised NonPositiveEpsilon
    ({"eps_min_default": 0.0, "safety_mode": "staged"}, 8.0, [["c0", 8.0]]),
    ({"eps_min_rules": [{"band_max": 1.0, "purpose": "*", "value": 0.0}],
      "safety_mode": "staged"}, 8.0, [["c0", 8.0]]),
    # a trusted requester was approved at 20, above eps_max
    ({"eps_min_default": 20.0}, 30.0, []),
    ({"eps_min_rules": [{"band_max": 1.0, "purpose": "*", "value": 20.0}]}, 30.0, []),
], ids=["zero-default", "zero-rule", "default-above-eps-max", "rule-above-eps-max"])
def test_eps_min_outside_zero_to_eps_max_is_a_bad_config(tmp_path, capsys, engine, h_max,
                                                          granted):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"engine": engine}))
    req = write_request(tmp_path, window_hours=24, proposed_epsilon=None)
    owner = tmp_path / "owner.json"
    owner.write_text(json.dumps(
        {"owner_id": "owner-1", "h_max": h_max, "granted": granted, "trust": TRUSTED}))
    owner_before = owner.read_bytes()
    code = main(["--config", str(override), "negotiate", "--request", str(req),
                 "--owner", str(owner), "--settle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: bad config: eps_min_default and eps_min_rules")
    assert captured.out == ""
    assert owner.read_bytes() == owner_before


@pytest.mark.parametrize("key,value", [
    ("gaussian_delta", 1.25), ("gaussian_delta", 0.0), ("max_plan_steps", 0),
    ("default_output_cap", 0),
])
def test_dp_value_out_of_range_is_a_bad_config(tmp_path, capsys, key, value):
    assert_negotiate_bad_config(tmp_path, capsys, {"dp": {key: value}}, f"dp.{key} must")


@pytest.mark.parametrize("command,section,key,value", [
    ("sweep", "sweep", "eps0_values", [0]),
    ("sweep", "sweep", "eps0_values", []),
    ("baseline", "baseline", "owner_budget", -1.0),
    ("sweep", "sweep", "interactions", -3),
    ("simulate", "full_sim", "interactions", -3),
    ("adversary", "adversary", "owner_budget", 0.0),
    ("baseline", "baseline", "eps_fix", 0.0),
    ("simulate", "full_sim", "requesters", 0),
    ("baseline", "baseline", "requests", -2),
    ("bench", "bench", "iterations", 0),
    ("sweep", "sweep", "seed", -1),
    ("adversary", "adversary", "max_requests", -1),
    ("adversary", "adversary", "reject_streak", 0),
])
def test_experiment_value_out_of_range_is_a_bad_config(tmp_path, capsys, command, section, key,
                                                        value):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {section: {key: value}}}))
    code = main(["--config", str(override), command, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: bad config: experiments.{section}.{key} must")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--interactions", "-3"], "--interactions"),
    (["simulate", "--interactions", "-3"], "--interactions"),
    (["baseline", "--eps-fix", "-1"], "--eps-fix"),
    (["baseline", "--requests", "-2"], "--requests"),
    (["bench", "--iterations", "0"], "--iterations"),
    (["bench", "--iterations", "-1"], "--iterations"),
    (["sweep", "--seed", "-1"], "--seed"),
])
def test_experiment_flag_out_of_range_is_an_error(tmp_path, capsys, argv, flag):
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {flag} must")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "n_prosumers", 0),
    ("simulate", "initial_budget", 0.0),
    ("simulate", "initial_budget", math.inf),
    ("bench", "days", 0),
])
def test_ecosystem_value_out_of_range_is_a_bad_config(tmp_path, capsys, command, key, value):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"ecosystem": {key: value}}))
    code = main(["--config", str(override), command, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: bad config: ecosystem.{key} must")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_bench_with_no_approved_bundle_is_a_bad_config(tmp_path, capsys):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"engine": {"safety_factor": 1000.0}}))
    code = main(["--config", str(override), "bench", "--iterations", "20",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: bad config: no sweep-stream bundle is approved")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_experiment_range_is_checked_on_the_value_used(tmp_path, capsys):
    # the config load checks every config value, even one that a flag would
    # replace, and a flag is checked in the place of the value it replaces
    override = tmp_path / "cfg.json"
    for interactions, flag, line in (
            (-3, "20", "error: bad config: experiments.sweep.interactions must be at least 0, got -3"),
            (20, "-3", "error: --interactions must be at least 0, got -3")):
        override.write_text(json.dumps({"experiments": {"sweep": {"interactions": interactions}}}))
        code = main(["--config", str(override), "sweep", "--interactions", flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == line + "\n"
        assert captured.out == ""


def test_probe_replays_out_of_range_is_a_bad_config(tmp_path):
    from dpnego import simulate
    from dpnego.config import BadConfig, load_config

    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {"probe": {"replays": -1}}}))
    with pytest.raises(BadConfig, match=r"^experiments\.probe\.replays must be at least 0"):
        simulate.run_probe(load_config(override))


@pytest.mark.parametrize("key,value,problem", [
    ("trials", -1, "must be at least 1"),
    ("trials", 0, "must be at least 1"),
    ("perturbation", 0.7, r"must be in \[0, 0\.5\)"),
    ("perturbation", -0.1, r"must be in \[0, 0\.5\)"),
    # these died in numpy or unpacking the range
    ("boundary_bundle_weight", 1.5, r"must be in \[0, 1\]"),
    ("boundary_bundle_weight", -0.1, r"must be in \[0, 1\]"),
    ("h_range", [1.0], "must be two finite numbers"),
    ("h_range", [8.0, 0.5], "must be two finite numbers"),
    ("h_range", [-1.0, 2.0], "must be two finite numbers"),
    ("h_range", [0.5, float("inf")], "must be two finite numbers"),
])
def test_probe_value_out_of_range_is_a_bad_config(tmp_path, key, value, problem):
    # no command runs the probe, so it is read through load_config
    from dpnego import simulate
    from dpnego.config import BadConfig, load_config

    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {"probe": {key: value}}}))
    # the config merge refuses a non-finite item by its index; the probe, the rest
    with pytest.raises(BadConfig, match=rf"^experiments\.probe\.{key}"
                                        rf"( {problem}|\[1\] must be a finite number, got inf)"):
        simulate.run_probe(load_config(override), replays=20)


@pytest.mark.parametrize("tilt", [5.0, -5.0])
def test_cross_dataset_tilt_that_makes_a_weight_negative_is_a_bad_config(tmp_path, tilt):
    from dpnego import simulate
    from dpnego.config import BadConfig, load_config

    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {"cross_dataset": {"calibration_tilt": tilt}}}))
    cfg = load_config(override)
    datasets = simulate.load_datasets(cfg, Path(__file__).resolve().parents[1] / "data")
    with pytest.raises(BadConfig, match=r"^experiments\.cross_dataset\.calibration_tilt must"):
        simulate.run_cross_dataset(cfg, datasets, interactions=10, outdir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_adversary_bad_safety_mode_is_a_bad_config(tmp_path, capsys):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {"adversary": {"safety_mode": "lenient"}}}))
    code = main(["--config", str(override), "adversary", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: bad config: experiments.adversary.safety_mode")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,raw,text", [
    ("proposed_epsilon", "abc", "proposed_epsilon"),
    ("proposed_epsilon", True, "proposed_epsilon"),
    ("proposed_epsilon", -1, "proposed_epsilon"),
    ("proposed_epsilon", float("inf"), "proposed_epsilon"),
    ("features", ["bogus"], "bogus"),
    ("weight", "x", "'x'"),
])
def test_sweep_bad_bundle_is_a_bad_config(tmp_path, capsys, field, raw, text):
    bundle = {"name": "agg", "features": ["aggregate"], "resolution": "hour1",
              "purpose": "billing", "weight": 1.0, "window_hours": 24, field: raw}
    assert_stream_bad_config(tmp_path, capsys, "sweep", {"bundles": [bundle]}, text)


def assert_stream_bad_config(tmp_path, capsys, command, stream, text):
    """``command`` (``sweep`` or ``simulate``) under ``stream`` merged over its
    experiment's request stream exits 1 with a bad-config error naming
    ``text`` and writes nothing."""
    experiment = {"sweep": "sweep", "simulate": "full_sim"}[command]
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"experiments": {experiment: {"stream": stream}}}))
    code = main(["--config", str(override), command, "--interactions", "5",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: bad config")
    assert text in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("stream,text", [
    ({"counter_policy": "always"}, "counter_policy"),
    ({"trust": {"dist": "uniform"}}, "dist"),
    ({"bundle": []}, "bundle"),
    ({"trust": {"low": 0.1}}, "low"),
])
def test_unknown_stream_key_is_a_bad_config(tmp_path, capsys, command, stream, text):
    if command == "simulate" and "trust" in stream:
        # the full simulation's stream has no trust block at all
        text = "unknown key experiments.full_sim.stream.trust"
    assert_stream_bad_config(tmp_path, capsys, command, stream, text)


def test_full_sim_stream_trust_is_an_unknown_key(tmp_path, capsys):
    # run_full_sim takes each requester's trust from its owner's TrustStore,
    # so the stream's former trust range, even at its old default, is refused
    assert_stream_bad_config(tmp_path, capsys, "simulate", {"trust": {"lo": 0.2, "hi": 0.9}},
                             "unknown key experiments.full_sim.stream.trust")


@pytest.mark.parametrize("stream,text", [
    ({"trust": {"lo": "0.2"}}, "trust.lo"),
    ({"trust": {"hi": 1.5}}, "trust.hi"),
    ({"counter_accept_prob": True}, "counter_accept_prob"),
    ({"bundles": []}, "weights"),
])
def test_bad_stream_number_is_a_bad_config(tmp_path, capsys, stream, text):
    # only the sweep's and the cross-dataset stream have a trust block, and
    # only the full simulation's has counter_accept_prob
    command = "sweep" if "trust" in stream else "simulate"
    assert_stream_bad_config(tmp_path, capsys, command, stream, text)


@pytest.mark.parametrize("window", [None, "24", 24.0, True])
def test_bundle_window_hours_is_required_and_an_integer(tmp_path, capsys, window):
    # a bundle is read by request_from_dict, so it states window_hours as a
    # negotiate --request document does; nothing defaults or coerces it
    bundle = {"name": "agg", "features": ["aggregate"], "resolution": "hour1",
              "purpose": "billing", "weight": 1.0}
    if window is not None:
        bundle["window_hours"] = window
    assert_stream_bad_config(tmp_path, capsys, "sweep", {"bundles": [bundle]}, "window_hours")


def write_log_with_bad_field(tmp_path, index, field, value, n=3):
    """An ``n``-record audit log whose record ``index`` has ``field`` set to
    ``value`` and its hash recomputed, so only the field's type is wrong."""
    from dpnego.audit import AuditLog
    from dpnego.contracts import canonical_json

    log = AuditLog()
    for i in range(n):
        log.append({"r": i}, {"decision": "approve"}, {"text": "ok"}, timestamp=float(i))
    path = tmp_path / "audit.jsonl"
    log.save(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[index])
    doc[field] = value
    if field != "record_hash":
        body = canonical_json({k: v for k, v in doc.items() if k != "record_hash"})
        doc["record_hash"] = hashlib.sha256(body.encode()).hexdigest()
    lines[index] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    return path


BAD_FIELDS = [
    ("sequence", "x"), ("sequence", True), ("sequence", 1.0), ("timestamp", "t"),
    ("timestamp", False), ("request_digest", 5), ("explanation_digest", None),
    ("prev_hash", 0), ("record_hash", ["h"]), ("outcome", "approve"),
]


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_audit_verify_wrong_field_type_is_corrupt(tmp_path, capsys, field, value):
    path = write_log_with_bad_field(tmp_path, 1, field, value)
    code = main(["audit", "verify", str(path)])
    assert code == 3
    assert capsys.readouterr().out == "audit chain corrupt at record 1\n"


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_negotiate_wrong_field_type_in_tail_exit_three(tmp_path, capsys, field, value):
    path = write_log_with_bad_field(tmp_path, 2, field, value)
    log_before = path.read_bytes()
    req, owner = write_request(tmp_path), write_owner(tmp_path)
    owner_before = owner.read_bytes()
    code = main(["negotiate", "--request", str(req), "--owner", str(owner),
                 "--audit-log", str(path), "--settle", "--contract-id", "c-1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "audit chain corrupt at record 2" in captured.err
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
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "dpnego.cli", "negotiate", "--request", str(req),
             "--owner", str(owner), "--audit-log", str(log), "--settle",
             "--contract-id", f"c-{k}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
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


NUMPY_PROBE = """
import json, sys
from dpnego.cli import main
codes = [main(sys.argv[1:-1]), main(["audit", "verify", sys.argv[-1]])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "simulate": "dpnego.simulate" in sys.modules}))
"""


def test_negotiate_and_verify_never_import_numpy(tmp_path):
    req, owner, log = write_request(tmp_path), write_owner(tmp_path), tmp_path / "audit.jsonl"
    negotiate = ["negotiate", "--request", str(req), "--owner", str(owner),
                 "--audit-log", str(log), "--settle"]
    out = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *negotiate, str(log)],
                         capture_output=True, text=True, env=CHILD_ENV, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "codes": [0, 0], "numpy": False, "simulate": False}
    assert len(json.loads(owner.read_text())["granted"]) == 1

    out = subprocess.run([sys.executable, "-c", "import sys, dpnego; print('numpy' in sys.modules)"],
                         capture_output=True, text=True, env=CHILD_ENV, timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("table,key,value,bounds", [
    ("alphas", "location", 1.5, "[0, 1]"),
    ("attenuations", "daily", 0.0, "(0, 1]"),
    ("attenuations", "hour1", 1.5, "(0, 1]"),
    ("purpose_scores", "profiling", -0.5, "[0, 1]"),
])
def test_catalog_value_out_of_range_is_a_bad_config(tmp_path, capsys, table, key, value, bounds):
    message = f"catalog.{table}.{key} must be in {bounds}, got {value!r}"
    override_doc = {"catalog": {table: {key: value}}}
    assert_negotiate_bad_config(tmp_path, capsys, override_doc, message)
    code = main(["--config", str(tmp_path / "cfg.json"), "sweep", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: bad config: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


FOUND_OWNER = {
    "owner_id": "owner-1", "h_max": "8", "granted": [[5, "0.5"]],
    "trust": {"req-001": {"succ_count": 2.9, "quality": "0.9", "alignment": True}},
}
GOOD_TRUST = {"succ_count": 2, "quality": 0.9, "alignment": 1.0}


@pytest.mark.parametrize("doc", [
    FOUND_OWNER,
    [1],
    "owner",
    {"h_max": "8"},
    {"h_max": True},
    {"h_max": None},
    {"h_max": 8.0, "owner_id": 5},
    {"h_max": 8.0, "owner_id": None},
    {"h_max": 8.0, "granted": 5},
    {"h_max": 8.0, "granted": [[5, 0.5]]},
    {"h_max": 8.0, "granted": [["c", "0.5"]]},
    {"h_max": 8.0, "granted": [["c", True]]},
    {"h_max": 8.0, "granted": [["c"]]},
    {"h_max": 8.0, "granted": [["c", 0.5, 1]]},
    {"h_max": 8.0, "trust": []},
    {"h_max": 8.0, "trust": {"req-001": 5}},
    {"h_max": 8.0, "trust": {"req-001": {**GOOD_TRUST, "succ_count": 2.9}}},
    {"h_max": 8.0, "trust": {"req-001": {**GOOD_TRUST, "succ_count": True}}},
    {"h_max": 8.0, "trust": {"req-001": {**GOOD_TRUST, "quality": "0.9"}}},
    {"h_max": 8.0, "trust": {"req-001": {**GOOD_TRUST, "alignment": True}}},
    {"h_max": 8.0, "trust": {"req-001": {**GOOD_TRUST, "events": 3}}},
    # a misspelt "granted" would read as no grants and be dropped on rewrite
    {"owner_id": "o1", "h_max": 1.0, "grants": [["c0", 0.9]], "note": "keep me"},
    {"h_max": 8.0, "granted": [], "trust": {}, "note": "keep me"},
    # an integer no float holds died converting to float
    {"h_max": 10**400},
])
def test_negotiate_malformed_owner_file_exit_one(tmp_path, capsys, doc):
    req = write_request(tmp_path)
    owner, audit = tmp_path / "owner.json", tmp_path / "audit.jsonl"
    owner.write_text(json.dumps(doc))
    before = owner.read_bytes()
    code = main(["negotiate", "--request", str(req), "--owner", str(owner),
                 "--audit-log", str(audit), "--settle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert owner.read_bytes() == before
    assert not audit.exists()


# A valid owner file: h_max, and any of the optional keys.
owner_docs = st.fixed_dictionaries(
    {"h_max": st.floats(min_value=1, max_value=100)},
    optional={
        "owner_id": st.text(max_size=6),
        "granted": st.lists(st.tuples(st.text(max_size=4), st.floats(min_value=0.01, max_value=0.1))
                            .map(list), max_size=3),
        "trust": st.dictionaries(
            st.sampled_from(["req-001", "r.2", "r-3"]),
            st.fixed_dictionaries({}, optional={
                "succ_count": st.integers(min_value=0, max_value=50),
                "quality": st.floats(min_value=0, max_value=1),
                "alignment": st.integers(min_value=0, max_value=1),
            }),
            max_size=2),
    },
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), owner_docs)
def test_any_one_mutation_of_an_owner_file_is_refused_and_changes_nothing(tmp_path, capsys, data,
                                                                           doc):
    bad, path = data.draw(mutated(doc, [("h_max",)], maps=[("trust",)]))
    req = write_request(tmp_path)
    owner, audit = tmp_path / "owner.json", tmp_path / "audit.jsonl"
    owner.write_text(json.dumps(bad))
    before = owner.read_bytes()
    code = main(["negotiate", "--request", str(req), "--owner", str(owner),
                 "--audit-log", str(audit), "--settle"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.startswith(f"error: {path} "), (bad, captured.err)
    assert captured.out == ""
    assert owner.read_bytes() == before
    assert not audit.exists()


def test_owner_file_absent_keys_keep_their_defaults(tmp_path, capsys):
    req = write_request(tmp_path)
    owner = tmp_path / "owner.json"
    owner.write_text(json.dumps({"h_max": 8, "trust": {"req-001": {"succ_count": 3}}}))
    code = main(["negotiate", "--request", str(req), "--owner", str(owner),
                 "--settle", "--contract-id", "c-1"])
    assert code == 0
    doc = json.loads(owner.read_text())
    assert doc["owner_id"] == "owner" and doc["h_max"] == 8.0
    assert [c for c, _ in doc["granted"]] == ["c-1"]
    assert doc["trust"] == {"req-001": {"succ_count": 3, "quality": 0.0, "alignment": 0.0}}


def _edited_share_file(first: dict) -> str:
    """A 3-of-5 share file of 424242 whose first share is updated by ``first``
    (keys k and n go to its scheme)."""
    shares = json.loads(shares_to_json(split(424242, 3, 5, seed=3)))
    for key, value in first.items():
        target = shares[0]["scheme"] if key in ("k", "n") else shares[0]
        target[key] = value(target[key]) if callable(value) else value
    return json.dumps(shares)


def test_tss_reconstruct_malformed_share_file_exit_one(tmp_path, capsys):
    path = tmp_path / "shares.json"
    edits = [
        {"value": lambda v: int(v, 16)}, {"value": lambda v: "-" + v},
        {"value": lambda v: "0x" + v}, {"value": lambda v: f" {v} "},
        {"value": lambda v: v[:2] + "_" + v[2:]},
        {"index": -1}, {"index": 0}, {"index": 9}, {"k": 0},
    ]
    for text in ("5", "[5]", '{"index": 1}', *map(_edited_share_file, edits)):
        path.write_text(text)
        code = main(["tss", "reconstruct", str(path)])
        captured = capsys.readouterr()
        assert code == 1, text
        assert captured.err.startswith("error: ")
        assert captured.out == ""


def _negotiate(tmp_path, request=None, *extra):
    """``negotiate`` argv on ``request`` (the standard one by default) and
    the standard owner file."""
    request = request or write_request(tmp_path)
    return ["negotiate", "--request", str(request), "--owner", str(write_owner(tmp_path)), *extra]


def _bad_config(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"engine": {"eps_maximum": 1.0}}))
    return (["--config", str(cfg), *_negotiate(tmp_path)], 1,
            "error: bad config: unknown key engine.eps_maximum")


def _bad_flag(tmp_path, monkeypatch):
    return ["sweep", "--interactions", "-1"], 1, "error: --interactions must be at least 0, got -1"


def _bad_request_json(tmp_path, monkeypatch):
    request = tmp_path / "bad.json"
    request.write_text("{not json")
    return (_negotiate(tmp_path, request), 1,
            "error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")


def _invalid_request(tmp_path, monkeypatch):
    return (_negotiate(tmp_path, write_request(tmp_path, features=[])), 1,
            "error: invalid request: request must name at least one feature")


def _missing_owner(tmp_path, monkeypatch):
    owner = tmp_path / "nope.json"
    argv = ["negotiate", "--request", str(write_request(tmp_path)), "--owner", str(owner)]
    return argv, 1, f"error: [Errno 2] No such file or directory: {str(owner)!r}"


def _corrupt_log_tail(tmp_path, monkeypatch):
    from dpnego.audit import AuditLog

    log = AuditLog()
    for i in range(5):
        log.append({"r": i}, {"decision": "approve"}, {"text": "ok"}, timestamp=float(i))
    path = tmp_path / "audit.jsonl"
    log.save(path)
    lines = path.read_text().splitlines()
    lines[4] = lines[4].replace('"approve"', '"reject"')
    path.write_text("\n".join(lines) + "\n")
    return (_negotiate(tmp_path, None, "--audit-log", str(path), "--settle"), 3,
            "error: audit chain corrupt at record 4")


def _bad_tss_split(tmp_path, monkeypatch):
    return ["tss", "split", "5", "--k", "0"], 1, "error: need 1 <= k <= n, got k=0 n=5"


def _malformed_share_file(tmp_path, monkeypatch):
    path = tmp_path / "list.shares"
    path.write_text("[5]")
    return ["tss", "reconstruct", str(path)], 1, "error: [0] must be an object, got 5"


def _audit_save_value_error(tmp_path, monkeypatch):
    from dpnego.audit import AuditLog

    path = tmp_path / "audit.jsonl"

    def changed(self, where):
        raise ValueError(f"{where} changed after it was read")

    monkeypatch.setattr(AuditLog, "save", changed)
    return (_negotiate(tmp_path, None, "--audit-log", str(path)), 1,
            f"error: {path} changed after it was read")


def _runner_value_error(tmp_path, monkeypatch):
    def stray(*args, **kwargs):
        raise ValueError("a stray runner error")

    monkeypatch.setattr(simulate, "run_sweep", stray)
    return ["sweep"], 1, "error: a stray runner error"


@pytest.mark.parametrize("row", [
    _bad_config, _bad_flag, _bad_request_json, _invalid_request, _missing_owner,
    _corrupt_log_tail, _bad_tss_split, _malformed_share_file, _audit_save_value_error,
    _runner_value_error,
], ids=lambda row: row.__name__.strip("_"))
def test_main_maps_each_error_to_one_line_and_its_exit_code(tmp_path, capsys, monkeypatch, row):
    # main's one table: an error line on stderr, nothing on stdout, no
    # traceback, and every file that was there before left byte for byte
    argv, want_code, want_line = row(tmp_path, monkeypatch)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code = main(argv)
    captured = capsys.readouterr()
    assert code == want_code
    assert captured.err.splitlines()[0] == want_line
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert {p: p.read_bytes() for p in before} == before
    # a lock file stands only beside the file it locks
    assert all(lock.with_suffix("").exists() for lock in tmp_path.glob("*.lock"))


def test_owner_file_trust_out_of_range_names_the_requester(tmp_path, capsys):
    owner = tmp_path / "owner.json"
    owner.write_text(json.dumps({"owner_id": "owner-1", "h_max": 8.0, "granted": [],
                                 "trust": {"a": {"quality": 0.5}, "b": {"quality": 1.5}}}))
    before = owner.read_bytes()
    audit = tmp_path / "audit.jsonl"
    code = main(["negotiate", "--request", str(write_request(tmp_path)), "--owner", str(owner),
                 "--audit-log", str(audit), "--settle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: trust.b.quality must be in [0,1]\n"
    assert captured.out == ""
    assert owner.read_bytes() == before
    assert not audit.exists()


def assert_negotiate_refuses_the_config(tmp_path, capsys, override, line):
    """``negotiate --settle`` with an audit log under ``override`` exits 1
    with ``line`` alone on stderr, leaves the owner file byte for byte and
    writes no audit log."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    audit = tmp_path / "audit.jsonl"
    argv = ["--config", str(cfg), *_negotiate(tmp_path, None, "--audit-log", str(audit), "--settle")]
    before = (tmp_path / "owner.json").read_bytes()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == line + "\n"
    assert captured.out == ""
    assert (tmp_path / "owner.json").read_bytes() == before
    assert not audit.exists()


@pytest.mark.parametrize("where,bundle,problem", [
    ("sweep.stream.bundles[0]", {"weight": math.nan}, ".weight must be a finite number, got nan"),
    ("full_sim.stream.bundles[0]", {"priority": "high"}, ".priority is an unknown key"),
    ("adversary.bundle", {"features": []}, ": request must name at least one feature"),
    ("probe.boundary_bundle", {"window_hours": 0}, ": window_hours must be >= 1, got 0"),
], ids=["nan-weight", "unknown-key", "adversary-no-features", "probe-zero-window"])
def test_negotiate_reads_every_bundle_of_the_config(tmp_path, capsys, where, bundle, problem):
    # only the runner that read a bundle refused it before, so negotiate
    # decided under a config that sweep refuses
    default = load_config().raw["experiments"]
    name, key = where.split(".", 1)
    override = {"experiments": {name: {}}}
    if key.startswith("stream"):
        bundles = [{**default[name]["stream"]["bundles"][0], **bundle}]
        override["experiments"][name]["stream"] = {"bundles": bundles}
    else:
        override["experiments"][name][key] = {**default[name][key], **bundle}
    assert_negotiate_refuses_the_config(tmp_path, capsys, override,
                                        f"error: bad config: experiments.{where}{problem}")


def _at(key_path, value):
    """The override document that sets ``key_path`` to ``value``."""
    for key in reversed(key_path.split(".")):
        value = {key: value}
    return value


# One config value out of range for each key of EXPERIMENT_RANGES, each
# stream rule, the adversary's engine and request, and the other sections
# whose values a command, not the load, refused before; with the message.
OUT_OF_RANGE = [
    ("experiments.sweep.seed", -1, "experiments.sweep.seed must be at least 0, got -1"),
    ("experiments.full_sim.interactions", -3,
     "experiments.full_sim.interactions must be at least 0, got -3"),
    ("experiments.baseline.requests", -2,
     "experiments.baseline.requests must be at least 0, got -2"),
    ("experiments.probe.replays", -1, "experiments.probe.replays must be at least 0, got -1"),
    ("experiments.bench.iterations", 0, "experiments.bench.iterations must be at least 1, got 0"),
    ("experiments.full_sim.requesters", 0,
     "experiments.full_sim.requesters must be at least 1, got 0"),
    ("experiments.adversary.max_requests", 0,
     "experiments.adversary.max_requests must be at least 1, got 0"),
    ("experiments.adversary.reject_streak", 0,
     "experiments.adversary.reject_streak must be at least 1, got 0"),
    ("experiments.probe.trials", 0, "experiments.probe.trials must be at least 1, got 0"),
    ("experiments.probe.perturbation", 0.9,
     "experiments.probe.perturbation must be in [0, 0.5), got 0.9"),
    ("experiments.probe.boundary_bundle_weight", 1.5,
     "experiments.probe.boundary_bundle_weight must be in [0, 1], got 1.5"),
    ("experiments.cross_dataset.risk_weight_factor", -0.5,
     "experiments.cross_dataset.risk_weight_factor must be a non-negative finite number, "
     "got -0.5"),
    ("experiments.probe.h_range", [8.0, 0.5],
     "experiments.probe.h_range must be two finite numbers [lo, hi] with 0 <= lo <= hi, "
     "got [8.0, 0.5]"),
    ("experiments.cross_dataset.owner_budget", 0.0,
     "experiments.cross_dataset.owner_budget must be a positive finite number, got 0.0"),
    ("experiments.baseline.eps_fix", -0.1,
     "experiments.baseline.eps_fix must be a positive finite number, got -0.1"),
    ("experiments.sweep.eps0_values", [2, 0],
     "experiments.sweep.eps0_values must be a non-empty list of positive numbers, got [2, 0]"),
    ("experiments.cross_dataset.datasets", [],
     "experiments.cross_dataset.datasets must be a non-empty list, got []"),
    ("experiments.cross_dataset.patterns", [],
     "experiments.cross_dataset.patterns must be a non-empty list, got []"),
    ("experiments.cross_dataset.risk_modes", [],
     "experiments.cross_dataset.risk_modes must be a non-empty list, got []"),
    ("experiments.sweep.stream.bundles", [],
     "experiments.sweep.stream.bundles must be a non-empty list of bundles with positive "
     "weights, got []"),
    ("experiments.sweep.stream.trust.lo", 1.5,
     "experiments.sweep.stream.trust.lo must be a number in [0, 1], got 1.5"),
    ("experiments.cross_dataset.stream.trust.hi", -0.1,
     "experiments.cross_dataset.stream.trust.hi must be a number in [0, 1], got -0.1"),
    ("experiments.full_sim.stream.counter_accept_prob", 1.5,
     "experiments.full_sim.stream.counter_accept_prob must be a number in [0, 1], got 1.5"),
    ("experiments.cross_dataset.stream.trust", {"lo": 0.9, "hi": 0.2},
     "experiments.cross_dataset.stream.trust.lo must not be above trust.hi, got 0.9 > 0.2"),
    ("experiments.adversary.safety_mode", "lenient",
     "experiments.adversary.safety_mode: unknown safety mode: lenient"),
    ("experiments.adversary.proposed_epsilon", 0.0,
     "experiments.adversary.bundle: proposed_epsilon must be a positive finite number when "
     "present, got 0.0"),
    ("tss.k", 9, "tss.k must be at least 1 and at most tss.n = 5, got 9"),
    ("cities.rome.noise_sd_kw", -0.07, "cities.rome.noise_sd_kw must be at least 0, got -0.07"),
]


@pytest.mark.parametrize("key_path,value,message", OUT_OF_RANGE, ids=[r[0] for r in OUT_OF_RANGE])
def test_negotiate_refuses_a_config_value_any_command_would(tmp_path, capsys, key_path, value,
                                                            message):
    # each of these let negotiate decide and settle, and only the runner (or
    # the command) that used the value refused it
    assert_negotiate_refuses_the_config(tmp_path, capsys, _at(key_path, value),
                                        f"error: bad config: {message}")


# A cross-dataset name the runner cannot use: an unknown risk mode ran as
# "mild" under its own label, and an unknown dataset failed only the runner.
UNKNOWN_NAMES = [
    ("experiments.cross_dataset.risk_modes", ["mild", "extreme"],
     "experiments.cross_dataset.risk_modes must each be 'mild' or 'moderate', got 'extreme'"),
    ("experiments.cross_dataset.datasets", ["uci", "mars"],
     "experiments.cross_dataset.datasets must name a CSV source (uci, de, fr, it) or a city "
     "(berlin, oslo, paris, rome), got 'mars'"),
]


@pytest.mark.parametrize("key_path,value,message", UNKNOWN_NAMES,
                         ids=[r[0].rsplit(".", 1)[1] for r in UNKNOWN_NAMES])
def test_negotiate_refuses_an_unknown_cross_dataset_name(tmp_path, capsys, key_path, value,
                                                         message):
    assert_negotiate_refuses_the_config(tmp_path, capsys, _at(key_path, value),
                                        f"error: bad config: {message}")


def test_every_experiment_range_has_a_refusal_row():
    from dpnego.config import EXPERIMENT_RANGES

    checked = {key_path.rsplit(".", 1)[1] for key_path, _, _ in OUT_OF_RANGE
               if key_path.startswith("experiments.")}
    assert set(EXPERIMENT_RANGES) <= checked
