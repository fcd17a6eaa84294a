"""The ``cli`` workload: the operator's path through the ``dpnego`` command,
one closed-loop client running one child process at a time.

A round restores a 10,000-record audit log and the owner file byte for byte,
then runs four ``negotiate --audit-log LOG --settle`` commands on fresh
requests and one ``audit verify LOG`` of the same log. Each negotiate loads
and rewrites the whole log, so the child's time is import, log load and log
rewrite; the decision itself is a tiny share.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

import numpy as np

from dpnego import audit, contracts, negotiation
from dpnego.config import load_config

from common import (HERE, WORK, Measurement, Tally, median, reference_s, repeat_rounds,
                    run_child, to_reference)

# The package re-exports the function ``explain`` under the submodule's name.
explain = importlib.import_module("dpnego.explain")

ROUND_COMMANDS = 5
VERIFY_EVERY = 5
FIXTURE_RECORDS = 10_000
H_MAX = 4.0
PRIOR_GRANTS = 20
REQUESTERS = 10
EPS_RANGE = (0.05, 1.5)
IMPORT_SAMPLES = 5


class State:
    def __init__(self, seed: int, cfg, workdir):
        self.seed = seed
        self.cfg = cfg
        self.dir = workdir
        self.owner_pristine = workdir / "owner.pristine.json"
        self.log_pristine = workdir / "audit.pristine.log"
        self.owner = workdir / "owner.json"
        self.log = workdir / "audit.log"
        self.rounds = 0
        self.fixture_built = False


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "dpnego.cli", *args]


def setup(seed: int) -> State:
    """Config, the owner file, and one warm-up child on a scratch copy."""
    cfg = load_config()
    workdir = WORK / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    state = State(seed, cfg, workdir)
    rng = np.random.default_rng([seed, 0xC0])
    owner = {
        "owner_id": "owner-1",
        "h_max": H_MAX,
        "granted": [[f"prior-{k}", 0.02] for k in range(PRIOR_GRANTS)],
        "trust": {
            f"req-{r:02d}": {
                "succ_count": int(rng.integers(0, 12)),
                "quality": float(rng.uniform(0.5, 1.0)),
                "alignment": float(rng.uniform(0.5, 1.0)),
            }
            for r in range(REQUESTERS // 2)
        },
    }
    state.owner_pristine.write_text(json.dumps(owner, indent=2, sort_keys=True) + "\n")
    shutil.copyfile(state.owner_pristine, state.owner)
    request = write_requests(state, round_id=-1)[0]
    run_child(cli_argv("negotiate", "--request", str(request), "--owner", str(state.owner)),
              workdir)
    return state


def write_requests(state: State, round_id: int) -> list:
    """The round's negotiate requests, drawn from the cross-dataset bundles."""
    rng = np.random.default_rng([state.seed, 0xC1, round_id + 1])
    bundles = state.cfg.experiments["cross_dataset"]["stream"]["bundles"]
    weights = np.array([b["weight"] for b in bundles])
    paths = []
    for j in range(ROUND_COMMANDS - ROUND_COMMANDS // VERIFY_EVERY):
        b = bundles[rng.choice(len(bundles), p=weights / weights.sum())]
        doc = {
            "requester_id": f"req-{int(rng.integers(0, REQUESTERS)):02d}",
            "owner_id": "owner-1",
            "features": b["features"],
            "window_hours": b["window_hours"],
            "resolution": b["resolution"],
            "purpose": b["purpose"],
            "proposed_epsilon": round(float(rng.uniform(*EPS_RANGE)), 4),
            "max_noise": None,
            "mode": "one_shot",
        }
        path = state.dir / f"request-{j}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def build_fixture(state: State) -> None:
    """A valid chain of FIXTURE_RECORDS real decision records, identical for
    one seed; built once per process and not part of set-up time."""
    cfg = state.cfg
    rng = np.random.default_rng([state.seed, 0xC2])
    bundles = cfg.experiments["cross_dataset"]["stream"]["bundles"]
    triples = []
    for k in range(64):
        b = bundles[k % len(bundles)]
        doc = {"requester_id": f"req-{k % REQUESTERS:02d}", "owner_id": "owner-1",
               "features": b["features"], "window_hours": b["window_hours"],
               "resolution": b["resolution"], "purpose": b["purpose"],
               "proposed_epsilon": round(float(rng.uniform(*EPS_RANGE)), 4),
               "max_noise": None, "mode": "one_shot"}
        v = contracts.validate_request(contracts.request_from_dict(doc), cfg.catalog)
        ledger = negotiation.BudgetLedger(h_max=float(rng.uniform(0.5, H_MAX)))
        trust = float(rng.uniform(0.2, 0.9))
        outcome = negotiation.negotiate(v, ledger, trust, cfg.engine)
        expl = explain.explain(outcome, explain.factors_for(v, ledger, trust, outcome),
                               ledger, cfg.engine, cfg.explain)
        triples.append((doc, outcome.to_dict(), expl.to_dict()))
    log = audit.AuditLog()
    for i in range(FIXTURE_RECORDS):
        doc, out, ex = triples[i % len(triples)]
        log.append(doc, out, ex, timestamp=1_760_000_000.0 + i)
    log.save(state.log_pristine)
    state.fixture_built = True


def _outcome(stdout: str) -> dict:
    """The outcome document a negotiate child prints first, or {}."""
    try:
        doc, _ = json.JSONDecoder().raw_decode(stdout)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def run_round(state: State, tally: Tally, m: Measurement, round_id: int, trace_set=None) -> None:
    requests = write_requests(state, round_id)
    shutil.copyfile(state.log_pristine, state.log)
    shutil.copyfile(state.owner_pristine, state.owner)
    approved, decision_ms, scales, walls = [], [], [], []
    negotiates = 0
    spans = state.dir / "spans.npz"
    ref_before = reference_s()
    for j in range(ROUND_COMMANDS):
        if (j + 1) % VERIFY_EVERY == 0:
            args = ["audit", "verify", str(state.log)]
        else:
            cid = f"c{round_id}-{j}"
            args = ["negotiate", "--request", str(requests[negotiates]), "--owner",
                    str(state.owner), "--audit-log", str(state.log), "--settle",
                    "--contract-id", cid]
            negotiates += 1
        if trace_set is None:
            argv = cli_argv(*args)
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans), *args]
        res = run_child(argv, state.dir)
        ref_after = reference_s()
        scale = to_reference(ref_before, ref_after)
        ref_before = ref_after
        walls.append(res.wall_s)
        scales.append(scale)
        m.extra.setdefault("child_rss_mb", []).append(res.maxrss_mb)
        if trace_set is not None and spans.exists():
            trace_set.add_file(spans)
            spans.unlink()
        if args[0] == "audit":
            m.extra.setdefault("verify_ms", []).append(res.wall_s * 1e3)
            tally.check(res.returncode == 0 and "audit chain ok" in res.stdout,
                        f"audit verify exited {res.returncode}: {res.stdout.strip()[:80]}")
            continue
        outcome = _outcome(res.stdout)
        decision = outcome.get("decision")
        want = {"approve": 0, "counter_offer": 0, "reject": 2}.get(decision)
        if not tally.check(want is not None and res.returncode == want,
                           f"negotiate {cid} exited {res.returncode} with decision {decision}: "
                           f"{res.stderr.strip()[-120:]}"):
            continue
        decision_ms.append(res.wall_s * 1e3)
        m.sample_scale.append(scale)
        m.count(decision)
        if outcome.get("violated"):
            m.count("reject." + outcome["violated"])
        if decision == "approve":
            approved.append([cid, outcome["epsilon_star"]])
    # The round's wall clock is its children's, without the reference
    # readings between them; its scale is their time-weighted mean.
    wall = sum(walls)
    m.add_round(wall, len(decision_ms))
    m.round_scale.append(sum(w * k for w, k in zip(walls, scales)) / wall)
    m.decision_ms.extend(decision_ms)
    owner = json.loads(state.owner.read_text())
    prior = json.loads(state.owner_pristine.read_text())["granted"]
    settled = owner["granted"][len(prior):]
    tally.check(
        owner["granted"][:len(prior)] == prior and settled == approved
        and sum(e for _, e in settled) == sum(e for _, e in approved),
        f"round {round_id}: owner file settled {settled}, approvals were {approved}",
    )
    with open(state.log, "rb") as fh:
        lines = sum(1 for _ in fh)
    tally.check(lines == FIXTURE_RECORDS + negotiates,
                f"round {round_id}: audit log has {lines} records")


def import_ms(state: State) -> float:
    """Median cost of ``import dpnego.cli`` in a child, over a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(run_child([sys.executable, "-c", "pass"], state.dir).wall_s)
        full.append(run_child([sys.executable, "-c", "import dpnego.cli"], state.dir).wall_s)
    return (median(full) - median(bare)) * 1e3


def run(state: State, seconds: float, tally: Tally, max_rounds: int | None = None,
        tracer=None) -> Measurement:
    """Rounds for about ``seconds``; at least one. With a trace set, every
    child runs under the launcher and its spans are merged in."""
    if not state.fixture_built:
        build_fixture(state)
    m = Measurement()

    def one() -> None:
        run_round(state, tally, m, state.rounds, tracer)
        state.rounds += 1

    repeat_rounds(seconds, max_rounds, one, m)
    if tracer is not None:
        m.extra["import_ms"] = import_ms(state)
    return m
