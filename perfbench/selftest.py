#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs each workload once at a small size and expects no failed check, then
plants one fault at a time from here and expects the checks to catch it:
one wrong epsilon, one tampered audit record, one overdrawn ledger. The batch
workload keeps no audit log, so it gets no audit fault; a CLI child's epsilon
cannot be altered from outside the child, so the cli workload gets no
epsilon fault. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager

import common

common.require_source()

import batch  # noqa: E402
import cli_workload  # noqa: E402
import pipeline  # noqa: E402
from dpnego import audit, contracts, negotiation, simulate  # noqa: E402


@contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def once(fault):
    """Wrap a function so that ``fault`` rewrites its first eligible call."""
    def make(original):
        fired = []

        def wrapper(*args, **kwargs):
            if not fired:
                result = fault(original, args, kwargs)
                if result is not NotImplemented:
                    fired.append(True)
                    return result
            return original(*args, **kwargs)

        return wrapper
    return make


def wrong_epsilon(need_spent: bool):
    """The first approval comes back with 90% of the negotiated epsilon; with
    ``need_spent`` only an approval against a ledger that already holds
    grants qualifies."""
    def fault(original, args, kwargs):
        ledger = args[1]
        if need_spent and ledger.spent == 0:
            return NotImplemented
        outcome = original(*args, **kwargs)
        if outcome.decision is not contracts.Decision.APPROVE:
            return NotImplemented
        return dataclasses.replace(outcome, epsilon_star=outcome.epsilon_star * 0.9)
    return once(fault)


def overdraw(original, args, kwargs):
    """Settle a whole budget more than granted, skipping the ledger's guard."""
    ledger, contract_id, eps = args
    ledger.granted.append((contract_id, eps + ledger.h_max))
    ledger._spent += eps + ledger.h_max
    return ledger


def tamper_audit(original, args, kwargs):
    """On the second record of a log, rewrite the first one in place."""
    log = args[0]
    if not log.records:
        return NotImplemented
    record = original(*args, **kwargs)
    first = log.records[0]
    log.records[0] = dataclasses.replace(first, outcome={**first.outcome, "epsilon_star": 9.99})
    return record


def run_pipeline(patch=None, seed: int = 3):
    """One small round with every grant recomputed, so a single planted
    epsilon cannot fall outside the sample. The fault, if any, is planted
    after set-up, whose warm-up round would otherwise absorb it."""
    with patched(pipeline, "CHECK_EVERY", lambda every: 1):
        state = pipeline.setup(seed, owners_60d=18, owners_600d=2, round_requests=200)
        tally = common.Tally()
        with planted(patch):
            pipeline.run(state, 0.0, tally, max_rounds=1)
    return tally


def run_batch(seed: int, patch=None):
    """One small timed suite; at seed 0 the full-size golden pass runs first."""
    state = batch.setup(seed, divisor=50)
    tally = common.Tally()
    with planted(patch):
        batch.run(state, 0.0, tally, max_rounds=1)
    return tally


def run_cli(seed: int = 2, log_fault=None, owner_fault=None):
    state = cli_workload.setup(seed)
    cli_workload.build_fixture(state)
    if log_fault:
        log_fault(state.log_pristine)
    if owner_fault:
        owner_fault(state.owner_pristine)
    tally = common.Tally()
    cli_workload.run(state, 0.0, tally, max_rounds=1)
    return tally


def flip_record(path) -> None:
    """Change one digit inside record 5000 of the fixture log."""
    lines = path.read_text().splitlines(keepends=True)
    lines[5000] = lines[5000].replace('"sequence": 5000', '"sequence": 5001', 1)
    path.write_text("".join(lines))


def overdraw_owner(path) -> None:
    doc = json.loads(path.read_text())
    doc["granted"].append(["planted", doc["h_max"]])
    path.write_text(json.dumps(doc))


@contextmanager
def planted(patch):
    if patch is None:
        yield
    else:
        with patched(*patch):
            yield


# (name, message a failed check must contain, or None for a clean run, case)
CASES = [
    ("pipeline clean", None, run_pipeline),
    ("pipeline wrong epsilon", "reference argmax",
     lambda: run_pipeline((negotiation, "negotiate", wrong_epsilon(False)))),
    ("pipeline tampered audit record", "corrupt audit chain",
     lambda: run_pipeline((audit.AuditLog, "append", once(tamper_audit)))),
    ("pipeline overdrawn ledger", "spent more than h_max",
     lambda: run_pipeline((negotiation.BudgetLedger, "settle", once(overdraw)))),
    ("batch clean (seed 1)", None, lambda: run_batch(1)),
    ("batch overdrawn ledger (seed 1)", "ledgers overdrawn",
     lambda: run_batch(1, (negotiation.BudgetLedger, "settle", once(overdraw)))),
    ("batch clean (seed 0, goldens)", None, lambda: run_batch(0)),
    ("batch wrong epsilon (seed 0, goldens)", "full_sim summary differs",
     lambda: run_batch(0, (simulate, "negotiate", wrong_epsilon(True)))),
    ("cli clean", None, run_cli),
    ("cli tampered audit record", "audit verify exited 3", lambda: run_cli(log_fault=flip_record)),
    ("cli overdrawn ledger", "exited 1", lambda: run_cli(owner_fault=overdraw_owner)),
]


def main() -> int:
    bad = 0
    for name, expected, case in CASES:
        tally = case()
        if expected is None:
            ok = tally.failed == 0 and tally.attempted > 0
        else:
            ok = any(expected in message for message in tally.messages)
        bad += not ok
        detail = tally.messages[0] if tally.messages else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}: attempted {tally.attempted}, "
              f"failed {tally.failed} {detail[:100]}", flush=True)
    print("self-test " + ("passed" if not bad else f"failed ({bad} cases)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
