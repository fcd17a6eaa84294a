"""Command-line entry point: single negotiations, experiment runs, audit
verification, and share inspection.

Exit codes are stable API: 0 success, 1 usage/IO error, 2 negotiation
rejection, 3 audit-chain corruption.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import sys
from pathlib import Path
from typing import BinaryIO

from .audit import AuditLog, ChainCorrupt, verify_file, write_atomic
from .config import AppConfig, load_config
from .contracts import (
    Decision,
    ValidationError,
    request_from_dict,
    request_to_dict,
    validate_request,
)
from .explain import explain, factors_for
from .negotiation import BudgetLedger, negotiate
from .scoring import TrustLedger, TrustStore, trust_score
from .secretshare import reconstruct, shares_from_json, shares_to_json, split
from . import simulate


def load_owner_state(path: str | Path, cfg: AppConfig) -> tuple[str, BudgetLedger, TrustStore]:
    """Owner state file: budget ledger plus trust evidence per requester."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ledger = BudgetLedger(
        h_max=float(doc["h_max"]),
        granted=[(str(c), float(e)) for c, e in doc.get("granted", [])],
    )
    store = TrustStore(cfg=cfg.trust)
    for requester, t in doc.get("trust", {}).items():
        store.ledgers[requester] = TrustLedger(
            succ_count=int(t.get("succ_count", 0)),
            quality=float(t.get("quality", 0.0)),
            alignment=float(t.get("alignment", 0.0)),
        )
    return str(doc.get("owner_id", "owner")), ledger, store


def save_owner_state(
    path: str | Path, owner_id: str, ledger: BudgetLedger, store: TrustStore
) -> None:
    doc = {
        "owner_id": owner_id,
        "h_max": ledger.h_max,
        "granted": [[c, e] for c, e in ledger.granted],
        "trust": {
            rid: {
                "succ_count": led.succ_count,
                "quality": led.quality,
                "alignment": led.alignment,
            }
            for rid, led in sorted(store.ledgers.items())
        },
    }
    write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _locked(path: str | Path) -> BinaryIO:
    """``path`` opened for appending (created if missing) and held under an
    exclusive ``flock``; closing the file releases the lock."""
    fh = open(path, "ab")
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
    except BaseException:
        fh.close()
        raise
    return fh


def cmd_negotiate(args, cfg: AppConfig) -> int:
    """Decide one request. The owner's sidecar ``<owner>.lock`` is held from
    reading the owner file to settling, so concurrent runs on one owner
    serialize; the audit log is locked inside it while its tail is read and
    extended."""
    try:
        with open(args.request, encoding="utf-8") as fh:
            request_doc = json.load(fh)
        request = request_from_dict(request_doc)
        lock = _locked(f"{args.owner}.lock")
    except (OSError, json.JSONDecodeError, ValidationError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with lock:
        return _negotiate_locked(args, cfg, request)


def _negotiate_locked(args, cfg: AppConfig, request) -> int:
    try:
        owner_id, ledger, store = load_owner_state(args.owner, cfg)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        validated = validate_request(request, cfg.catalog)
    except ValidationError as exc:
        print(f"error: invalid request: {exc}", file=sys.stderr)
        return 1
    trust = store.score(request.requester_id)
    outcome = negotiate(validated, ledger, trust, cfg.engine)
    factors = factors_for(validated, ledger, trust, outcome)
    explanation = explain(outcome, factors, ledger, cfg.engine, cfg.explain)
    if args.audit_log:
        try:
            with _locked(args.audit_log):
                log = AuditLog.open_tail(args.audit_log)
                log.append(request_to_dict(request), outcome.to_dict(), explanation.to_dict())
                log.save(args.audit_log)
        except ChainCorrupt as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    print(explanation.text)
    if args.settle and outcome.decision is Decision.APPROVE:
        ledger.settle(args.contract_id or "cli-contract", outcome.epsilon_star)
        save_owner_state(args.owner, owner_id, ledger, store)
    return 0 if outcome.decision in (Decision.APPROVE, Decision.COUNTER_OFFER) else 2


def cmd_simulate(args, cfg: AppConfig) -> int:
    metrics = simulate.run_full_sim(
        cfg, interactions=args.interactions, seed=args.seed, outdir=args.out
    )
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    if not metrics.rates_defined:
        print("warning: zero interactions, rates undefined", file=sys.stderr)
    return 0


def cmd_sweep(args, cfg: AppConfig) -> int:
    result = simulate.run_sweep(
        cfg, seed=args.seed, interactions=args.interactions, outdir=args.out
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args, cfg: AppConfig) -> int:
    metrics = simulate.run_baseline_fixed(
        cfg, eps_fix=args.eps_fix, requests=args.requests, seed=args.seed, outdir=args.out
    )
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_adversary(args, cfg: AppConfig) -> int:
    result = simulate.run_adversary(cfg, seed=args.seed, outdir=args.out)
    printable = {k: v for k, v in result.items() if k != "trust_trace"}
    print(json.dumps(printable, indent=2, sort_keys=True))
    return 0


def cmd_bench(args, cfg: AppConfig) -> int:
    result = simulate.bench_latency(
        cfg, iterations=args.iterations, seed=args.seed, outdir=args.out
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_audit_verify(args, cfg: AppConfig) -> int:
    del cfg
    path = Path(args.log)
    if not path.exists():
        print(f"error: no such file {path}", file=sys.stderr)
        return 1
    bad = verify_file(path)
    if bad is None:
        print("audit chain ok")
        return 0
    print(f"audit chain corrupt at record {bad}")
    return 3


def cmd_tss_split(args, cfg: AppConfig) -> int:
    shares = split(args.secret, args.k or cfg.tss.k, args.n or cfg.tss.n,
                   seed=args.seed, prime=cfg.tss.prime)
    print(shares_to_json(shares))
    return 0


def cmd_tss_reconstruct(args, cfg: AppConfig) -> int:
    del cfg
    try:
        with open(args.shares, encoding="utf-8") as fh:
            shares = shares_from_json(fh.read())
        print(reconstruct(shares))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpnego")
    parser.add_argument("--config", help="config file merged over defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("negotiate", help="decide one contract request")
    p.add_argument("--request", required=True, help="request JSON file")
    p.add_argument("--owner", required=True, help="owner state JSON file")
    p.add_argument("--audit-log", help="append the decision to this audit log")
    p.add_argument("--settle", action="store_true", help="settle an approval back into the owner file")
    p.add_argument("--contract-id", help="contract id used when settling")
    p.set_defaults(fn=cmd_negotiate)

    for name, fn in (
        ("simulate", cmd_simulate),
        ("sweep", cmd_sweep),
        ("baseline", cmd_baseline),
        ("adversary", cmd_adversary),
        ("bench", cmd_bench),
    ):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory for metrics files")
        if name == "simulate":
            p.add_argument("--interactions", type=int)
        if name == "sweep":
            p.add_argument("--interactions", type=int)
        if name == "baseline":
            p.add_argument("--eps-fix", dest="eps_fix", type=float)
            p.add_argument("--requests", type=int)
        if name == "bench":
            p.add_argument("--iterations", type=int)
        p.set_defaults(fn=fn)

    p = sub.add_parser("audit", help="audit log operations")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)
    v = audit_sub.add_parser("verify")
    v.add_argument("log", help="JSON-lines audit file")
    v.set_defaults(fn=cmd_audit_verify)

    p = sub.add_parser("tss", help="threshold-share inspection")
    tss_sub = p.add_subparsers(dest="tss_command", required=True)
    s = tss_sub.add_parser("split")
    s.add_argument("secret", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--seed", type=int)
    s.set_defaults(fn=cmd_tss_split)
    r = tss_sub.add_parser("reconstruct")
    r.add_argument("shares", help="JSON share file")
    r.set_defaults(fn=cmd_tss_reconstruct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args, cfg)
    except simulate.MissingDataset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
