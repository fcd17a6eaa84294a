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
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator

from .audit import AuditLog, ChainCorrupt, verify_file, write_atomic
from .config import AppConfig, BadArgument, BadConfig, load_config
from .contracts import (
    Decision,
    Opt,
    ValidationError,
    reader,
    request_from_dict,
    request_to_dict,
    validate_request,
)
from .explain import explain, factors_for
from .negotiation import BudgetLedger, negotiate
from .scoring import OutOfRange, TrustLedger, TrustStore
from .secretshare import reconstruct, shares_from_json, shares_to_json, split


TRUST_SCHEMA = {"succ_count": Opt(int, 0), "quality": Opt(float, 0.0), "alignment": Opt(float, 0.0)}
OWNER_SCHEMA = {
    "owner_id": Opt(str, "owner"),
    "h_max": float,
    "granted": Opt([(str, float)], ()),
    "trust": Opt({str: TRUST_SCHEMA}, {}),
}
_read_owner = reader(OWNER_SCHEMA)


def load_owner_state(path: str | Path, cfg: AppConfig) -> tuple[str, BudgetLedger, TrustStore]:
    """Owner state file: budget ledger plus trust evidence per requester,
    read by ``OWNER_SCHEMA``. An unknown key (a misspelt ``granted`` would
    read as no grants) is refused with the rest, so that a malformed file is
    refused rather than rewritten; it raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        doc = _read_owner(json.load(fh))
    ledger = BudgetLedger(h_max=float(doc["h_max"]),
                          granted=[(c, float(e)) for c, e in doc["granted"]])
    store = TrustStore(cfg=cfg.trust)
    for requester, t in doc["trust"].items():
        try:
            store.ledgers[requester] = TrustLedger(succ_count=t["succ_count"],
                                                   quality=float(t["quality"]),
                                                   alignment=float(t["alignment"]))
        except OutOfRange as exc:  # its message starts with the field's name
            raise ValidationError(f"trust.{requester}.{exc}") from None
    return doc["owner_id"], ledger, store


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


@contextmanager
def _locked(path: str | Path) -> Iterator[None]:
    """``path`` opened for appending (created if missing) and held under an
    exclusive ``flock``; closing the file releases the lock."""
    with open(path, "ab") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield


def cmd_negotiate(args, cfg: AppConfig) -> int:
    """Decide one request. The owner's sidecar ``<owner>.lock`` is held from
    reading the owner file to settling, so concurrent runs on one owner
    serialize; the audit log is locked inside it while its tail is read and
    extended."""
    with open(args.request, encoding="utf-8") as fh:
        request = request_from_dict(json.load(fh))
    Path(args.owner).stat()  # a missing owner file raises before its lock file is made
    with _locked(f"{args.owner}.lock"):
        owner_id, ledger, store = load_owner_state(args.owner, cfg)
        try:
            validated = validate_request(request, cfg.catalog)
        except ValidationError as exc:
            raise ValidationError(f"invalid request: {exc}") from None
        trust = store.score(request.requester_id)
        outcome = negotiate(validated, ledger, trust, cfg.engine)
        factors = factors_for(validated, ledger, trust, outcome)
        explanation = explain(outcome, factors, ledger, cfg.engine, cfg.explain)
        # The tail check runs before anything is written, and the grant is
        # settled before its record is: a crash in between leaves the epsilon
        # spent with no record, never a recorded approval the ledger does not hold.
        with _locked(args.audit_log) if args.audit_log else nullcontext():
            if args.audit_log:
                log = AuditLog.open_tail(args.audit_log)
                log.append(request_to_dict(request), outcome.to_dict(), explanation.to_dict())
            if args.settle and outcome.decision is Decision.APPROVE:
                ledger.settle(args.contract_id or "cli-contract", outcome.epsilon_star)
                save_owner_state(args.owner, owner_id, ledger, store)
            if args.audit_log:
                log.save(args.audit_log)
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    print(explanation.text)
    return 0 if outcome.decision in (Decision.APPROVE, Decision.COUNTER_OFFER) else 2


# Each experiment command: the name of its runner in ``simulate`` (named, not
# bound, so that negotiate and audit verify import neither it nor numpy) and
# the runner arguments it takes as flags besides --seed and --out.
EXPERIMENTS: dict[str, tuple[str, dict[str, type]]] = {
    "simulate": ("run_full_sim", {"interactions": int}),
    "sweep": ("run_sweep", {"interactions": int}),
    "baseline": ("run_baseline_fixed", {"eps_fix": float, "requests": int}),
    "adversary": ("run_adversary", {}),
    "bench": ("bench_latency", {"iterations": int}),
}


def cmd_experiment(args, cfg: AppConfig) -> int:
    """Run the command's runner and print its summary, less the trust trace."""
    from . import simulate
    runner, flags = EXPERIMENTS[args.command]
    result = getattr(simulate, runner)(
        cfg, seed=args.seed, outdir=args.out, **{key: getattr(args, key) for key in flags}
    )
    summary = result if isinstance(result, dict) else result.to_dict()
    print(json.dumps({k: v for k, v in summary.items() if k != "trust_trace"},
                     indent=2, sort_keys=True))
    # every rate is a share of the interactions (a baseline's requests), so
    # none is defined at zero
    if summary.get("interactions") == 0:
        print("warning: zero interactions, rates undefined", file=sys.stderr)
    return 0


def cmd_audit_verify(args, cfg: AppConfig) -> int:
    del cfg
    bad = verify_file(args.log)
    if bad is None:
        print("audit chain ok")
        return 0
    print(f"audit chain corrupt at record {bad}")
    return 3


def cmd_tss_split(args, cfg: AppConfig) -> int:
    k = cfg.tss.k if args.k is None else args.k
    n = cfg.tss.n if args.n is None else args.n
    shares = split(args.secret, k, n, seed=args.seed, prime=cfg.tss.prime)
    print(shares_to_json(shares))
    return 0


def cmd_tss_reconstruct(args, cfg: AppConfig) -> int:
    del cfg
    with open(args.shares, encoding="utf-8") as fh:
        shares = shares_from_json(fh.read())
    print(reconstruct(shares))
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

    for name, (_, flags) in EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory for metrics files")
        for key, kind in flags.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
        p.set_defaults(fn=cmd_experiment)

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


# main's exit-code table: the first row that an error is an instance of gives
# the text after "error: " and the exit code. main raises a load_config
# failure as BadConfig.
ERRORS = (
    (BadConfig, lambda exc: f"bad config: {exc}", 1),
    # the runners' arguments are the command's flags
    (BadArgument, lambda exc: f"--{exc.key.replace('_', '-')} {exc.problem}", 1),
    (ChainCorrupt, str, 3),
    ((OSError, ValueError), str, 1),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as exc:
            raise BadConfig(exc) from exc
        return args.fn(args, cfg)
    except (OSError, ValueError) as exc:
        message, code = next((say(exc), code) for kind, say, code in ERRORS if isinstance(exc, kind))
        print(f"error: {message}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
