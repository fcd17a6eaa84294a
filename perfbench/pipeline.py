"""The ``pipeline`` workload: the owner's whole path for each request, in
process, one closed-loop client.

Each request is a JSON document that is parsed, validated, scored,
negotiated, explained and appended to the owner's in-memory audit log; each
approval and each counter-offer the requester takes is settled, fed back
into trust, authorized through 3-of-5 shares and released through a
window -> clip -> aggregate plan with Laplace and Gaussian noise in turn.

About 400 owners, one in ten holding 600 days of hourly data instead of 60,
and half of them running the staged safety rule, so that counter-offers are
reachable (with the default upfront rule they never are).
"""

from __future__ import annotations

import importlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from dpnego import audit, contracts, ingest, negotiation, release, scoring, secretshare
from dpnego.config import AppConfig, build_engine_config, load_config

from common import Measurement, Tally, peak_rss_mb, repeat_rounds

# The package re-exports the function ``explain`` under the submodule's name.
explain = importlib.import_module("dpnego.explain")

OWNERS_60D = 360
OWNERS_600D = 40
REQUESTERS = 40
ROUND_REQUESTS = 2000
H_MAX = 4.0
EPS_RANGE = (0.05, 2.5)
COUNTER_TAKE_P = 0.5
CHECK_EVERY = 10  # every tenth grant of a round is recomputed by brute force
WARMUP_REQUESTS = 300
CLIP = (0.0, 4.0)
MAX_WINDOW_H = 168
# Peak memory is read after this many rounds: the optimizer's cache grows with
# every new key, so a later reading would depend on how fast the run went.
RSS_AFTER_ROUNDS = 20
GRID_STEP = 1e-3


def reference_argmax(s: float, upper: float, eps_max: float) -> float | None:
    """Brute-force argmax of 2*sqrt(e) - 1.8*s*e^1.7 - 0.15*e over the
    step-0.001 grid in (0, min(eps_max, upper)] plus that endpoint; ties go
    to the smaller epsilon."""
    upper = min(eps_max, upper)
    if upper <= 0:
        return None
    m = int(upper / GRID_STEP + 1e-9)
    grid = np.arange(1, m + 1, dtype=np.float64) * GRID_STEP
    grid = grid[grid <= upper]
    cand = np.append(grid, upper)
    scores = reference_objective(cand, s)
    return float(cand[int(np.argmax(scores))])


def reference_objective(eps, s: float):
    """The README objective without its epsilon-free terms (trust, purpose)."""
    return 2.0 * np.sqrt(eps) - 1.8 * s * eps**1.7 - 0.15 * eps


@dataclass
class Owner:
    series: ingest.LoadSeries
    engine: negotiation.EngineConfig
    trust0: dict  # requester -> TrustLedger at the start of every round
    ledger: negotiation.BudgetLedger = None
    trust: scoring.TrustStore = None
    log: audit.AuditLog = None


@dataclass
class State:
    seed: int
    cfg: AppConfig
    owners: list[Owner]
    weights: np.ndarray
    bundles: list[dict]
    round_requests: int = ROUND_REQUESTS
    rounds: int = 0


def setup(seed: int, owners_60d: int = OWNERS_60D, owners_600d: int = OWNERS_600D,
          round_requests: int = ROUND_REQUESTS) -> State:
    """Config, owners from the seed, request vocabulary, and a warm-up round."""
    cfg = load_config()
    staged = build_engine_config({**cfg.raw["engine"], "safety_mode": "staged"})
    eco = ingest.gen_ecosystem(seed, cfg.catalog, _eco(cfg, owners_60d, 60), cfg.trust)
    big = ingest.gen_ecosystem(seed + 1, cfg.catalog, _eco(cfg, owners_600d, 600), cfg.trust)
    rng = np.random.default_rng([seed, 0xB0])
    owners = []
    for i, p in enumerate(eco.prosumers + big.prosumers):
        trust0 = {}
        for r in rng.choice(REQUESTERS, size=REQUESTERS // 4, replace=False):
            trust0[f"req-{r:02d}"] = scoring.TrustLedger(
                succ_count=int(rng.integers(0, 12)),
                quality=float(rng.uniform(0.5, 1.0)),
                alignment=float(rng.uniform(0.5, 1.0)),
            )
        owners.append(Owner(p.series, cfg.engine if i % 2 == 0 else staged, trust0))
    bundles = cfg.experiments["cross_dataset"]["stream"]["bundles"]
    weights = np.array([b["weight"] for b in bundles], dtype=np.float64)
    state = State(seed, cfg, owners, weights / weights.sum(), bundles, round_requests)
    run_round(state, Tally(), Measurement(), min(WARMUP_REQUESTS, round_requests), round_id=-1)
    return state


def _eco(cfg, n: int, days: int) -> ingest.EcosystemConfig:
    return ingest.EcosystemConfig(
        n_prosumers=n, days=days, initial_budget=H_MAX,
        start_epoch=cfg.ecosystem.start_epoch,
    )


@dataclass
class Inputs:
    texts: list[str]
    owner: np.ndarray
    takes: np.ndarray
    reports: np.ndarray
    offsets: np.ndarray
    seeds: np.ndarray
    share_picks: list


def make_inputs(state: State, n: int, round_id: int) -> Inputs:
    rng = np.random.default_rng([state.seed, 0xA1, round_id + 1])
    n_owners = len(state.owners)
    owner = rng.integers(0, n_owners, size=n)
    requester = rng.integers(0, REQUESTERS, size=n)
    bundle = rng.choice(len(state.bundles), size=n, p=state.weights)
    eps = rng.uniform(*EPS_RANGE, size=n)
    texts = []
    for i in range(n):
        b = state.bundles[bundle[i]]
        texts.append(json.dumps({
            "requester_id": f"req-{requester[i]:02d}",
            "owner_id": f"owner-{owner[i]:03d}",
            "features": b["features"],
            "window_hours": b["window_hours"],
            "resolution": b["resolution"],
            "purpose": b["purpose"],
            "proposed_epsilon": float(eps[i]),
            "max_noise": None,
            "mode": "one_shot",
        }))
    k, n_shares = state.cfg.tss.k, state.cfg.tss.n
    picks = [sorted(rng.choice(n_shares, size=k, replace=False).tolist()) for _ in range(n)]
    return Inputs(
        texts=texts,
        owner=owner,
        takes=rng.random(n) < COUNTER_TAKE_P,
        reports=rng.uniform(0.7, 1.0, size=(n, 2)),
        offsets=rng.random(n),
        seeds=rng.integers(0, 2**31, size=n),
        share_picks=picks,
    )


def reset(state: State) -> None:
    """Every round starts from the same owner state: full budgets, the seeded
    trust histories and empty audit logs."""
    for o in state.owners:
        o.ledger = negotiation.BudgetLedger(h_max=H_MAX)
        o.trust = scoring.TrustStore(cfg=state.cfg.trust, ledgers=dict(o.trust0))
        o.log = audit.AuditLog()


def plan_for(contract: contracts.ValidatedRequest, owner: Owner, offset: float,
             mechanism: release.Mechanism) -> release.QueryPlan:
    hours = min(contract.request.window_hours, MAX_WINDOW_H)
    start = int(offset * (len(owner.series) - hours))
    return release.QueryPlan(
        ops=(
            {"op": "window", "hours": hours, "offset_hours": start},
            {"op": "clip", "lo": CLIP[0], "hi": CLIP[1]},
            {"op": "aggregate", "fn": "mean"},
            {"op": "aggregate", "fn": "max"},
        ),
        delta=CLIP[1] - CLIP[0],
        output_arity=2,
        mechanism=mechanism,
    )


MECHANISMS = (release.Mechanism.LAPLACE, release.Mechanism.GAUSSIAN)
NO_SPAN = nullcontext()


def run_round(state: State, tally: Tally, m: Measurement, n: int, round_id: int,
              tracer=None) -> None:
    """Decide ``n`` requests and release every taken grant; record per-request
    and per-release times into ``m`` and every check into ``tally``. With a
    tracer, each request (decision and release) is one root span."""
    cfg = state.cfg
    catalog, tss, dp_cfg = cfg.catalog, cfg.tss, cfg.dp
    inputs = make_inputs(state, n, round_id)
    reset(state)
    authority = secretshare.ReleaseAuthority()
    approve, counter = contracts.Decision.APPROVE, contracts.Decision.COUNTER_OFFER
    decision_ms, release_ms, grants = [], [], []
    releases = 0
    perf = time.perf_counter
    round_t0 = perf()
    for i, text in enumerate(inputs.texts):
        owner = state.owners[inputs.owner[i]]
        with tracer.span("pipeline.request") if tracer else NO_SPAN:
            try:
                t0 = perf()
                doc = json.loads(text)
                request = contracts.request_from_dict(doc)
                validated = contracts.validate_request(request, catalog)
                trust = owner.trust.score(request.requester_id)
                h_before = owner.ledger.h_remaining
                outcome = negotiation.negotiate(validated, owner.ledger, trust, owner.engine)
                factors = explain.factors_for(validated, owner.ledger, trust, outcome)
                expl = explain.explain(outcome, factors, owner.ledger, owner.engine, cfg.explain)
                owner.log.append(doc, outcome.to_dict(), expl.to_dict())
                contract = None
                if outcome.decision is approve:
                    contract = validated
                elif outcome.decision is counter and inputs.takes[i]:
                    contract = contracts.validate_request(outcome.modified_request, catalog)
                if contract is not None:
                    cid = f"c{round_id}-{i}"
                    owner.ledger.settle(cid, outcome.epsilon_star)
                    owner.trust.record(request.requester_id, "completed")
                    owner.trust.record(request.requester_id, "quality_report", float(inputs.reports[i, 0]))
                    owner.trust.record(request.requester_id, "alignment_report", float(inputs.reports[i, 1]))
                t1 = perf()
            except Exception as exc:  # a failed operation is counted, the run goes on
                tally.fail(f"request {round_id}/{i}: {type(exc).__name__}: {exc}")
                continue
            tally.ok()
            decision_ms.append((t1 - t0) * 1e3)
            m.count(outcome.decision.value)
            if outcome.violated:
                m.count("reject." + outcome.violated)
            if contract is None:
                continue
            if outcome.decision is counter:
                tally.check(
                    contract.effective_sensitivity
                    <= owner.engine.counter_factor * validated.effective_sensitivity + 1e-9,
                    f"counter-offer {round_id}/{i} above counter_factor x original",
                )
            picks = inputs.share_picks[i]
            try:
                t2 = perf()
                plan = plan_for(contract, owner, float(inputs.offsets[i]), MECHANISMS[releases % 2])
                secret = random.Random(int(inputs.seeds[i])).getrandbits(255)
                shares = authority.enroll(
                    cid, secret, tss.k, tss.n, seed=int(inputs.seeds[i]), prime=tss.prime
                )
                token = authority.authorize_release(cid, [shares[j] for j in picks])
                out = release.run_release(
                    plan, owner.series, contract, outcome.epsilon_star, token,
                    seed=int(inputs.seeds[i]), dp_cfg=dp_cfg,
                )
                t3 = perf()
            except Exception as exc:
                tally.fail(f"release {cid}: {type(exc).__name__}: {exc}")
                continue
            finally:
                releases += 1
            release_ms.append((t3 - t2) * 1e3)
            tally.check(
                len(out.values) == plan.output_arity and bool(out.noise_trace)
                and out.epsilon_charged == outcome.epsilon_star,
                f"release {cid}: arity {len(out.values)} / trace {out.noise_trace!r}",
            )
            grants.append((validated, contract, outcome, trust, h_before, owner,
                           cid, [shares[j] for j in picks]))
    round_s = perf() - round_t0
    check_round(state, tally, grants, authority, round_id)
    if decision_ms:
        m.add_round(round_s, len(decision_ms))
        m.decision_ms.extend(decision_ms)
    if round_id == RSS_AFTER_ROUNDS - 1:
        m.extra["peak_rss_mb"] = peak_rss_mb()
    m.extra.setdefault("release_ms", []).extend(release_ms)


def check_round(state: State, tally: Tally, grants: list, authority, round_id: int) -> None:
    """On a sample of the released grants, recompute epsilon by brute force and
    present the shares a second time; then check every ledger and every audit
    chain of the round."""
    for k, (validated, contract, outcome, trust, h_before, owner, cid, shares) in enumerate(grants):
        if k % CHECK_EVERY:
            continue
        try:
            authority.authorize_release(cid, shares)
            tally.fail(f"release {cid}: second authorization was accepted")
        except secretshare.AlreadyAuthorized:
            tally.ok()
        eng = owner.engine
        upper = min(h_before, contract.request.proposed_epsilon or h_before)
        eps = outcome.epsilon_star
        ref = reference_argmax(contract.effective_sensitivity, upper, eng.eps_max)
        trusted_min = (
            outcome.decision is contracts.Decision.APPROVE
            and eps == eng.eps_min_default
            and trust >= eng.trusted_min_trust
            and validated.effective_sensitivity <= eng.trusted_max_sensitivity
        )
        optimal = (
            ref is not None
            and 0 < eps <= min(upper, eng.eps_max) + 1e-12
            and abs(eps - ref) <= 1.1 * GRID_STEP
            and reference_objective(eps, contract.effective_sensitivity)
            >= reference_objective(ref, contract.effective_sensitivity) - 1e-9
        )
        tally.check(optimal or trusted_min,
                    f"grant {round_id}/{k}: epsilon {eps} but reference argmax {ref}")
    overdrawn = [n for n, o in enumerate(state.owners) if o.ledger.spent > o.ledger.h_max + 1e-9]
    tally.check(not overdrawn, f"round {round_id}: owners {overdrawn[:5]} spent more than h_max")
    corrupt = [n for n, o in enumerate(state.owners) if o.log.verify() is not None]
    tally.check(not corrupt, f"round {round_id}: owners {corrupt[:5]} have a corrupt audit chain")


def run(state: State, seconds: float, tally: Tally, max_rounds: int | None = None,
        tracer=None) -> Measurement:
    """Rounds for about ``seconds``; at least one round."""
    m = Measurement()

    def one() -> None:
        run_round(state, tally, m, state.round_requests, state.rounds, tracer)
        state.rounds += 1

    repeat_rounds(seconds, max_rounds, one, m)
    return m
