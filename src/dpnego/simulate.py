"""Scenario runners: budget sweep, full ecosystem simulation, cross-dataset
benchmark, fixed-budget baseline, trust-inflation adversary, latency bench."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import AppConfig, _deep_merge, build_engine_config
from .contracts import (
    ContractRequest,
    Decision,
    FeatureKind,
    PurposeKind,
    RequestMode,
    ResolutionKind,
    ValidatedRequest,
    validate_request,
)
from .explain import ExplainConfig, ReplayCase, explain, factors_for, robustness_probe
from .ingest import (
    DEFAULT_CITY_PROFILES,
    Ecosystem,
    LoadSeries,
    gen_city_series,
    gen_ecosystem,
    load_csv,
    normalize_to_household,
)
from .negotiation import BudgetLedger, EngineConfig, engine_for, negotiate, settle
from .release import QueryPlan, execute_plan
from .scoring import TrustStore


class MissingDataset(FileNotFoundError):
    pass


@dataclass(frozen=True)
class StreamBundle:
    """One request archetype in a stream profile."""

    name: str
    features: tuple[FeatureKind, ...]
    resolution: ResolutionKind
    purpose: PurposeKind
    weight: float
    window_hours: int = 24
    proposed_epsilon: float | None = None
    mode: RequestMode = RequestMode.ONE_SHOT


@dataclass(frozen=True)
class RequestStreamProfile:
    """Distribution over request archetypes plus requester-side policies."""

    bundles: tuple[StreamBundle, ...]
    trust_lo: float = 0.2
    trust_hi: float = 0.9
    counter_policy: str = "natural"
    counter_accept_prob: float = 0.5

    def weights(self) -> np.ndarray:
        w = np.array([b.weight for b in self.bundles], dtype=np.float64)
        return w / w.sum()


def parse_bundle(doc: dict) -> StreamBundle:
    return StreamBundle(
        name=doc["name"],
        features=tuple(FeatureKind(f) for f in doc["features"]),
        resolution=ResolutionKind(doc["resolution"]),
        purpose=PurposeKind(doc["purpose"]),
        weight=float(doc["weight"]),
        window_hours=int(doc.get("window_hours", 24)),
        proposed_epsilon=doc.get("proposed_epsilon"),
        mode=RequestMode(doc.get("mode", "one_shot")),
    )


def parse_stream(doc: dict) -> RequestStreamProfile:
    trust = doc.get("trust", {})
    return RequestStreamProfile(
        bundles=tuple(parse_bundle(b) for b in doc["bundles"]),
        trust_lo=float(trust.get("lo", 0.2)),
        trust_hi=float(trust.get("hi", 0.9)),
        counter_policy=doc.get("counter_policy", "natural"),
        counter_accept_prob=float(doc.get("counter_accept_prob", 0.5)),
    )


def bundle_request(bundle: StreamBundle, requester: str = "requester", owner: str = "owner") -> ContractRequest:
    return ContractRequest(
        requester_id=requester,
        owner_id=owner,
        features=bundle.features,
        window_hours=bundle.window_hours,
        resolution=bundle.resolution,
        purpose=bundle.purpose,
        proposed_epsilon=bundle.proposed_epsilon,
        mode=bundle.mode,
    )


def _validated_bundles(
    profile: RequestStreamProfile, cfg: AppConfig
) -> list[ValidatedRequest]:
    return [validate_request(bundle_request(b), cfg.catalog) for b in profile.bundles]


@dataclass
class ScenarioMetrics:
    """Decision counts and budget aggregates for one scenario run."""

    interactions: int
    accepts: int = 0
    rejects: int = 0
    counters: int = 0
    counters_accepted: int = 0
    total_granted: float = 0.0
    mean_remaining_fraction: float | None = None
    min_remaining: float | None = None
    exhaustion_index: int | None = None
    decision_log: str | None = None

    @property
    def rates_defined(self) -> bool:
        return self.interactions > 0

    @property
    def accept_rate(self) -> float | None:
        return self.accepts / self.interactions if self.rates_defined else None

    @property
    def reject_rate(self) -> float | None:
        return self.rejects / self.interactions if self.rates_defined else None

    @property
    def counter_rate(self) -> float | None:
        return self.counters / self.interactions if self.rates_defined else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "interactions": self.interactions,
            "accepts": self.accepts,
            "rejects": self.rejects,
            "counters": self.counters,
            "counters_accepted": self.counters_accepted,
            "accept_rate": self.accept_rate,
            "reject_rate": self.reject_rate,
            "counter_rate": self.counter_rate,
            "rates_defined": self.rates_defined,
            "total_granted": self.total_granted,
            "mean_remaining_fraction": self.mean_remaining_fraction,
            "min_remaining": self.min_remaining,
            "exhaustion_index": self.exhaustion_index,
            "decision_log": self.decision_log,
        }


def _ensure_outdir(outdir: str | Path | None) -> Path | None:
    if outdir is None:
        return None
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(outdir: Path, name: str, payload: Any) -> Path:
    path = outdir / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def write_csv(outdir: Path, name: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> Path:
    path = outdir / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Experiment 3: privacy-budget sweep
# ---------------------------------------------------------------------------

def sweep_regime(eps0: float) -> str:
    if eps0 <= 2:
        return "scarce"
    if eps0 < 4:
        return "transitional"
    if eps0 <= 7:
        return "stable"
    return "surplus"


def run_sweep(
    cfg: AppConfig,
    seed: int | None = None,
    interactions: int | None = None,
    eps0_values: Sequence[float] | None = None,
    outdir: str | Path | None = None,
) -> dict[str, Any]:
    """Decision rates as a function of the initial budget.

    Every interaction negotiates against a fresh owner holding exactly eps0,
    and the identical request stream is reused at every budget level so the
    acceptance curve is comparable point to point.
    """
    exp = cfg.experiments["sweep"]
    seed = exp["seed"] if seed is None else seed
    n = exp["interactions"] if interactions is None else interactions
    levels = list(exp["eps0_values"] if eps0_values is None else eps0_values)
    profile = parse_stream(exp["stream"])
    validated = _validated_bundles(profile, cfg)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(validated), size=n, p=profile.weights()) if n else np.array([], dtype=int)
    trusts = rng.uniform(profile.trust_lo, profile.trust_hi, size=n)

    rows = []
    for eps0 in levels:
        ledger = BudgetLedger(h_max=float(eps0))
        metrics = ScenarioMetrics(interactions=n)
        for i in range(n):
            outcome = negotiate(validated[idx[i]], ledger, float(trusts[i]), cfg.engine)
            if outcome.decision is Decision.APPROVE:
                metrics.accepts += 1
                metrics.total_granted += outcome.epsilon_star
            elif outcome.decision is Decision.REJECT:
                metrics.rejects += 1
            else:
                metrics.counters += 1
        rows.append(
            {
                "eps0": eps0,
                "accept": metrics.accept_rate,
                "reject": metrics.reject_rate,
                "counter": metrics.counter_rate,
                "regime": sweep_regime(eps0),
            }
        )

    result = {"seed": seed, "interactions": n, "rows": rows}
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(out, "sweep_summary.json", result)
        write_csv(
            out,
            "sweep_rates.csv",
            ["eps0", "accept", "reject", "counter"],
            [[r["eps0"], r["accept"], r["reject"], r["counter"]] for r in rows],
        )
    return result


# ---------------------------------------------------------------------------
# Experiment 2: full ecosystem simulation
# ---------------------------------------------------------------------------

def run_full_sim(
    cfg: AppConfig,
    ecosystem: Ecosystem | None = None,
    interactions: int | None = None,
    seed: int | None = None,
    outdir: str | Path | None = None,
) -> ScenarioMetrics:
    """Sequential negotiations against the prosumer ecosystem with settlement
    on every accepted grant (counter-offers settle when the requester takes
    them, per the stream's counter-acceptance policy)."""
    exp = cfg.experiments["full_sim"]
    seed = exp["seed"] if seed is None else seed
    n = exp["interactions"] if interactions is None else interactions
    profile = parse_stream(exp["stream"])
    validated = _validated_bundles(profile, cfg)
    if ecosystem is None:
        ecosystem = gen_ecosystem(seed + 1, cfg.catalog, cfg.ecosystem, cfg.trust)
    prosumers = ecosystem.prosumers
    n_req = int(exp.get("requesters", 30))
    rng = np.random.default_rng(seed)

    # heterogeneous starting reputations
    for prosumer in prosumers:
        for r in range(n_req):
            completions = int(rng.integers(0, 12))
            for _ in range(completions):
                prosumer.trust.record(f"req-{r:03d}", "completed")
            if completions:
                prosumer.trust.record(f"req-{r:03d}", "quality_report", float(rng.uniform(0.5, 1.0)))
                prosumer.trust.record(f"req-{r:03d}", "alignment_report", float(rng.uniform(0.5, 1.0)))

    metrics = ScenarioMetrics(interactions=n)
    owners = rng.integers(0, len(prosumers), size=n)
    requesters = rng.integers(0, n_req, size=n)
    draws = rng.choice(len(validated), size=n, p=profile.weights()) if n else np.array([], dtype=int)
    for i in range(n):
        prosumer = prosumers[owners[i]]
        requester = f"req-{requesters[i]:03d}"
        trust = prosumer.trust.score(requester)
        outcome = negotiate(validated[draws[i]], prosumer.ledger, trust, cfg.engine)
        if outcome.decision is Decision.APPROVE:
            metrics.accepts += 1
            settle(prosumer.ledger, f"c{i}", outcome.epsilon_star)
            metrics.total_granted += outcome.epsilon_star
            prosumer.trust.record(requester, "completed")
            prosumer.trust.record(requester, "quality_report", float(rng.uniform(0.7, 1.0)))
            prosumer.trust.record(requester, "alignment_report", float(rng.uniform(0.7, 1.0)))
        elif outcome.decision is Decision.COUNTER_OFFER:
            metrics.counters += 1
            takes = (
                profile.counter_policy == "always"
                or (
                    profile.counter_policy in ("probabilistic", "natural")
                    and rng.random() < profile.counter_accept_prob
                )
            )
            if takes:
                metrics.counters_accepted += 1
                settle(prosumer.ledger, f"c{i}", outcome.epsilon_star)
                metrics.total_granted += outcome.epsilon_star
        else:
            metrics.rejects += 1
        if prosumer.ledger.exhausted and metrics.exhaustion_index is None:
            metrics.exhaustion_index = i + 1

    fractions = [p.ledger.h_remaining / p.ledger.h_max for p in prosumers]
    metrics.mean_remaining_fraction = float(np.mean(fractions))
    metrics.min_remaining = float(min(p.ledger.h_remaining for p in prosumers))

    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(out, "full_sim_summary.json", {"seed": seed, **metrics.to_dict()})
    return metrics


# ---------------------------------------------------------------------------
# Experiment 1: cross-dataset benchmark (48 scenarios)
# ---------------------------------------------------------------------------

def dataset_volatility(series: LoadSeries) -> float:
    mean = float(series.values.mean())
    if mean <= 0 or len(series) < 2:
        return 0.0
    return float(np.std(np.diff(series.values)) / mean)


def load_datasets(cfg: AppConfig, data_dir: str | Path) -> dict[str, LoadSeries]:
    """The eight benchmark sources: household CSV, three national CSVs scaled
    to household magnitude, and four synthetic city series."""
    data_dir = Path(data_dir)
    datasets: dict[str, LoadSeries] = {}
    files = {
        "uci": ("uci_household.csv", "household"),
        "de": ("national_de.csv", "national"),
        "fr": ("national_fr.csv", "national"),
        "it": ("national_it.csv", "national"),
    }
    for name, (fname, schema) in files.items():
        path = data_dir / fname
        if not path.exists():
            raise MissingDataset(f"dataset file missing: {path}")
        series = load_csv(path, schema)
        datasets[name] = normalize_to_household(series) if schema == "national" else series
    for i, city in enumerate(sorted(cfg.cities)):
        datasets[city] = gen_city_series(cfg.cities[city], seed=9100 + i)
    return datasets


def _scenario_weights(
    profile: RequestStreamProfile,
    validated: list[ValidatedRequest],
    engine_cfg: EngineConfig,
    owner_budget: float,
    risk_mode: str,
    risk_factor: float,
    tilt: float,
) -> np.ndarray:
    """Per-scenario bundle weights.

    The dataset calibration tilts probability between the feasible and the
    infeasible class; the moderate risk mode tilts weight toward the more
    sensitive half within each class, stressing the sensitivity mix without
    collapsing the feasible share.
    """
    base = profile.weights()
    s_eff = np.array([v.effective_sensitivity for v in validated])
    feasible = owner_budget >= engine_cfg.safety_factor * s_eff
    weights = base.copy()
    if risk_mode == "moderate":
        for cls in (True, False):
            mask = feasible == cls
            if mask.sum() < 2:
                continue
            class_mass = weights[mask].sum()
            median_s = float(np.median(s_eff[mask]))
            boost = mask & (s_eff > median_s)
            weights[boost] *= risk_factor
            weights[mask] *= class_mass / weights[mask].sum()
    if tilt != 0.0:
        low_mass = weights[feasible].sum()
        high_mass = weights[~feasible].sum()
        if 0 < low_mass < 1 and high_mass > 0:
            weights[feasible] *= (low_mass + tilt) / low_mass
            weights[~feasible] *= (high_mass - tilt) / high_mass
    return weights / weights.sum()


def run_cross_dataset(
    cfg: AppConfig,
    datasets: dict[str, LoadSeries],
    seed: int | None = None,
    interactions: int | None = None,
    outdir: str | Path | None = None,
) -> dict[str, Any]:
    """All dataset x pattern x risk-mode scenarios with fresh-owner
    negotiations; per-scenario streams are independently seeded."""
    exp = cfg.experiments["cross_dataset"]
    seed = exp["seed"] if seed is None else seed
    n = exp["interactions"] if interactions is None else interactions
    profile = parse_stream(exp["stream"])
    validated = _validated_bundles(profile, cfg)
    owner_budget = float(exp.get("owner_budget", 8.0))
    risk_factor = float(exp.get("risk_weight_factor", 1.3))
    tilt_span = float(exp.get("calibration_tilt", 0.02))

    names = list(exp["datasets"])
    for name in names:
        if name not in datasets:
            raise MissingDataset(f"dataset {name!r} not loaded")
    vol = {name: dataset_volatility(datasets[name]) for name in names}
    rank = {name: i for i, name in enumerate(sorted(names, key=lambda d: vol[d]))}
    denominator = max(1, len(names) - 1)

    children = np.random.SeedSequence(seed).spawn(
        len(names) * len(exp["patterns"]) * len(exp["risk_modes"])
    )
    scenarios = []
    k = 0
    for dataset in names:
        tilt = (rank[dataset] / denominator - 0.5) * tilt_span
        for pattern in exp["patterns"]:
            for risk_mode in exp["risk_modes"]:
                rng = np.random.default_rng(children[k])
                k += 1
                weights = _scenario_weights(
                    profile, validated, cfg.engine, owner_budget,
                    risk_mode, risk_factor, tilt,
                )
                idx = rng.choice(len(validated), size=n, p=weights)
                trusts = rng.uniform(profile.trust_lo, profile.trust_hi, size=n)
                ledger = BudgetLedger(h_max=owner_budget)
                metrics = ScenarioMetrics(interactions=n)
                for i in range(n):
                    outcome = negotiate(validated[idx[i]], ledger, float(trusts[i]), cfg.engine)
                    if outcome.decision is Decision.APPROVE:
                        metrics.accepts += 1
                        metrics.total_granted += outcome.epsilon_star
                    elif outcome.decision is Decision.REJECT:
                        metrics.rejects += 1
                    else:
                        metrics.counters += 1
                scenarios.append(
                    {
                        "dataset": dataset,
                        "pattern": pattern,
                        "risk_mode": risk_mode,
                        "volatility": vol[dataset],
                        **metrics.to_dict(),
                    }
                )

    rates = [s["accept_rate"] for s in scenarios]
    aggregate = {
        "scenarios": len(scenarios),
        "mean_acceptance": float(np.mean(rates)),
        "std_acceptance": float(np.std(rates)),
        "min_acceptance": float(np.min(rates)),
        "max_acceptance": float(np.max(rates)),
        "spread": float(np.max(rates) - np.min(rates)),
    }
    result = {"seed": seed, "interactions": n, "aggregate": aggregate, "scenarios": scenarios}
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(out, "cross_dataset_summary.json", result)
        write_csv(
            out,
            "cross_dataset_rates.csv",
            ["dataset", "pattern", "risk_mode", "accept", "reject", "counter"],
            [
                [s["dataset"], s["pattern"], s["risk_mode"], s["accept_rate"], s["reject_rate"], s["counter_rate"]]
                for s in scenarios
            ],
        )
    return result


# ---------------------------------------------------------------------------
# Fixed-budget baseline
# ---------------------------------------------------------------------------

def run_baseline_fixed(
    cfg: AppConfig,
    eps_fix: float | None = None,
    requests: int | None = None,
    seed: int | None = None,
    outdir: str | Path | None = None,
) -> ScenarioMetrics:
    """Charge a constant epsilon per request while the budget allows."""
    exp = cfg.experiments["baseline"]
    eps_fix = float(exp["eps_fix"]) if eps_fix is None else eps_fix
    n = int(exp["requests"]) if requests is None else requests
    seed = exp["seed"] if seed is None else seed
    if eps_fix <= 0:
        raise ValueError("eps_fix must be positive")
    ledger = BudgetLedger(h_max=float(exp.get("owner_budget", 8.0)))
    metrics = ScenarioMetrics(interactions=n)
    for i in range(1, n + 1):
        if eps_fix <= ledger.h_remaining + 1e-9:
            settle(ledger, f"b{i}", eps_fix)
            metrics.accepts += 1
            metrics.total_granted += eps_fix
            if ledger.exhausted and metrics.exhaustion_index is None:
                metrics.exhaustion_index = i
        else:
            metrics.rejects += 1
    metrics.mean_remaining_fraction = ledger.h_remaining / ledger.h_max
    metrics.min_remaining = ledger.h_remaining
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(
            out,
            "baseline_summary.json",
            {"seed": seed, "eps_fix": eps_fix, **metrics.to_dict()},
        )
    return metrics


# ---------------------------------------------------------------------------
# Trust-inflation adversary
# ---------------------------------------------------------------------------

def run_adversary(
    cfg: AppConfig,
    seed: int | None = None,
    outdir: str | Path | None = None,
) -> dict[str, Any]:
    """A requester that behaves perfectly to inflate its trust score, then
    keeps draining the owner through the trusted-minimal fallback. Cumulative
    accounting still caps total leakage at the initial budget."""
    exp = cfg.experiments["adversary"]
    seed = exp["seed"] if seed is None else seed
    engine_cfg = build_engine_config(
        _deep_merge(cfg.raw["engine"], exp.get("engine_overrides", {}))
    )
    bundle = parse_bundle(exp["bundle"])
    request = validate_request(
        ContractRequest(
            requester_id="adversary",
            owner_id="victim",
            features=bundle.features,
            window_hours=bundle.window_hours,
            resolution=bundle.resolution,
            purpose=bundle.purpose,
            proposed_epsilon=exp.get("proposed_epsilon"),
            mode=bundle.mode,
        ),
        cfg.catalog,
    )
    ledger = BudgetLedger(h_max=float(exp.get("owner_budget", 8.0)))
    store = TrustStore(cfg=cfg.trust)
    trace: list[float] = []
    accepted = 0
    streak = 0
    i = 0
    while streak < int(exp.get("reject_streak", 5)) and i < int(exp.get("max_requests", 500)):
        i += 1
        trust = store.score("adversary")
        trace.append(trust)
        outcome = negotiate(request, ledger, trust, engine_cfg)
        if outcome.decision is Decision.APPROVE:
            accepted += 1
            streak = 0
            settle(ledger, f"a{i}", outcome.epsilon_star)
            store.record("adversary", "completed")
            store.record("adversary", "quality_report", 1.0)
            store.record("adversary", "alignment_report", 1.0)
        else:
            streak += 1
    result = {
        "seed": seed,
        "requests": i,
        "accepted": accepted,
        "final_remaining": ledger.h_remaining,
        "total_granted": ledger.spent,
        "trust_trace": trace,
        "trust_final": trace[-1] if trace else 0.0,
        "trust_monotone": all(a <= b + 1e-12 for a, b in zip(trace, trace[1:])),
    }
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(out, "adversary_summary.json", result)
    return result


# ---------------------------------------------------------------------------
# Latency bench
# ---------------------------------------------------------------------------

def bench_latency(
    cfg: AppConfig,
    iterations: int | None = None,
    seed: int | None = None,
    outdir: str | Path | None = None,
) -> dict[str, Any]:
    """Median and p99 wall-clock per negotiate and per explain call, plus a
    stored-volume check: a fixed-window execute_plan over 60-day and 600-day
    series must take the same time (medians of interleaved block medians)."""
    exp = cfg.experiments["bench"]
    n = int(exp["iterations"]) if iterations is None else iterations
    seed = exp["seed"] if seed is None else seed
    profile = parse_stream(cfg.experiments["sweep"]["stream"])
    validated = _validated_bundles(profile, cfg)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(validated), size=n, p=profile.weights())
    trusts = rng.uniform(profile.trust_lo, profile.trust_hi, size=n)
    ledger = BudgetLedger(h_max=8.0)
    engine_for(cfg.engine)  # warm the grid

    def timed_negotiations(count: int) -> np.ndarray:
        stamps = np.empty(count)
        for i in range(count):
            t0 = time.perf_counter_ns()
            negotiate(validated[idx[i % n]], ledger, float(trusts[i % n]), cfg.engine)
            stamps[i] = time.perf_counter_ns() - t0
        return stamps / 1e6

    timed_negotiations(min(500, n))  # warmup
    neg_ms = timed_negotiations(n)

    approval = None
    approval_req = None
    for v in validated:
        candidate = negotiate(v, ledger, 0.5, cfg.engine)
        if candidate.decision is Decision.APPROVE:
            approval, approval_req = candidate, v
            break
    exp_ms = np.empty(n)
    factors = factors_for(approval_req, ledger, 0.5, approval)
    for i in range(n):
        t0 = time.perf_counter_ns()
        explain(approval, factors, ledger, cfg.engine, cfg.explain)
        exp_ms[i] = (time.perf_counter_ns() - t0) / 1e6

    # volume independence: one fixed window evaluated over owners holding 60
    # and 600 days, in interleaved blocks so machine drift hits both sides
    sides = [
        gen_ecosystem(seed, cfg.catalog, dc_replace(cfg.ecosystem, days=days)).prosumers[0].series
        for days in (cfg.ecosystem.days, cfg.ecosystem.days * 10)
    ]
    plan = QueryPlan(({"op": "window", "hours": 24}, {"op": "aggregate", "fn": "sum"}), 1.0, 1)
    block = 100
    block_medians: tuple[list[float], list[float]] = ([], [])
    for b in range(max(2, min(2000, n) // block)):
        for side in ((0, 1) if b % 2 == 0 else (1, 0)):
            stamps = np.empty(block)
            for i in range(block):
                t0 = time.perf_counter_ns()
                execute_plan(plan, sides[side])
                stamps[i] = time.perf_counter_ns() - t0
            block_medians[side].append(float(np.median(stamps)) / 1e6)
    median_small, median_large = (float(np.median(m)) for m in block_medians)

    result = {
        "iterations": n,
        "negotiate_median_ms": float(np.median(neg_ms)),
        "negotiate_p99_ms": float(np.percentile(neg_ms, 99)),
        "explain_median_ms": float(np.median(exp_ms)),
        "explain_p99_ms": float(np.percentile(exp_ms, 99)),
        "volume_small_median_ms": median_small,
        "volume_large_median_ms": median_large,
        "volume_ratio": median_large / median_small if median_small > 0 else 1.0,
    }
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(out, "bench_summary.json", result)
    return result


# ---------------------------------------------------------------------------
# Robustness probe harness
# ---------------------------------------------------------------------------

def probe_cases(cfg: AppConfig, seed: int | None = None, replays: int | None = None) -> list[ReplayCase]:
    """Frozen replay set: the sweep stream plus a slice of boundary-straddling
    requests, against owner snapshots across the budget range."""
    exp = cfg.experiments["probe"]
    seed = exp["seed"] if seed is None else seed
    n = int(exp["replays"]) if replays is None else replays
    profile = parse_stream(cfg.experiments["sweep"]["stream"])
    validated = _validated_bundles(profile, cfg)
    boundary = validate_request(
        bundle_request(parse_bundle(exp["boundary_bundle"])), cfg.catalog
    )
    b_weight = float(exp.get("boundary_bundle_weight", 0.15))
    lo, hi = exp.get("h_range", [0.5, 8.0])
    rng = np.random.default_rng(seed)
    weights = profile.weights() * (1.0 - b_weight)
    pool = validated + [boundary]
    all_weights = np.concatenate([weights, [b_weight]])
    idx = rng.choice(len(pool), size=n, p=all_weights)
    hs = rng.uniform(lo, hi, size=n)
    trusts = rng.uniform(0.0, 1.0, size=n)
    return [
        ReplayCase(request=pool[idx[i]], h_remaining=float(hs[i]), trust=float(trusts[i]))
        for i in range(n)
    ]


def run_probe(
    cfg: AppConfig,
    seed: int | None = None,
    replays: int | None = None,
    perturbation: float | None = None,
    outdir: str | Path | None = None,
):
    exp = cfg.experiments["probe"]
    seed = exp["seed"] if seed is None else seed
    p = float(exp["perturbation"]) if perturbation is None else perturbation
    cases = probe_cases(cfg, seed=seed, replays=replays)
    report = robustness_probe(cases, p, int(exp.get("trials", 1)), seed + 1, cfg.engine)
    out = _ensure_outdir(outdir)
    if out is not None:
        write_json(
            out,
            "probe_summary.json",
            {
                "seed": seed,
                "perturbation": p,
                "replays": report.replays,
                "stability": report.stability,
                "flips": report.flips,
                "flips_at_threshold": report.flips_at_threshold,
                "mean_eps_drift": report.mean_eps_drift,
            },
        )
    return report
