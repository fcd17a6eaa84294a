"""Scenario runners: budget sweep, full ecosystem simulation, cross-dataset
benchmark, fixed-budget baseline, trust-inflation adversary, latency bench."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import AppConfig, BadArgument, BadConfig, build_engine_config, parse_bundle
from .contracts import (
    APPROVE,
    COUNTER_OFFER,
    REJECT,
    NegotiationOutcome,
    ValidatedRequest,
    left_sum,
    validate_request,
)
from .explain import ReplayCase, explain, factors_for, robustness_probe
from .ingest import (
    Ecosystem,
    LoadSeries,
    gen_city_series,
    gen_ecosystem,
    load_csv,
    normalize_to_household,
)
from .negotiation import BudgetLedger, EngineConfig, negotiate
from .release import QueryPlan, execute_plan
from .scoring import TrustStore


class MissingDataset(FileNotFoundError):
    pass


def read_stream(cfg: AppConfig, name: str) -> tuple[list[ValidatedRequest], np.ndarray]:
    """The request stream of experiment ``name``: its bundles, validated, and
    their weights normalized to sum to 1. The runners read the stream's other
    keys themselves: the sweep and cross-dataset streams have ``trust``
    (``lo`` and ``hi``, the bounds of each requester's uniform trust draw),
    and the full simulation's has ``counter_accept_prob``. The config merge
    has checked their keys and types; this reader checks the range of each
    one the stream has, and that ``lo`` is not above ``hi``. A bad bundle,
    weight or range raises ``BadConfig`` naming its key path."""
    doc, where = cfg.experiments[name]["stream"], f"experiments.{name}.stream"
    if not doc["bundles"]:
        raise BadConfig(f"{where}.bundles must hold bundles with positive weights, got none")
    unit = {}
    if "trust" in doc:
        unit["trust.lo"], unit["trust.hi"] = doc["trust"]["lo"], doc["trust"]["hi"]
    if "counter_accept_prob" in doc:
        unit["counter_accept_prob"] = doc["counter_accept_prob"]
    for key, value in unit.items():
        if not 0.0 <= value <= 1.0:
            raise BadConfig(f"{where}.{key} must be a number in [0, 1], got {value!r}")
    if "trust" in doc and unit["trust.lo"] > unit["trust.hi"]:
        raise BadConfig(f"{where}.trust.lo must not be above trust.hi, got "
                        f"{unit['trust.lo']!r} > {unit['trust.hi']!r}")
    validated, weights = zip(*(parse_bundle(b, cfg.catalog, f"{where}.bundles[{i}]", validate_request)
                               for i, b in enumerate(doc["bundles"])))
    w = np.array(weights, dtype=np.float64)
    return list(validated), w / w.sum()


# The range of each experiment value that its JSON type does not bound.
_POSITIVE = ("a positive finite number", lambda v: 0 < v < math.inf)
_COUNT = ("at least 0", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NON_EMPTY = ("a non-empty list", lambda v: len(v) > 0)
EXPERIMENT_RANGES = {
    "seed": _COUNT,
    "interactions": _COUNT,
    "requests": _COUNT,
    "replays": _COUNT,
    "iterations": _AT_LEAST_1,
    "requesters": _AT_LEAST_1,
    "max_requests": _AT_LEAST_1,
    "reject_streak": _AT_LEAST_1,
    "trials": _AT_LEAST_1,
    "perturbation": ("in [0, 0.5)", lambda v: 0 <= v < 0.5),
    "boundary_bundle_weight": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "risk_weight_factor": ("a non-negative finite number", lambda v: 0 <= v < math.inf),
    # the config merge has checked that each entry is a number
    "h_range": ("two finite numbers [lo, hi] with 0 <= lo <= hi",
                lambda v: len(v) == 2 and 0 <= v[0] <= v[1] < math.inf),
    "owner_budget": _POSITIVE,
    "eps_fix": _POSITIVE,
    "eps0_values": ("a non-empty list of positive numbers",
                    lambda v: len(v) > 0 and all(x > 0 for x in v)),
    "datasets": _NON_EMPTY,
    "patterns": _NON_EMPTY,
    "risk_modes": _NON_EMPTY,
}


def experiment(cfg: AppConfig, name: str, **args: Any) -> dict[str, Any]:
    """The config section ``experiments.<name>`` with each argument that is
    not None in place of the key it names: the values the runner uses. The
    config merge has checked the section's keys and types. A value outside
    its range in ``EXPERIMENT_RANGES`` raises ``BadArgument`` when it came
    from an argument, else ``BadConfig`` naming its key path."""
    given = {key: value for key, value in args.items() if value is not None}
    exp = {**cfg.experiments[name], **given}
    for key, (rule, ok) in EXPERIMENT_RANGES.items():
        if key in exp and not ok(exp[key]):
            problem = f"must be {rule}, got {exp[key]!r}"
            if key in given:
                raise BadArgument(key, problem)
            raise BadConfig(f"experiments.{name}.{key} {problem}")
    return exp


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

    def count(self, outcomes: Sequence[NegotiationOutcome],
              granted: Sequence[float] | None = None) -> None:
        """Count a run's decisions, given in interaction order, in one pass.
        ``granted`` is the run's settled epsilons in that order, by default
        each approval's; ``total_granted`` adds them one by one, left to
        right, as one update per decision would (``left_sum``, not ``sum()``,
        which compensates float sums from Python 3.12)."""
        accepts = rejects = 0
        approved = self.total_granted
        for outcome in outcomes:
            decision = outcome.decision
            if decision is APPROVE:
                accepts += 1
                approved += outcome.epsilon_star
            elif decision is REJECT:
                rejects += 1
        self.accepts += accepts
        self.rejects += rejects
        self.counters += len(outcomes) - accepts - rejects
        self.total_granted = approved if granted is None else left_sum(granted, self.total_granted)

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


def _write_outputs(
    outdir: str | Path | None,
    name: str,
    summary: Any,
    header: Sequence[str] | None = None,
    rows: Sequence[Sequence[Any]] = (),
) -> None:
    """Write ``<name>_summary.json`` into ``outdir`` (made if missing), plus
    ``<name>_rates.csv`` when a header is given. Nothing without an outdir."""
    if outdir is None:
        return
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if header is not None:
        with open(out / f"{name}_rates.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


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
    outdir: str | Path | None = None,
) -> dict[str, Any]:
    """Decision rates as a function of the initial budget.

    Every interaction negotiates against a fresh owner holding exactly eps0,
    and the identical request stream is reused at every budget level so the
    acceptance curve is comparable point to point.
    """
    exp = experiment(cfg, "sweep", seed=seed, interactions=interactions)
    seed, n = exp["seed"], exp["interactions"]
    validated, weights = read_stream(cfg, "sweep")
    trust = exp["stream"]["trust"]
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(validated), size=n, p=weights).tolist() if n else []
    trusts = rng.uniform(trust["lo"], trust["hi"], size=n).tolist()

    rows = []
    for eps0 in exp["eps0_values"]:
        ledger = BudgetLedger(h_max=float(eps0))
        metrics = ScenarioMetrics(interactions=n)
        metrics.count([negotiate(validated[i], ledger, t, cfg.engine) for i, t in zip(idx, trusts)])
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
    _write_outputs(
        outdir, "sweep", result, ["eps0", "accept", "reject", "counter"],
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
    on every accepted grant; the requester takes each counter-offer with the
    stream's ``counter_accept_prob``, and a taken one settles too."""
    exp = experiment(cfg, "full_sim", seed=seed, interactions=interactions)
    seed, n = exp["seed"], exp["interactions"]
    validated, weights = read_stream(cfg, "full_sim")
    accept_prob = exp["stream"]["counter_accept_prob"]
    if ecosystem is None:
        ecosystem = gen_ecosystem(seed + 1, cfg.catalog, cfg.ecosystem, cfg.trust)
    prosumers = ecosystem.prosumers
    n_req = exp["requesters"]
    names = [f"req-{r:03d}" for r in range(n_req)]
    rng = np.random.default_rng(seed)

    # heterogeneous starting reputations: every pair's count of completions
    # in one call, then one (quality, alignment) row per pair with a non-zero
    # count, in pair order; that run is one EMA step from the pair's ledger,
    # written by seed_history as extend would fold it
    counts = rng.integers(0, 12, size=len(prosumers) * n_req).tolist()
    reports = iter(rng.uniform(0.5, 1.0, (len(counts) - counts.count(0), 2)).tolist())
    pairs = ((prosumer, name) for prosumer in prosumers for name in names)
    for (prosumer, name), completions in zip(pairs, counts):
        if completions:
            prosumer.trust.seed_history(name, completions, *next(reports))

    metrics = ScenarioMetrics(interactions=n)
    owners = rng.integers(0, len(prosumers), size=n).tolist()
    requesters = rng.integers(0, n_req, size=n).tolist()
    draws = rng.choice(len(validated), size=n, p=weights).tolist() if n else []
    # settlement and the exhaustion index follow each decision; the counts
    # and the granted total are taken once, from the run in order
    outcomes: list[NegotiationOutcome] = []
    granted: list[float] = []
    for i in range(n):
        prosumer = prosumers[owners[i]]
        requester = names[requesters[i]]
        trust = prosumer.trust.score(requester)
        outcome = negotiate(validated[draws[i]], prosumer.ledger, trust, cfg.engine)
        outcomes.append(outcome)
        if outcome.decision is APPROVE:
            prosumer.ledger.settle(f"c{i}", outcome.epsilon_star)
            granted.append(outcome.epsilon_star)
            quality, alignment = rng.uniform(0.7, 1.0, 2).tolist()
            prosumer.trust.extend(requester, (("completed", None), ("quality_report", quality),
                                              ("alignment_report", alignment)))
        elif outcome.decision is COUNTER_OFFER and rng.random() < accept_prob:
            metrics.counters_accepted += 1
            prosumer.ledger.settle(f"c{i}", outcome.epsilon_star)
            granted.append(outcome.epsilon_star)
        if prosumer.ledger.exhausted and metrics.exhaustion_index is None:
            metrics.exhaustion_index = i + 1
    metrics.count(outcomes, granted)

    fractions = [p.ledger.h_remaining / p.ledger.h_max for p in prosumers]
    metrics.mean_remaining_fraction = float(np.mean(fractions))
    metrics.min_remaining = float(min(p.ledger.h_remaining for p in prosumers))

    _write_outputs(outdir, "full_sim", {"seed": seed, **metrics.to_dict()})
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
    base: np.ndarray,
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
    exp = experiment(cfg, "cross_dataset", seed=seed, interactions=interactions)
    seed, n = exp["seed"], exp["interactions"]
    validated, base_weights = read_stream(cfg, "cross_dataset")
    trust = exp["stream"]["trust"]
    owner_budget = exp["owner_budget"]

    names = list(exp["datasets"])
    for name in names:
        if name not in datasets:
            raise MissingDataset(f"dataset {name!r} not loaded")
    vol = {name: dataset_volatility(datasets[name]) for name in names}
    rank = {name: i for i, name in enumerate(sorted(names, key=lambda d: vol[d]))}
    denominator = max(1, len(names) - 1)
    tilt = exp["calibration_tilt"]
    # The pattern does not enter the weights, so each (dataset, risk mode)
    # pair is weighted once, and a tilt that breaks any of them fails first.
    scenario_weights = {
        (dataset, risk_mode): _scenario_weights(
            base_weights, validated, cfg.engine, owner_budget,
            risk_mode, exp["risk_weight_factor"], (rank[dataset] / denominator - 0.5) * tilt,
        )
        for dataset in names for risk_mode in exp["risk_modes"]
    }
    if not all(np.all(w >= 0) for w in scenario_weights.values()):
        raise BadConfig(
            f"experiments.cross_dataset.calibration_tilt must keep every scenario weight "
            f"non-negative, got {tilt!r}"
        )

    children = np.random.SeedSequence(seed).spawn(
        len(names) * len(exp["patterns"]) * len(exp["risk_modes"])
    )
    scenarios = []
    k = 0
    for dataset in names:
        for pattern in exp["patterns"]:
            for risk_mode in exp["risk_modes"]:
                rng = np.random.default_rng(children[k])
                k += 1
                weights = scenario_weights[dataset, risk_mode]
                idx = rng.choice(len(validated), size=n, p=weights).tolist()
                trusts = rng.uniform(trust["lo"], trust["hi"], size=n).tolist()
                ledger = BudgetLedger(h_max=owner_budget)
                metrics = ScenarioMetrics(interactions=n)
                metrics.count([negotiate(validated[i], ledger, t, cfg.engine)
                               for i, t in zip(idx, trusts)])
                scenarios.append(
                    {
                        "dataset": dataset,
                        "pattern": pattern,
                        "risk_mode": risk_mode,
                        "volatility": vol[dataset],
                        **metrics.to_dict(),
                    }
                )

    # at zero interactions no scenario has a rate, and so no statistic is defined
    rates = [s["accept_rate"] for s in scenarios]
    reductions = {"mean_acceptance": np.mean, "std_acceptance": np.std,
                  "min_acceptance": np.min, "max_acceptance": np.max, "spread": np.ptp}
    aggregate = {"scenarios": len(scenarios),
                 **{key: float(f(rates)) if n else None for key, f in reductions.items()}}
    result = {"seed": seed, "interactions": n, "aggregate": aggregate, "scenarios": scenarios}
    _write_outputs(
        outdir, "cross_dataset", result,
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
    exp = experiment(cfg, "baseline", eps_fix=eps_fix, requests=requests, seed=seed)
    eps_fix, n, seed = exp["eps_fix"], exp["requests"], exp["seed"]
    ledger = BudgetLedger(h_max=exp["owner_budget"])
    metrics = ScenarioMetrics(interactions=n)
    for i in range(1, n + 1):
        if eps_fix <= ledger.h_remaining + 1e-9:
            ledger.settle(f"b{i}", eps_fix)
            metrics.accepts += 1
            metrics.total_granted += eps_fix
            if ledger.exhausted and metrics.exhaustion_index is None:
                metrics.exhaustion_index = i
        else:
            metrics.rejects += 1
    metrics.mean_remaining_fraction = ledger.h_remaining / ledger.h_max
    metrics.min_remaining = ledger.h_remaining
    _write_outputs(outdir, "baseline", {"seed": seed, "eps_fix": eps_fix, **metrics.to_dict()})
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
    exp = experiment(cfg, "adversary", seed=seed)
    seed = exp["seed"]
    try:
        engine_cfg = build_engine_config({**cfg.raw["engine"], "safety_mode": exp["safety_mode"]})
    except ValueError as exc:
        raise BadConfig(f"experiments.adversary.safety_mode: {exc}") from exc
    bundle = {**exp["bundle"], "proposed_epsilon": exp["proposed_epsilon"]}
    request, _ = parse_bundle(bundle, cfg.catalog, "experiments.adversary.bundle", validate_request)
    ledger = BudgetLedger(h_max=exp["owner_budget"])
    store = TrustStore(cfg=cfg.trust)
    trace: list[float] = []
    accepted = 0
    streak = 0
    i = 0
    while streak < exp["reject_streak"] and i < exp["max_requests"]:
        i += 1
        trust = store.score("adversary")
        trace.append(trust)
        outcome = negotiate(request, ledger, trust, engine_cfg)
        if outcome.decision is APPROVE:
            accepted += 1
            streak = 0
            ledger.settle(f"a{i}", outcome.epsilon_star)
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
    _write_outputs(outdir, "adversary", result)
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
    series must take the same time. Each round times one block of calls on
    each side back to back, alternating which side goes first, with one clock
    read on each side of a block; the volume ratio is the median over rounds
    of the large side's block time over the small side's, so drift slower
    than a round cancels out."""
    exp = experiment(cfg, "bench", iterations=iterations, seed=seed)
    n, seed = exp["iterations"], exp["seed"]
    stream = cfg.experiments["sweep"]["stream"]
    validated, weights = read_stream(cfg, "sweep")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(validated), size=n, p=weights)
    trusts = rng.uniform(stream["trust"]["lo"], stream["trust"]["hi"], size=n)
    ledger = BudgetLedger(h_max=8.0)

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
        if candidate.decision is APPROVE:
            approval, approval_req = candidate, v
            break
    if approval is None:
        raise BadConfig(f"no sweep-stream bundle is approved at a budget of {ledger.h_max}")
    exp_ms = np.empty(n)
    factors = factors_for(approval_req, ledger, 0.5, approval)
    for i in range(n):
        t0 = time.perf_counter_ns()
        explain(approval, factors, ledger, cfg.engine, cfg.explain)
        exp_ms[i] = (time.perf_counter_ns() - t0) / 1e6

    # volume independence: one fixed window evaluated over an owner holding 60
    # and one holding 600 days, in interleaved blocks so machine drift hits
    # both sides; prosumer 0 takes the ecosystem's first draws, so a
    # one-prosumer ecosystem builds the same series
    sides = [
        gen_ecosystem(seed, cfg.catalog, dc_replace(cfg.ecosystem, days=days, n_prosumers=1))
        .prosumers[0].series
        for days in (cfg.ecosystem.days, cfg.ecosystem.days * 10)
    ]
    plan = QueryPlan(({"op": "window", "hours": 24}, {"op": "aggregate", "fn": "sum"}), 1.0, 1)
    block = 100
    block_means: tuple[list[float], list[float]] = ([], [])
    for b in range(max(2, min(2000, n) // block)):
        for side in ((0, 1) if b % 2 == 0 else (1, 0)):
            series = sides[side]
            t0 = time.perf_counter_ns()
            for _ in range(block):
                execute_plan(plan, series)
            block_means[side].append((time.perf_counter_ns() - t0) / block / 1e6)
    small, large = (np.array(m) for m in block_means)

    result = {
        "iterations": n,
        "negotiate_median_ms": float(np.median(neg_ms)),
        "negotiate_p99_ms": float(np.percentile(neg_ms, 99)),
        "explain_median_ms": float(np.median(exp_ms)),
        "explain_p99_ms": float(np.percentile(exp_ms, 99)),
        "volume_small_median_ms": float(np.median(small)),
        "volume_large_median_ms": float(np.median(large)),
        "volume_ratio": float(np.median(large / small)) if small.all() else 1.0,
    }
    _write_outputs(outdir, "bench", result)
    return result


# ---------------------------------------------------------------------------
# Robustness probe harness
# ---------------------------------------------------------------------------

def run_probe(
    cfg: AppConfig,
    seed: int | None = None,
    replays: int | None = None,
    outdir: str | Path | None = None,
):
    """Decision stability over a frozen replay set: the sweep stream plus a
    slice of boundary-straddling requests, against owner snapshots across the
    budget range."""
    exp = experiment(cfg, "probe", seed=seed, replays=replays)
    seed, n = exp["seed"], exp["replays"]
    validated, weights = read_stream(cfg, "sweep")
    boundary, _ = parse_bundle(
        exp["boundary_bundle"], cfg.catalog, "experiments.probe.boundary_bundle", validate_request)
    b_weight = exp["boundary_bundle_weight"]
    lo, hi = exp["h_range"]
    rng = np.random.default_rng(seed)
    weights = weights * (1.0 - b_weight)
    pool = validated + [boundary]
    all_weights = np.concatenate([weights, [b_weight]])
    idx = rng.choice(len(pool), size=n, p=all_weights)
    hs = rng.uniform(lo, hi, size=n)
    trusts = rng.uniform(0.0, 1.0, size=n)
    cases = [
        ReplayCase(request=pool[idx[i]], h_remaining=float(hs[i]), trust=float(trusts[i]))
        for i in range(n)
    ]
    report = robustness_probe(cases, exp["perturbation"], exp["trials"], seed + 1, cfg.engine)
    _write_outputs(
        outdir, "probe",
        {
            "seed": seed,
            "perturbation": exp["perturbation"],
            "replays": report.replays,
            "stability": report.stability,
            "flips": report.flips,
            "flips_at_threshold": report.flips_at_threshold,
            "mean_eps_drift": report.mean_eps_drift,
        },
    )
    return report
