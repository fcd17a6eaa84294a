import json
import re
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doc_mutations import mutated

from dpnego.config import BadConfig, _deep_merge, from_document, load_config, parse_bundle
from dpnego import simulate
from dpnego.contracts import Decision, validate_request
from dpnego.negotiation import BudgetLedger, negotiate
from dpnego.simulate import (
    MissingDataset,
    ScenarioMetrics,
    dataset_volatility,
    read_stream,
    run_baseline_fixed,
    run_full_sim,
    run_sweep,
    sweep_regime,
)

CFG = load_config()
DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def test_stream_weights_normalized():
    for name in ("sweep", "full_sim", "cross_dataset"):
        stream = CFG.experiments[name]["stream"]
        validated, weights = read_stream(CFG, name)
        raw = np.array([b["weight"] for b in stream["bundles"]])
        assert len(validated) == len(weights) == len(raw)
        assert weights.sum() == pytest.approx(1.0)
        assert all(w > 0 for w in weights)
        assert weights.tolist() == (raw / raw.sum()).tolist()


def test_unknown_stream_key_raises_bad_config(tmp_path):
    # the CLI tests cover the sweep and full-simulation streams; no command
    # runs the cross-dataset benchmark, so its stream is loaded here
    path = tmp_path / "cfg.json"
    for stream, key in (({"counter_policy": "natural"}, "counter_policy"),
                        ({"trust": {"dist": "uniform"}}, "trust.dist")):
        path.write_text(json.dumps({"experiments": {"cross_dataset": {"stream": stream}}}))
        with pytest.raises(BadConfig, match=re.escape(f"unknown key experiments.cross_dataset.stream.{key}")):
            load_config(path)


def test_stream_bundle_is_read_like_a_request():
    from dpnego.contracts import request_from_dict, validate_request

    stream = CFG.experiments["full_sim"]["stream"]
    validated, _ = read_stream(CFG, "full_sim")
    for bundle, got in zip(stream["bundles"], validated):
        doc = {k: v for k, v in bundle.items() if k not in ("name", "weight")}
        assert got == validate_request(request_from_dict(doc), CFG.catalog)


# A valid stream bundle: a request document plus its name and weight.
bundles = st.fixed_dictionaries(
    {
        "features": st.lists(st.sampled_from(["aggregate", "load_curve"]), min_size=1, max_size=2),
        "window_hours": st.integers(min_value=1, max_value=2000),
        "resolution": st.sampled_from(["min15", "hour1", "daily"]),
        "purpose": st.sampled_from(["billing", "forecasting"]),
        "weight": st.floats(min_value=0.01, max_value=1),
    },
    optional={
        "name": st.text(max_size=6),
        "proposed_epsilon": st.one_of(st.none(), st.floats(min_value=0.01, max_value=10)),
        "requester_id": st.text(max_size=6),
    },
)


@given(st.data(), bundles)
def test_any_one_mutation_of_a_bundle_is_refused_with_its_key_path(data, bundle):
    where = "experiments.sweep.stream.bundles[4]"
    parse_bundle(bundle, CFG.catalog, where)
    required = [(key,) for key in ("weight", "window_hours", "resolution", "purpose")]
    bad, path = data.draw(mutated(bundle, required, [("proposed_epsilon",), ("max_noise",)]))
    with pytest.raises(BadConfig) as info:
        parse_bundle(bad, CFG.catalog, where)
    assert str(info.value).startswith(f"{where}.{path} "), (bad, str(info.value))


def test_full_sim_counter_accept_prob_bounds():
    # the shipped upfront engine makes no counter-offers, so a staged one is
    # needed to reach the requester's take-or-leave draw
    from dpnego.ingest import gen_ecosystem

    runs = {}
    for prob in (0.0, 1.0):
        doc = _deep_merge(CFG.raw, {
            "engine": {"safety_mode": "staged"},
            "experiments": {"full_sim": {"stream": {"counter_accept_prob": prob}}},
        })
        cfg = from_document(doc)
        eco = gen_ecosystem(6, cfg.catalog, cfg.ecosystem, cfg.trust)
        metrics = run_full_sim(cfg, ecosystem=eco, interactions=300, seed=5)
        spent = sum(p.ledger.spent for p in eco.prosumers)
        assert metrics.total_granted == pytest.approx(spent)
        runs[prob] = metrics
    assert runs[0.0].counters > 0 and runs[0.0].counters_accepted == 0
    assert runs[1.0].counters > 0 and runs[1.0].counters_accepted == runs[1.0].counters


def test_zero_interactions_flagged():
    metrics = ScenarioMetrics(interactions=0)
    assert not metrics.rates_defined
    assert metrics.accept_rate is None
    result = run_sweep(CFG, interactions=0)
    assert all(r["accept"] is None for r in result["rows"])


def test_sweep_regime_labels():
    assert sweep_regime(1) == "scarce"
    assert sweep_regime(2) == "scarce"
    assert sweep_regime(3) == "transitional"
    assert sweep_regime(4) == "stable"
    assert sweep_regime(7) == "stable"
    assert sweep_regime(8) == "surplus"


def test_sweep_deterministic_and_files(tmp_path):
    a = run_sweep(CFG, seed=11, interactions=200, outdir=tmp_path / "a")
    b = run_sweep(CFG, seed=11, interactions=200, outdir=tmp_path / "b")
    assert a == b
    fa = (tmp_path / "a" / "sweep_summary.json").read_bytes()
    fb = (tmp_path / "b" / "sweep_summary.json").read_bytes()
    assert fa == fb
    csv_text = (tmp_path / "a" / "sweep_rates.csv").read_text()
    assert csv_text.splitlines()[0] == "eps0,accept,reject,counter"


def test_sweep_different_seed_differs():
    a = run_sweep(CFG, seed=11, interactions=300)
    b = run_sweep(CFG, seed=12, interactions=300)
    assert a != b


def test_full_sim_budget_safety_small():
    metrics = run_full_sim(CFG, interactions=400, seed=5)
    assert metrics.accepts + metrics.rejects + metrics.counters == 400
    assert metrics.min_remaining >= 0.0
    assert metrics.total_granted <= 100 * 8.0 + 1e-9


def test_full_sim_deterministic():
    a = run_full_sim(CFG, interactions=300, seed=5)
    b = run_full_sim(CFG, interactions=300, seed=5)
    assert a.to_dict() == b.to_dict()


def test_baseline_immediate_infeasibility():
    metrics = run_baseline_fixed(CFG, eps_fix=9.0, requests=50)
    assert metrics.accepts == 0
    assert metrics.accept_rate == 0.0
    assert metrics.exhaustion_index is None


def test_baseline_exhaustion_index():
    metrics = run_baseline_fixed(CFG, eps_fix=0.10, requests=200)
    assert metrics.exhaustion_index == 80
    assert metrics.accepts == 80


def test_volatility_scale_invariant(tmp_path):
    from dpnego.ingest import load_csv, normalize_to_household

    series = load_csv(DATA_DIR / "national_de.csv", "national")
    scaled = normalize_to_household(series)
    assert dataset_volatility(series) == pytest.approx(dataset_volatility(scaled))


def test_load_datasets_missing_raises(tmp_path):
    with pytest.raises(MissingDataset):
        simulate.load_datasets(CFG, tmp_path)


def test_cross_dataset_small_run():
    datasets = simulate.load_datasets(CFG, DATA_DIR)
    assert set(datasets) >= {"uci", "de", "fr", "it", "oslo", "berlin", "rome", "paris"}
    result = simulate.run_cross_dataset(CFG, datasets, interactions=150)
    assert len(result["scenarios"]) == 48
    labels = {(s["dataset"], s["pattern"], s["risk_mode"]) for s in result["scenarios"]}
    assert len(labels) == 48
    for s in result["scenarios"]:
        assert s["accepts"] + s["rejects"] + s["counters"] == 150


def test_cross_dataset_at_zero_interactions_has_no_rates(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": {"cross_dataset": {"interactions": 0}}}))
    cfg = load_config(path)
    datasets = simulate.load_datasets(cfg, DATA_DIR)
    result = simulate.run_cross_dataset(cfg, datasets)
    assert result["interactions"] == 0
    assert len(result["scenarios"]) == 48
    assert all(s["accept_rate"] is None for s in result["scenarios"])
    golden = json.loads((Path(__file__).parent / "golden" / "cross_dataset.json").read_text())
    assert result["aggregate"].keys() == golden["aggregate"].keys()
    assert result["aggregate"] == {"scenarios": 48, **{
        key: None for key in golden["aggregate"] if key != "scenarios"}}


@pytest.mark.parametrize("key", ["datasets", "patterns", "risk_modes"])
def test_cross_dataset_empty_list_is_a_bad_config(tmp_path, key):
    # an empty list ran no scenario, and the aggregate's np.min raised
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": {"cross_dataset": {key: [], "interactions": 5}}}))
    with pytest.raises(BadConfig, match=re.escape(f"experiments.cross_dataset.{key} must")):
        cfg = load_config(path)
        simulate.run_cross_dataset(cfg, simulate.load_datasets(cfg, DATA_DIR))


@pytest.mark.parametrize("key,value,problem", [
    ("risk_modes", ["moderate", "extreme"], "must each be 'mild' or 'moderate', got 'extreme'"),
    ("risk_modes", ["Mild"], "must each be 'mild' or 'moderate', got 'Mild'"),
    ("datasets", ["mars"], "must name a CSV source (uci, de, fr, it) or a city "
                           "(berlin, oslo, paris, rome), got 'mars'"),
    ("datasets", ["oslo", "UCI"], "must name a CSV source (uci, de, fr, it) or a city "
                                  "(berlin, oslo, paris, rome), got 'UCI'"),
], ids=["extreme", "capitalized-mode", "mars", "capitalized-dataset"])
def test_cross_dataset_unknown_name_is_a_bad_config(tmp_path, key, value, problem):
    # an unknown risk mode ran as "mild" under its own label, and an unknown
    # dataset failed only the runner, with MissingDataset and no key path
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": {"cross_dataset": {key: value}}}))
    with pytest.raises(BadConfig) as info:
        load_config(path)
    assert str(info.value) == f"experiments.cross_dataset.{key} {problem}"


def test_every_configurable_dataset_is_loaded():
    from dpnego.config import CSV_SOURCES, RISK_MODES

    cfg = load_config()
    assert set(simulate.load_datasets(cfg, DATA_DIR)) == {*CSV_SOURCES, *cfg.cities}
    assert set(cfg.experiments["cross_dataset"]["datasets"]) == {*CSV_SOURCES, *cfg.cities}
    assert tuple(cfg.experiments["cross_dataset"]["risk_modes"]) == RISK_MODES


@pytest.mark.parametrize("section,run", [
    ("sweep", lambda cfg: simulate.run_sweep(cfg, interactions=5)),
    ("sweep", lambda cfg: simulate.bench_latency(cfg, iterations=5)),
    ("cross_dataset", lambda cfg: simulate.run_cross_dataset(
        cfg, simulate.load_datasets(cfg, DATA_DIR), interactions=5)),
], ids=["sweep", "bench", "cross_dataset"])
def test_stream_trust_lo_above_hi_is_a_bad_config(tmp_path, section, run):
    # numpy's uniform draw raised "high - low < 0"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"experiments": {section: {"stream": {"trust": {"lo": 0.9, "hi": 0.2}}}}}))
    with pytest.raises(BadConfig, match=re.escape("trust.lo must not be above trust.hi")):
        run(load_config(path))


@pytest.mark.parametrize("factor", [-0.5, float("inf")])
def test_cross_dataset_risk_weight_factor_out_of_range_is_a_bad_config(tmp_path, factor):
    # a negative factor was reported as a bad calibration_tilt
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": {"cross_dataset": {"risk_weight_factor": factor}}}))
    # the config merge refuses inf, the runner a negative factor
    with pytest.raises(
            BadConfig, match=re.escape("experiments.cross_dataset.risk_weight_factor must")):
        cfg = load_config(path)
        simulate.run_cross_dataset(cfg, simulate.load_datasets(cfg, DATA_DIR), interactions=5)


def test_cross_dataset_deterministic():
    datasets = simulate.load_datasets(CFG, DATA_DIR)
    a = simulate.run_cross_dataset(CFG, datasets, interactions=100)
    b = simulate.run_cross_dataset(CFG, datasets, interactions=100)
    assert a == b


def test_adversary_bounded_leakage():
    result = simulate.run_adversary(CFG)
    assert result["total_granted"] <= 8.0 + 1e-9
    assert result["trust_monotone"]
    trace = result["trust_trace"]
    assert all(x <= 1.0 + 1e-12 for x in trace)


def test_scenario_weight_perturbation_robustness():
    # +-10% scaling of the feature coefficients must not move cross-dataset
    # acceptance by more than 0.05 absolute
    datasets = simulate.load_datasets(CFG, DATA_DIR)
    base = simulate.run_cross_dataset(CFG, datasets, interactions=400)
    doc = json.loads(json.dumps(CFG.raw))
    for key in doc["catalog"]["alphas"]:
        doc["catalog"]["alphas"][key] = min(1.0, doc["catalog"]["alphas"][key] * 1.1)
    from dpnego.config import from_document

    bumped_cfg = from_document(doc)
    bumped = simulate.run_cross_dataset(bumped_cfg, datasets, interactions=400)
    diff = abs(
        base["aggregate"]["mean_acceptance"] - bumped["aggregate"]["mean_acceptance"]
    )
    assert diff <= 0.05


def trust_bits(ecosystem):
    return [
        {rid: (led.succ_count, led.quality.hex(), led.alignment.hex())
         for rid, led in p.trust.ledgers.items()}
        for p in ecosystem.prosumers
    ]


def seed_per_event(self, rids, completions, reports):
    """``TrustStore.seed_history`` as one ``record`` call per event."""
    for rid, count, (quality, alignment) in zip(rids, completions, reports, strict=True):
        for _ in range(count):
            self.record(rid, "completed")
        self.record(rid, "quality_report", quality)
        self.record(rid, "alignment_report", alignment)


@pytest.mark.parametrize("seed", [0, 7])
def test_full_sim_trust_matches_one_record_per_event(seed, monkeypatch):
    from dpnego.ingest import gen_ecosystem
    from dpnego.scoring import TrustStore

    def ecosystem():
        return gen_ecosystem(seed + 1, CFG.catalog, CFG.ecosystem, CFG.trust)

    # seeding alone, against a per-event loop over the same draws: every
    # pair's count in one call, then one (quality, alignment) row per pair
    # with a non-zero count
    folded = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=folded, interactions=0, seed=seed)
    reference = ecosystem()
    rng = np.random.default_rng(seed)
    names = [f"req-{r:03d}" for r in range(int(CFG.experiments["full_sim"].get("requesters", 30)))]
    counts = rng.integers(0, 12, size=len(reference.prosumers) * len(names))
    reports = iter(rng.uniform(0.5, 1.0, (int(np.count_nonzero(counts)), 2)))
    pairs = ((prosumer, name) for prosumer in reference.prosumers for name in names)
    for (prosumer, name), completions in zip(pairs, counts):
        for _ in range(completions):
            prosumer.trust.record(name, "completed")
        if completions:
            quality, alignment = next(reports)
            prosumer.trust.record(name, "quality_report", float(quality))
            prosumer.trust.record(name, "alignment_report", float(alignment))
    assert next(reports, None) is None
    assert trust_bits(folded) == trust_bits(reference)

    # a whole run, against one that seeds each pair one event at a time
    folded = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=folded, seed=seed)
    monkeypatch.setattr(TrustStore, "seed_history", seed_per_event)
    reference = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=reference, seed=seed)
    assert trust_bits(folded) == trust_bits(reference)


def test_full_sim_reseeded_trust_matches_one_record_per_event(monkeypatch):
    """A second run on the same ecosystem seeds onto the ledgers the first
    left, so a seeding that ignores the ledger it starts from differs here."""
    from dpnego.ingest import gen_ecosystem
    from dpnego.scoring import TrustStore

    def two_runs():
        ecosystem = gen_ecosystem(8, CFG.catalog, CFG.ecosystem, CFG.trust)
        simulate.run_full_sim(CFG, ecosystem=ecosystem, interactions=300, seed=7)
        simulate.run_full_sim(CFG, ecosystem=ecosystem, interactions=300, seed=9)
        return ecosystem

    seeded = two_runs()
    monkeypatch.setattr(TrustStore, "seed_history", seed_per_event)
    assert trust_bits(seeded) == trust_bits(two_runs())


# Under the staged safety mode counter-offers are made, and in the full
# simulation about half of them are taken and settle like approvals. Its
# bundles propose no epsilon here, so the grants differ and their order can
# change the bits of their total.
STAGED = from_document(_deep_merge(CFG.raw, {
    "engine": {"safety_mode": "staged"},
    "experiments": {"full_sim": {"stream": {"bundles": [
        {k: v for k, v in bundle.items() if k != "proposed_epsilon"}
        for bundle in CFG.raw["experiments"]["full_sim"]["stream"]["bundles"]
    ]}}},
}))


def record_outcomes(monkeypatch):
    """Every outcome the runners get from ``simulate.negotiate``, in order."""
    seen = []

    def negotiate(*args):
        outcome = real(*args)
        seen.append(outcome)
        return outcome

    real = simulate.negotiate
    monkeypatch.setattr(simulate, "negotiate", negotiate)
    return seen


def one_at_a_time(outcomes, taken=frozenset()):
    """The counts and granted total of a run, counted one decision at a time
    as they were before the runners counted in bulk: an approval, and a
    counter-offer whose index is in ``taken``, add their epsilon as they come."""
    counts = {"accepts": 0, "rejects": 0, "counters": 0, "counters_accepted": 0}
    total = 0.0
    for i, outcome in enumerate(outcomes):
        if outcome.decision is Decision.APPROVE:
            counts["accepts"] += 1
            total += outcome.epsilon_star
        elif outcome.decision is Decision.REJECT:
            counts["rejects"] += 1
        else:
            counts["counters"] += 1
            if i in taken:
                counts["counters_accepted"] += 1
                total += outcome.epsilon_star
    return {**counts, "total_granted": total.hex()}


def counted(metrics):
    keys = ("accepts", "rejects", "counters", "counters_accepted")
    return {**{k: metrics[k] for k in keys}, "total_granted": metrics["total_granted"].hex()}


@pytest.mark.parametrize("seed", [5, 7])
def test_full_sim_counts_as_one_decision_at_a_time(seed, monkeypatch):
    from dpnego.ingest import gen_ecosystem

    seen = record_outcomes(monkeypatch)
    eco = gen_ecosystem(6, STAGED.catalog, STAGED.ecosystem, STAGED.trust)
    metrics = run_full_sim(STAGED, ecosystem=eco, interactions=200, seed=seed)
    assert len(seen) == 200
    # each settled grant carries its interaction's index as "c<i>"
    settled = {int(cid[1:]) for p in eco.prosumers for cid, _ in p.ledger.granted}
    approved = {i for i, o in enumerate(seen) if o.decision is Decision.APPROVE}
    taken = settled - approved
    assert taken and all(seen[i].decision is Decision.COUNTER_OFFER for i in taken)
    want = one_at_a_time(seen, taken)
    assert counted(metrics.to_dict()) == want
    # the approvals and the taken counter-offers interleave, and folded
    # approvals first their total has other bits: the test sees the order
    approvals_first = 0.0
    for i in sorted(approved) + sorted(taken):
        approvals_first += seen[i].epsilon_star
    assert approvals_first.hex() != want["total_granted"]


@contextmanager
def counted_metrics():
    """Every ``ScenarioMetrics`` a runner counts into, in the order counted."""
    seen = []
    count = ScenarioMetrics.count

    def recording(self, outcomes, granted=None):
        count(self, outcomes, granted)
        seen.append(self)

    with mock.patch.object(ScenarioMetrics, "count", recording):
        yield seen


def sweep_runs(cfg, n):
    """The sweep's runs as (owner budget, request indices, trusts), one per
    budget level, drawn from its seed as the sweep draws them."""
    exp = simulate.experiment(cfg, "sweep", interactions=n)
    _, weights = read_stream(cfg, "sweep")
    trust = exp["stream"]["trust"]
    rng = np.random.default_rng(exp["seed"])
    idx = rng.choice(len(weights), size=n, p=weights).tolist()
    trusts = rng.uniform(trust["lo"], trust["hi"], size=n).tolist()
    return [(float(eps0), idx, trusts) for eps0 in exp["eps0_values"]]


def scenario_weights(base, validated, engine_cfg, owner_budget, risk_mode, risk_factor, tilt):
    """One scenario's bundle weights, computed from scratch: the moderate risk
    mode boosts the more sensitive half of each of the feasible and the
    infeasible class by ``risk_factor``, keeping each class's mass, then the
    dataset's calibration ``tilt`` moves mass from the infeasible class to the
    feasible one, and the weights are normalized."""
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


def cross_dataset_runs(cfg, datasets, n):
    """The cross-dataset scenarios' runs as (owner budget, request indices,
    trusts), in scenario order, each drawn with ``rng.choice`` from its own
    child seed with its (dataset, risk mode) weights, as the benchmark draws
    them."""
    exp = simulate.experiment(cfg, "cross_dataset", interactions=n)
    validated, base = read_stream(cfg, "cross_dataset")
    names, modes, trust = exp["datasets"], exp["risk_modes"], exp["stream"]["trust"]
    by_volatility = sorted(names, key=lambda name: dataset_volatility(datasets[name]))
    children = iter(np.random.SeedSequence(exp["seed"]).spawn(
        len(names) * len(exp["patterns"]) * len(modes)))
    runs = []
    for name in names:
        tilt = (by_volatility.index(name) / max(1, len(names) - 1) - 0.5) * exp["calibration_tilt"]
        for _ in exp["patterns"]:
            for mode in modes:
                weights = scenario_weights(
                    base, validated, cfg.engine, exp["owner_budget"], mode,
                    exp["risk_weight_factor"], tilt)
                rng = np.random.default_rng(next(children))
                idx = rng.choice(len(base), size=n, p=weights).tolist()
                trusts = rng.uniform(trust["lo"], trust["hi"], size=n).tolist()
                runs.append((exp["owner_budget"], idx, trusts))
    return runs


def decided_alone(cfg, stream, budget, idx, trusts):
    """Each draw of a run decided on its own, with no decision table: its
    bundle validated afresh and negotiated against a fresh owner holding
    ``budget``."""
    bundles = [request for request, _ in cfg.streams[stream]]
    return [negotiate(validate_request(bundles[i], cfg.catalog), BudgetLedger(h_max=budget),
                      trust, cfg.engine)
            for i, trust in zip(idx, trusts)]


def assert_counted_as_decided_alone(cfg, runs, metrics):
    """Each run's counts and granted total, to the bit, are those of its
    draws decided alone and counted one at a time; returns those outcomes."""
    assert len(metrics) == len(runs)
    outcomes = []
    for (stream, run), got in zip(runs, metrics):
        alone = decided_alone(cfg, stream, *run)
        assert counted(got.to_dict()) == one_at_a_time(alone)
        outcomes += alone
    return outcomes


def test_sweep_counts_as_one_decision_at_a_time():
    n = 150
    with counted_metrics() as seen:
        rows = run_sweep(STAGED, interactions=n)["rows"]
    runs = [("sweep", run) for run in sweep_runs(STAGED, n)]
    outcomes = assert_counted_as_decided_alone(STAGED, runs, seen)
    assert any(o.decision is Decision.COUNTER_OFFER for o in outcomes)
    for row, metrics in zip(rows, seen):
        assert {key: row[key] for key in ("accept", "reject", "counter")} == {
            "accept": metrics.accepts / n, "reject": metrics.rejects / n,
            "counter": metrics.counters / n}


def test_cross_dataset_counts_as_one_decision_at_a_time():
    datasets = simulate.load_datasets(STAGED, DATA_DIR)
    n = 60
    with counted_metrics() as seen:
        scenarios = simulate.run_cross_dataset(STAGED, datasets, interactions=n)["scenarios"]
    runs = [("cross_dataset", run) for run in cross_dataset_runs(STAGED, datasets, n)]
    outcomes = assert_counted_as_decided_alone(STAGED, runs, seen)
    assert any(o.decision is Decision.COUNTER_OFFER for o in outcomes)
    assert [counted(s) for s in scenarios] == [counted(m.to_dict()) for m in seen]


@cache
def property_datasets():
    return simulate.load_datasets(CFG, DATA_DIR)


def stream_config(weights, lo, hi, eps0_values, owner_budget, safety_mode, rule, aggregate_alpha):
    """A config whose sweep and cross-dataset streams take ``weights`` (the
    cross-dataset stream the first eight) and requester trusts uniform in
    [lo, hi], with the sweep's budget levels, the cross-dataset owner's
    budget, the engine's safety mode, one ``eps_min_rules`` entry and the
    aggregate feature's coefficient; the cross-dataset benchmark runs two
    datasets and one pattern."""
    def stream(name):
        bundles = CFG.raw["experiments"][name]["stream"]["bundles"]
        return {"trust": {"lo": lo, "hi": hi},
                "bundles": [{**b, "weight": w} for b, w in zip(bundles, weights)]}

    return from_document(_deep_merge(CFG.raw, {
        "catalog": {"alphas": {"aggregate": aggregate_alpha}},
        "engine": {"safety_mode": safety_mode, "eps_min_rules": [rule]},
        "experiments": {
            "sweep": {"eps0_values": eps0_values, "stream": stream("sweep")},
            "cross_dataset": {"owner_budget": owner_budget, "datasets": ["uci", "oslo"],
                              "patterns": ["natural"], "stream": stream("cross_dataset")},
        },
    }))


def decided_paths(cfg, runs):
    """Which decision paths the runs' draws take: approve as asked,
    counter-offer, the trusted fallback (an approval that an untrusted
    requester would not get) or a rejection, by its violated constraint."""
    paths = set()
    for stream, (budget, idx, trusts) in runs:
        untrusted = decided_alone(cfg, stream, budget, idx, [0.0] * len(idx))
        for outcome, other in zip(decided_alone(cfg, stream, budget, idx, trusts), untrusted):
            if outcome.decision is Decision.REJECT:
                paths.add(outcome.violated)
            elif outcome.decision is Decision.COUNTER_OFFER:
                paths.add("counter_offer")
            else:
                paths.add("approve" if other.decision is Decision.APPROVE else "trusted_fallback")
    return paths


def fresh_owner_runs(cfg, n):
    return ([("sweep", run) for run in sweep_runs(cfg, n)]
            + [("cross_dataset", run) for run in cross_dataset_runs(cfg, property_datasets(), n)])


STREAM_INPUTS = {
    "weights": st.lists(st.floats(1.0, 10.0), min_size=11, max_size=11),
    # trust ranges that straddle the trusted threshold, 0.8
    "lo": st.floats(0.0, 0.8),
    "hi": st.floats(0.8, 1.0),
    # sweep levels of 1 and 2 lie below safety_factor * s for most bundles
    "eps0_values": st.lists(st.integers(1, 10), min_size=1, max_size=3),
    # 1e-10 is below the ledger's tolerance, so the owner reads as spent
    "owner_budget": st.one_of(st.just(1e-10), st.floats(0.05, 12.0)),
    "safety_mode": st.sampled_from(["upfront", "staged"]),
    "rule": st.fixed_dictionaries({
        "band_max": st.floats(0.0, 2.5),
        "purpose": st.sampled_from(["*", "billing", "forecasting", "profiling"]),
        "value": st.floats(0.01, 6.0),
    }),
    # a zero coefficient prices the aggregate bundles at 0
    "aggregate_alpha": st.sampled_from([0.2, 0.0]),
}


def with_examples(examples):
    """Run a property over STREAM_INPUTS on each of ``examples`` too."""
    def wrap(test):
        for args in reversed(examples):
            test = example(**dict(zip(STREAM_INPUTS, args)))(test)
        return test
    return wrap


# inputs from STREAM_INPUTS that together take every decision path
PATH_EXAMPLES = [
    ([1.0] * 11, 0.2, 0.9, [1, 8], 2.0, "upfront", {"band_max": 0.5, "purpose": "*", "value": 5.0}, 0.2),
    ([1.0] * 11, 0.2, 0.9, [1, 3], 3.0, "staged", {"band_max": 1.0, "purpose": "profiling", "value": 1.0}, 0.2),
    ([1.0] * 11, 0.2, 0.9, [2], 1e-10, "upfront", {"band_max": 0.0, "purpose": "*", "value": 0.05}, 0.0),
]


@settings(max_examples=100, deadline=None)
@given(**STREAM_INPUTS)
@with_examples(PATH_EXAMPLES)
def test_fresh_owner_runs_count_as_their_draws_decided_alone(**inputs):
    cfg = stream_config(**inputs)
    n = 40
    with counted_metrics() as seen:
        run_sweep(cfg, interactions=n)
        simulate.run_cross_dataset(cfg, property_datasets(), interactions=n)
    assert_counted_as_decided_alone(cfg, fresh_owner_runs(cfg, n), seen)


def test_stream_inputs_reach_every_decision_path():
    paths = set()
    for args in PATH_EXAMPLES:
        cfg = stream_config(*args)
        paths |= decided_paths(cfg, fresh_owner_runs(cfg, 40))
    assert paths == {"approve", "counter_offer", "trusted_fallback",
                     "safety_condition", "below_minimum", "budget_exceeded"}


def record_states(monkeypatch, engine_cfg):
    """Each state the runners negotiate, as (request, trusted, h_remaining)."""
    seen = []

    def negotiate(req, ledger, trust, cfg):
        seen.append((id(req), engine_cfg.trusted(trust), ledger.h_remaining))
        return real(req, ledger, trust, cfg)

    real = simulate.negotiate
    monkeypatch.setattr(simulate, "negotiate", negotiate)
    return seen


def distinct_states(cfg, run):
    _, idx, trusts = run
    return set(zip(idx, (cfg.engine.trusted(t) for t in trusts)))


def test_fresh_owner_runs_negotiate_each_state_once(monkeypatch):
    n = 200
    seen = record_states(monkeypatch, STAGED.engine)
    run_sweep(STAGED, interactions=n)
    levels = sweep_runs(STAGED, n)
    assert len(seen) == len(set(seen)) == len(levels) * len(distinct_states(STAGED, levels[0]))

    seen.clear()
    datasets = simulate.load_datasets(STAGED, DATA_DIR)
    simulate.run_cross_dataset(STAGED, datasets, interactions=n)
    scenarios = cross_dataset_runs(STAGED, datasets, n)
    assert len(seen) == len(set(seen)) == len(set().union(
        *(distinct_states(STAGED, run) for run in scenarios)))
    # one table spans the scenarios: a table per scenario would negotiate more
    assert len(seen) < sum(len(distinct_states(STAGED, run)) for run in scenarios)


@pytest.mark.parametrize("cfg,digest", [
    (CFG, "4df230aad435603f24ec3086f90188df7e4130ecd48b76bab1400df4bfbf6315"),
    (STAGED, "021592fe724790b17c3b69707773c7a833dca3feacc3d6e92387de895a6ba38d"),
], ids=["upfront", "staged"])
def test_full_sim_approval_trust_matches_one_record_per_event(cfg, digest, monkeypatch):
    """Each approval folds its three trust events in one ``extend`` call. A
    run whose ``extend`` folds one event per call, as three ``record`` calls
    do, leaves every ledger the same to the bit; so does the loop that made
    three ``record`` calls per approval, whose ledgers' digest is pinned."""
    import hashlib
    from dpnego.ingest import gen_ecosystem
    from dpnego.scoring import TrustStore

    def run():
        ecosystem = gen_ecosystem(4, cfg.catalog, cfg.ecosystem, cfg.trust)
        simulate.run_full_sim(cfg, ecosystem=ecosystem, interactions=500, seed=3)
        return ecosystem

    folded = run()
    text = json.dumps(trust_bits(folded), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    extend = TrustStore.extend
    calls = []

    def one_event_per_call(self, rid, events):
        for event in events:
            calls.append(event[0])
            extend(self, rid, (event,))
        return self.ledger(rid)

    monkeypatch.setattr(TrustStore, "extend", one_event_per_call)
    assert trust_bits(run()) == trust_bits(folded)
    assert calls and calls[:3] == ["completed", "quality_report", "alignment_report"]


def test_full_size_full_sim_trust_pinned():
    """The trust ledgers of the shipped full simulation, as left when each
    approval drew its quality and alignment reports with one
    rng.uniform(0.7, 1.0, 2) call."""
    import hashlib
    from dpnego.ingest import gen_ecosystem

    exp = CFG.experiments["full_sim"]
    ecosystem = gen_ecosystem(exp["seed"] + 1, CFG.catalog, CFG.ecosystem, CFG.trust)
    metrics = simulate.run_full_sim(CFG, ecosystem=ecosystem)
    assert metrics.interactions == 2500 and metrics.accepts == 2180
    text = json.dumps(trust_bits(ecosystem), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cc8a104b3936c2f44da4c6fce4f6909ea33a1d4a1db8e4b56ce85716ab89c5ea"
    )


def bits(values):
    assert all(type(x) is float for x in values)
    return [x.hex() for x in values]


@pytest.mark.parametrize("seed", [0, 1, 7, 20240606, 2**64 - 1])
def test_one_uniform_call_draws_as_scalar_calls(seed):
    """run_full_sim's seeding and robustness_probe draw runs of uniform
    values in one call. That call takes one word per value, in order, and
    computes each value as a scalar call does. So does a call with array
    bounds, which gen_ecosystem does not use: it costs more than four
    uniform_draw calls."""
    def pair():
        return np.random.default_rng(seed), np.random.default_rng(seed)

    for lo, hi, k in ((0.5, 1.0, 2), (0.7, 1.0, 2), (-0.05, 0.05, 4000), (0.0, 0.0, 3)):
        scalar, batched = pair()
        want = [scalar.uniform(lo, hi) for _ in range(k)]
        assert bits(batched.uniform(lo, hi, k).tolist()) == bits(want)
        assert batched.bit_generator.state == scalar.bit_generator.state

    eco = CFG.ecosystem
    ranges = (eco.base_kw, eco.diurnal_amp_kw, eco.heating_coeff_kw_per_degc,
              eco.appliance_events_per_day)
    scalar, batched = pair()
    want = [scalar.uniform(*r) for _ in range(5) for r in ranges]
    lows, highs = zip(*ranges)
    got = [x for _ in range(5) for x in batched.uniform(lows, highs).tolist()]
    assert bits(got) == bits(want)
    assert batched.bit_generator.state == scalar.bit_generator.state


_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK64 = 2**64 - 1


def rng_whose_next_word_is(word, has_uint32=0, uinteger=0):
    """A PCG64 generator whose next raw word is ``word``, holding the given
    kept half. PCG64 steps its 128-bit state s to s * a + c and outputs the
    high and low halves of the new state xor-ed and rotated right by its top
    six bits; so pick the high half, solve for the low one, and step back."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    high = state["state"]["state"] >> 64
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) & _MASK64)
    target = (high << 64) | low
    state["state"]["state"] = (target - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


# Lemire's rule redraws a 32-bit half u with (12 * u) % 2**32 < 4, that is
# u in {0, 2**30, 2**31, 3 * 2**30}, whose counts would be 0, 3, 6 and 9;
# 0x2AAAAAAB leaves exactly 4 and is kept. Natural seeds meet a redraw about
# once in 1e9 draws, so these words are made.
REDRAWN = (0, 2**30, 2**31, 3 * 2**30)
KEPT_AT_THE_EDGE = 0x2AAAAAAB


def test_redrawn_halves():
    assert [(12 * u) % 2**32 for u in REDRAWN] == [0, 0, 0, 0]
    assert [(12 * u) >> 32 for u in REDRAWN] == [0, 3, 6, 9]
    assert (12 * KEPT_AT_THE_EDGE) % 2**32 == 4


@pytest.mark.parametrize("low, high", [
    (2**31, 0x9ABCDEF0), (0, 0), (3 * 2**30, 2**30), (KEPT_AT_THE_EDGE, 2**31),
    (0x12345678, 0), (KEPT_AT_THE_EDGE, KEPT_AT_THE_EDGE),
])
@pytest.mark.parametrize("kept", [None, 0, 2**31, KEPT_AT_THE_EDGE])
@pytest.mark.parametrize("pairs", [1, 2, 3, 7])
def test_seed_draws_redraw_as_numpy_does(low, high, kept, pairs, monkeypatch):
    """run_full_sim seeds its pairs from numpy's public calls alone: from a
    generator whose next word holds halves that Lemire's rule redraws, or
    that holds a kept half-word, its ledgers are the per-event fold of one
    counts call and one reports call, and it leaves the generator where
    those two calls do."""
    from dataclasses import replace
    from dpnego.ingest import gen_ecosystem

    word = (high << 32) | low
    start = {} if kept is None else {"has_uint32": 1, "uinteger": kept}
    probe = rng_whose_next_word_is(word, **start)
    assert int(probe.integers(0, 2**64, dtype=np.uint64)) == word
    cfg = from_document(_deep_merge(CFG.raw, {"experiments": {"full_sim": {"requesters": pairs}}}))

    def ecosystem():
        return gen_ecosystem(1, cfg.catalog, replace(cfg.ecosystem, n_prosumers=1, days=1), cfg.trust)

    folded, rng = ecosystem(), rng_whose_next_word_is(word, **start)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    simulate.run_full_sim(cfg, ecosystem=folded, interactions=0, seed=0)
    monkeypatch.undo()

    reference, scalar = ecosystem(), rng_whose_next_word_is(word, **start)
    counts = scalar.integers(0, 12, size=pairs).tolist()
    reports = scalar.uniform(0.5, 1.0, (pairs - counts.count(0), 2)).tolist()
    trust = reference.prosumers[0].trust
    for name, completions in zip((f"req-{r:03d}" for r in range(pairs)), counts):
        for _ in range(completions):
            trust.record(name, "completed")
        if completions:
            quality, alignment = reports.pop(0)
            trust.record(name, "quality_report", quality)
            trust.record(name, "alignment_report", alignment)
    assert reports == []
    assert trust_bits(folded) == trust_bits(reference)
    assert rng.bit_generator.state == scalar.bit_generator.state
