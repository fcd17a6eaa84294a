import json
from pathlib import Path

import numpy as np
import pytest

from dpnego.config import load_config
from dpnego import simulate
from dpnego.simulate import (
    MissingDataset,
    ScenarioMetrics,
    dataset_volatility,
    parse_stream,
    run_baseline_fixed,
    run_full_sim,
    run_sweep,
    sweep_regime,
)

CFG = load_config()
DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def test_stream_weights_normalized():
    profile = parse_stream(CFG.experiments["sweep"]["stream"])
    assert profile.weights().sum() == pytest.approx(1.0)
    assert all(w > 0 for w in profile.bundle_weights)


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
        ({rid: (led.succ_count, led.quality.hex(), led.alignment.hex(), led.events)
          for rid, led in p.trust.ledgers.items()}, p.trust.log)
        for p in ecosystem.prosumers
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_full_sim_trust_matches_one_record_per_event(seed, monkeypatch):
    from dpnego.ingest import gen_ecosystem
    from dpnego.scoring import TrustStore

    def ecosystem():
        return gen_ecosystem(seed + 1, CFG.catalog, CFG.ecosystem, CFG.trust)

    # seeding alone, against the per-event loop it replaced, draw for draw
    folded = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=folded, interactions=0, seed=seed)
    reference = ecosystem()
    rng = np.random.default_rng(seed)
    names = [f"req-{r:03d}" for r in range(int(CFG.experiments["full_sim"].get("requesters", 30)))]
    for prosumer in reference.prosumers:
        for name in names:
            completions = int(rng.integers(0, 12))
            for _ in range(completions):
                prosumer.trust.record(name, "completed")
            if completions:
                prosumer.trust.record(name, "quality_report", float(rng.uniform(0.5, 1.0)))
                prosumer.trust.record(name, "alignment_report", float(rng.uniform(0.5, 1.0)))
    assert trust_bits(folded) == trust_bits(reference)

    # a whole run, against one with every extend replaced by records
    folded = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=folded, seed=seed)
    monkeypatch.setattr(TrustStore, "extend", lambda self, rid, events: [
        self.record(rid, event, value) for event, value in events])
    reference = ecosystem()
    simulate.run_full_sim(CFG, ecosystem=reference, seed=seed)
    assert trust_bits(folded) == trust_bits(reference)
