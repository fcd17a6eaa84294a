"""Acceptance suite: every shipped criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s or -rA to see them all).
Criteria 1-6 are additionally pinned against golden summaries generated by
scripts/pin_goldens.py at the default seeds.
"""

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dpnego.config import load_config
from dpnego import simulate
from dpnego.negotiation import engine_for
from dpnego.secretshare import AlreadyAuthorized, ReleaseAuthority, reconstruct, split

CFG = load_config()
DATA_DIR = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def sweep_result():
    t0 = time.perf_counter()
    result = simulate.run_sweep(CFG)
    result["_runtime_s"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def full_sim_result():
    t0 = time.perf_counter()
    metrics = simulate.run_full_sim(CFG)
    return metrics, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cross_dataset_result():
    datasets = simulate.load_datasets(CFG, DATA_DIR)
    return simulate.run_cross_dataset(CFG, datasets)


@pytest.fixture(scope="module")
def baseline_result():
    return simulate.run_baseline_fixed(CFG)


@pytest.fixture(scope="module")
def adversary_result():
    return simulate.run_adversary(CFG)


@pytest.fixture(scope="module")
def probe_result():
    return simulate.run_probe(CFG)


def test_criterion_1_budget_sweep(sweep_result):
    rows = {r["eps0"]: r for r in sweep_result["rows"]}
    runtime = sweep_result["_runtime_s"]
    ok = 0.47 <= rows[1]["accept"] <= 0.63
    ok &= 0.32 <= rows[1]["reject"] <= 0.48
    ok &= all(rows[e]["accept"] >= 0.97 for e in (4, 5, 6, 7))
    ok &= all(rows[e]["accept"] == 1.0 and rows[e]["reject"] == 0.0 for e in (8, 9, 10))
    accepts = [rows[e]["accept"] for e in range(1, 11)]
    ok &= all(a <= b + 1e-12 for a, b in zip(accepts, accepts[1:]))
    ok &= runtime <= 10.0
    report(
        1,
        "budget-sweep regimes",
        bool(ok),
        f"acc@1={rows[1]['accept']:.3f} rej@1={rows[1]['reject']:.3f} "
        f"acc@4..7>={min(rows[e]['accept'] for e in (4,5,6,7)):.3f} "
        f"acc@8..10={rows[8]['accept']:.2f} runtime={runtime:.2f}s",
    )


def test_criterion_2_full_simulation(full_sim_result):
    metrics, runtime = full_sim_result
    ok = 0.82 <= metrics.accept_rate <= 0.93
    ok &= metrics.counter_rate <= 0.02
    ok &= metrics.min_remaining >= 0.0
    ok &= runtime <= 10.0
    report(
        2,
        "full simulation",
        bool(ok),
        f"acceptance={metrics.accept_rate:.4f} counter={metrics.counter_rate:.4f} "
        f"min_remaining={metrics.min_remaining:.3f} runtime={runtime:.2f}s",
    )


def test_criterion_3_fixed_baseline(baseline_result):
    metrics = baseline_result
    ok = metrics.exhaustion_index == 80
    ok &= abs(metrics.accept_rate - 0.04) <= 0.005
    report(
        3,
        "fixed-budget baseline",
        bool(ok),
        f"exhaustion at request {metrics.exhaustion_index}, "
        f"acceptance {metrics.accept_rate:.4f}",
    )


def test_criterion_4_cross_dataset_stability(cross_dataset_result):
    agg = cross_dataset_result["aggregate"]
    rates = [s["accept_rate"] for s in cross_dataset_result["scenarios"]]
    ok = agg["spread"] <= 0.08
    ok &= agg["std_acceptance"] <= 0.02
    ok &= all(0.45 <= r <= 0.75 for r in rates)
    report(
        4,
        "cross-dataset stability",
        bool(ok),
        f"48 scenarios, mean={agg['mean_acceptance']:.3f} "
        f"sigma={agg['std_acceptance']:.4f} spread={agg['spread']:.4f}",
    )


def test_criterion_5_trust_inflation_adversary(adversary_result):
    result = adversary_result
    trace = result["trust_trace"]
    ok = result["trust_monotone"]
    ok &= trace[-1] >= 0.99  # saturates at the maximum
    ok &= result["total_granted"] <= 8.0 + 1e-9
    ok &= result["final_remaining"] < 0.05
    ok &= 35 <= result["accepted"] <= 65
    report(
        5,
        "trust-inflation adversary",
        bool(ok),
        f"accepted={result['accepted']} final_remaining={result['final_remaining']:.4f} "
        f"granted={result['total_granted']:.4f} trust_final={trace[-1]:.4f}",
    )


def test_criterion_6_explanation_robustness(probe_result):
    probe = probe_result
    ok = probe.replays >= 2000
    ok &= probe.stability >= 0.95
    ok &= probe.flips == probe.flips_at_threshold
    report(
        6,
        "explanation robustness",
        bool(ok),
        f"replays={probe.replays} stability={probe.stability:.4f} "
        f"flips={probe.flips} all_at_threshold={probe.flips == probe.flips_at_threshold}",
    )


def test_criterion_7_optimizer_correctness():
    rng = np.random.default_rng(20240808)
    step = CFG.engine.grid_step
    engine = engine_for(CFG.engine)
    worst = 0.0
    for _ in range(1000):
        s = float(rng.uniform(0.0, 2.5))
        h = float(rng.uniform(0.05, 12.0))
        rng.uniform(0, 1), rng.uniform(0, 1)  # trust and purpose draws: keep the (s, h) pairs
        coarse = engine.optimize(s, h)
        upper = min(CFG.engine.eps_max, h)
        fine_grid = np.arange(1, int(upper / (step / 10) + 1e-9) + 1) * (step / 10)
        fine_grid = fine_grid[fine_grid <= upper]
        scores = 2 * np.sqrt(fine_grid) - 1.8 * s * fine_grid**1.7 - 0.15 * fine_grid
        fine = float(fine_grid[int(np.argmax(scores))])
        end = 2 * math.sqrt(upper) - 1.8 * s * upper**1.7 - 0.15 * upper
        if end > float(np.max(scores)):
            fine = upper
        worst = max(worst, abs(coarse - fine))
        assert abs(coarse - fine) <= step + 1e-12
    exact = all(
        engine.optimize(0.0, h) == min(CFG.engine.eps_max, h)
        for h in (0.3, 1.0, 4.2, 7.0005, 10.0, 15.0)
    )
    report(
        7,
        "optimizer correctness",
        worst <= step + 1e-12 and exact,
        f"1000 draws, worst |grid - oracle| = {worst:.6f} <= {step}; "
        f"S=0 clamps exactly: {exact}",
    )


def test_criterion_8_tss_suite():
    rng = np.random.default_rng(20240909)
    failures = 0
    for trial in range(500):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        secret = int(rng.integers(0, 2**62))
        shares = split(secret, k, n, seed=trial)
        for combo in itertools.combinations(shares, k):
            if reconstruct(list(combo)) != secret:
                failures += 1

    # distinguisher: the k-1 share marginal cannot separate two fixed secrets
    from scipy.stats import chi2

    k, n, samples = 3, 5, 100_000
    splits = samples // (k - 1)
    prime = split(1, 1, 1, seed=0)[0].scheme.modulus
    bins = 64
    edges = [prime * i // bins for i in range(bins + 1)]

    def share_histogram(secret: int, seed0: int) -> np.ndarray:
        counts = np.zeros(bins, dtype=np.int64)
        for i in range(splits):
            shares = split(secret, k, n, seed=seed0 + i)
            for share in shares[: k - 1]:
                counts[min(share.value * bins // prime, bins - 1)] += 1
        return counts

    h0 = share_histogram(123456789, seed0=1_000_000)
    h1 = share_histogram(987654321, seed0=3_000_000)
    with np.errstate(invalid="ignore"):
        stat = float(np.nansum((h0 - h1) ** 2 / (h0 + h1)))
    p_value = float(1.0 - chi2.cdf(stat, bins - 1))

    authority = ReleaseAuthority()
    enrolled = authority.enroll("c-double", secret=7, k=3, n=5, seed=42)
    authority.authorize_release("c-double", list(enrolled[:3]))
    double_fails = False
    try:
        authority.authorize_release("c-double", list(enrolled[:3]))
    except AlreadyAuthorized:
        double_fails = True

    ok = failures == 0 and p_value > 0.01 and double_fails
    report(
        8,
        "threshold secret sharing",
        ok,
        f"500 schemes all k-subsets exact (failures={failures}); "
        f"chi-square p={p_value:.4f} > 0.01; double authorization fails={double_fails}",
    )


def test_criterion_9_dp_calibration():
    from dpnego.release import Mechanism, dp_noise, sample_laplace, true_report_probability

    rng = np.random.default_rng(20241010)
    samples = sample_laplace(rng, 1.0, 1_000_000)
    mad = float(np.abs(samples).mean())
    mad_ok = abs(mad - 1.0) <= 0.02

    authority = ReleaseAuthority()
    shares = authority.enroll("c-rr", secret=1, k=2, n=3, seed=1)
    token = authority.authorize_release("c-rr", list(shares[:2])).consume()
    true_cat = 2
    out = dp_noise(
        [true_cat] * 1_000_000,
        1.0,
        1.0,
        Mechanism.RANDOMIZED_ROUNDING,
        seed=20241011,
        token=token,
        categories=4,
    )
    freq = float(np.mean(np.asarray(out.values) == true_cat))
    expected = true_report_probability(1.0, 4)
    rr_ok = abs(freq - expected) / expected <= 0.01

    report(
        9,
        "dp mechanism calibration",
        mad_ok and rr_ok,
        f"laplace MAD={mad:.5f} (target 1.0 +-2%); "
        f"rr truth freq={freq:.5f} vs {expected:.5f} (+-1% rel)",
    )


def test_criterion_10_latency():
    result = simulate.bench_latency(CFG)
    ok = result["negotiate_median_ms"] <= 1.0
    ok &= result["explain_median_ms"] <= 0.1
    ok &= 0.8 <= result["volume_ratio"] <= 1.2
    report(
        10,
        "latency bounds",
        bool(ok),
        f"negotiate={result['negotiate_median_ms']:.4f}ms "
        f"explain={result['explain_median_ms']:.4f}ms "
        f"volume_ratio={result['volume_ratio']:.3f}",
    )


def test_criterion_11_determinism_and_audit(
    sweep_result, full_sim_result, baseline_result, adversary_result, cross_dataset_result,
    probe_result, tmp_path,
):
    # reruns at the default seeds must be bit-identical
    sweep_again = simulate.run_sweep(CFG)
    sweep_again["_runtime_s"] = sweep_result["_runtime_s"]
    deterministic = json.dumps(sweep_again, sort_keys=True) == json.dumps(
        sweep_result, sort_keys=True
    )
    deterministic &= (
        simulate.run_full_sim(CFG).to_dict() == full_sim_result[0].to_dict()
    )
    deterministic &= simulate.run_adversary(CFG) == adversary_result

    # audit chain detects a single byte mutation
    from dpnego.audit import AuditLog, verify_file

    log = AuditLog()
    for i in range(5):
        log.append({"i": i}, {"decision": "approve"}, {"text": "t"}, timestamp=float(i))
    path = tmp_path / "audit.jsonl"
    log.save(path)
    raw = bytearray(path.read_bytes())
    lines = path.read_bytes().split(b"\n")
    offset = len(b"\n".join(lines[:2])) + 5
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))
    audit_ok = verify_file(path) is not None

    # golden summaries for criteria 1-6, pinned from the first verified run
    goldens = {
        "sweep.json": {k: v for k, v in sweep_result.items() if k != "_runtime_s"},
        "full_sim.json": full_sim_result[0].to_dict(),
        "baseline.json": baseline_result.to_dict(),
        "adversary.json": adversary_result,
        "cross_dataset.json": cross_dataset_result,
        "probe.json": dataclasses.asdict(probe_result),
    }
    golden_ok = True
    missing = []
    for name, payload in goldens.items():
        golden_path = GOLDEN_DIR / name
        if not golden_path.exists():
            missing.append(name)
            golden_ok = False
            continue
        if json.dumps(payload, sort_keys=True, indent=2) + "\n" != golden_path.read_text():
            golden_ok = False
    detail = f"reruns bit-identical={deterministic}; single-byte flip detected={audit_ok}; goldens match={golden_ok}"
    if missing:
        detail += f" (missing: {missing}; run scripts/pin_goldens.py)"
    report(11, "determinism and audit", bool(deterministic and audit_ok and golden_ok), detail)
