"""The ``batch`` workload: the paper-reproduction suite, in process, one
closed-loop client running one suite after another.

A round runs the budget sweep, the full simulation, all 48 cross-dataset
scenarios over the committed CSVs and the four synthetic cities, the
fixed-budget baseline, the adversary and the robustness probe. Almost all of
the time is the negotiation loop over fixed budgets, so optimizer keys
repeat and its cache stays hot; no explanation, audit or release code runs.

Timed rounds run every experiment at one eighth of its configured size, so a
round takes under a second and a run holds dozens of them. At seed 0 the
full-size suite also runs once, untimed, and must reproduce the pinned
goldens byte for byte.
"""

from __future__ import annotations

import json
import time

from dpnego import ingest, simulate
from dpnego.config import load_config

from common import ROOT, Measurement, Tally, repeat_rounds

GOLDEN_DIR = ROOT / "tests" / "golden"
EXPERIMENTS = ("sweep", "full_sim", "cross_dataset", "baseline", "adversary", "probe")
# experiment -> the config key holding its size
SIZE_KEYS = {"sweep": "interactions", "full_sim": "interactions",
             "cross_dataset": "interactions", "baseline": "requests", "probe": "replays"}
DIVISOR = 8


class State:
    def __init__(self, seed: int, cfg, datasets, divisor: int):
        self.seed = seed
        self.cfg = cfg
        self.datasets = datasets
        self.sizes = {name: int(cfg.experiments[name][key]) // divisor
                      for name, key in SIZE_KEYS.items()}
        self.golden_due = seed == 0
        self.first: str | None = None  # summaries of the first timed round


def setup(seed: int, divisor: int = DIVISOR) -> State:
    """Config and the eight datasets (CSV parsing plus the synthetic cities)."""
    cfg = load_config()
    datasets = simulate.load_datasets(cfg, ROOT / "data")
    return State(seed, cfg, datasets, divisor)


def seeds(state: State) -> dict[str, int]:
    """Seed ``n`` offsets every experiment's configured seed by ``n``, so seed
    0 is the configuration the goldens were pinned at."""
    exps = state.cfg.experiments
    return {name: int(exps[name]["seed"]) + state.seed for name in EXPERIMENTS}


def run_suite(state: State, sizes: dict) -> tuple[dict, list]:
    """One pass of every experiment (an empty ``sizes`` keeps the configured
    sizes); returns the summaries and the full-sim owners, whose ledgers the
    checks read."""
    cfg, s, size = state.cfg, seeds(state), sizes.get
    eco = ingest.gen_ecosystem(s["full_sim"] + 1, cfg.catalog, cfg.ecosystem, cfg.trust)
    out = {
        "sweep": simulate.run_sweep(cfg, seed=s["sweep"], interactions=size("sweep")),
        "full_sim": simulate.run_full_sim(
            cfg, ecosystem=eco, seed=s["full_sim"], interactions=size("full_sim")
        ).to_dict(),
        "cross_dataset": simulate.run_cross_dataset(
            cfg, state.datasets, seed=s["cross_dataset"], interactions=size("cross_dataset")
        ),
        "baseline": simulate.run_baseline_fixed(
            cfg, seed=s["baseline"], requests=size("baseline")
        ).to_dict(),
        "adversary": simulate.run_adversary(cfg, seed=s["adversary"]),
    }
    probe = simulate.run_probe(cfg, seed=s["probe"], replays=size("probe"))
    out["probe"] = {"replays": probe.replays, "unchanged": probe.unchanged,
                    "flips": probe.flips, "stability": probe.stability}
    return out, eco.prosumers


def decisions(out: dict) -> int:
    return (
        out["sweep"]["interactions"] * len(out["sweep"]["rows"])
        + out["full_sim"]["interactions"]
        + sum(sc["interactions"] for sc in out["cross_dataset"]["scenarios"])
        + out["baseline"]["interactions"]
        + out["adversary"]["requests"]
        + out["probe"]["replays"]
    )


def mix(out: dict) -> dict[str, int]:
    """Approve / counter / reject counts over the negotiating experiments."""
    counts = {"approve": 0, "counter_offer": 0, "reject": 0}
    n = out["sweep"]["interactions"]
    for row in out["sweep"]["rows"]:
        counts["approve"] += round(row["accept"] * n)
        counts["counter_offer"] += round(row["counter"] * n)
        counts["reject"] += round(row["reject"] * n)
    for sc in [out["full_sim"], *out["cross_dataset"]["scenarios"]]:
        counts["approve"] += sc["accepts"]
        counts["counter_offer"] += sc["counters"]
        counts["reject"] += sc["rejects"]
    counts["approve"] += out["adversary"]["accepted"]
    counts["reject"] += out["adversary"]["requests"] - out["adversary"]["accepted"]
    return counts


def check(state: State, tally: Tally, out: dict, owners: list, golden: bool) -> None:
    """Goldens for the full-size suite at seed 0; decision counts and ledgers
    always; and every timed round must reproduce the first one exactly."""
    cfg = state.cfg
    text = {k: json.dumps(v, sort_keys=True, indent=2) + "\n" for k, v in out.items()}
    if golden:
        for name in ("sweep", "full_sim", "baseline", "adversary", "cross_dataset"):
            path = GOLDEN_DIR / f"{name}.json"
            tally.check(path.is_file() and path.read_text() == text[name],
                        f"{name} summary differs from {path.name}")
    n = out["sweep"]["interactions"]
    tally.check(
        all(sum(round(r[k] * n) for k in ("accept", "reject", "counter")) == n
            for r in out["sweep"]["rows"]),
        "sweep decision counts do not sum to the interactions",
    )
    for sc in [out["full_sim"], *out["cross_dataset"]["scenarios"]]:
        tally.check(sc["accepts"] + sc["rejects"] + sc["counters"] == sc["interactions"],
                    f"decision counts do not sum to {sc['interactions']}")
    base = out["baseline"]
    tally.check(base["accepts"] + base["rejects"] == base["interactions"],
                "baseline decision counts do not sum to the requests")
    budgets = {name: float(cfg.experiments[name]["owner_budget"]) for name in ("baseline", "adversary")}
    tally.check(base["total_granted"] <= budgets["baseline"] + 1e-9, "baseline ledger overdrawn")
    adv = out["adversary"]
    tally.check(adv["total_granted"] <= budgets["adversary"] + 1e-9 and adv["accepted"] <= adv["requests"],
                f"adversary ledger overdrawn: granted {adv['total_granted']}")
    overdrawn = [p.prosumer_id for p in owners if p.ledger.spent > p.ledger.h_max + 1e-9]
    tally.check(not overdrawn, f"full simulation ledgers overdrawn: {overdrawn[:5]}")
    probe = out["probe"]
    tally.check(probe["unchanged"] + probe["flips"] == probe["replays"],
                "probe outcomes do not sum to the replays")
    if golden:
        return
    joined = "".join(text[k] for k in sorted(text))
    if state.first is None:
        state.first = joined
    tally.check(joined == state.first, "suite summaries changed between rounds at one seed")


def run(state: State, seconds: float, tally: Tally, max_rounds: int | None = None,
        tracer=None) -> Measurement:
    """Timed suites for about ``seconds``; at least one. The golden pass, when
    due, runs first and is not timed."""
    m = Measurement()
    if state.golden_due:
        state.golden_due = False
        try:
            check(state, tally, *run_suite(state, {}), golden=True)
        except Exception as exc:  # a failed suite is counted, the run goes on
            tally.fail(f"golden suite: {type(exc).__name__}: {exc}")

    def one() -> None:
        t0 = time.perf_counter()
        try:
            out, owners = run_suite(state, state.sizes)
        except Exception as exc:
            tally.fail(f"suite: {type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - t0
        tally.ok()
        n = decisions(out)
        m.add_round(wall, n)
        m.decision_ms.append(wall * 1e3 / n)
        for k, v in mix(out).items():
            m.count(k, v)
        check(state, tally, out, owners, golden=False)

    repeat_rounds(seconds, max_rounds, one, m)
    return m
