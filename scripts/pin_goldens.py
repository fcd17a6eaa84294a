#!/usr/bin/env python3
"""Pin the golden experiment summaries the acceptance suite compares against.

Run once after any intentional change to experiment definitions or seeds, then
commit tests/golden/. The acceptance suite fails if a rerun drifts by a bit.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dpnego.config import load_config
from dpnego import simulate


def dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"pinned {path}")


def main() -> None:
    cfg = load_config()
    golden = ROOT / "tests" / "golden"
    golden.mkdir(exist_ok=True)

    dump(golden / "sweep.json", simulate.run_sweep(cfg))
    dump(golden / "full_sim.json", simulate.run_full_sim(cfg).to_dict())
    dump(golden / "baseline.json", simulate.run_baseline_fixed(cfg).to_dict())
    dump(golden / "adversary.json", simulate.run_adversary(cfg))
    datasets = simulate.load_datasets(cfg, ROOT / "data")
    dump(golden / "cross_dataset.json", simulate.run_cross_dataset(cfg, datasets))
    dump(golden / "probe.json", dataclasses.asdict(simulate.run_probe(cfg)))


if __name__ == "__main__":
    main()
