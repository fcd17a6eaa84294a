#!/usr/bin/env python3
"""Benchmark of the data owner's side of dpnego.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pipeline,batch,cli} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the workload runs untraced for S seconds and the last line
of standard output is a JSON object holding the end-to-end metrics. With
``--trace 1`` the workload runs untraced for S/2 seconds, then with the
benchmark's wrappers around the package's public functions for S/2 seconds,
and the metrics are the per-module ones plus the tracing overhead. The line
before the result records the run: rounds, decision mix, unscaled figures,
tails and the environment. Exits non-zero without a result when the checkout
holds no package sources.

The process and its children stay on one CPU, and end-to-end timings are
scaled to a reference speed measured on that CPU around each round (see
``repeat_rounds`` in common.py and README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

import common
from common import (HERE, WORK, Measurement, Tally, median, reference_s, run_child, tail,
                    to_reference)

WORKLOADS = {"pipeline": "pipeline", "batch": "batch", "cli": "cli_workload"}
SETUP_SAMPLES = 5

# Bindings each traced workload must reach; a wrapper left at zero calls
# means the trace missed a path (for example a function imported by name).
EXPECTED = {
    "pipeline": (
        "dpnego.contracts.request_from_dict", "dpnego.contracts.validate_request",
        "dpnego.negotiation.validate_request", "dpnego.scoring:TrustStore.score",
        "dpnego.scoring:TrustStore.record", "dpnego.negotiation.negotiate",
        "dpnego.negotiation.derive_counter_offer", "dpnego.negotiation:NegotiationEngine.optimize",
        "dpnego.negotiation:BudgetLedger.settle", "dpnego.explain.explain",
        "dpnego.explain.factors_for", "dpnego.audit:AuditLog.append",
        "dpnego.secretshare:ReleaseAuthority.enroll",
        "dpnego.secretshare:ReleaseAuthority.authorize_release",
        "dpnego.secretshare.split", "dpnego.secretshare.reconstruct",
        "dpnego.release.validate_plan", "dpnego.release.execute_plan",
        "dpnego.release.dp_noise", "dpnego.release.compliance_check",
        "dpnego.ingest.gen_ecosystem",
    ),
    "batch": (
        "dpnego.simulate.run_sweep", "dpnego.simulate.run_full_sim",
        "dpnego.simulate.run_cross_dataset", "dpnego.simulate.run_baseline_fixed",
        "dpnego.simulate.run_adversary", "dpnego.simulate.run_probe",
        "dpnego.simulate.negotiate", "dpnego.simulate.validate_request",
        "dpnego.simulate.robustness_probe", "dpnego.explain.derive_counter_offer",
        "dpnego.negotiation.derive_counter_offer", "dpnego.negotiation:NegotiationEngine.optimize",
        "dpnego.negotiation:BudgetLedger.settle", "dpnego.scoring:TrustStore.score",
        "dpnego.scoring:TrustStore.record", "dpnego.ingest.gen_ecosystem",
        "dpnego.simulate.load_csv", "dpnego.simulate.gen_city_series",
    ),
    "cli": (
        "dpnego.cli.main", "dpnego.cli.load_owner_state", "dpnego.cli.save_owner_state",
        "dpnego.cli.request_from_dict", "dpnego.cli.validate_request", "dpnego.cli.negotiate",
        "dpnego.cli.factors_for", "dpnego.cli.explain", "dpnego.cli.verify_file",
        "dpnego.scoring:TrustStore.score", "dpnego.negotiation.derive_counter_offer",
        "dpnego.negotiation:NegotiationEngine.optimize", "dpnego.negotiation:BudgetLedger.settle",
        "dpnego.audit:AuditLog.load", "dpnego.audit:AuditLog.append", "dpnego.audit:AuditLog.save",
    ),
}


def span_names(tracing) -> list[str]:
    """Every timed function, with execute_plan split by series length and
    dp_noise by mechanism."""
    names = []
    for name in tracing.TARGETS:
        if name == "release.execute_plan":
            names += [name + ".60d", name + ".600d"]
        elif name == "release.dp_noise":
            names += [name + ".laplace", name + ".gaussian"]
        else:
            names.append(name)
    return names


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh process, so imports count every time; returns
    its time and the factor to the reference speed around it."""
    ref_before = reference_s()
    res = run_child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--setup-only"], WORK / "setup")
    scale = to_reference(ref_before, reference_s())
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed ({res.returncode}): {res.stderr[-400:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"], scale


def measure(workload, name: str, state, seconds: float, tally: Tally):
    """The untraced run, cut into SETUP_SAMPLES slices with one set-up sample
    before each, so set-up is sampled across the whole run. Slice ends are
    fixed from the start, so time a slice leaves unused passes to the next."""
    m, setups = Measurement(), []
    start = time.perf_counter()
    for k in range(1, SETUP_SAMPLES + 1):
        setups.append(setup_sample(name, state.seed))
        end = start + seconds * k / SETUP_SAMPLES
        m.merge(workload.run(state, end - time.perf_counter(), tally))
    m.extra["setup_s"] = median([t for t, _ in setups])
    return m, median([t * k for t, k in setups])


def end_to_end(m, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "decisions_per_s": (m.rate(), "1/s"),
        "decision_p50_ms": (m.p50_ms(), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracing, trace_set, untraced, traced) -> dict:
    stats = trace_set.stats()
    out = {}
    failed: dict[str, int] = {}
    for name in span_names(tracing):
        s = stats.get(name, {"calls": 0, "busy_ms": 0.0, "p50_us": 0.0, "failed": 0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.busy_ms"] = (s["busy_ms"], "ms")
        out[f"{name}.p50_us"] = (s["p50_us"], "us")
        module = name.split(".")[0]
        failed[module] = failed.get(module, 0) + s["failed"]
    for module, n in failed.items():
        out[f"{module}.failed"] = (n, "count")
    calls = trace_set.optimize_calls
    out["negotiation.optimize.repeat_key_ratio"] = (
        trace_set.optimize_repeats / calls if calls else 0.0, "ratio")
    derived = stats.get("negotiation.derive_counter_offer", {}).get("calls", 0)
    out["negotiation.counter_offer.used_ratio"] = (
        trace_set.counters_returned / derived if derived else 0.0, "ratio")
    wchar = [e["wchar"] for e in trace_set.extra if e.get("command") == "negotiate"]
    out["audit.bytes_written_per_decision"] = (median(wchar) if wchar else 0, "B")
    p60 = stats.get("release.execute_plan.60d", {}).get("p50_us")
    p600 = stats.get("release.execute_plan.600d", {}).get("p50_us")
    out["release.volume_ratio"] = (p600 / p60 if p60 and p600 else 0.0, "ratio")
    out["cli.import_ms"] = (traced.extra.get("import_ms", 0.0), "ms")
    base = untraced.p50_ms()
    diff = traced.p50_ms() - base
    out["trace.overhead_ms"] = (diff, "ms")
    out["trace.overhead_pct"] = (100.0 * diff / base, "%")
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((common.SRC / "dpnego").glob("*.py")))


def info(workload: str, seed: int, m, trace_set=None) -> dict:
    import numpy

    doc = {
        "workload": workload, "seed": seed, "rounds": len(m.round_wall_s),
        "decisions": m.decisions, "round_wall_p50_s": median(m.round_wall_s),
        "reference_scale_p50": median(m.round_scale),
        "unscaled": {"decisions_per_s": m.rate(scaled=False),
                     "decision_p50_ms": m.p50_ms(scaled=False),
                     "setup_s": m.extra.get("setup_s")},
        "mix": dict(sorted(m.mix.items())),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "src_dpnego_lines": src_lines(),
    }
    m.extra["decision_ms"] = m.decision_ms
    for key in ("decision_ms", "release_ms", "verify_ms"):
        if m.extra.get(key):
            name = key[:-3]
            doc[name + "_samples"] = len(m.extra[key])
            doc[name + "_p50_ms"] = median(m.extra[key])
            doc[name + "_tail_ms"], doc[name + "_tail_percentile"] = tail(m.extra[key])
    if trace_set is not None:
        missing = [b for b in EXPECTED[workload] if not trace_set.bindings.get(b)]
        doc["bindings_missing"] = missing
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    common.pin_to_one_cpu()

    if args.setup_only:
        t0 = time.perf_counter()
        importlib.import_module(WORKLOADS[args.workload]).setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    workload = importlib.import_module(WORKLOADS[args.workload])
    in_process = args.workload != "cli"
    tally = Tally()
    state = workload.setup(args.seed)
    if not args.trace:
        m, setup_s = measure(workload, args.workload, state, args.seconds, tally)
        if in_process:
            rss = m.extra.get("peak_rss_mb", common.peak_rss_mb())
        else:
            rss = max(m.extra["child_rss_mb"])
        metrics = end_to_end(m, setup_s, rss)
        print(json.dumps(info(args.workload, args.seed, m)))
    else:
        import tracing

        untraced = workload.run(state, args.seconds / 2, tally)
        trace_set = tracing.TraceSet()
        if in_process:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                state = workload.setup(args.seed)
                traced = workload.run(state, args.seconds / 2, tally, tracer=tracer)
            finally:
                tracer.uninstall()
            trace_set.add_tracer(tracer)
        else:
            traced = workload.run(state, args.seconds / 2, tally, tracer=trace_set)
        trace_set.dump(WORK / f"trace-{args.workload}.npz")
        doc = info(args.workload, args.seed, traced, trace_set)
        for binding in doc["bindings_missing"]:
            tally.fail(f"traced run: wrapper {binding} recorded no call")
        metrics = per_layer(tracing, trace_set, untraced, traced)
        print(json.dumps(doc))
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
