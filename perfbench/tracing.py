"""Spans around the package's public functions, installed from outside.

The tracer replaces each public function or method with a wrapper that
records a span (name, start, end, parent, root) in memory. Several modules
import functions by name (``simulate`` and ``cli`` both bind ``negotiate``
for themselves), so every binding is wrapped separately and counted under its
own label; a workload names the bindings it must reach, and a traced run in
which one of them records no call fails.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# span name -> (owner, attribute) pairs to wrap. An owner is a module or a
# class, given as "module" or "module:Class".
TARGETS = {
    "contracts.request_from_dict": ["dpnego.contracts", "dpnego.cli"],
    "contracts.validate_request": [
        "dpnego.contracts", "dpnego.negotiation", "dpnego.simulate", "dpnego.cli", "dpnego",
    ],
    "scoring.score": ["dpnego.scoring:TrustStore"],
    "scoring.record": ["dpnego.scoring:TrustStore"],
    "negotiation.negotiate": ["dpnego.negotiation", "dpnego.simulate", "dpnego.cli", "dpnego"],
    "negotiation.derive_counter_offer": ["dpnego.negotiation", "dpnego.explain", "dpnego"],
    "negotiation.optimize": ["dpnego.negotiation:NegotiationEngine"],
    "negotiation.settle": ["dpnego.negotiation:BudgetLedger"],
    "explain.explain": ["dpnego.explain", "dpnego.simulate", "dpnego.cli", "dpnego"],
    "explain.factors_for": ["dpnego.explain", "dpnego.simulate", "dpnego.cli", "dpnego"],
    "explain.robustness_probe": ["dpnego.explain", "dpnego.simulate"],
    "audit.append": ["dpnego.audit:AuditLog"],
    "audit.load": ["dpnego.audit:AuditLog"],
    "audit.save": ["dpnego.audit:AuditLog"],
    "audit.verify_file": ["dpnego.audit", "dpnego.cli"],
    "secretshare.enroll": ["dpnego.secretshare:ReleaseAuthority"],
    "secretshare.authorize_release": ["dpnego.secretshare:ReleaseAuthority"],
    "secretshare.split": ["dpnego.secretshare", "dpnego.cli"],
    "secretshare.reconstruct": ["dpnego.secretshare", "dpnego.cli"],
    "release.validate_plan": ["dpnego.release"],
    "release.execute_plan": ["dpnego.release"],
    "release.dp_noise": ["dpnego.release"],
    "release.compliance_check": ["dpnego.release"],
    "ingest.gen_ecosystem": ["dpnego.ingest", "dpnego.simulate"],
    "ingest.load_csv": ["dpnego.ingest", "dpnego.simulate"],
    "ingest.gen_city_series": ["dpnego.ingest", "dpnego.simulate"],
    "simulate.run_sweep": ["dpnego.simulate"],
    "simulate.run_full_sim": ["dpnego.simulate"],
    "simulate.run_cross_dataset": ["dpnego.simulate"],
    "simulate.run_baseline_fixed": ["dpnego.simulate"],
    "simulate.run_adversary": ["dpnego.simulate"],
    "simulate.run_probe": ["dpnego.simulate"],
    "cli.load_owner_state": ["dpnego.cli"],
    "cli.save_owner_state": ["dpnego.cli"],
    "cli.main": ["dpnego.cli"],
}

# Series longer than this many hourly samples count as the 600-day owners.
LONG_SERIES = 60 * 24


def _attr(name: str) -> str:
    return name.split(".", 1)[1]


def _plan_label(args, kwargs) -> str:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return "release.execute_plan." + ("600d" if len(data) > LONG_SERIES else "60d")


def _noise_label(args, kwargs) -> str:
    mechanism = args[3] if len(args) > 3 else kwargs["mechanism"]
    return "release.dp_noise." + mechanism.value


LABELLERS = {"release.execute_plan": _plan_label, "release.dp_noise": _noise_label}
COLUMNS = ("id", "name", "parent", "root", "start", "end", "self", "failed")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._enter(self.tracer._id(self.name))

    def __exit__(self, exc_type, exc, tb):
        self.tracer._exit(exc_type is not None)
        return False


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column per field, eight bytes a span; a span is stored on exit
        self.cols = {k: array("q") for k in COLUMNS}
        self._stack: list[list[int]] = []  # [span id, name id, start ns, child ns]
        self._next = 0
        self.bindings: Counter = Counter()
        self.optimize_keys: set = set()
        self.optimize_repeats = 0
        self.counters_returned = 0
        self._on_call = {"negotiation.optimize": self._see_optimize}
        self._on_result = {"negotiation.negotiate": self._see_outcome}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, name_id: int) -> None:
        self._stack.append([self._next, name_id, time.perf_counter_ns(), 0])
        self._next += 1

    def _exit(self, failed: bool) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        span_id, name_id, start, child = stack.pop()
        dur = end - start
        if stack:
            top = stack[-1]
            top[3] += dur
            parent, root = top[0], stack[0][0]
        else:
            parent, root = -1, span_id
        c = self.cols
        c["id"].append(span_id)
        c["name"].append(name_id)
        c["parent"].append(parent)
        c["root"].append(root)
        c["start"].append(start)
        c["end"].append(end)
        c["self"].append(dur - child)
        c["failed"].append(int(failed))

    def span(self, name: str) -> _Span:
        """A root span opened by the benchmark itself, such as one request."""
        return _Span(self, name)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn, binding: str):
        tracer = self
        name_id = self._id(name)
        labeller = LABELLERS.get(name)
        on_result = self._on_result.get(name)
        on_call = self._on_call.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.bindings[binding] += 1
            if on_call is not None:
                on_call(args)
            tracer._enter(name_id if labeller is None else tracer._id(labeller(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(True)
                raise
            tracer._exit(False)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _see_optimize(self, args) -> None:
        engine, sensitivity, upper = args[0], args[1], args[2]
        key = (sensitivity, min(engine.cfg.eps_max, upper))
        if key in self.optimize_keys:
            self.optimize_repeats += 1
        else:
            self.optimize_keys.add(key)

    def _see_outcome(self, outcome) -> None:
        if outcome.decision.value == "counter_offer":
            self.counters_returned += 1

    def install(self) -> None:
        """Wrap every binding in TARGETS; ``uninstall`` puts the originals back.

        All modules are imported before anything is wrapped: a module
        imported later would bind an already wrapped function by name and
        count each call twice."""
        plan = []
        for name, owners in TARGETS.items():
            attr = _attr(name)
            for spec in owners:
                module_name, _, cls_name = spec.partition(":")
                owner = importlib.import_module(module_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                plan.append((name, owner, attr, f"{spec}.{attr}"))
        for name, owner, attr, binding in plan:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, binding))
            else:
                wrapped = self._wrap(name, raw, binding)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(v, dtype=np.int64) for k, v in self.cols.items()}


class TraceSet:
    """Spans gathered from one process or merged from many child processes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parts: list[dict[str, np.ndarray]] = []
        self.bindings: Counter = Counter()
        self.optimize_calls = 0
        self.optimize_repeats = 0
        self.counters_returned = 0
        self.extra: list[dict] = []

    def _add(self, names, cols, meta) -> None:
        ids = {n: i for i, n in enumerate(self.names)}
        remap = np.empty(max(len(names), 1), dtype=np.int64)
        for i, n in enumerate(names):
            if n not in ids:
                ids[n] = len(self.names)
                self.names.append(n)
            remap[i] = ids[n]
        cols = dict(cols)
        cols["name"] = remap[cols["name"]] if len(cols["name"]) else cols["name"]
        self.parts.append(cols)
        self.bindings.update(meta["bindings"])
        self.optimize_calls += meta["optimize_calls"]
        self.optimize_repeats += meta["optimize_repeats"]
        self.counters_returned += meta["counters_returned"]

    def add_tracer(self, tracer: Tracer) -> None:
        self._add(tracer.names, tracer.arrays(), {
            "bindings": tracer.bindings,
            "optimize_calls": len(tracer.optimize_keys) + tracer.optimize_repeats,
            "optimize_repeats": tracer.optimize_repeats,
            "counters_returned": tracer.counters_returned,
        })

    def add_file(self, path: Path) -> None:
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            cols = {k: z[k] for k in z.files if k != "meta"}
        self._add(meta["names"], cols, meta)
        self.extra += meta["extra"]

    def _columns(self) -> dict[str, np.ndarray]:
        return {k: np.concatenate([p[k] for p in self.parts]) if self.parts
                else np.empty(0, dtype=np.int64) for k in COLUMNS}

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, self time (ms), median inclusive time (us), failures."""
        out: dict[str, dict] = {}
        cols = self._columns()
        for i, name in enumerate(self.names):
            mask = cols["name"] == i
            n = int(mask.sum())
            if not n:
                continue
            incl = cols["end"][mask] - cols["start"][mask]
            out[name] = {
                "calls": n,
                "busy_ms": float(cols["self"][mask].sum()) / 1e6,
                "p50_us": float(np.median(incl)) / 1e3,
                "failed": int(cols["failed"][mask].sum()),
            }
        return out

    def dump(self, path: Path) -> None:
        """Write every span plus the counters as one compressed file."""
        cols = self._columns()
        meta = {
            "names": self.names, "bindings": dict(self.bindings),
            "optimize_calls": self.optimize_calls, "optimize_repeats": self.optimize_repeats,
            "counters_returned": self.counters_returned, "extra": self.extra,
        }
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **cols)
