"""Shared pieces of the benchmark: locating the package under test, timing
statistics, child processes and the per-run tally of attempts and failures."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark runs from the root of a checkout; the package is imported
# from that checkout's source tree, never from an installed copy.
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"

CHILD_TIMEOUT_S = 60.0
# Timings are reported at this reference speed: each one is multiplied by
# REFERENCE_S over the reference kernel's time measured around it.
REFERENCE_S = 0.020
# Highest percentile first; the tail is the first one with >= 10 samples beyond.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class MissingSource(RuntimeError):
    """The checkout does not hold the package sources."""


def require_source() -> None:
    """Put the checkout's ``src`` first on the import path, or refuse to run."""
    if not (SRC / "dpnego" / "__init__.py").is_file():
        raise MissingSource(f"no package sources under {SRC}")
    if not (ROOT / "data").is_dir():
        raise MissingSource(f"no data directory under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def reference_kernel() -> int:
    """A fixed mix of the interpreter work the package does (dicts, string
    formatting, JSON, SHA-256, small numpy reductions), independent of the
    package itself. Its time tracks how fast the machine runs right now."""
    import numpy as np

    acc, table = 0, {}
    for i in range(3000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
        doc = json.dumps({"a": i, "b": [i, i + 1], "c": key}, sort_keys=True)
        acc ^= int(hashlib.sha256(doc.encode()).hexdigest()[:8], 16)
    arr = np.arange(2000, dtype=np.float64)
    for _ in range(200):
        acc += int(np.argmax(np.sqrt(arr) - 0.01 * arr))
    return acc


def reference_s() -> float:
    """Median time of three reference kernels."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so that the
    reference readings and the work they scale share that CPU's contention."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def to_reference(ref_before: float, ref_after: float) -> float:
    """Factor that brings a time measured between two reference readings to
    the reference speed."""
    return REFERENCE_S / ((ref_before + ref_after) / 2)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100), at least 1
    return ordered[int(rank) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it,
    as (value, percentile). Falls back to the maximum for tiny samples."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            return percentile(samples, q), q
    return max(samples), 100.0


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], out_dir: Path, cwd: Path = ROOT) -> ChildResult:
    """Run one child to completion, timing its wall clock and reading its own
    peak memory from wait4. A child that outlives the timeout is killed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the first few
    failure messages kept for the report."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(message)
        return condition


def repeat_rounds(seconds: float, max_rounds: int | None, run_one, m: "Measurement") -> None:
    """Call ``run_one()`` at least once, and again while the next round, if
    as long as the last one, still ends within ``seconds``. The reference
    kernel runs between rounds; each round's figures are scaled to
    REFERENCE_S by the mean of the reference times on either side of it,
    unless the round recorded finer scale factors of its own."""
    deadline = time.perf_counter() + seconds
    done, last = 0, 0.0
    ref_before = reference_s()
    while done == 0 or (time.perf_counter() + last <= deadline
                        and (max_rounds is None or done < max_rounds)):
        t0 = time.perf_counter()
        run_one()
        ref_after = reference_s()
        scale = to_reference(ref_before, ref_after)
        m.round_scale += [scale] * (len(m.round_wall_s) - len(m.round_scale))
        m.sample_scale += [scale] * (len(m.decision_ms) - len(m.sample_scale))
        ref_before = ref_after
        last = time.perf_counter() - t0
        done += 1


@dataclass
class Measurement:
    """What one pass of a workload produced.

    A round is a fixed amount of work of one workload (a block of requests, a
    whole suite, a fixed sequence of commands). ``decision_ms`` holds one
    sample per decision where decisions are timed one by one, and one per
    round (its wall time over its decisions) where they are not. The scale
    lists hold, per round and per sample, the factor that brings a time
    measured then to the reference speed.
    """

    round_wall_s: list[float] = field(default_factory=list)
    round_decisions: list[int] = field(default_factory=list)
    decision_ms: list[float] = field(default_factory=list)
    round_scale: list[float] = field(default_factory=list)
    sample_scale: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    mix: dict = field(default_factory=dict)

    def add_round(self, wall_s: float, decisions: int) -> None:
        self.round_wall_s.append(wall_s)
        self.round_decisions.append(decisions)

    def count(self, key: str, n: int = 1) -> None:
        self.mix[key] = self.mix.get(key, 0) + n

    def merge(self, other: "Measurement") -> None:
        self.round_wall_s += other.round_wall_s
        self.round_decisions += other.round_decisions
        self.decision_ms += other.decision_ms
        self.round_scale += other.round_scale
        self.sample_scale += other.sample_scale
        for key, values in other.extra.items():
            if isinstance(values, list):
                self.extra.setdefault(key, []).extend(values)
            else:
                self.extra[key] = values
        for key, n in other.mix.items():
            self.count(key, n)

    @property
    def decisions(self) -> int:
        return sum(self.round_decisions)

    def rate(self, scaled: bool = True) -> float:
        """Decisions per second of timed wall clock."""
        scales = self.round_scale if scaled else [1.0] * len(self.round_wall_s)
        return self.decisions / sum(w * k for w, k in zip(self.round_wall_s, scales))

    def p50_ms(self, scaled: bool = True) -> float:
        if not scaled:
            return median(self.decision_ms)
        return median([t * k for t, k in zip(self.decision_ms, self.sample_scale)])
