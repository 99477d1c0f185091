"""Measurement loop shared by every workload.

A workload object supplies:

* ``setup()`` — the program's own set-up (model build, ``fuse()``,
  warm-up forwards, or a warm-up simulation); timed and repeated
  :data:`SETUP_REPEATS` times, the median reported;
* ``op(i)`` — one operation, returning the items it processed; timed;
* ``check(i)`` — a cheap check of op ``i``'s output, run untimed right
  after it;
* ``final_checks()`` — the expensive checks (unfused reference,
  determinism replays, snapshot/restore, shard invariance), run after
  the measured window; returns the number that failed;
* ``trace_patches(probe)`` and ``layer_metrics(probe, ops)`` for the
  traced run, and ``begin_trace()``, called once before its ops.

The untraced run measures ops back to back for ``seconds`` and samples
the reference kernel of :mod:`calibrate` along the way.  The traced
run alternates blocks of untraced and traced ops over the same window,
so ``obs.trace_overhead_ratio`` compares neighbours, not a drifting
machine's first and second half.
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.errors import ReproError

from probe import Probe, patched

SETUP_REPEATS = 3
#: Blocks a run is cut into for the throughput median.
BLOCKS = 10
#: Alternating untraced/traced blocks of the traced run; each holds at
#: least one op, so a traced simulator run lasts at least this many.
TRACE_BLOCKS = 6


class Workload:
    """Defaults for the optional parts of a workload."""

    def begin_trace(self) -> None:
        """Called once before the traced run's first op."""


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload) -> float:
    """Median wall seconds of :data:`SETUP_REPEATS` set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    return float(np.median(times))


class Tally:
    """Per-op wall times, items and outcomes of one run."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.items: List[int] = []
        self.failed = 0

    def run_op(self, workload, i: int) -> float:
        t0 = perf_counter()
        try:
            items = workload.op(i)
        except ReproError as exc:
            print(f"perfbench: op {i} failed: {exc!r}", file=sys.stderr)
            items = None
        dt = perf_counter() - t0
        if items is None or not workload.check(i):
            self.failed += 1
            items = 0
        self.seconds.append(dt)
        self.items.append(items)
        return dt

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def block_throughput(seconds: List[float], items: List[int]) -> float:
    """Median over :data:`BLOCKS` consecutive blocks of items/second."""
    n = len(seconds)
    size = max(1, -(-n // BLOCKS))
    rates = [sum(items[s:s + size]) / sum(seconds[s:s + size])
             for s in range(0, n, size)]
    return float(np.median(rates))


def measure(workload, seconds: float, meter) -> Dict[str, float]:
    """Untraced run: ops back to back for ``seconds``, sampling the
    reference kernel (``meter``) between ops every tenth of the run."""
    tally = Tally()
    deadline = perf_counter() + seconds
    next_sample = 0.0
    i = 0
    while i == 0 or perf_counter() < deadline:
        if perf_counter() >= next_sample:
            meter.sample()
            next_sample = perf_counter() + seconds / BLOCKS
        tally.run_op(workload, i)
        i += 1
    tally.failed += workload.final_checks()
    ms = 1e3 * np.asarray(tally.seconds)
    return {
        "op_ms": {f"p{q}": float(np.percentile(ms, q))
                  for q in (50, 90, 99)},
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "items_per_s": block_throughput(tally.seconds, tally.items),
    }


def measure_traced(workload, seconds: float) -> Dict[str, float]:
    """Traced run: alternating untraced and traced blocks of ops."""
    tally = Tally()
    probe = Probe()
    plain: List[float] = []
    traced: List[float] = []
    block_s = seconds / TRACE_BLOCKS
    workload.begin_trace()
    i = 0
    for block in range(TRACE_BLOCKS):
        on = block % 2 == 1
        sink = traced if on else plain
        with patched(workload.trace_patches(probe) if on else ()):
            end = perf_counter() + block_s
            first = True
            while first or perf_counter() < end:
                sink.append(tally.run_op(workload, i))
                i += 1
                first = False
    tally.failed += workload.final_checks()
    metrics = workload.layer_metrics(probe, len(traced))
    metrics["obs.trace_overhead_ratio"] = \
        float(np.median(traced) / np.median(plain))
    metrics["attempted"] = tally.attempted
    metrics["failed"] = min(tally.failed, tally.attempted)
    return metrics
