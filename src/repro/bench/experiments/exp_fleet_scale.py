"""Experiment: sharded fleet serving with SLO-burn autoscaling.

Runs the Ocularone-style fleet — many drone streams partitioned into
cells of Jetson-class replica pools — through
:mod:`repro.serving.fleet` and machine-checks the scaling story:

* **shard-count invariance** — the merged fleet metrics (p99,
  availability, goodput, conservation counters) are byte-identical
  whether the cells run in one process or fan out over 4 worker
  processes.  The autoscaled run always advances its cells in one
  process, so its 1- vs 4-shard check pins that ``shards`` never
  reaches the answer.  Sharding is an execution detail, never an
  answer detail.
* **the partition admits parallelism** — the stable-hash cell
  partition is balanced enough that the work-balance speedup bound
  (total work over the largest cell's work) clears 3× at 4 cells.
  The bound is a count, not a timing: wall-clock speed is measured
  only by ``perfbench/``, never in a golden.
* **autoscaling rides the ramp** — under a 3× square-wave load ramp
  the burn-rate autoscaler grows each cell's pool to the static-peak
  size for the peak and drains it afterwards without flapping,
  shedding less and serving more than static minimal provisioning at
  fewer replica-seconds than static peak provisioning.
* **determinism** — an independent rerun of the autoscaled fleet is
  byte-identical, scaling decisions included.
"""

from __future__ import annotations

import json

from ...serving import (AutoscalePolicy, FleetSimConfig,
                        FleetSimulator, ReplicaSpec)
from ..runner import ExperimentResult

SEED = 7
#: One Jetson Orin Nano per cell to start — the device whose measured
#: capacity (one pool holds the baseline, collapses at 3×) sets up the
#: scaling story.
REPLICA = ReplicaSpec("yolov8-n", "orin-nano")
NUM_STREAMS = 18
NUM_CELLS = 4
FRAME_RATE = 5.0
DURATION_S = 9.0
DEADLINE_MS = 100.0
#: 3× square wave: 3 s calm, 3 s peak, 3 s calm.
RAMP = (1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0)
POLICY = AutoscalePolicy(epoch_s=1.0, min_replicas=1, max_replicas=3)
SHARDS = 4


def _config(**extra) -> FleetSimConfig:
    base = dict(num_streams=NUM_STREAMS, num_cells=NUM_CELLS,
                frame_rate=FRAME_RATE, duration_s=DURATION_S,
                deadline_ms=DEADLINE_MS, ramp=RAMP, seed=SEED,
                replicas_per_cell=(REPLICA,))
    base.update(extra)
    return FleetSimConfig(**base)


def _blob(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def _row(label: str, summary: dict) -> list:
    return [label, summary["num_cells"],
            summary["max_replicas_per_cell"],
            summary["generated"], summary["completed"],
            sum(summary["shed"].values()), summary["lost_requests"],
            summary["p99_ms"], summary["goodput_fps"],
            summary["replica_seconds"]]


def run() -> ExperimentResult:
    static_min = FleetSimulator(_config()).run()
    static_peak = FleetSimulator(_config(
        replicas_per_cell=(REPLICA,) * POLICY.max_replicas)).run()
    auto = FleetSimulator(_config(autoscale=POLICY)).run()
    rows = [_row("static-min", static_min.summary()),
            _row("static-peak", static_peak.summary()),
            _row("autoscaled", auto.summary())]

    # Shard-count invariance: rerun flat and autoscaled fleets over 4
    # worker processes and byte-compare the merged summaries.
    flat_sharded = FleetSimulator(_config(shards=SHARDS)).run()
    auto_sharded = FleetSimulator(
        _config(autoscale=POLICY, shards=SHARDS)).run()
    flat_invariant = _blob(static_min.summary()) \
        == _blob(flat_sharded.summary())
    auto_invariant = _blob(auto.summary()) \
        == _blob(auto_sharded.summary())

    # Work-balance bound on parallel speedup: total work over the
    # largest cell's work (deterministic).
    per_cell_work = [v["generated"]
                     for v in static_min.per_cell.values()]
    speedup_bound = sum(per_cell_work) / max(per_cell_work)

    # Determinism: an independent autoscaled rerun, decisions included.
    rerun = FleetSimulator(_config(autoscale=POLICY)).run()
    deterministic = _blob(rerun.summary()) == _blob(auto.summary())

    events = auto.autoscale_events
    actions = [e["action"] for e in events]
    final_count = events[-1]["replicas_per_cell"] if events else 0
    reports = (static_min, static_peak, auto)
    claims = {
        "every fleet run conserves requests fleet-wide":
            all(r.conservation_holds() for r in reports),
        "merged fleet metrics are byte-identical for 1 vs 4 shards":
            flat_invariant,
        "autoscaled metrics and decisions are byte-identical for "
        "1 vs 4 shards": auto_invariant,
        "the cell partition admits a >= 3x parallel speedup bound "
        "at 4 cells": speedup_bound >= 3.0,
        "static peak provisioning holds the deadline SLO through "
        "the ramp": static_peak.violations == 0
            and static_peak.total_shed == 0,
        "the autoscaler grows the pool to the peak size and drains "
        "it afterwards": auto.max_replicas_per_cell
            == POLICY.max_replicas
            and final_count < POLICY.max_replicas,
        "the autoscaler never flaps (no add after a drain)":
            "add" not in actions[len(actions)
                                 - actions[::-1].index("drain"):]
            if "drain" in actions else True,
        "autoscaling sheds less and serves more than static "
        "minimal provisioning":
            auto.total_shed < static_min.total_shed
            and auto.goodput_fps > static_min.goodput_fps,
        "autoscaling costs fewer replica-seconds than static peak "
        "provisioning": auto.replica_seconds
            < static_peak.replica_seconds,
        "no fleet run loses an admitted request":
            all(r.lost_requests == 0 for r in reports),
        "autoscaled fleet reruns are byte-identical": deterministic,
    }
    return ExperimentResult(
        experiment_id="exp_fleet_scale",
        title="Sharded fleet serving with SLO-burn autoscaling",
        headers=["Provisioning", "Cells", "Max replicas/cell",
                 "Generated", "Completed", "Shed", "Lost", "p99 (ms)",
                 "Goodput (fps)", "Replica-seconds"],
        rows=rows,
        claims=claims,
        paper_reference={"fleet_lost_requests": 0.0,
                         "shard_divergence": 0.0},
        measured={"fleet_lost_requests": float(auto.lost_requests),
                  "shard_divergence": 0.0 if auto_invariant else 1.0,
                  "speedup_bound": speedup_bound,
                  "static_min_shed": float(static_min.total_shed),
                  "autoscaled_shed": float(auto.total_shed),
                  "static_min_goodput_fps": static_min.goodput_fps,
                  "autoscaled_goodput_fps": auto.goodput_fps,
                  "static_peak_replica_seconds":
                      static_peak.replica_seconds,
                  "autoscaled_replica_seconds": auto.replica_seconds,
                  "autoscaled_p99_ms": auto.summary()["p99_ms"],
                  "static_peak_p99_ms":
                      static_peak.summary()["p99_ms"]},
    )
