"""serve-cluster and fleet-autoscale: the serving simulators.

Each op is one whole simulation on one of a few seeds drawn from the
workload seed; its items are the simulated requests it generated, and
its wall time is the simulator call (construction, which generates the
arrivals, plus ``run``).  Simulated outcomes (latencies, shed counts)
are program output: they feed the checks and the per-layer counts,
never the speed metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from time import perf_counter
from typing import Dict, List

import numpy as np

import repro.bench.parallel as parallel
import repro.serving.cluster as cluster_module
import repro.serving.fleet as fleet_module
from repro.rng import make_rng
from repro.serving import (AutoscalePolicy, ClusterConfig, ClusterSimulator,
                           FleetSimConfig, FleetSimulator, ReplicaSpec,
                           default_chaos_faults, generate_fleet_arrivals)

from harness import Workload
from probe import Probe, patched
from spec import WORKLOADS

#: Distinct simulation seeds per run; op k runs seed k modulo this, so
#: later ops repeat earlier seeds and must repeat their summaries.
SIM_SEEDS = 4
#: Snapshots kept per traced run to measure their serialised size.
SNAPSHOTS_KEPT = 8
#: Timed repeats of the no-op ``parallel_map`` pool probe.
POOL_REPEATS = 5


def digest(summary: dict) -> str:
    """SHA-256 of a summary's canonical JSON."""
    text = json.dumps(summary, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _resolved(report) -> int:
    """Requests a live report has finished with (served or shed)."""
    return 0 if report is None else report.completed + report.total_shed


def _noop(item):
    return item


def _replica(label: str) -> ReplicaSpec:
    model, device = label.split("@")
    return ReplicaSpec(model=model, device=device)


def cluster_patches(probe: Probe) -> list:
    """Timing wrappers on the cluster layer's public calls."""
    run = ClusterSimulator.run
    counts, slices = probe.counts, probe.samples["slices"]
    snapshots = probe.samples["snapshots"]

    def timed_run(sim, *args, **kwargs):
        before = _resolved(sim.live_report)
        t0 = perf_counter()
        out = run(sim, *args, **kwargs)
        dt = perf_counter() - t0
        probe.seconds["serving.cluster.run"] += dt
        done = _resolved(sim.live_report) - before
        counts["resolved"] += done
        slices.append((dt, done))
        if out is not None:
            for key in ("generated", "admitted", "retries",
                        "timeout_reroutes", "requeued_on_crash",
                        "hedged", "hedge_wins"):
                counts[key] += getattr(out, key)
            for reason in ("deadline", "queue_full", "slo_burn"):
                counts[f"shed_{reason}"] += out.shed.get(reason, 0)
            counts["batches"] += len(out.batch_sizes)
            counts["batched"] += sum(out.batch_sizes)
        return out

    def keep(_args, _kwargs, snap):
        if len(snapshots) < SNAPSHOTS_KEPT:
            snapshots.append(snap)
        return {}

    return [
        (cluster_module, "generate_arrivals", probe.timed(
            "serving.request.arrivals", cluster_module.generate_arrivals)),
        (ClusterSimulator, "run", timed_run),
        (ClusterSimulator, "snapshot", probe.timed(
            "serving.cluster.snapshot", ClusterSimulator.snapshot,
            count=keep)),
        (ClusterSimulator, "restore", staticmethod(probe.timed(
            "serving.cluster.restore", ClusterSimulator.restore))),
    ]


def slice_stats(slices) -> Dict[str, float]:
    """p50 and max of wall microseconds per request finished, over the
    ``run`` calls that finished any."""
    us = [1e6 * dt / n for dt, n in slices if n > 0]
    if not us:
        return {"serving.cluster.slice_us_per_request_p50": 0.0,
                "serving.cluster.slice_us_per_request_max": 0.0}
    return {"serving.cluster.slice_us_per_request_p50":
            float(np.median(us)),
            "serving.cluster.slice_us_per_request_max": float(max(us))}


class _Simulation(Workload):
    """Shared op bookkeeping: seeds, summaries and their checks."""

    def __init__(self, name: str, seed: int) -> None:
        self.params = WORKLOADS[name]["params"]
        rng = make_rng(seed, "perfbench", name)
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1,
                                                   SIM_SEEDS)]
        self.digests: Dict[int, str] = {}
        self.repeated = False
        self.report = None

    def check(self, i: int) -> bool:
        k = i % SIM_SEEDS
        d = digest(self.report.summary())
        self.repeated = self.repeated or k in self.digests
        return self.report.conservation_holds() \
            and self.digests.setdefault(k, d) == d

    def _repeat_checks(self) -> int:
        """Rerun seed 0 when the window held no repeat of it."""
        if self.repeated:
            return 0
        self.op(0)
        return int(not self.check(0))

    def _cluster_counts(self, probe: Probe, ops: int) -> Dict[str, float]:
        c = probe.counts
        out = {
            "serving.request.arrivals_ms":
                probe.ms_per("serving.request.arrivals", ops),
            "serving.cluster.run_us_per_request":
                1e6 * probe.seconds["serving.cluster.run"]
                / max(c["resolved"], 1),
            "serving.cluster.admitted_ratio":
                c["admitted"] / max(c["generated"], 1),
            "serving.cluster.mean_batch":
                c["batched"] / max(c["batches"], 1),
            "serving.cluster.hedge_win_ratio":
                c["hedge_wins"] / max(c["hedged"], 1),
            "serving.cluster.summary_digest":
                float(int(self.digests.get(0, "0")[:12], 16)),
            "serving.cluster.snapshot_ms":
                probe.ms_per("serving.cluster.snapshot", ops),
            "serving.cluster.restore_ms":
                probe.ms_per("serving.cluster.restore", ops),
        }
        for key in ("shed_deadline", "shed_queue_full", "shed_slo_burn",
                    "retries", "timeout_reroutes", "requeued_on_crash",
                    "hedged"):
            out[f"serving.cluster.{key}"] = c[key] / ops
        snaps = probe.samples["snapshots"]
        out["serving.cluster.snapshot_kb"] = float(np.mean(
            [len(json.dumps(s)) / 1024.0 for s in snaps])) if snaps else 0.0
        return out


class ServeCluster(_Simulation):
    """A 4-replica cluster at heavy load under the chaos fault ladder."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        self.configs = [self._config(s, self.params["duration_s"])
                        for s in self.seeds]

    def _config(self, seed: int, duration_s: float) -> ClusterConfig:
        p = self.params
        return ClusterConfig(
            replicas=(_replica(p["replica"]),) * p["replicas"],
            num_streams=p["num_streams"], frame_rate=p["frame_rate"],
            duration_s=duration_s,
            faults=default_chaos_faults(duration_s, p["replicas"]),
            hedge_quantile=p["hedge_quantile"],
            arrival_jitter_ms=p["arrival_jitter_ms"], seed=seed)

    def setup(self) -> None:
        ClusterSimulator(self._config(self.seeds[0], 0.5)).run()

    def op(self, i: int) -> int:
        self.report = ClusterSimulator(self.configs[i % SIM_SEEDS]).run()
        return self.report.generated

    def final_checks(self) -> int:
        """A run paused half way, snapshotted, restored into a new
        simulator and resumed equals the uninterrupted run."""
        cfg = self.configs[0]
        sim = ClusterSimulator(cfg)
        paused = sim.run(pause_at_ms=500.0 * cfg.duration_s)
        restored = ClusterSimulator.restore(cfg, sim.snapshot())
        ok = paused is None \
            and digest(restored.resume().summary()) == self.digests.get(0)
        return int(not ok) + self._repeat_checks()

    def trace_patches(self, probe: Probe) -> list:
        return cluster_patches(probe)

    def layer_metrics(self, probe: Probe, ops: int) -> Dict[str, float]:
        out = self._cluster_counts(probe, ops)
        # Cost per request as load builds: the same simulation paused
        # at every simulated second.
        slices = Probe()
        cfg = self.configs[0]
        with patched(cluster_patches(slices)):
            sim = ClusterSimulator(cfg)
            k = 1
            while sim.run(pause_at_ms=1000.0 * k) is None:
                k += 1
        out.update(slice_stats(slices.samples["slices"]))
        return out


class Fleet(_Simulation):
    """Sharded, autoscaled fleet under a square-wave load ramp."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        p = self.params
        self.shards = p["shards"]
        self.configs = [self._config(s, p["duration_s"]) for s in self.seeds]
        self.scaling_actions: List[int] = []
        self.max_replicas = 0

    def _config(self, seed: int, duration_s: float) -> FleetSimConfig:
        p = self.params
        return FleetSimConfig(
            num_streams=p["num_streams"], num_cells=p["num_cells"],
            replicas_per_cell=(_replica(p["replica"]),),
            frame_rate=p["frame_rate"], duration_s=duration_s,
            ramp=tuple(p["ramp"]),
            arrival_jitter_ms=p["arrival_jitter_ms"],
            autoscale=AutoscalePolicy(),
            shards=self.shards, seed=seed)

    def setup(self) -> None:
        FleetSimulator(self._config(self.seeds[0], 1.0)).run()

    def begin_trace(self) -> None:
        # Cells run in-process so every cell-level call is timed; the
        # merged summary is shard-invariant (checked), and the process
        # pool's own cost is measured by bench.parallel.pool_ms.
        self.shards = 1

    def op(self, i: int) -> int:
        cfg = self.configs[i % SIM_SEEDS]
        if cfg.shards != self.shards:
            cfg = dataclasses.replace(cfg, shards=self.shards)
        self.report = FleetSimulator(cfg).run()
        return self.report.generated

    def check(self, i: int) -> bool:
        events = self.report.autoscale_events
        self.scaling_actions.append(
            sum(e["action"] != "hold" for e in events))
        self.max_replicas = max(self.max_replicas,
                                self.report.max_replicas_per_cell)
        return super().check(i)

    def final_checks(self) -> int:
        """The merged summary is identical at 1 and 2 shards."""
        other = 1 if self.shards != 1 else self.params["shards"]
        cfg = dataclasses.replace(self.configs[0], shards=other)
        ok = digest(FleetSimulator(cfg).run().summary()) \
            == self.digests.get(0)
        return int(not ok) + self._repeat_checks()

    def trace_patches(self, probe: Probe) -> list:
        return cluster_patches(probe) + [
            (fleet_module, "cell_arrivals", probe.timed(
                "serving.fleet.cell_arrivals", fleet_module.cell_arrivals,
                count=lambda a, k, out: {"arrivals_kept": len(out)})),
            (fleet_module, "merge_cell_reports", probe.timed(
                "serving.fleet.merge", fleet_module.merge_cell_reports)),
            (parallel, "parallel_map", probe.timed(
                "bench.parallel.map", parallel.parallel_map,
                count=lambda a, k, out: {"parallel_items": len(a[1])})),
        ]

    def layer_metrics(self, probe: Probe, ops: int) -> Dict[str, float]:
        out = self._cluster_counts(probe, ops)
        out.update(slice_stats(probe.samples["slices"]))
        c = probe.counts
        arrival_calls = probe.calls["serving.fleet.cell_arrivals"]
        fleet_total = len(generate_fleet_arrivals(self.configs[0]))
        cells = self.params["num_cells"]
        pool = []
        for _ in range(POOL_REPEATS):
            t0 = perf_counter()
            parallel.parallel_map(_noop, list(range(cells)),
                                  workers=self.params["shards"])
            pool.append(perf_counter() - t0)
        out.update({
            "serving.fleet.cell_arrivals_ms":
                probe.ms_per("serving.fleet.cell_arrivals", ops),
            "serving.fleet.arrivals_kept_ratio":
                c["arrivals_kept"] / max(arrival_calls * fleet_total, 1),
            "serving.fleet.merge_ms":
                probe.ms_per("serving.fleet.merge", ops),
            "serving.fleet.autoscale_events":
                float(np.mean(self.scaling_actions)),
            "serving.fleet.max_replicas_per_cell": float(self.max_replicas),
            "bench.parallel.pool_ms": 1e3 * float(np.median(pool)),
            "bench.parallel.items":
                c["parallel_items"]
                / max(probe.calls["bench.parallel.map"], 1),
        })
        return out
