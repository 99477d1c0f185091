"""Cross-process sharded fleet serving with SLO-burn autoscaling.

The cluster simulator (:mod:`repro.serving.cluster`) proves out one
replicated pool; a city-scale fleet needs many pools running in
parallel *without* the parallelism changing the answer.  This module
partitions the fleet deterministically and makes shard count a pure
execution detail:

* **cells** — the unit of simulation.  Every stream maps to one of
  ``num_cells`` cells by a stable hash of its id (CRC32, never
  Python's salted ``hash()``), and each cell owns its own replica
  pool, fault stream, and :class:`~repro.serving.cluster.
  ClusterSimulator` event loop.  Cells are atomic and deterministic:
  the same cell produces byte-identical results wherever it runs.
* **shards** — the unit of execution.  ``shards=N`` fans a flat
  run's cells out over ``N`` ``parallel_map`` worker processes;
  ``shards=1`` runs them in-process.  An autoscaled run advances its
  cells in lock-step epochs in this process whatever ``shards`` says.
  Because cells never interact and the merge below is canonical, the
  merged fleet metrics are byte-identical for 1 vs N shards — the
  machine-checked *shard-count invariance* claim of
  ``exp_fleet_scale``.
* **merge algebra** — per-cell results are merged as a *keyed set*,
  folded in sorted-cell order: counters add, latency distributions
  merge through :class:`~repro.obs.sketch.QuantileSketch` (whose
  merge is associative/commutative up to observable state), and the
  canonical fold order pins even the float-summation bytes.
* **autoscaling** — an :class:`Autoscaler` replays merged completion
  telemetry through :mod:`repro.obs.slo` fast/slow burn windows once
  per scaling epoch and adds or drains one replica per cell between
  epochs (drain rides :meth:`ClusterSimulator.drain_replica`, which
  re-homes queued work without spending retry budgets).  Each cell's
  simulator is built once per run and advanced in place, epoch after
  epoch.  Decisions are a pure function of merged telemetry, so they
  too are identical regardless of shard count.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import BenchmarkError, ConfigError
from ..faults.server import CellFault, cell_fault_plan
from ..obs.sketch import QuantileSketch
from ..obs.slo import SloTracker
from ..obs.tracer import current_tracer
from ..rng import seed_sequence
from ..units import fps_to_period_ms
from .admission import AdmissionPolicy, serving_slo_policy
from .cluster import (SHED_REASONS, ClusterConfig, ClusterReport,
                      ClusterSimulator, ReplicaSpec, RouterPolicy)
from .request import Request, generate_arrivals

#: Quantiles surfaced in the fleet summary.
_SUMMARY_QUANTILES = (0.50, 0.99)


# -- partitioning -------------------------------------------------------------


def stream_cell(stream: int, num_cells: int) -> int:
    """The cell owning ``stream``: a stable CRC32 hash of the id.

    Stable across processes and Python invocations (unlike the salted
    builtin ``hash``), so every worker agrees on the partition.
    """
    if num_cells < 1:
        raise ConfigError(f"need >= 1 cell, got {num_cells}")
    if stream < 0:
        raise ConfigError(f"negative stream id {stream}")
    return zlib.crc32(f"stream-{stream}".encode("utf-8")) % num_cells


def cell_streams(num_streams: int, num_cells: int
                 ) -> Dict[int, List[int]]:
    """Partition ``range(num_streams)`` into cells (all cells keyed,
    possibly with empty lists)."""
    out: Dict[int, List[int]] = {c: [] for c in range(num_cells)}
    for s in range(num_streams):
        out[stream_cell(s, num_cells)].append(s)
    return out


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class AutoscalePolicy:
    """Epoch-synchronous scaling rule driven by SLO burn rates.

    Scale **up** by one replica per cell when the fleet-wide latency
    objective is burning (fast *and* slow window over threshold — the
    multi-window condition from :mod:`repro.obs.slo`).  Scale **down**
    by one only after ``cooldown_epochs`` consecutive calm epochs with
    pool utilisation below ``scale_down_util`` — the hysteresis that
    keeps a square-wave load from flapping the pool.
    """

    epoch_s: float = 1.0
    min_replicas: int = 1
    max_replicas: int = 3
    target: float = 0.99
    fast_s: float = 1.0
    slow_s: float = 5.0
    scale_down_util: float = 0.35
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ConfigError("epoch must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ConfigError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{self.min_replicas}, {self.max_replicas}]")
        if not 0.0 < self.target < 1.0:
            raise ConfigError("target must be in (0, 1)")
        if not 0.0 < self.fast_s < self.slow_s:
            raise ConfigError("need 0 < fast_s < slow_s")
        if not 0.0 < self.scale_down_util < 1.0:
            raise ConfigError("scale_down_util must be in (0, 1)")
        if self.cooldown_epochs < 1:
            raise ConfigError("cooldown_epochs must be >= 1")


@dataclass(frozen=True)
class FleetSimConfig:
    """Workload, partitioning, and scaling knobs for one fleet run.

    ``shards`` is *only* the worker-process count of a run without
    ``autoscale`` — it never appears in the simulation or the merged
    metrics, which is what makes shard-count invariance hold by
    construction.  ``ramp`` divides the
    run into equal segments with per-segment arrival-rate multipliers
    (the load ramp the autoscaler is judged against).
    """

    num_streams: int = 24
    num_cells: int = 4
    replicas_per_cell: Tuple[ReplicaSpec, ...] = (ReplicaSpec(),)
    frame_rate: float = 10.0
    duration_s: float = 10.0
    deadline_ms: Optional[float] = None
    deadline_slack: float = 1.0
    router: RouterPolicy = RouterPolicy.LEAST_LOADED
    policy: AdmissionPolicy = AdmissionPolicy.DEADLINE
    max_retries: int = 4
    arrival_jitter_ms: float = 0.0
    ramp: Tuple[float, ...] = (1.0,)
    faults: Tuple[CellFault, ...] = ()
    autoscale: Optional[AutoscalePolicy] = None
    shards: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.router, str):
            object.__setattr__(self, "router",
                               RouterPolicy(self.router))
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy",
                               AdmissionPolicy(self.policy))
        object.__setattr__(self, "replicas_per_cell",
                           tuple(self.replicas_per_cell))
        object.__setattr__(self, "ramp",
                           tuple(float(m) for m in self.ramp))
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.num_streams < 1:
            raise ConfigError("need at least one stream")
        if self.num_cells < 1:
            raise ConfigError("need at least one cell")
        if not self.replicas_per_cell:
            raise ConfigError("need at least one replica per cell")
        for spec in self.replicas_per_cell:
            if not isinstance(spec, ReplicaSpec):
                raise ConfigError(f"not a ReplicaSpec: {spec!r}")
        if self.frame_rate <= 0 or self.duration_s <= 0:
            raise ConfigError("bad workload parameters")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        if self.deadline_slack <= 0:
            raise ConfigError("deadline slack must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.arrival_jitter_ms < 0:
            raise ConfigError("arrival jitter must be non-negative")
        if not self.ramp or any(m <= 0 for m in self.ramp):
            raise ConfigError("ramp multipliers must be positive")
        if self.shards < 1:
            raise ConfigError(f"need >= 1 shard, got {self.shards}")
        # Validates cell and replica coordinates of every fault.
        cell_fault_plan(self.faults, self.num_cells,
                        len(self.replicas_per_cell))

    @property
    def resolved_deadline_ms(self) -> float:
        if self.deadline_ms is not None:
            return self.deadline_ms
        return fps_to_period_ms(self.frame_rate) * self.deadline_slack


# -- fleet arrival schedule ---------------------------------------------------


def _schedule(cfg: FleetSimConfig,
              streams: Optional[Sequence[int]] = None) -> List[Request]:
    """The fleet schedule restricted to ``streams`` (all if None)."""
    return generate_arrivals(
        cfg.num_streams, cfg.frame_rate, cfg.duration_s,
        cfg.resolved_deadline_ms, jitter_ms=cfg.arrival_jitter_ms,
        seed=cfg.seed, ramp=cfg.ramp, streams=streams)


def generate_fleet_arrivals(cfg: FleetSimConfig) -> List[Request]:
    """The full fleet arrival schedule — a pure function of the
    workload parameters and seed, identical in every worker.

    Without a ramp this is exactly :func:`~repro.serving.request.
    generate_arrivals`; with one, the run splits into equal segments
    whose per-stream arrival rate is ``frame_rate × multiplier``,
    phase-staggered the same way within each segment.
    """
    return _schedule(cfg)


def cell_arrivals(cfg: FleetSimConfig, cell: int) -> List[Request]:
    """The slice of the fleet schedule owned by ``cell``, generated
    directly from the cell's own streams."""
    streams = cell_streams(cfg.num_streams, cfg.num_cells)
    return _schedule(cfg, streams.get(cell, []))


def active_cells(cfg: FleetSimConfig) -> List[int]:
    """Cells that own at least one stream, in canonical order."""
    return sorted(
        c for c, streams in
        cell_streams(cfg.num_streams, cfg.num_cells).items()
        if streams)


def _cell_seed(cfg: FleetSimConfig, cell: int) -> int:
    """Per-cell root seed, derived so cell fault/downtime RNG streams
    are mutually independent yet a pure function of (seed, cell)."""
    return int(seed_sequence(cfg.seed, "fleet-cell",
                             cell).generate_state(1)[0])


def cluster_config_for_cell(cfg: FleetSimConfig,
                            cell: int) -> ClusterConfig:
    """The cell's cluster config (arrivals are passed separately)."""
    streams = cell_streams(cfg.num_streams, cfg.num_cells)[cell]
    if not streams:
        raise ConfigError(f"cell {cell} owns no streams")
    plan = cell_fault_plan(cfg.faults, cfg.num_cells,
                           len(cfg.replicas_per_cell))
    return ClusterConfig(
        replicas=cfg.replicas_per_cell,
        num_streams=len(streams),
        frame_rate=cfg.frame_rate,
        duration_s=cfg.duration_s,
        deadline_ms=cfg.resolved_deadline_ms,
        router=cfg.router,
        policy=cfg.policy,
        max_retries=cfg.max_retries,
        faults=plan.get(cell, ()),
        seed=_cell_seed(cfg, cell))


def make_cell_simulator(cfg: FleetSimConfig,
                        cell: int) -> ClusterSimulator:
    """A ready-to-run simulator for one cell of the fleet."""
    return ClusterSimulator(cluster_config_for_cell(cfg, cell),
                            arrivals=cell_arrivals(cfg, cell))


# -- merge algebra ------------------------------------------------------------


@dataclass
class FleetReport:
    """Canonical merge of per-cell :class:`ClusterReport` results.

    Built only through :func:`merge_cell_reports`, which folds cells
    in sorted-id order — the merge is defined on the *keyed set* of
    cell results, so permutations and shard partitions of the inputs
    cannot change a byte of the output.
    """

    num_cells: int
    num_streams: int
    deadline_ms: float
    router: str
    cells: List[int] = field(default_factory=list)
    generated: int = 0
    admitted: int = 0
    completed: int = 0
    violations: int = 0
    shed: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in SHED_REASONS})
    requeued_on_crash: int = 0
    retries: int = 0
    timeout_reroutes: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    crashes: int = 0
    makespan_ms: float = 0.0
    sketch: QuantileSketch = field(default_factory=QuantileSketch)
    per_cell: Dict[int, dict] = field(default_factory=dict)
    replica_seconds: float = 0.0
    max_replicas_per_cell: int = 0
    autoscale_events: List[dict] = field(default_factory=list)

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def lost_requests(self) -> int:
        return self.shed.get("retries_exhausted", 0)

    @property
    def violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.violations / self.completed

    @property
    def goodput_fps(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return 1000.0 * (self.completed - self.violations) \
            / self.makespan_ms

    def min_availability(self) -> float:
        return min((v["min_availability"]
                    for v in self.per_cell.values()), default=1.0)

    def conservation_holds(self) -> bool:
        """Fleet-wide request conservation (same contract as the
        per-cell :meth:`ClusterReport.conservation_holds`)."""
        return (self.generated == self.completed + self.total_shed
                and self.admitted == self.completed
                + self.lost_requests)

    def summary(self) -> Dict:
        """JSON-able merged metrics.  Deliberately excludes the shard
        count: two runs differing only in ``shards`` must produce
        byte-identical summaries."""
        out: Dict = {
            "num_cells": self.num_cells,
            "num_streams": self.num_streams,
            "cells": list(self.cells),
            "router": self.router,
            "deadline_ms": self.deadline_ms,
            "generated": self.generated,
            "admitted": self.admitted,
            "completed": self.completed,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "shed": {k: v for k, v in sorted(self.shed.items())},
            "lost_requests": self.lost_requests,
            "goodput_fps": self.goodput_fps,
            "min_availability": self.min_availability(),
            "crashes": self.crashes,
            "requeued_on_crash": self.requeued_on_crash,
            "retries": self.retries,
            "timeout_reroutes": self.timeout_reroutes,
            "hedged": self.hedged,
            "hedge_wins": self.hedge_wins,
            "makespan_ms": self.makespan_ms,
            "replica_seconds": self.replica_seconds,
            "max_replicas_per_cell": self.max_replicas_per_cell,
            "autoscale_events": list(self.autoscale_events),
            "per_cell": {str(c): dict(v) for c, v in
                         sorted(self.per_cell.items())},
        }
        for q in _SUMMARY_QUANTILES:
            key = f"p{int(q * 100)}_ms"
            out[key] = self.sketch.quantile(q) if self.sketch.count \
                else None
        return out


def merge_cell_sketches(
        sketches: Dict[int, QuantileSketch]) -> QuantileSketch:
    """Fold per-cell sketches in sorted-cell order.

    Sorting first is the whole algebra: ``QuantileSketch.merge`` is
    associative and commutative up to observable state, but float
    summation is not bit-associative — so the merge is defined on the
    *keyed set* of cell results and always folds in one canonical
    order.  Workers ship raw per-cell results (never partial merges),
    making the fold independent of permutation, partitioning, and
    scheduling of the inputs: byte-identical for any shard count.
    """
    out = QuantileSketch()
    for cell in sorted(sketches):
        out = out.merge(sketches[cell])
    return out


def merge_cell_reports(
        cfg: FleetSimConfig,
        reports: Mapping[int, Union[ClusterReport, dict]]) -> FleetReport:
    """Merge per-cell reports into one :class:`FleetReport`.

    Accepts either live :class:`ClusterReport` objects or their
    ``asdict`` payloads (the cross-process form).  Cells are folded in
    sorted order regardless of dict insertion order.
    """
    with current_tracer().span("fleet.merge", cells=len(reports)):
        return _merge_cell_reports(cfg, reports)


def _merge_cell_reports(
        cfg: FleetSimConfig,
        reports: Mapping[int, Union[ClusterReport, dict]]) -> FleetReport:
    partition = cell_streams(cfg.num_streams, cfg.num_cells)
    fleet = FleetReport(
        num_cells=cfg.num_cells, num_streams=cfg.num_streams,
        deadline_ms=cfg.resolved_deadline_ms,
        router=cfg.router.value, cells=sorted(reports))
    for cell in sorted(reports):
        raw = reports[cell]
        rep = raw if isinstance(raw, ClusterReport) \
            else ClusterReport(**raw)
        fleet.generated += rep.generated
        fleet.admitted += rep.admitted
        fleet.completed += rep.completed
        fleet.violations += rep.violations
        for reason, n in rep.shed.items():
            fleet.shed[reason] = fleet.shed.get(reason, 0) + n
        fleet.requeued_on_crash += rep.requeued_on_crash
        fleet.retries += rep.retries
        fleet.timeout_reroutes += rep.timeout_reroutes
        fleet.hedged += rep.hedged
        fleet.hedge_wins += rep.hedge_wins
        fleet.crashes += sum(rep.replica_crashes.values())
        fleet.makespan_ms = max(fleet.makespan_ms, rep.makespan_ms)
        cell_sketch = QuantileSketch()
        for v in rep.latencies_ms:
            cell_sketch.observe(float(v))
        fleet.sketch = fleet.sketch.merge(cell_sketch)
        fleet.per_cell[cell] = {
            "streams": len(partition[cell]),
            "generated": rep.generated,
            "completed": rep.completed,
            "lost_requests": rep.lost_requests,
            "crashes": sum(rep.replica_crashes.values()),
            "min_availability": rep.min_availability(),
            "p99_ms": cell_sketch.quantile(0.99)
            if cell_sketch.count else None,
        }
    return fleet


# -- autoscaler ---------------------------------------------------------------


class Autoscaler:
    """Replays merged fleet completions through the SLO burn windows
    and emits one scaling decision per epoch.

    Pure function of the observation stream: feeding the same merged
    telemetry in the same order always yields the same decisions —
    which, combined with the canonical merge, makes scaling behaviour
    shard-count invariant.
    """

    def __init__(self, policy: AutoscalePolicy,
                 deadline_ms: float) -> None:
        if deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        self.policy = policy
        self.tracker = SloTracker(serving_slo_policy(
            deadline_ms, target=policy.target,
            fast_s=policy.fast_s, slow_s=policy.slow_s))
        self._calm = 0
        self.decisions: List[dict] = []

    def observe(self, latency_ms: float, now_s: float) -> None:
        """Feed one merged completion (must arrive time-ordered)."""
        self.tracker.record_latency(latency_ms, now_s)

    def observe_shed(self, count: int, now_s: float) -> None:
        """Feed requests shed this epoch as latency-SLO violations.

        A shed request is an infinite-latency outcome: admission
        control turning load away must burn the same error budget a
        deadline miss does, or door-shedding would mask overload from
        the scaler entirely.
        """
        for _ in range(count):
            self.tracker.record_event("latency_e2e", False, now_s)

    def decide(self, now_s: float, replicas_per_cell: int,
               utilization: float) -> int:
        """The per-cell replica delta for the next epoch: +1, 0, -1.

        Scale-up needs the burn alert (fast AND slow window over
        threshold); scale-down needs ``cooldown_epochs`` consecutive
        calm epochs *and* utilisation below the policy floor.
        """
        pol = self.policy
        status = self.tracker.status(now_s)
        burning = status.burning
        delta = 0
        if burning:
            self._calm = 0
            if replicas_per_cell < pol.max_replicas:
                delta = 1
        else:
            self._calm += 1
            if self._calm >= pol.cooldown_epochs \
                    and utilization < pol.scale_down_util \
                    and replicas_per_cell > pol.min_replicas:
                delta = -1
                self._calm = 0
        self.decisions.append({
            "t_ms": now_s * 1000.0,
            "burning": burning,
            "utilization": utilization,
            "replicas_per_cell": replicas_per_cell + delta,
            "action": {1: "add", 0: "hold", -1: "drain"}[delta],
        })
        return delta


# -- execution ----------------------------------------------------------------


def _map_cells(task, items: List[tuple], shards: int) -> List[dict]:
    """Run start-to-drain cell tasks over ``shards`` workers.

    Routed through :func:`~repro.bench.parallel.parallel_map` (which
    runs in-process for one worker or few items); traced, every cell
    runs in a ``map_item`` span under the caller's span wherever it
    ran, so the profile of the flat fleet is shard-count invariant.
    """
    from ..bench.parallel import parallel_map
    return parallel_map(task, items, workers=shards)


def _cell_task(item: tuple) -> dict:
    """Worker body: run one cell start-to-drain (module-level so the
    process pool can pickle it)."""
    cfg, cell = item
    with current_tracer().span("fleet.cell", cell=cell):
        report = make_cell_simulator(cfg, cell).run()
    return {"cell": cell, "report": asdict(report)}


def _advance_cell(cell: int, sim: ClusterSimulator,
                  instruction: Optional[str],
                  pause_ms: Optional[float]) -> dict:
    """Advance one resident cell by one scaling epoch.

    Applies the fleet-wide scale instruction, runs to the epoch
    boundary (``pause_ms=None`` drains to empty) and returns only this
    epoch's completion telemetry — plus the final report once the cell
    has drained.
    """
    with current_tracer().span("fleet.cell", cell=cell):
        rep0 = sim.live_report
        n0 = 0 if rep0 is None else len(rep0.latencies_ms)
        busy0 = 0.0 if rep0 is None else sum(rep0.replica_busy_ms.values())
        shed0 = 0 if rep0 is None else sum(rep0.shed.values())
        if instruction == "add":
            sim.add_replica(sim.config.replicas[0])
        elif instruction == "drain":
            sim.drain_replica(sim.active_indices()[-1])
        final = sim.run(pause_at_ms=pause_ms)
        rep = sim.live_report
        assert rep is not None
        return {
            "events": list(zip(rep.completion_ms[n0:],
                               rep.latencies_ms[n0:])),
            "busy_delta": sum(rep.replica_busy_ms.values()) - busy0,
            "shed_delta": sum(rep.shed.values()) - shed0,
            "active_replicas": sim.active_replicas,
            "report": final,
        }


class FleetSimulator:
    """Run a sharded fleet simulation and merge the results.

    Without autoscaling every cell runs start-to-drain in one worker
    task; with it, the run proceeds in lock-step scaling epochs —
    every epoch each resident cell advances in place to the boundary,
    the epoch's completion telemetry is merged canonically, the
    :class:`Autoscaler` decides, and the decision is broadcast as the
    next epoch's instruction.
    """

    def __init__(self, config: Optional[FleetSimConfig] = None
                 ) -> None:
        self.config = config if config is not None \
            else FleetSimConfig()

    def run(self) -> FleetReport:
        cfg = self.config
        if cfg.autoscale is None:
            return self._run_flat()
        return self._run_autoscaled()

    def _run_flat(self) -> FleetReport:
        cfg = self.config
        cells = active_cells(cfg)
        results = _map_cells(_cell_task, [(cfg, c) for c in cells],
                             cfg.shards)
        reports = {r["cell"]: r["report"] for r in results}
        fleet = merge_cell_reports(cfg, reports)
        fleet.replica_seconds = (len(cfg.replicas_per_cell)
                                 * len(cells) * cfg.duration_s)
        fleet.max_replicas_per_cell = len(cfg.replicas_per_cell)
        return fleet

    def _run_autoscaled(self) -> FleetReport:
        cfg = self.config
        pol = cfg.autoscale
        assert pol is not None
        cells = active_cells(cfg)
        # Each cell's simulator is built once and advanced in place,
        # epoch after epoch, in this process; none outlives the run.
        sims = {c: make_cell_simulator(cfg, c) for c in cells}
        scaler = Autoscaler(pol, cfg.resolved_deadline_ms)
        epoch_ms = pol.epoch_s * 1000.0
        n_epochs = int(math.ceil(cfg.duration_s * 1000.0 / epoch_ms))
        reports: Dict[int, ClusterReport] = {}
        instruction: Optional[str] = None
        count = len(cfg.replicas_per_cell)
        replica_seconds = 0.0
        # Epochs 0..n_epochs-1 pause at their boundary; the final
        # round (pause None) drains the tail past the horizon.
        for k in range(n_epochs + 1):
            pending = [c for c in cells if c not in reports]
            if not pending:
                break
            pause = None if k == n_epochs else (k + 1) * epoch_ms
            results = []
            for c in pending:
                try:
                    results.append(
                        _advance_cell(c, sims[c], instruction, pause))
                except Exception as exc:  # noqa: BLE001 — re-raise typed
                    raise BenchmarkError(
                        f"cell {c} failed: {exc}") from exc
            # Canonical event order: time-major, sorted-cell minor
            # (the sort is stable and per-cell events are already
            # time-ordered) — identical for any shard count.
            merged = sorted((e for r in results for e in r["events"]),
                            key=lambda e: e[0])
            for t_ms, latency_ms in merged:
                scaler.observe(latency_ms, t_ms / 1000.0)
            active_total = 0
            busy_total = 0.0
            shed_total = 0
            for cell, r in zip(pending, results):
                active_total += r["active_replicas"]
                busy_total += r["busy_delta"]
                shed_total += r["shed_delta"]
                if r["report"] is not None:
                    reports[cell] = r["report"]
            if pause is None:
                break
            replica_seconds += active_total * pol.epoch_s
            scaler.observe_shed(shed_total, pause / 1000.0)
            if k >= n_epochs - 1:
                instruction = None
                continue
            utilization = busy_total / (epoch_ms * active_total) \
                if active_total else 0.0
            delta = scaler.decide(pause / 1000.0, count, utilization)
            count += delta
            instruction = {1: "add", 0: None, -1: "drain"}[delta]
        fleet = merge_cell_reports(cfg, reports)
        fleet.replica_seconds = replica_seconds
        fleet.autoscale_events = list(scaler.decisions)
        fleet.max_replicas_per_cell = max(
            [len(cfg.replicas_per_cell)]
            + [d["replicas_per_cell"] for d in scaler.decisions])
        return fleet
