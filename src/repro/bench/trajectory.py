"""Continuous-bench performance trajectory (``repro bench-track``).

A trajectory point is one ``BENCH_<label>.json`` file: the cumulative
quantile-sketch snapshots of a fixed probe suite — simulated latency
runs over the paper's model/device grid corners plus a fleet-scheduler
response probe recorded through the telemetry bus.  Every probe is
driven by seeded RNG streams and the injected simulation clock, so the
same tree produces byte-identical points; no timestamps are embedded.

``compare_points`` then gates on regression: if the new point's p99 for
any shared probe exceeds the baseline's by more than the tolerance, the
run fails.  CI runs this as a smoke job against a committed baseline,
turning "the benchmark got slower" into a reviewable diff instead of a
silent drift.
"""

from __future__ import annotations

import glob
import json
import math
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.fleet import FleetConfig, FleetScheduler, SchedulingPolicy
from ..errors import BenchmarkError, SerializationError
from ..io.jsonio import dump_json
from ..latency.runtime import SimulatedRuntime
from ..obs import (Aggregator, QuantileSketch, TelemetryBus, TickClock,
                   Tracer, use_telemetry, use_tracer)
from ..rng import make_rng
from ..serving import (ClusterConfig, ClusterSimulator, ReplicaSpec,
                       default_chaos_faults)

SCHEMA_VERSION = 1
DEFAULT_OUT_DIR = "bench_trajectory"
DEFAULT_MAX_REGRESS_PCT = 10.0
#: The gated metric: tail latency is what the 33 ms budget cares about.
REGRESSION_METRIC = "p99"

#: Model/device corners of the paper's grid: smallest and largest
#: variant on the weakest edge board and the workstation GPU.
LATENCY_PROBES: Tuple[Tuple[str, str], ...] = (
    ("yolov8-n", "orin-nano"),
    ("yolov8-n", "rtx4090"),
    ("yolov11-m", "orin-nano"),
    ("yolov11-m", "rtx4090"),
)

#: Serving probes: one replica at 2x overload with predictive shedding
#: (admitted-request e2e latency, p99-gated) and a saturated replica
#: with batches capped at 8, whose per-frame execution time is the
#: inverse of serving throughput — so a throughput regression trips the
#: p99 gate from the correct direction.
SERVING_MODEL = "yolov8-m"
SERVING_DEVICE = "rtx4090"
SERVING_OVERLOAD_STREAMS = 32
SERVING_SATURATED_BATCH = 8

#: Chaos probes: the 2-replica cluster under the canned fault ladder
#: (crash + slowdown).  Gated on the e2e tail under faults and on the
#: failover recovery time (last requeued-victim completion minus the
#: crash instant) — a failover regression trips the p99 gate.
CHAOS_REPLICAS = 2
CHAOS_SEED = 7

#: Sharded-fleet probe: the merged e2e tail of a small cell-sharded
#: fleet (deterministic — the merge is byte-identical for any shard
#: count, so the probe never depends on worker scheduling).
FLEET_CELLS = 4
FLEET_STREAMS = 8

#: Mini-YOLO eval-forward probes: variant, frames per mode.  They run
#: under the tick clock, so they count instrumented clock reads, not
#: time: speed is measured by ``perfbench/``, not here.
NN_E2E_FAMILY = "yolov8"
NN_E2E_VARIANT = "n"
NN_E2E_FRAMES = 3


def _nn_forward_probes() -> Dict[str, dict]:
    """Clock-read probes of the fused and unfused mini-YOLO forward.

    Under the tick clock a span lasts one 1 ms quantum per instrumented
    clock read, so ``nn/clock_reads@{mode}`` is the per-frame read
    count and ``nn/clock_reads_{span}@{mode}`` attributes it to the
    span names (``nn.conv2d``/``nn.im2col``/``nn.gemm`` vs
    ``nn.fused_conv``).  A change that adds spans or clock reads to
    the eval hot path shows up as a deterministic, gateable
    regression.
    """
    out: Dict[str, dict] = {}
    from ..models.yolo.mini import build_mini_yolo
    x = make_rng(CHAOS_SEED, "bench-nn", "frames").standard_normal(
        (1, 3, 64, 64)).astype(np.float32)
    for mode in ("unfused", "fused"):
        model = build_mini_yolo(NN_E2E_FAMILY, NN_E2E_VARIANT)
        if mode == "fused":
            model.fuse(workspace=True)
        tracer = Tracer(clock=TickClock())
        frame_sketch = QuantileSketch()
        with use_tracer(tracer):
            for _ in range(NN_E2E_FRAMES):
                with tracer.span("nn.frame"):
                    model.forward(x, training=False)
        per_span: Dict[str, QuantileSketch] = {}
        for span in tracer.finished_spans():
            ms = 1000.0 * span.duration_s
            if span.name == "nn.frame":
                frame_sketch.observe(ms)
            elif span.name.startswith("nn."):
                per_span.setdefault(
                    span.name.split(".", 1)[1],
                    QuantileSketch()).observe(ms)
        out[f"nn/clock_reads@{mode}"] = frame_sketch.snapshot()
        for sname, sk in sorted(per_span.items()):
            out[f"nn/clock_reads_{sname}@{mode}"] = sk.snapshot()
    return out


def _fleet_sim_config(shards: int = 1):
    from ..serving import FleetSimConfig, ReplicaSpec
    return FleetSimConfig(
        num_streams=FLEET_STREAMS, num_cells=FLEET_CELLS,
        replicas_per_cell=(ReplicaSpec("yolov8-n", "orin-nano"),),
        frame_rate=5.0, duration_s=3.0, deadline_ms=100.0,
        seed=CHAOS_SEED, shards=shards)


def run_suite(n_frames: int = 150, fleet_drones: int = 8,
              fleet_duration_s: float = 5.0) -> Dict[str, dict]:
    """Run every probe; returns ``{probe name: sketch snapshot}``."""
    if n_frames < 1:
        raise BenchmarkError(f"n_frames must be >= 1, got {n_frames}")
    suite: Dict[str, dict] = {}
    runtime = SimulatedRuntime()
    for model, device in LATENCY_PROBES:
        run = runtime.run(model, device, n_frames)
        sketch = QuantileSketch()
        for v in run.samples_ms:
            sketch.observe(float(v))
        suite[f"latency/{model}@{device}"] = sketch.snapshot()

    bus = TelemetryBus(record=False)
    cfg = FleetConfig(num_drones=fleet_drones,
                      duration_s=fleet_duration_s)
    with use_telemetry(bus):
        FleetScheduler(cfg).run(SchedulingPolicy.ADAPTIVE)
    fleet = Aggregator(bus).fleet_sketch("e2e", 0.0, windowed=False)
    if fleet is not None and fleet.count:
        suite["fleet/e2e@adaptive"] = fleet.snapshot()

    # Serving probe 1: 2x overload with predictive shedding — the
    # admitted-request latency tail the deadline SLO is judged on.
    shed = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model=SERVING_MODEL,
                              device=SERVING_DEVICE),),
        num_streams=SERVING_OVERLOAD_STREAMS, policy="full",
        duration_s=fleet_duration_s)).run()
    sketch = QuantileSketch()
    for v in shed.latencies_ms:
        sketch.observe(float(v))
    suite[f"serving/e2e@{SERVING_OVERLOAD_STREAMS}x-full"] = \
        sketch.snapshot()

    # Serving probe 2: saturated batch-capped per-frame execution time
    # (ms/frame = 1000 / throughput), one observation per batch.
    sim = ClusterSimulator(ClusterConfig(
        replicas=(ReplicaSpec(model=SERVING_MODEL, device=SERVING_DEVICE,
                              max_batch=SERVING_SATURATED_BATCH,
                              queue_capacity=512),),
        num_streams=16, policy="none", duration_s=fleet_duration_s))
    saturated = sim.run()
    sketch = QuantileSketch()
    for b in saturated.batch_sizes:
        sketch.observe(sim.batch_latency_ms(0, b) / b)
    suite[f"serving/per_frame@b{SERVING_SATURATED_BATCH}"] = \
        sketch.snapshot()

    # Chaos probes: replicated serving through the canned fault
    # ladder — e2e tail under faults, plus failover recovery time.
    chaos = ClusterSimulator(ClusterConfig(
        num_streams=SERVING_OVERLOAD_STREAMS // 2,
        duration_s=fleet_duration_s, seed=CHAOS_SEED,
        faults=default_chaos_faults(fleet_duration_s,
                                    CHAOS_REPLICAS))).run()
    sketch = QuantileSketch()
    for v in chaos.latencies_ms:
        sketch.observe(float(v))
    suite[f"serving/chaos_e2e@{CHAOS_REPLICAS}r"] = sketch.snapshot()
    sketch = QuantileSketch()
    for v in chaos.crash_recoveries_ms:
        sketch.observe(float(v))
    if sketch.count:
        suite[f"serving/failover_recovery@{CHAOS_REPLICAS}r"] = \
            sketch.snapshot()

    # Fleet probe: merged e2e tail over the cell-sharded fleet.  The
    # merged sketch is identical for any shard count, so the probe is
    # golden-safe even though cells may run in worker processes.
    from ..serving import FleetSimulator
    fleet_rep = FleetSimulator(_fleet_sim_config()).run()
    suite[f"fleet/merged_e2e@{FLEET_CELLS}c"] = \
        fleet_rep.sketch.snapshot()

    # NN probes: clock reads of the fused vs unfused mini-YOLO forward.
    suite.update(_nn_forward_probes())
    return suite


def point_path(out_dir: str, label: str) -> str:
    return os.path.join(out_dir, f"BENCH_{label}.json")


def write_point(out_dir: str, label: str,
                suite: Dict[str, dict]) -> str:
    """Write one trajectory point; returns its path.

    The payload holds no timestamps or environment detail — two runs of
    the same tree write byte-identical files, which is what the
    determinism tests pin.
    """
    if not label or any(c in label for c in "/\\"):
        raise BenchmarkError(f"bad trajectory label {label!r}")
    point = {"schema": SCHEMA_VERSION, "label": label,
             "metric": REGRESSION_METRIC, "suite": suite}
    return dump_json(point_path(out_dir, label), point)


#: Sketch-snapshot fields that count samples (non-negative ints); every
#: other field but ``exact`` is a statistic (finite, or null when empty).
_COUNT_FIELDS = ("count", "dropped")


def _check_probe(probe: str, snap) -> None:
    """Raise :class:`SerializationError` naming ``probe`` and the field
    unless ``snap`` is a well-typed sketch snapshot."""
    if not isinstance(snap, dict):
        raise SerializationError(f"probe {probe!r}: not a mapping")
    for key in _COUNT_FIELDS:
        value = snap.get(key)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            raise SerializationError(
                f"probe {probe!r}: field {key!r} must be a non-negative "
                f"int, got {value!r}")
    for key, value in snap.items():
        if key in _COUNT_FIELDS:
            continue
        if key == "exact":
            ok = isinstance(value, bool)
            want = "a bool"
        elif value is None:
            ok = snap["count"] == 0
            want = "a finite number (null only for an empty sketch)"
        else:
            ok = isinstance(value, (int, float)) \
                and not isinstance(value, bool) and math.isfinite(value)
            want = "a finite number"
        if not ok:
            raise SerializationError(
                f"probe {probe!r}: field {key!r} must be {want}, "
                f"got {value!r}")


def load_point(path: str) -> dict:
    """Load and validate a trajectory point: every probe must be a
    sketch snapshot with non-negative int counts and finite statistics
    (raises :class:`SerializationError` naming the probe and field)."""
    if not os.path.exists(path):
        raise BenchmarkError(f"no trajectory point at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            point = json.load(fh)
        except ValueError as exc:
            raise SerializationError(
                f"malformed trajectory point JSON at {path}: {exc}") \
                from exc
    if not isinstance(point, dict) \
            or not isinstance(point.get("suite"), dict):
        raise SerializationError(
            f"malformed trajectory point at {path}: no 'suite' mapping")
    if point.get("schema") != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported trajectory schema {point.get('schema')!r} "
            f"at {path} (expected {SCHEMA_VERSION})")
    for probe, snap in point["suite"].items():
        _check_probe(probe, snap)
    return point


def previous_point(out_dir: str, label: str) -> Optional[str]:
    """The latest committed point other than ``label`` itself.

    Points are ordered by label (date-style labels sort
    chronologically); an explicit ``BENCH_baseline.json`` — the pinned
    CI reference — wins over dated points when present.
    """
    baseline = point_path(out_dir, "baseline")
    candidates = [p for p in sorted(glob.glob(
        os.path.join(out_dir, "BENCH_*.json")))
        if p != point_path(out_dir, label)]
    if not candidates:
        return None
    if baseline in candidates:
        return baseline
    return candidates[-1]


def compare_points(current: dict, baseline: dict,
                   max_regress_pct: float = DEFAULT_MAX_REGRESS_PCT
                   ) -> List[dict]:
    """Regressions of ``current`` vs ``baseline`` on the gated metric.

    Only probes present in both points are compared; each regression is
    ``{"probe", "baseline", "current", "regress_pct"}``.
    """
    if max_regress_pct < 0:
        raise BenchmarkError("regression tolerance must be >= 0")
    out: List[dict] = []
    base_suite = baseline.get("suite", {})
    for probe, snap in sorted(current.get("suite", {}).items()):
        base = base_suite.get(probe)
        if base is None:
            continue
        b = base.get(REGRESSION_METRIC)
        c = snap.get(REGRESSION_METRIC)
        if b is None or c is None or b <= 0:
            continue
        pct = 100.0 * (c - b) / b
        if pct > max_regress_pct:
            out.append({"probe": probe, "baseline": b, "current": c,
                        "regress_pct": pct})
    return out
