"""What the benchmark runs and what each number is expected to move.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics.  This module holds the rest of the record: each workload's
generator (closed loop, or simulator batch job at a stated size), its
parameters, how it uses ``--seed``, and the table predicting which
end-to-end metric a per-layer metric should move on which workload.

The end-to-end metrics are generic so that every workload reports every
one of them.  In workload terms:

=================  =======================  =========================
workload           op_p50_ms                items_per_s
=================  =======================  =========================
detect-stream      frame p50                frames/s
detect-batch       batch-of-8 p50           frames/s
train-step         train step p50           images/s
serve-cluster      simulation p50           simulated requests/s
fleet-autoscale    simulation p50           simulated requests/s
=================  =======================  =========================

``items_per_s`` is the median over ten consecutive blocks of a run of
items per wall second.  For the simulators an item is one generated
request, and the wall time is the simulator call (construction, which
generates the arrivals, plus ``run``).  Timings are reported at
reference speed (``calibrate.py``), raw wall-clock beside them.

Tail latencies (op p90 and p99) are printed with the raw figures but
carry no bound: on a shared 2-core VM they measure the neighbours'
bursts.  Over ten 15 s runs the frame p90's quartile spread reached
0.60 and the train step's 0.52 while their medians stayed within 0.11.
The simulator workloads complete about 30 (cluster) or 6 (fleet)
simulations per run, too few for any percentile above the median to
have ten samples beyond it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, dict] = {
    "detect-stream": {
        "generator": "closed loop, 1 drone, batch 1",
        "seed": "renders 48 frames (4 per Table 1 sub-category) at "
                "128x128, cropped to 128x96, cycled in order",
        "params": {"model": "mini-yolov8-n", "batch": 1,
                   "frame_hw": [96, 128], "frames": 48,
                   # The detectors are untrained, so objectness sits
                   # near 0.5.  At 0.25 (the Ultralytics predict
                   # default) every cell of the nano model reaches
                   # NMS: postprocessing weighs like a cluttered scene.
                   "conf_threshold": 0.25},
    },
    "detect-batch": {
        "generator": "closed loop, 8 drones, one batch of 8 per op",
        "seed": "renders 48 frames as detect-stream; batch k holds "
                "frames 8k..8k+7 modulo 48",
        "params": {"model": "mini-yolov8-x", "batch": 8,
                   "frame_hw": [96, 128], "frames": 48,
                   # About a third of the x model's cells pass 0.5, so
                   # NMS stays a small share next to the GEMMs.
                   "conf_threshold": 0.5},
    },
    "train-step": {
        "generator": "closed loop, one DetectorTrainer.fit epoch over "
                     "one batch of 8 per op, one model trained "
                     "throughout",
        "seed": "renders 96 frames (8 per sub-category) at 64x64; "
                "batch k holds frames 8k..8k+7 modulo 96",
        "params": {"model": "mini-yolov8-n", "batch": 8, "frames": 96,
                   "lr": 5e-3, "model_seed": 7},
    },
    "serve-cluster": {
        "generator": "simulator batch job: one ClusterSimulator run "
                     "per op, 5,120 generated requests",
        "seed": "draws 4 simulation seeds; op k runs seed k modulo 4",
        "params": {"replicas": 4, "replica": "yolov8-m@rtx4090",
                   "num_streams": 256, "frame_rate": 10.0,
                   "duration_s": 2.0, "arrival_jitter_ms": 5.0,
                   "hedge_quantile": 0.95,
                   "faults": "default_chaos_faults"},
    },
    "fleet-autoscale": {
        "generator": "simulator batch job: one FleetSimulator run per "
                     "op, 7,200 generated requests",
        "seed": "draws 4 simulation seeds; op k runs seed k modulo 4",
        "params": {"num_streams": 96, "num_cells": 8,
                   "replica": "yolov8-m@rtx4090", "frame_rate": 5.0,
                   "duration_s": 7.5, "ramp": [1.0, 3.0, 1.0, 3.0],
                   "arrival_jitter_ms": 2.0,
                   "autoscale": "AutoscalePolicy()", "shards": 2},
    },
}

DETECT = ("detect-stream", "detect-batch")
SIMS = ("serve-cluster", "fleet-autoscale")
ALL = tuple(WORKLOADS)

#: (per-layer metric or prefix, end-to-end metrics it should move,
#: workloads it mostly runs on, workloads where it reads zero).  A
#: workload in neither list runs the layer a little.
PREDICTIONS: List[Tuple[str, Tuple[str, ...], Tuple[str, ...],
                        Tuple[str, ...]]] = [
    ("image.letterbox_ms", ("op_p50_ms",), ("detect-stream",),
     ("train-step",) + SIMS),
    ("nn.<i>-<kind>.*, nn.unattributed_ms, nn.workspace_bytes",
     ("op_p50_ms", "items_per_s"), DETECT, ("train-step",) + SIMS),
    ("models.yolo.forward_ms, decode_ms, nms_ms, nms_candidates, "
     "detections", ("op_p50_ms",), ("detect-stream",),
     ("train-step",) + SIMS),
    ("nn.train_forward_ms, models.yolo.loss_ms, nn.backward_ms, "
     "nn.clip_grads_ms, nn.optim.step_ms", ("items_per_s",),
     ("train-step",), DETECT + SIMS),
    ("serving.request.arrivals_ms", ("items_per_s",),
     ("serve-cluster",), DETECT + ("train-step", "fleet-autoscale")),
    ("serving.cluster.* (run, slices, counts, summary_digest)",
     ("items_per_s",), ("serve-cluster",), DETECT + ("train-step",)),
    ("serving.cluster.snapshot_ms, snapshot_kb, restore_ms",
     ("items_per_s",), ("fleet-autoscale",),
     DETECT + ("train-step", "serve-cluster")),
    ("serving.fleet.*", ("items_per_s",), ("fleet-autoscale",),
     DETECT + ("train-step", "serve-cluster")),
    ("bench.parallel.pool_ms, bench.parallel.items", ("items_per_s",),
     ("fleet-autoscale",), DETECT + ("train-step", "serve-cluster")),
    ("obs.trace_overhead_ratio", (), ALL, ()),
]
