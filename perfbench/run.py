"""Run one benchmark workload and print its result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-stream --seed 1 \\
        --seconds 10 --trace 0

The workload's inputs are generated from ``--seed``; the program is
set up (timed), measured for ``--seconds``, and its outputs checked.
Standard output ends with two JSON lines: the environment manifest
with the run's op counts and raw wall-clock figures (op p50/p90/p99,
set-up, throughput, and the machine-speed factor), then the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, timings
at reference speed (``perfbench/calibrate.py``); with
``--trace 1`` they are its per-layer metrics, measured in raw
wall-clock by timing the program's public calls
(``perfbench/probe.py``), zero for a layer the workload does not run.

``--workload all`` runs every workload in turn, each in its own
process, and prints each one's two lines.

The program is imported from ``src/`` of the checkout; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import manifest  # noqa: E402  (stdlib only: safe before the budget)
import spec  # noqa: E402

#: The program's layers the workloads call; importing them is set-up.
PROGRAM_MODULES = ("repro.image", "repro.nn", "repro.models.yolo",
                   "repro.serving", "repro.bench.parallel")

#: Workload name -> (module, class) in this directory.
CLASSES = {
    "detect-stream": ("detect", "Detect"),
    "detect-batch": ("detect", "Detect"),
    "train-step": ("train", "Train"),
    "serve-cluster": ("serve", "ServeCluster"),
    "fleet-autoscale": ("serve", "Fleet"),
}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def import_program() -> float:
    """Import the program's layers from ``src/``; returns the seconds."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SetupError(f"no program sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, bench: Optional[dict] = None) -> dict:
    """Set up, measure and check one workload; the result object.

    End-to-end timings are reported at reference speed (see
    ``calibrate.py``); ``raw`` holds the wall-clock figures.
    """
    # These import NumPy: only after pin_blas_threads().
    import harness
    from calibrate import SpeedMeter
    bench = bench if bench is not None else load_benchmark()
    module, cls = CLASSES[workload]
    w = getattr(importlib.import_module(module), cls)(workload, seed)
    meter = SpeedMeter()
    meter.sample()
    setup_s = import_s + harness.timed_setup(w)
    raw = None
    if trace:
        values = harness.measure_traced(w, seconds)
        wanted = bench["per_layer"]
    else:
        values = harness.measure(w, seconds, meter)
        f = meter.factor
        raw = {"speed_factor": f, "op_ms": values.pop("op_ms"),
               "setup_s": setup_s, "items_per_s": values["items_per_s"]}
        values.update(setup_s=setup_s * f,
                      op_p50_ms=values["op_p50_ms"] * f,
                      items_per_s=values["items_per_s"] / f,
                      peak_rss_mb=harness.peak_rss_mb())
        wanted = bench["end_to_end"]
    attempted = int(values.pop("attempted"))
    failed = int(values.pop("failed"))
    names = {m["name"] for m in wanted}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics: Dict[str, dict] = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "raw": raw}


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process each (each sets its own
    thread budget before NumPy loads)."""
    status = 0
    for name in spec.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, text=True)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(CLASSES) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    workers = spec.WORKLOADS[args.workload]["params"].get("shards", 1)
    manifest.pin_blas_threads()
    load_start = os.getloadavg()
    try:
        bench = load_benchmark()
        import_s = import_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s, bench)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "succeeded": result["attempted"] - result["failed"],
        "raw": result.pop("raw"),
        "manifest": manifest.manifest(ROOT, workers, load_start)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
