"""Attribution self-test: an injected slowdown shows where predicted.

Extra work is monkeypatched into one public layer call, the NMS that
``decode_predictions`` runs, without touching ``src/``.  The prediction
table in ``spec.py`` says the ``models.yolo`` metrics move
``op_p50_ms`` on detect-stream and read zero on the training and
serving workloads.  The test checks both halves: the injected time
shows in ``models.yolo.nms_ms`` and in the frame time, and the workloads
marked zero keep ``nms_ms`` at zero and their throughput within the
benchmark's bound.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest perfbench/test_attribution.py -q
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import manifest  # noqa: E402

manifest.pin_blas_threads()

import run as bench  # noqa: E402

bench.import_program()

import pytest  # noqa: E402

import repro.models.yolo.postprocess as postprocess  # noqa: E402
from spec import PREDICTIONS  # noqa: E402

#: Busy-wait added to every NMS call (one call per detect-stream frame).
DELAY_S = 2e-3
SECONDS = 3.0
SEED = 5

BENCH = bench.load_benchmark()
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
ZERO = next(row for row in PREDICTIONS
            if row[0].startswith("models.yolo"))[3]


_NMS = postprocess.nms


def _slow_nms(*args, **kwargs):
    end = perf_counter() + DELAY_S
    while perf_counter() < end:
        pass
    return _NMS(*args, **kwargs)


def _metric(result, name):
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"][name]["value"]


def _run(workload, trace, slowed, monkeypatch):
    with monkeypatch.context() as m:
        if slowed:
            m.setattr(postprocess, "nms", _slow_nms)
        return bench.run(workload, SEED, SECONDS, trace, bench=BENCH)


def test_slowdown_shows_in_predicted_layer_and_frame_time(monkeypatch):
    base = _run("detect-stream", True, False, monkeypatch)
    slow = _run("detect-stream", True, True, monkeypatch)
    grew = _metric(slow, "models.yolo.nms_ms") \
        - _metric(base, "models.yolo.nms_ms")
    assert grew > 0.9 * DELAY_S * 1e3
    # Other layers do not absorb it.
    assert abs(_metric(slow, "models.yolo.forward_ms")
               - _metric(base, "models.yolo.forward_ms")) \
        < 0.5 * DELAY_S * 1e3

    base = _run("detect-stream", False, False, monkeypatch)
    slow = _run("detect-stream", False, True, monkeypatch)
    # The injected time is wall time: compare the raw frame p50.
    assert slow["raw"]["op_ms"]["p50"] - base["raw"]["op_ms"]["p50"] \
        > 0.5 * DELAY_S * 1e3
    assert _metric(slow, "op_p50_ms") > _metric(base, "op_p50_ms")
    assert _metric(slow, "items_per_s") < _metric(base, "items_per_s")


@pytest.mark.parametrize("workload", ZERO)
def test_slowdown_absent_from_workloads_marked_zero(workload,
                                                    monkeypatch):
    if workload != "fleet-autoscale":  # its traced run is the slowest
        traced = _run(workload, True, True, monkeypatch)
        assert _metric(traced, "models.yolo.nms_ms") == 0.0
    # Alternate plain and slowed runs; compare the medians.
    rates = {False: [], True: []}
    for slowed in (False, True, False, True):
        rates[slowed].append(_metric(
            _run(workload, False, slowed, monkeypatch), "items_per_s"))
    base = statistics.median(rates[False])
    slow = statistics.median(rates[True])
    assert slow >= base * (1.0 - BOUNDS["items_per_s"])
