"""Tests for the observability layer (``repro.obs``): tracer, the
quantile sketch's bucketed phase, exporters, and its threading through
the pipeline, guard, runner, and parallel fan-out."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.bench.parallel import parallel_map
from repro.bench.runner import ExperimentResult, ExperimentRunner
from repro.core.pipeline import PipelineConfig, VipPipeline
from repro.errors import ConfigError, SerializationError
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.obs import (NULL_SPAN, NULL_TRACER, Aggregator, NullTracer,
                       QuantileSketch, TelemetryBus, Tracer,
                       build_profile, chrome_trace, current_tracer,
                       record_event, render_profile, use_telemetry,
                       use_tracer, write_chrome_trace,
                       write_spans_jsonl)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestTracer:
    def test_nesting_and_parenting(self):
        t = Tracer(clock=FakeClock())
        with t.span("root") as root:
            with t.span("child") as child:
                assert t.current_span() is child
            assert t.current_span() is root
        assert t.current_span() is None
        spans = {s.name: s for s in t.finished_spans()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["root"].parent_id is None
        assert spans["root"].duration_s > spans["child"].duration_s

    def test_ids_are_deterministic(self):
        def build():
            t = Tracer(clock=FakeClock())
            with t.span("a"):
                with t.span("b"):
                    t.event("e", k=1)
            return [s.to_dict() for s in t.finished_spans()]

        assert build() == build()

    def test_events_attach_to_active_span(self):
        t = Tracer(clock=FakeClock())
        with t.span("s"):
            t.event("retry", attempt=1)
        (span,) = t.finished_spans()
        assert span.events[0].name == "retry"
        assert span.events[0].attrs == {"attempt": 1}

    def test_event_without_span_is_dropped(self):
        t = Tracer(clock=FakeClock())
        t.event("orphan")
        assert t.finished_spans() == []

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            Tracer(clock=FakeClock()).start_span("")

    def test_ambient_tracer(self):
        assert current_tracer() is NULL_TRACER
        t = Tracer(clock=FakeClock())
        with use_tracer(t):
            assert current_tracer() is t
            with t.span("s"):
                record_event("via-ambient")
        assert current_tracer() is NULL_TRACER
        assert t.finished_spans()[0].events[0].name == "via-ambient"

    def test_adopt_requires_finished(self):
        t = Tracer(clock=FakeClock())
        open_span = t.start_span("open")
        with pytest.raises(ConfigError):
            Tracer(clock=FakeClock()).adopt([open_span])


class TestNullTracer:
    def test_is_free_and_inert(self):
        t = NullTracer()
        assert not t.enabled
        with t.span("x", a=1) as sp:
            assert sp is NULL_SPAN
            t.event("ignored")
        assert t.finished_spans() == []
        assert t.current_context() is None
        # span() hands back the shared no-op without allocation
        assert t.span("y") is NULL_SPAN

    def test_null_span_discards_writes(self):
        NULL_SPAN.set_attr("k", 1)
        NULL_SPAN.add_event("e", 0.0)
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []


class TestMetrics:
    """Latency quantiles from the sketch's bucketed phase
    (``buffer_cap=0``: every observation goes straight to buckets)."""

    def test_histogram_quantiles_bracket_truth(self):
        h = QuantileSketch(buckets=range(1, 201), buffer_cap=0)
        rng = np.random.default_rng(0)
        values = rng.uniform(5.0, 150.0, 5000)
        for v in values:
            h.observe(float(v))
        assert not h.exact
        snap = h.snapshot()
        assert snap["count"] == 5000
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            truth = float(np.quantile(values, q))
            # 1-unit buckets → estimate within one bucket width.
            assert abs(snap[key] - truth) < 2.0, (key, snap[key], truth)
        assert snap["min"] == pytest.approx(values.min())
        assert snap["max"] == pytest.approx(values.max())

    def test_histogram_empty_and_bad_buckets(self):
        h = QuantileSketch(buckets=range(1, 201), buffer_cap=0)
        assert np.isnan(h.quantile(0.5))
        h.observe(3.0)
        assert not h.exact
        with pytest.raises(ConfigError):
            h.quantile(1.5)
        with pytest.raises(ConfigError):
            QuantileSketch(buckets=[2.0, 1.0], buffer_cap=0)
        with pytest.raises(ConfigError):
            QuantileSketch(buckets=[], buffer_cap=0)


class TestExport:
    def _trace(self):
        t = Tracer(clock=FakeClock())
        with t.span("root", model="m"):
            with t.span("stage"):
                t.event("retry", attempt=1)
            with t.span("stage"):
                pass
        return t

    def test_chrome_trace_is_valid_json(self, tmp_path):
        t = self._trace()
        path = write_chrome_trace(str(tmp_path / "x.json"),
                                  t.finished_spans())
        doc = json.loads(open(path).read())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        assert all(e["dur"] >= 0 for e in complete)

    def test_unfinished_span_rejected(self):
        t = Tracer(clock=FakeClock())
        sp = t.start_span("open")
        with pytest.raises(SerializationError):
            chrome_trace([sp])

    def test_jsonl_round_trip(self, tmp_path):
        from repro.io.jsonio import load_jsonl
        t = self._trace()
        path = write_spans_jsonl(str(tmp_path / "x.jsonl"),
                                 t.finished_spans())
        rows = load_jsonl(path)
        assert len(rows) == 3
        assert {r["name"] for r in rows} == {"root", "stage"}

    def test_profile_closure(self):
        t = self._trace()
        prof = build_profile(t.finished_spans(), quantize=False)
        assert sorted(prof.paths) == ["root", "root/stage"]
        assert prof.paths["root/stage"].count == 2
        assert prof.paths["root/stage"].events == 1
        # Self times over the tree sum to the root's total.
        assert prof.total_self_ms() == pytest.approx(
            prof.paths["root"].total_ms)
        text = render_profile(prof)
        assert "root" in text and "root/stage" in text

    def test_render_empty(self):
        assert "no spans" in render_profile(build_profile([]))


class TestPipelineTracing:
    def _frames(self, builder, small_index):
        recs = [r for r in small_index
                if r.subcategory_key != "adversarial/all"][:40]
        return builder.render_records(recs)

    def test_stage_spans_and_invariance(self, builder, small_index):
        frames = self._frames(builder, small_index)
        baseline = VipPipeline(PipelineConfig(), seed=7).run(frames)
        tracer = Tracer()
        with use_telemetry(TelemetryBus()) as bus:
            traced = VipPipeline(PipelineConfig(), seed=7,
                                 tracer=tracer).run(frames)
        # Tracing and telemetry must not perturb results (NaN-tolerant
        # compare).
        from repro.io.jsonio import jsonable
        assert jsonable(traced.summary()) == \
            jsonable(baseline.summary())
        names = {s.name for s in tracer.finished_spans()}
        assert {"pipeline.run", "frame", "detect", "track",
                "alert"} <= names
        assert ("pose" in names) and ("depth" in names)
        n_frames = sum(1 for s in tracer.finished_spans()
                       if s.name == "frame")
        assert n_frames == traced.frames_processed
        e2e = Aggregator(bus).fleet(0.0, windowed=False)["e2e"]
        assert e2e["count"] == traced.frames_processed
        assert e2e["max"] == pytest.approx(
            max(traced.per_frame_latency_ms))
        (run,) = [s for s in tracer.finished_spans()
                  if s.name == "pipeline.run"]
        assert run.attrs["frames_processed"] == traced.frames_processed
        assert run.attrs["frames_dropped"] == traced.frames_dropped
        assert run.attrs["alerts"] == len(traced.alerts)

    def test_guard_events_reach_stage_spans(self, builder,
                                            small_index):
        frames = self._frames(builder, small_index)
        specs = (FaultSpec(FaultKind.STAGE_CRASH, probability=0.5,
                           magnitude=1.0, stage="detect"),)
        tracer = Tracer()
        rep = VipPipeline(PipelineConfig(), seed=7,
                          injector=FaultInjector(specs, seed=7),
                          tracer=tracer).run(frames)
        assert rep.retries > 0
        events = [e.name for s in tracer.finished_spans()
                  for e in s.events]
        assert "stage_retry" in events
        assert "fallback" in events
        retry_spans = [s.name for s in tracer.finished_spans()
                       if any(e.name == "stage_retry"
                              for e in s.events)]
        assert set(retry_spans) == {"detect"}


class TestRunnerTracing:
    def _runner(self, enabled=None):
        def fake(**kwargs):
            if enabled is not None:
                enabled.append(current_tracer().enabled)
            record_event("fake.calls")
            return ExperimentResult(
                experiment_id="fake", title="Fake", headers=["x"],
                rows=[[1]], claims={"ok": True})
        return ExperimentRunner({"fake": fake})

    def test_root_span_and_metrics_attach(self):
        tracer = Tracer()
        with use_tracer(tracer):
            self._runner().run("fake")
        roots = [s for s in tracer.finished_spans()
                 if s.name == "experiment:fake"]
        assert len(roots) == 1
        assert roots[0].attrs["claims_hold"] is True
        # Work inside the experiment records onto its root span.
        assert [e.name for e in roots[0].events] == ["fake.calls"]

    def test_disabled_by_default(self):
        enabled = []
        self._runner(enabled).run("fake")
        assert enabled == [False]


def _traced_square(x):
    record_event("square", x=x)
    return x * x


class TestParallelTracing:
    def test_serial_path_spans(self):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("caller"):
            out = parallel_map(_traced_square, [1, 2, 3],
                               force_serial=True)
        assert out == [1, 4, 9]
        items = [s for s in tracer.finished_spans()
                 if s.name == "map_item"]
        assert len(items) == 3
        caller = next(s for s in tracer.finished_spans()
                      if s.name == "caller")
        assert all(s.parent_id == caller.span_id for s in items)
        assert sum(len(s.events) for s in items) == 3

    @staticmethod
    def _traced_run(workers):
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("caller"):
            out = parallel_map(_traced_square, list(range(8)),
                               workers=workers)
        assert out == [x * x for x in range(8)]
        return tracer

    @staticmethod
    def _event_counts(tracer):
        return Counter(e.name for s in tracer.finished_spans()
                       for e in s.events)

    def test_pool_path_adopts_worker_spans(self):
        tracer = self._traced_run(workers=2)
        items = [s for s in tracer.finished_spans()
                 if s.name == "map_item"]
        assert len(items) == 8
        caller = next(s for s in tracer.finished_spans()
                      if s.name == "caller")
        # Worker spans parent under the caller's span and share its
        # trace id (whether the pool ran or the env fell back serial).
        assert all(s.parent_id == caller.span_id for s in items)
        assert all(s.trace_id == caller.trace_id for s in items)
        # Ids stay unique after adoption.
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(ids) == len(set(ids))
        # Every event recorded in a worker comes back with its span:
        # per-name counts match the serial run.
        serial = self._traced_run(workers=1)
        assert self._event_counts(tracer) == \
            self._event_counts(serial) == {"square": 8}

    def test_untraced_path_unchanged(self):
        assert parallel_map(_traced_square, [2, 3], workers=2) == \
            [4, 9]
