"""Tests for dynamic-batching serving on one replica (repro.serving).

The workstation tier of the paper — one GPU batching many drone
streams — is a one-replica :class:`ClusterSimulator`.  These tests pin
its batching, admission and shedding behaviour; the fault-tolerance
machinery is covered in ``test_serving_cluster.py``.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.errors import BenchmarkError
from repro.hardware.registry import device_spec
from repro.latency.batching import BatchingModel
from repro.models.spec import model_spec
from repro.obs import TelemetryBus, use_telemetry
from repro.serving import (SHED_REASONS, AdmissionPolicy, ClusterConfig,
                           ClusterReport, ClusterSimulator,
                           FleetSimConfig, MicroBatcher, ReplicaSpec,
                           Request, generate_arrivals,
                           serving_slo_policy)

SINGLE = (ReplicaSpec(),)
OVERLOAD = ClusterConfig(replicas=SINGLE, num_streams=32, policy="full")
NOSHED_OVERLOAD = ClusterConfig(replicas=SINGLE, num_streams=32,
                                policy="none")
#: Per-frame cross-validation against the analytic model: a saturated
#: replica whose batches are capped at 8 always ships full batches.
SATURATED_B8 = ClusterConfig(
    replicas=(ReplicaSpec(max_batch=8, queue_capacity=512),),
    num_streams=16, policy="none")


def single(**kwargs) -> ClusterConfig:
    kwargs.setdefault("replicas", SINGLE)
    return ClusterConfig(**kwargs)


@pytest.fixture(scope="module")
def overload_report():
    return ClusterSimulator(OVERLOAD).run()


@pytest.fixture(scope="module")
def noshed_report():
    return ClusterSimulator(NOSHED_OVERLOAD).run()


@pytest.fixture(scope="module")
def saturated_report():
    return ClusterSimulator(SATURATED_B8).run()


class TestRequestStreams:
    def test_arrivals_sorted_and_complete(self):
        reqs = generate_arrivals(4, 10.0, 2.0, 100.0)
        assert len(reqs) == 4 * 20
        times = [r.arrival_ms for r in reqs]
        assert times == sorted(times)
        assert {r.stream for r in reqs} == set(range(4))

    def test_jitter_is_seeded(self):
        a = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=9)
        b = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=9)
        c = generate_arrivals(3, 10.0, 1.0, 100.0, jitter_ms=5.0,
                              seed=10)
        assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
        assert [r.arrival_ms for r in a] != [r.arrival_ms for r in c]

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            generate_arrivals(0, 10.0, 1.0, 100.0)
        with pytest.raises(BenchmarkError):
            generate_arrivals(1, 10.0, 1.0, -1.0)
        with pytest.raises(BenchmarkError):
            Request(stream=0, seq=0, arrival_ms=5.0, deadline_ms=5.0)
        with pytest.raises(BenchmarkError):
            generate_arrivals(2, 10.0, 1.0, 100.0, streams=[2])
        with pytest.raises(BenchmarkError):
            generate_arrivals(2, 10.0, 1.0, 100.0, ramp=(1.0, 0.0))

    def test_request_copies_and_pickles(self):
        req = Request(stream=1, seq=2, arrival_ms=3.0, deadline_ms=4.0)
        assert copy.deepcopy(req) == req
        assert pickle.loads(pickle.dumps(req)) == req
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.seq = 3

    def test_stream_subset_is_a_slice_of_the_schedule(self):
        """Each stream owns a fixed block of the jitter draws, so any
        subset of streams is exactly that slice of the full schedule."""
        full = generate_arrivals(5, 10.0, 1.0, 100.0, jitter_ms=5.0,
                                 seed=3, ramp=(1.0, 2.0))
        part = generate_arrivals(5, 10.0, 1.0, 100.0, jitter_ms=5.0,
                                 seed=3, ramp=(1.0, 2.0), streams=[4, 1])
        assert part == [r for r in full if r.stream in (1, 4)]
        assert generate_arrivals(5, 10.0, 1.0, 100.0, streams=[]) == []


class TestMicroBatcher:
    def _batcher(self, **kwargs):
        return MicroBatcher(4, lambda b: 10.0 * b, **kwargs)

    def _req(self, stream, seq, t, deadline=1000.0):
        return Request(stream=stream, seq=seq, arrival_ms=t,
                       deadline_ms=t + deadline)

    def test_round_robin_across_streams(self):
        b = self._batcher()
        # Stream 0 floods 6 requests before stream 1's single one.
        for i in range(6):
            b.push(self._req(0, i, float(i)))
        b.push(self._req(1, 0, 6.0))
        batch = b.take_batch()
        assert len(batch) == 4
        assert {r.stream for r in batch} == {0, 1}

    def test_full_batch_dispatches_now(self):
        b = self._batcher()
        for i in range(4):
            b.push(self._req(0, i, float(i)))
        assert b.next_dispatch_ms(50.0) == 50.0

    def test_slack_forces_partial_batch(self):
        b = self._batcher()
        b.push(self._req(0, 0, 0.0, deadline=100.0))
        # One pending request, exec 10 ms: must leave by t=90.
        assert b.next_dispatch_ms(0.0) == pytest.approx(90.0)

    def test_closes_before_a_newcomer_breaks_the_oldest_deadline(self):
        b = self._batcher()
        assert not b.must_close_before_newcomer(0.0)
        b.push(self._req(0, 0, 0.0, deadline=100.0))
        # Grown to two requests the batch runs 20 ms: it must leave
        # before t=80, though alone it could wait until t=90.
        assert not b.must_close_before_newcomer(80.0)
        assert b.must_close_before_newcomer(80.5)
        assert b.next_dispatch_ms(80.5) == pytest.approx(90.0)

    def test_capacity_and_validation(self):
        b = MicroBatcher(2, lambda b: 1.0, capacity=2)
        b.push(self._req(0, 0, 0.0))
        b.push(self._req(0, 1, 1.0))
        assert b.full
        with pytest.raises(BenchmarkError):
            b.push(self._req(0, 2, 2.0))
        with pytest.raises(BenchmarkError):
            MicroBatcher(0, lambda b: 1.0)
        with pytest.raises(BenchmarkError):
            MicroBatcher(4, lambda b: 1.0, capacity=2)
        with pytest.raises(BenchmarkError):
            self._batcher().take_batch()


def _burn_timeline(cfg, step_ms=250.0):
    """Per-step (slo_burn sheds, admissions) of a paused-and-resumed
    run, plus the final report."""
    sim = ClusterSimulator(cfg)
    steps, prev, k = [], (0, 0), 1
    while sim.run(pause_at_ms=step_ms * k) is None:
        rep = sim.live_report
        cur = (rep.shed["slo_burn"], rep.admitted)
        steps.append((cur[0] - prev[0], cur[1] - prev[1]))
        prev, k = cur, k + 1
    return steps, sim.live_report


class TestAdmission:
    def test_none_policy_only_bounds_queue(self):
        rep = ClusterSimulator(single(
            replicas=(ReplicaSpec(queue_capacity=16),), num_streams=32,
            policy="none", duration_s=4.0)).run()
        assert rep.shed["queue_full"] > 0
        assert rep.total_shed == rep.shed["queue_full"]
        assert rep.conservation_holds()

    def test_deadline_screening(self):
        rep = ClusterSimulator(single(
            num_streams=32, policy="deadline", duration_s=4.0)).run()
        assert rep.shed["deadline"] > 0
        assert rep.shed["slo_burn"] == 0
        assert rep.violation_rate < 0.01

    def test_burn_shedding_trips_and_clears(self):
        # SLO-only at 2x overload: no latency prediction, so requests
        # are shed only while the burn windows trip.
        steps, rep = _burn_timeline(single(
            num_streams=32, policy="slo", duration_s=4.0))
        assert rep.shed["slo_burn"] > 0
        assert rep.shed["deadline"] == 0
        tripped = [i for i, (shed, admitted) in enumerate(steps)
                   if shed and not admitted]
        assert tripped
        # The burn clears: admissions resume after a fully shed step.
        assert any(admitted for _, admitted in steps[tripped[0] + 1:])

    def test_restore_mid_burn_matches_uninterrupted(self):
        cfg = single(num_streams=32, policy="slo", duration_s=4.0)
        steps, uninterrupted = _burn_timeline(cfg)
        # Pause inside a step that sheds, right before another that does.
        k = next(i for i in range(len(steps) - 1)
                 if steps[i][0] and steps[i + 1][0])
        paused = ClusterSimulator(cfg)
        assert paused.run(pause_at_ms=250.0 * (k + 1)) is None
        blob = json.dumps(paused.snapshot(), sort_keys=True)
        resumed = ClusterSimulator.restore(cfg, json.loads(blob)).resume()
        assert json.dumps(resumed.summary(), sort_keys=True) == \
            json.dumps(uninterrupted.summary(), sort_keys=True)
        assert resumed.latencies_ms == uninterrupted.latencies_ms

    def test_slo_policy_scaling(self):
        policy = serving_slo_policy(42.0)
        (obj,) = policy.objectives
        assert obj.threshold_ms == 42.0
        assert policy.fast.window_s < policy.slow.window_s


class TestServingInvariants:
    def test_request_conservation(self, overload_report,
                                  noshed_report):
        for rep in (overload_report, noshed_report):
            assert rep.conservation_holds()
            assert rep.generated == OVERLOAD.num_streams * int(
                OVERLOAD.frame_rate * OVERLOAD.duration_s)

    def test_no_starvation_under_overload(self, overload_report):
        counts = list(overload_report.per_stream_completed.values())
        assert len(counts) == OVERLOAD.num_streams
        assert min(counts) > 0
        assert min(counts) >= 0.5 * (sum(counts) / len(counts))

    def test_every_batch_fits_the_deadline_budget(self):
        sim = ClusterSimulator(OVERLOAD)
        budget = sim.deadline_ms * OVERLOAD.batch_budget_fraction
        assert sim.batch_latency_ms(0, sim.max_batch[0]) <= budget
        rep = sim.run()
        assert max(rep.batch_sizes) <= sim.max_batch[0]

    def test_shedder_holds_p99_under_deadline(self, overload_report,
                                              noshed_report):
        deadline = overload_report.deadline_ms
        assert overload_report.p99_ms <= deadline + 1e-9
        assert overload_report.violation_rate < 0.01
        # Without shedding the same load blows the SLO wide open.
        assert noshed_report.violation_rate > 0.5
        assert noshed_report.p99_ms > deadline

    def test_shedding_preserves_goodput(self, overload_report,
                                        noshed_report):
        assert overload_report.throughput_fps >= \
            0.95 * noshed_report.throughput_fps

    def test_rerun_is_byte_identical(self):
        cfg = single(num_streams=24, policy="full",
                     arrival_jitter_ms=3.0, seed=1234, duration_s=4.0)
        a = ClusterSimulator(cfg).run()
        b = ClusterSimulator(cfg).run()
        assert json.dumps(a.summary(), sort_keys=True) == \
            json.dumps(b.summary(), sort_keys=True)
        assert a.latencies_ms == b.latencies_ms
        assert a.batch_sizes == b.batch_sizes

    def test_low_load_violation_free(self):
        rep = ClusterSimulator(single(num_streams=4,
                                      policy="none")).run()
        assert rep.violation_rate == 0.0
        assert rep.admitted_fraction == 1.0

    @pytest.mark.parametrize("replicas", (1, 2, 4))
    def test_light_load_deadline_screening_is_violation_free(
            self, replicas):
        # Below saturation a screened, fault-free pool meets every
        # deadline: a pending batch closes before a newcomer would
        # push it past its oldest request's deadline.
        for streams in range(2, 17, 2):
            rep = ClusterSimulator(ClusterConfig(
                replicas=(ReplicaSpec(),) * replicas,
                num_streams=streams, policy="deadline")).run()
            assert rep.violation_rate == 0.0, (replicas, streams)


class TestBatchingModelCrossValidation:
    def test_batch_cap_matches_analytic_per_frame(self,
                                                  saturated_report):
        """Acceptance: simulated per-frame latency of a saturated
        replica agrees with ``BatchingModel.batch_point`` within 1 %."""
        spec = SATURATED_B8.replicas[0]
        point = BatchingModel().batch_point(
            model_spec(spec.model), device_spec(spec.device), 8)
        assert saturated_report.mean_batch == 8.0
        assert saturated_report.exec_per_frame_ms == pytest.approx(
            point.per_frame_ms, rel=0.01)

    def test_saturated_throughput_tracks_analytic(self,
                                                  saturated_report):
        spec = SATURATED_B8.replicas[0]
        point = BatchingModel().batch_point(
            model_spec(spec.model), device_spec(spec.device), 8)
        assert saturated_report.throughput_fps == pytest.approx(
            point.throughput_fps, rel=0.02)

    def test_auto_max_batch_uses_batching_model(self):
        sim = ClusterSimulator(single())
        bm = BatchingModel()
        best, _ = bm.best_batch_under_deadline(
            "yolov8-m", "rtx4090",
            sim.deadline_ms * sim.config.batch_budget_fraction)
        assert sim.max_batch == [best]

    def test_infeasible_budget_falls_back_to_singles(self):
        sim = ClusterSimulator(single(
            replicas=(ReplicaSpec(model="yolov8-x", device="xavier-nx"),),
            deadline_ms=10.0))
        assert sim.max_batch == [1]


class TestServingTelemetry:
    def test_stage_sketches_reach_the_bus(self):
        bus = TelemetryBus()
        with use_telemetry(bus):
            rep = ClusterSimulator(single(num_streams=6,
                                          duration_s=3.0)).run()
        stages = set(bus.stages())
        assert {"e2e", "queue", "batch", "exec"} <= stages
        e2e = sum(
            bus.cumulative_sketch(d, "e2e").count
            for d in bus.devices()
            if bus.cumulative_sketch(d, "e2e") is not None)
        assert e2e == rep.completed
        batch = bus.cumulative_sketch("replica-0", "batch")
        assert batch is not None
        assert batch.count == len(rep.batch_sizes)

    def test_null_bus_emits_nothing(self):
        rep = ClusterSimulator(single(num_streams=6,
                                      duration_s=3.0)).run()
        assert rep.completed > 0  # ran fine without a bus


class TestSingleReplicaConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(BenchmarkError):
            single(num_streams=0)
        with pytest.raises(BenchmarkError):
            single(deadline_ms=-1.0)
        with pytest.raises(BenchmarkError):
            single(batch_budget_fraction=0.0)
        with pytest.raises(BenchmarkError):
            single(arrival_jitter_ms=-0.5)
        with pytest.raises(ValueError):
            single(policy="warp-speed")
        with pytest.raises(ValueError):
            FleetSimConfig(policy="warp-speed")

    def test_policy_string_coercion(self):
        assert single(policy="slo").policy is AdmissionPolicy.SLO
        assert FleetSimConfig(policy="full").policy is \
            AdmissionPolicy.FULL
        assert ClusterConfig().policy is AdmissionPolicy.DEADLINE

    def test_empty_report_guards(self):
        # An all-shed run violated nothing: rate is 0.0, not a crash.
        rep = ClusterReport(router="least-loaded",
                            replicas=["yolov8-m@rtx4090"],
                            deadline_ms=100.0)
        assert rep.violation_rate == 0.0
        assert rep.mean_batch == 0.0
        assert rep.exec_per_frame_ms == 0.0
        assert rep.summary()["violation_rate"] == 0.0
        assert set(rep.shed) == set(SHED_REASONS)

    def test_all_shed_run_summarises(self):
        # Regression: queue_capacity=1 plus an infeasible deadline on
        # a slow device sheds every request; summary() must not raise.
        cfg = single(replicas=(ReplicaSpec(model="yolov8-x",
                                           device="xavier-nx",
                                           queue_capacity=1),),
                     deadline_ms=10.0, num_streams=8, duration_s=2.0,
                     policy=AdmissionPolicy.DEADLINE, seed=3)
        rep = ClusterSimulator(cfg).run()
        assert rep.completed == 0
        assert rep.total_shed == rep.generated
        out = rep.summary()
        assert out["violation_rate"] == 0.0
        assert out["completed"] == 0


class TestServeSimCli:
    def test_serve_sim_check_passes(self, capsys):
        assert main(["serve-sim", "--streams", "16", "--duration",
                     "3", "--check"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "throughput" in out

    def test_serve_sim_overload_no_shed_reports(self, capsys):
        assert main(["serve-sim", "--streams", "32", "--duration",
                     "3", "--policy", "none"]) == 0
        assert "past deadline" in capsys.readouterr().out

    def test_serve_sim_policy_applies_to_the_cluster(self, capsys):
        assert main(["serve-sim", "--replicas", "2", "--streams", "64",
                     "--duration", "3", "--policy", "slo"]) == 0
        out = capsys.readouterr().out
        assert "slo_burn=" in out
        assert "deadline=" not in out

    def test_serve_sim_bad_model_errors(self, capsys):
        assert main(["serve-sim", "--model", "resnet152"]) == 2
