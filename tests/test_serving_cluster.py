"""Chaos-serving invariants: replica pools, failover, checkpointing.

The load-bearing guarantees of :mod:`repro.serving.cluster`:

* request conservation through crash/requeue (nothing lost silently);
* chaos runs are byte-identical across reruns (seeded downtime draws,
  total event order);
* ``snapshot()`` → ``restore()`` → ``resume()`` reproduces the
  uninterrupted run byte-for-byte, including through a JSON
  round-trip of the checkpoint;
* a 2-replica pool under the canned chaos ladder loses zero admitted
  requests and holds chaos p99 within 2× of nominal, while the same
  ladder kills requests on a single server (the point of replication).
"""

import dataclasses
import json

import pytest

import repro.serving.cluster as cluster_mod
from repro.errors import (BenchmarkError, ConfigError,
                          SerializationError)
from repro.faults import (AdaptiveEnvelope, FaultInjector, FaultKind,
                          FaultSpec, ServerFaultStream)
from repro.obs import TelemetryBus, use_telemetry
from repro.serving import (ClusterConfig, ClusterReport, ClusterSimulator,
                           MicroBatcher, ReplicaSpec, Request,
                           RouterPolicy, default_chaos_faults)

CHAOS = default_chaos_faults(10.0, 2)


def run_summary(**kwargs):
    cfg = ClusterConfig(seed=7, **kwargs)
    return ClusterSimulator(cfg).run().summary()


@pytest.fixture(scope="module")
def nominal():
    return ClusterSimulator(ClusterConfig(seed=7)).run()


@pytest.fixture(scope="module")
def chaos():
    return ClusterSimulator(ClusterConfig(seed=7, faults=CHAOS)).run()


class TestServerFaultSpecs:
    def test_server_kinds_need_replica_and_windows(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SERVER_CRASH, magnitude=100.0)
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      magnitude=0.0)
        with pytest.raises(ConfigError):  # crash has no end window
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      magnitude=10.0, end_ms=5.0)
        with pytest.raises(ConfigError):  # slowdown must slow down
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                      magnitude=0.5, end_ms=10.0)
        with pytest.raises(ConfigError):  # window must be ordered
            FaultSpec(FaultKind.SERVER_PARTITION, replica=0,
                      start_ms=10.0, end_ms=5.0)

    def test_frame_kinds_reject_server_fields(self):
        with pytest.raises(ConfigError):
            FaultSpec(FaultKind.SENSOR_DROPOUT, start_frame=0,
                      end_frame=10, probability=0.5, replica=1)

    def test_active_window_queries(self):
        spec = FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                         start_ms=100.0, end_ms=200.0, magnitude=2.0)
        assert not spec.active_ms(99.9)
        assert spec.active_ms(100.0)
        assert spec.active_ms(199.9)
        assert not spec.active_ms(200.0)
        crash = FaultSpec(FaultKind.SERVER_CRASH, replica=1,
                          start_ms=50.0, magnitude=10.0)
        assert crash.label == "server_crash:r1"

    def test_frame_injector_rejects_server_kinds(self):
        spec = FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                         start_ms=0.0, magnitude=10.0)
        with pytest.raises(ConfigError):
            FaultInjector([spec], seed=1)

    def test_stream_rejects_frame_kinds(self):
        frame = FaultSpec(FaultKind.SENSOR_DROPOUT, start_frame=0,
                          end_frame=10, probability=0.5)
        with pytest.raises(ConfigError):
            ServerFaultStream([frame])

    def test_stream_queries(self):
        specs = (
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      start_ms=200.0, magnitude=50.0),
            FaultSpec(FaultKind.SERVER_CRASH, replica=0,
                      start_ms=100.0, magnitude=50.0),
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=1,
                      start_ms=0.0, end_ms=100.0, magnitude=2.0),
            FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=1,
                      start_ms=50.0, end_ms=150.0, magnitude=3.0),
            FaultSpec(FaultKind.SERVER_PARTITION, replica=1,
                      start_ms=10.0, end_ms=20.0),
            FaultSpec(FaultKind.SERVER_PARTITION, replica=1,
                      start_ms=15.0, end_ms=30.0),
        )
        stream = ServerFaultStream(specs)
        crashes = stream.crash_schedule(0)
        assert [c.start_ms for c in crashes] == [100.0, 200.0]
        assert stream.crash_schedule(1) == []
        assert stream.slowdown(1, 75.0) == pytest.approx(6.0)
        assert stream.slowdown(1, 125.0) == pytest.approx(3.0)
        assert stream.slowdown(0, 75.0) == 1.0
        assert stream.partitioned(1, 12.0)
        assert not stream.partitioned(1, 30.0)
        # overlapping windows chain: 10–20 extends through 15–30
        assert stream.partition_clears_ms(1, 12.0) == 30.0
        with pytest.raises(ConfigError):
            stream.validate_replicas(1)


class TestAdaptiveEnvelope:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=1.0, floor_ms=10.0)
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=2.0, floor_ms=-1.0)
        with pytest.raises(ConfigError):
            AdaptiveEnvelope(envelope=2.0, floor_ms=10.0, beta=0.0)

    def test_tracks_ewma_with_floor(self):
        env = AdaptiveEnvelope(envelope=2.0, floor_ms=50.0, beta=0.5)
        # No observations: seeded by the caller's cost estimate.
        assert env.timeout_ms(100.0) == 200.0
        assert env.timeout_ms(10.0) == 50.0  # floor wins
        env.observe(100.0)
        env.observe(200.0)  # EWMA: 150
        assert env.timeout_ms(10.0) == pytest.approx(300.0)


class TestClusterConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(BenchmarkError):
            ClusterConfig(replicas=())
        with pytest.raises(BenchmarkError):
            ClusterConfig(max_retries=-1)
        with pytest.raises(BenchmarkError):
            ClusterConfig(timeout_envelope=1.0)
        with pytest.raises(BenchmarkError):
            ClusterConfig(hedge_quantile=1.0)
        with pytest.raises(BenchmarkError):
            ClusterConfig(arrival_jitter_ms=-1.0)
        with pytest.raises(ConfigError):
            # fault targets a replica the pool doesn't have
            ClusterConfig(replicas=(ReplicaSpec(),),
                          faults=default_chaos_faults(10.0, 2))
        with pytest.raises(BenchmarkError):
            ReplicaSpec(queue_capacity=0)

    def test_router_string_coercion(self):
        cfg = ClusterConfig(router="fastest")
        assert cfg.router is RouterPolicy.FASTEST

    def test_default_chaos_faults_shape(self):
        faults = default_chaos_faults(10.0, 2)
        kinds = sorted(f.kind.value for f in faults)
        assert kinds == ["server_crash", "server_slowdown"]
        solo = default_chaos_faults(10.0, 1)
        assert all(f.replica == 0 for f in solo)
        with pytest.raises(BenchmarkError):
            default_chaos_faults(0.0)


class TestBatcherFailoverSupport:
    @staticmethod
    def _batcher():
        return MicroBatcher(4, lambda b: 10.0 * b, capacity=16)

    def test_remove_withdraws_queued_request(self):
        mb = self._batcher()
        reqs = [Request(stream=s, seq=0, arrival_ms=float(s),
                        deadline_ms=100.0) for s in range(3)]
        for r in reqs:
            mb.push(r)
        assert mb.remove(reqs[1])
        assert mb.pending == 2
        assert not mb.remove(reqs[1])  # already gone
        batch = mb.take_batch()
        assert reqs[1] not in batch

    def test_drain_returns_everything_oldest_first(self):
        mb = self._batcher()
        reqs = [Request(stream=s % 2, seq=s // 2,
                        arrival_ms=float(10 - s), deadline_ms=100.0)
                for s in range(4)]
        for r in reqs:
            mb.push(r)
        out = mb.drain()
        assert mb.pending == 0
        assert [r.arrival_ms for r in out] == sorted(
            r.arrival_ms for r in reqs)

    def test_state_round_trip(self):
        mb = self._batcher()
        for s in range(3):
            mb.push(Request(stream=s, seq=0, arrival_ms=float(s),
                            deadline_ms=100.0))
        mb.take_batch()  # advance the rotation
        mb.push(Request(stream=0, seq=1, arrival_ms=5.0,
                        deadline_ms=105.0))
        snap = json.loads(json.dumps(mb.state()))
        mb2 = self._batcher()
        mb2.restore_state(snap)
        assert mb2.pending == mb.pending
        assert mb2.state() == mb.state()


class TestChaosInvariants:
    def test_conservation_through_crash_requeue(self, chaos):
        assert chaos.replica_crashes[1] == 1
        assert chaos.requeued_on_crash > 0
        assert chaos.conservation_holds()
        assert chaos.generated == chaos.completed + chaos.total_shed
        assert sum(chaos.per_stream_completed.values()) \
            == chaos.completed
        assert sum(chaos.per_stream_shed.values()) == chaos.total_shed

    def test_two_replicas_lose_no_admitted_requests(self, chaos,
                                                    nominal):
        # The headline failover claim: a crash costs work, never
        # admitted requests — and chaos p99 stays within 2× nominal.
        assert chaos.lost_requests == 0
        assert chaos.admitted == chaos.completed
        assert chaos.p99_ms <= 2.0 * nominal.p99_ms
        assert chaos.crash_recoveries_ms  # recovery time measured
        assert chaos.mttr_ms > 0
        assert chaos.availability(1) < 1.0 <= chaos.availability(0)

    def test_single_server_loses_requests_under_same_ladder(self):
        cfg = ClusterConfig(replicas=(ReplicaSpec(),), seed=7,
                            faults=default_chaos_faults(10.0, 1))
        rep = ClusterSimulator(cfg).run()
        assert rep.conservation_holds()  # losses are *counted*
        assert rep.lost_requests > 0
        assert rep.shed["no_replica"] > 0

    def test_chaos_rerun_is_byte_identical(self, chaos):
        again = ClusterSimulator(
            ClusterConfig(seed=7, faults=CHAOS)).run()
        assert json.dumps(again.summary(), sort_keys=True) \
            == json.dumps(chaos.summary(), sort_keys=True)

    def test_seed_changes_downtime_draw(self, chaos):
        other = ClusterSimulator(
            ClusterConfig(seed=8, faults=CHAOS)).run()
        assert other.downtimes_ms != chaos.downtimes_ms

    def test_partition_on_all_replicas_sheds_no_replica(self):
        faults = tuple(
            FaultSpec(FaultKind.SERVER_PARTITION, replica=r,
                      start_ms=3000.0, end_ms=4000.0)
            for r in range(2))
        s = run_summary(faults=faults)
        assert s["shed"]["no_replica"] > 0
        assert s["lost_requests"] == 0

    def test_timeout_reroutes_under_heavy_slowdown(self):
        faults = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                            start_ms=1000.0, end_ms=8000.0,
                            magnitude=8.0),)
        s = run_summary(faults=faults, policy="none", num_streams=16)
        assert s["timeout_reroutes"] > 0
        assert s["lost_requests"] == 0

    def test_hedging_races_and_wins(self):
        faults = (FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0,
                            start_ms=2000.0, end_ms=6000.0,
                            magnitude=4.0),)
        plain = run_summary(faults=faults, policy="none")
        hedged = run_summary(faults=faults, policy="none",
                             hedge_quantile=0.95)
        assert hedged["hedged"] > 0
        assert hedged["hedge_wins"] > 0
        assert hedged["hedge_wasted_ms"] >= 0
        assert hedged["p99_ms"] <= plain["p99_ms"]
        assert hedged["completed"] == plain["completed"]


class TestRouterPolicies:
    def test_fastest_routes_around_slowdown(self):
        # Deadline-aware routing avoids the throttled replica, so it
        # sheds nothing where least-loaded sheds at the door.
        ll = run_summary(faults=CHAOS, router="least-loaded")
        fast = run_summary(faults=CHAOS, router="fastest")
        assert fast["shed"]["deadline"] < ll["shed"]["deadline"]
        assert fast["completed"] >= ll["completed"]

    def test_round_robin_cycles_replicas(self):
        rep = ClusterSimulator(
            ClusterConfig(seed=7, router="round-robin")).run()
        counts = list(rep.replica_completed.values())
        assert min(counts) > 0
        assert abs(counts[0] - counts[1]) <= rep.completed * 0.1

    def test_heterogeneous_pool(self):
        cfg = ClusterConfig(
            replicas=(ReplicaSpec(model="yolov8-m", device="rtx4090"),
                      ReplicaSpec(model="yolov8-n",
                                  device="orin-agx")),
            router="fastest", seed=7)
        rep = ClusterSimulator(cfg).run()
        assert rep.conservation_holds()
        assert rep.summary()["replicas"] == [
            "yolov8-m@rtx4090", "yolov8-n@orin-agx"]


class TestCheckpointRestore:
    @pytest.mark.parametrize("pause_ms", [1000.0, 4000.0, 4500.0])
    def test_restore_then_resume_is_byte_identical(self, pause_ms,
                                                   chaos):
        # 4500 ms pauses *inside* the crash downtime window.
        cfg = ClusterConfig(seed=7, faults=CHAOS)
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=pause_ms) is None
        blob = json.dumps(sim.snapshot(), sort_keys=True)
        revived = ClusterSimulator.restore(cfg, json.loads(blob))
        resumed = revived.resume()
        assert json.dumps(resumed.summary(), sort_keys=True) \
            == json.dumps(chaos.summary(), sort_keys=True)

    def test_snapshot_does_not_alias_live_state(self):
        cfg = ClusterConfig(seed=7, faults=CHAOS)
        sim = ClusterSimulator(cfg)
        sim.run(pause_at_ms=3000.0)
        snap = sim.snapshot()
        before = json.dumps(snap, sort_keys=True)
        sim.resume()  # keep running the live sim
        assert json.dumps(snap, sort_keys=True) == before

    def test_snapshot_guards(self):
        sim = ClusterSimulator(ClusterConfig(seed=7))
        with pytest.raises(BenchmarkError):
            sim.snapshot()
        with pytest.raises(BenchmarkError):
            sim.resume()
        with pytest.raises(BenchmarkError):
            ClusterSimulator.restore(ClusterConfig(seed=7),
                                     {"schema": 99})
        cfg = ClusterConfig(seed=1, num_streams=8, duration_s=1.0)
        paused = ClusterSimulator(cfg)
        assert paused.run(pause_at_ms=500.0) is None
        good = json.loads(json.dumps(paused.snapshot()))
        bad_inputs = [
            ("arr_i", lambda snap: snap.pop("arr_i")),
            ("now", lambda snap: snap.update(now="soon")),
            ("retry", lambda snap: snap.update(retry=None)),
            ("rr_cursor", lambda snap: snap.update(rr_cursor=True)),
            ("config_sha256", lambda snap: snap.pop("config_sha256")),
            ("arr_i", lambda snap: snap.update(arr_i=10**6)),
            ("specs", lambda snap: snap["specs"].pop()),
        ]
        for field_name, corrupt in bad_inputs:
            snap = json.loads(json.dumps(good))
            corrupt(snap)
            with pytest.raises(SerializationError, match=field_name):
                ClusterSimulator.restore(cfg, snap)
        # A snapshot only restores under the config that took it.
        other = ClusterConfig(seed=99, num_streams=4, duration_s=3.0)
        with pytest.raises(SerializationError, match="config_sha256"):
            ClusterSimulator.restore(other, good)
        resumed = ClusterSimulator.restore(cfg, good).resume()
        assert resumed.conservation_holds()

    def test_every_dropped_nested_field_is_named(self):
        # Paused inside the crash aftermath: replica 0 has a batch in
        # flight, requests are outstanding and one crash is recorded,
        # so every nested entry the snapshot can hold is present.
        cfg = ClusterConfig(seed=7, faults=CHAOS)
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=4000.0) is None
        good = json.loads(json.dumps(sim.snapshot()))
        assert good["replicas"][0]["in_flight"] is not None
        assert good["meta"] and good["crash_events"]
        nested = {
            "replicas[0]": good["replicas"][0],
            "replicas[0].queue": good["replicas"][0]["queue"],
            "replicas[0].in_flight": good["replicas"][0]["in_flight"],
            "meta[0][1]": good["meta"][0][1],
            "crash_events[0]": good["crash_events"][0],
            "report": good["report"],
        }
        paths = [f"{parent}.{name}" for parent, entry in nested.items()
                 for name in entry]
        assert "report.latencies_ms" in paths
        assert len(paths) > 40
        for path in paths:
            snap = json.loads(json.dumps(good))
            parent, name = path.rsplit(".", 1)
            entry = snap
            for part in parent.replace("]", "").replace("[", ".") \
                    .split("."):
                entry = entry[int(part) if part.isdigit() else part]
            del entry[name]
            with pytest.raises(SerializationError) as err:
                ClusterSimulator.restore(cfg, snap)
            assert repr(path) in str(err.value)

    def test_report_field_table_covers_cluster_report(self):
        # A ClusterReport field added without a snapshot type fails
        # here, not as an unreadable snapshot.
        names = [f.name for f in dataclasses.fields(ClusterReport)]
        assert list(cluster_mod._REPORT_FIELDS) == names

    @pytest.mark.parametrize("corrupt, path", [
        (lambda s: s["replicas"][0].update(retiring=1),
         "replicas[0].retiring"),
        (lambda s: s["replicas"][1].update(crash_idx=True),
         "replicas[1].crash_idx"),
        (lambda s: s["replicas"].__setitem__(0, []), "replicas[0]"),
        (lambda s: s["meta"].__setitem__(0, [[1, 2]]), "meta[0]"),
        (lambda s: s["meta"][0][1].update(reroutes="0"),
         "meta[0][1].reroutes"),
        (lambda s: s["report"].update(latencies_ms={}),
         "report.latencies_ms"),
        (lambda s: s["report"].update(surplus=0), "report.surplus"),
    ])
    def test_mistyped_nested_field_is_named(self, corrupt, path):
        cfg = ClusterConfig(seed=7, faults=CHAOS)
        sim = ClusterSimulator(cfg)
        assert sim.run(pause_at_ms=4000.0) is None
        snap = json.loads(json.dumps(sim.snapshot()))
        corrupt(snap)
        with pytest.raises(SerializationError) as err:
            ClusterSimulator.restore(cfg, snap)
        assert repr(path) in str(err.value)


class TestClusterObservability:
    def test_report_metrics_shape(self, chaos):
        s = chaos.summary()
        assert set(s["availability"]) == {"0", "1"}
        assert s["crashes"] == 1
        assert s["makespan_ms"] > 0
        assert isinstance(chaos.slo_burned(), bool)

    def test_telemetry_reaches_bus(self):
        bus = TelemetryBus()
        with use_telemetry(bus):
            ClusterSimulator(
                ClusterConfig(seed=7, faults=CHAOS)).run()
        stages = {(s.device, s.stage) for s in bus.samples}
        assert ("replica-0", "exec") in stages
        assert ("replica-1", "downtime") in stages
        assert ("router", "retry") in stages
