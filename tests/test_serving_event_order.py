"""Differential test: the cluster's timer heap picks the same event as a
full scan.

``ClusterSimulator._next_event`` keeps per-request timeouts and hedges
on a lazily invalidated heap.  The oracle below is the brute-force
scan it replaced: every replica, the retry head, the arrival cursor
and every outstanding request's timers, minimised under the total
event order.  At every step of hypothesis-drawn runs (pools of 1-4
replicas, 2-64 streams, chaos faults, hedging, jitter, every router,
a pause with a JSON snapshot/restore, and ``add_replica`` /
``drain_replica`` mid-run) the two must agree exactly.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultSpec
from repro.serving import (AdmissionPolicy, ClusterConfig,
                           ClusterSimulator, ReplicaSpec, RouterPolicy,
                           default_chaos_faults)
from repro.serving import cluster as cluster_module

_INF = float("inf")
SPEC = ReplicaSpec(model="yolov8-m", device="rtx4090")
#: An 8x throttle of replica 0: queues stall past the timeout envelope.
THROTTLE = FaultSpec(FaultKind.SERVER_SLOWDOWN, replica=0, start_ms=100.0,
                     end_ms=1500.0, magnitude=8.0)


def fault_ladder(kind, duration_s, replicas):
    """No faults, the chaos ladder, or its crash plus a heavy throttle."""
    if kind == "none":
        return ()
    chaos = default_chaos_faults(duration_s, replicas)
    return chaos if kind == "chaos" else chaos[:1] + (THROTTLE,)


def scan_next_event(sim):
    """The earliest pending event by exhaustive scan."""
    s = sim._s
    cands = [(_INF, 99, -1, (-1, -1))]
    for r, rep in enumerate(s["replicas"]):
        if rep["in_flight"] is not None:
            cands.append((rep["in_flight"]["done_ms"],
                          cluster_module._P_COMPLETE, r, (-1, -1)))
        schedule = sim.faults.crash_schedule(r)
        if rep["crash_idx"] < len(schedule):
            cands.append((schedule[rep["crash_idx"]].start_ms,
                          cluster_module._P_CRASH, r, (-1, -1)))
        if rep["down_until"] is not None:
            cands.append((rep["down_until"], cluster_module._P_RESTORE,
                          r, (-1, -1)))
        if rep["down_until"] is None and rep["in_flight"] is None \
                and rep["batcher"].pending:
            draining = s["arr_i"] >= len(sim._arrivals) \
                and not s["retry"]
            t_d = max(s["now"], rep["batcher"].next_dispatch_ms(
                s["now"], draining=draining))
            cands.append((t_d, cluster_module._P_DISPATCH, r, (-1, -1)))
    if s["retry"]:
        first = s["retry"][0]
        cands.append((first[0], cluster_module._P_RETRY, -1,
                      (first[1], first[2])))
    if s["arr_i"] < len(sim._arrivals):
        cands.append((sim._arrivals[s["arr_i"]].arrival_ms,
                      cluster_module._P_ARRIVAL, -1, (-1, -1)))
    for key in sorted(s["meta"]):
        m = s["meta"][key]
        if m["timeout_at"] is not None:
            cands.append((m["timeout_at"], cluster_module._P_TIMEOUT,
                          -1, key))
        if m["hedge_at"] is not None:
            cands.append((m["hedge_at"], cluster_module._P_HEDGE, -1,
                          key))
    return min(cands)


class OracleSimulator(ClusterSimulator):
    """Checks the heap's choice against the scan at every step."""

    kinds = set()

    def _next_event(self):
        expected = scan_next_event(self)
        got = super()._next_event()
        assert got == expected
        timers = self._s["timers"]
        assert len(timers) <= 4 * len(self._s["meta"]) + 16
        OracleSimulator.kinds.add(got[1])
        return got


@st.composite
def cluster_configs(draw):
    replicas = draw(st.integers(1, 4))
    duration_s = 1.0
    faults = draw(st.sampled_from(["none", "chaos", "throttle"]))
    hedge = draw(st.booleans())
    return ClusterConfig(
        replicas=(SPEC,) * replicas,
        num_streams=draw(st.integers(2, 64)),
        frame_rate=10.0, duration_s=duration_s,
        router=draw(st.sampled_from(list(RouterPolicy))),
        policy=draw(st.sampled_from(list(AdmissionPolicy))),
        faults=fault_ladder(faults, duration_s, replicas),
        hedge_quantile=0.9 if hedge else None,
        hedge_min_observations=5,
        arrival_jitter_ms=draw(st.sampled_from([0.0, 3.0, 12.5])),
        seed=draw(st.integers(0, 2**16)))


def summary_blob(report):
    return json.dumps(report.summary(), sort_keys=True)


@given(cfg=cluster_configs(),
       pause_ms=st.floats(50.0, 900.0),
       resize_ms=st.floats(100.0, 1200.0),
       drain_new=st.booleans())
@settings(max_examples=50, deadline=None)
def test_heap_matches_full_scan(cfg, pause_ms, resize_ms, drain_new):
    def elastic_tail(sim):
        idx = sim.add_replica(SPEC)
        sim.run(pause_at_ms=pause_ms + resize_ms)
        sim.drain_replica(idx if drain_new else 0)
        return sim.resume()

    sim = OracleSimulator(cfg)
    assert sim.run(pause_at_ms=pause_ms) is None
    snap = json.loads(json.dumps(sim.snapshot()))
    direct = elastic_tail(sim)
    restored = elastic_tail(OracleSimulator.restore(cfg, snap))
    assert direct.conservation_holds()
    assert summary_blob(restored) == summary_blob(direct)


def test_oracle_reaches_every_event_kind():
    """The drawn fault ladders fire every event kind, timers included:
    hedges under the chaos ladder, timeouts under the throttle with
    admission screening off."""
    OracleSimulator.kinds = set()
    for kind, hedge in (("chaos", 0.9), ("throttle", None)):
        cfg = ClusterConfig(
            replicas=(SPEC,) * 2, num_streams=32, duration_s=2.0,
            faults=fault_ladder(kind, 2.0, 2), hedge_quantile=hedge,
            hedge_min_observations=5, arrival_jitter_ms=5.0,
            policy=AdmissionPolicy.NONE, seed=7)
        assert OracleSimulator(cfg).run().conservation_holds()
    assert OracleSimulator.kinds >= {
        cluster_module._P_COMPLETE, cluster_module._P_CRASH,
        cluster_module._P_RESTORE, cluster_module._P_RETRY,
        cluster_module._P_ARRIVAL, cluster_module._P_TIMEOUT,
        cluster_module._P_HEDGE, cluster_module._P_DISPATCH}
