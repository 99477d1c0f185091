"""Dynamic-batching inference serving on the injected clock.

The serving regime the paper's edge-cloud discussion implies — many
drone streams sharing workstation GPUs through a deadline-aware dynamic
micro-batcher — executed as a deterministic discrete-event simulation
with one event loop, :class:`ClusterSimulator`.  A one-replica pool is
the paper's single workstation; more replicas add failover routing,
retries, hedging and checkpoint/restore.  See
:mod:`repro.serving.batcher` for the batching policy,
:mod:`repro.serving.admission` for backpressure + SLO-burn shedding,
:mod:`repro.serving.cluster` for the event loop, and
:mod:`repro.serving.fleet` for cell-sharded fleets with autoscaling.
"""

from .request import Request, generate_arrivals
from .batcher import MicroBatcher
from .admission import AdmissionPolicy, serving_slo_policy
from .cluster import (SHED_REASONS, ClusterConfig, ClusterReport,
                      ClusterSimulator, ReplicaSpec, RouterPolicy,
                      default_chaos_faults)
from .fleet import (AutoscalePolicy, Autoscaler, FleetReport,
                    FleetSimConfig, FleetSimulator, cell_streams,
                    generate_fleet_arrivals, merge_cell_reports,
                    stream_cell)

__all__ = [
    "Request", "generate_arrivals",
    "MicroBatcher",
    "AdmissionPolicy", "serving_slo_policy",
    "SHED_REASONS", "ClusterConfig", "ClusterReport", "ClusterSimulator",
    "ReplicaSpec", "RouterPolicy", "default_chaos_faults",
    "AutoscalePolicy", "Autoscaler", "FleetReport", "FleetSimConfig",
    "FleetSimulator", "cell_streams", "generate_fleet_arrivals",
    "merge_cell_reports", "stream_cell",
]
