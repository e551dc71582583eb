"""Cluster layer: many simulated hosts on one virtual timeline.

* :class:`~repro.cluster.cluster.Cluster` — N fully wired hosts sharing
  one :class:`~repro.sim.core.Simulator`.
* :mod:`~repro.cluster.placement` — deterministic round-robin and
  least-loaded placement.
* :class:`~repro.cluster.churn.ClusterChurnDriver` — serverless churn
  (place, start, optional SeBS app, teardown) at burst sizes a single
  host's VF pool could never absorb.
* :mod:`~repro.cluster.sharded` — the same cluster split into K shards,
  each on its own simulator/worker process, stitched into one logical
  timeline by a deterministic placement protocol.
"""

from repro.cluster.churn import (
    ClusterChurnDriver,
    cluster_arrivals,
    run_cluster_cell,
)
from repro.cluster.cluster import Cluster
from repro.cluster.placement import (
    LeastLoadedPlacement,
    PLACEMENT_POLICIES,
    RoundRobinPlacement,
    make_placement,
)
from repro.cluster.shard import ClusterShard
from repro.cluster.sharded import (
    ShardFailure,
    min_startup_lookahead,
    partition_hosts,
    peak_concurrency,
    run_sharded_cluster,
)

__all__ = [
    "Cluster",
    "ClusterChurnDriver",
    "ClusterShard",
    "LeastLoadedPlacement",
    "PLACEMENT_POLICIES",
    "RoundRobinPlacement",
    "ShardFailure",
    "cluster_arrivals",
    "make_placement",
    "min_startup_lookahead",
    "partition_hosts",
    "peak_concurrency",
    "run_cluster_cell",
    "run_sharded_cluster",
]
