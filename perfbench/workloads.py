"""The benchmark's workloads, the cells they run and the checks on them.

A cell is one call of a public entry point with a fresh host or
cluster: ``launch_preset`` for the host workloads, ``run_cluster_cell``
for the cluster workload.  Neither goes through the experiment result
cache or the ``CellRunner`` pool.
"""

import dataclasses
import statistics

#: Paper Fig. 11 mean startup at c=200: vanilla 16.2 s, FastIOV 65.7 %
#: lower.  The cluster workload has no paper counterpart.
PAPER_MEAN_S = {"vanilla": 16.2, "fastiov": 16.2 * (1 - 0.657)}

#: ``paper_err_frac`` reported where no paper reference exists (the
#: cluster workload): the error is unknown, not small.
UNVALIDATED_ERR = 1.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: "host" (one host, burst launch) or "cluster".
    kind: str
    preset: str
    concurrency: int
    #: Cells whose startups are pooled into the ``sim_*`` metrics.
    #: Fixed, so those metrics are a pure function of the seed.
    pool_cells: int
    hosts: int = 1
    rate_per_s: float = 0.0
    shards: int = 1
    sync: str = "conservative"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_fastiov_c200", "host", "fastiov", 200, pool_cells=8),
        # Vanilla cells are ~4x cheaper; pooling 30 of them keeps the
        # seed-to-seed spread of paper_err_frac (a small difference of
        # large means) well inside its bound.
        Workload("paper_vanilla_c200", "host", "vanilla", 200, pool_cells=30),
        Workload("cluster_poisson_k2", "cluster", "fastiov", 300,
                 pool_cells=4, hosts=8, rate_per_s=150.0, shards=2,
                 sync="hierarchical"),
    )
}


@dataclasses.dataclass
class Cell:
    """What one cell produced."""

    seed: int
    #: Host seconds of the cell, and of the reference task (the mean of
    #: its times just before and just after the cell).
    wall_s: float = 0.0
    reference_s: float = 0.0
    #: Peak resident KiB of this process while the cell ran.
    peak_rss_kb: int = 0
    summary: dict = None
    #: Every container's simulated startup time.
    startups: list = None
    failures: list = dataclasses.field(default_factory=list)


def run_cell(workload, seed, shards=None):
    """Run one cell; returns (summary, startups or None, host or None).

    ``shards`` overrides the workload's shard count (cluster only).
    """
    if workload.kind == "host":
        from repro.experiments.runs import launch_preset

        host, result = launch_preset(workload.preset, workload.concurrency,
                                     seed=seed)
        startups = [record.startup_time for record in result.records
                    if record.t_ready is not None]
        return {"count": len(startups)}, startups, host
    from repro.cluster.churn import run_cluster_cell

    summary = run_cluster_cell(
        workload.preset, workload.concurrency, hosts=workload.hosts,
        seed=seed, rate_per_s=workload.rate_per_s,
        shards=workload.shards if shards is None else shards,
        sync=workload.sync,
    )
    return summary, None, None


def conservative_oracle(workload, seed):
    """The cluster oracle: the same cell under lockstep barriers.

    All three sync modes at one shard count give identical summaries
    (the unsharded run differs by design, so it is no oracle).  The
    flight-recorder trace of this run also yields every container's
    startup time, which ``run_cluster_cell`` does not return.
    """
    from repro.cluster.churn import run_cluster_cell

    trace = {}
    summary = run_cluster_cell(
        workload.preset, workload.concurrency, hosts=workload.hosts,
        seed=seed, rate_per_s=workload.rate_per_s, shards=workload.shards,
        sync="conservative", trace=trace,
    )
    return summary, startups_from_trace(trace)


def startups_from_trace(trace):
    """Startup times (ready - start) of every container in a trace."""
    startups = []
    for events in trace["tracks"].values():
        marks = {event[2]: event[1] for event in events if event[0] == "I"}
        if "start" in marks and "ready" in marks:
            startups.append(marks["ready"] - marks["start"])
    return startups


def check_cell(workload, summary, expected=None):
    """Correctness checks of one finished cell; returns failure strings.

    ``expected`` is the oracle's ``(summary, startups)`` for a cluster
    cell (see :func:`conservative_oracle`); without one only the
    invariants are checked.
    """
    failures = []
    if summary["count"] != workload.concurrency:
        failures.append(
            f"started {summary['count']} of {workload.concurrency}")
    if workload.kind == "host":
        return failures
    from repro.spec import PAPER_TESTBED

    want_vfs = workload.hosts * PAPER_TESTBED.nic_max_vfs
    if summary["free_vfs_total"] != want_vfs:
        failures.append(
            f"free VFs {summary['free_vfs_total']} != {want_vfs}")
    if expected is None:
        return failures
    ref_summary, ref_startups = expected
    if summary != ref_summary:
        diff = sorted(k for k in set(summary) | set(ref_summary)
                      if summary.get(k) != ref_summary.get(k))
        failures.append(f"summary differs from conservative sync: {diff}")
    if len(ref_startups) != summary["count"] or (
            ref_startups and
            abs(statistics.fmean(ref_startups) - summary["mean"])
            > 1e-9 * summary["mean"]):
        failures.append("traced startups do not reproduce the summary")
    return failures
