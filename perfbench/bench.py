"""The untraced run (end-to-end metrics) and the traced run (per-layer).

Both cycle over consecutive seeds from the given one, one fresh host or
cluster per cell, until the timed part reaches the requested seconds.
Checks and oracle runs happen between cells, outside the timed part.
"""

import contextlib
import ctypes
import gc
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from probe import reference as reference_task
from tracer import CELL_SPAN, RUN_SPAN, Tracer
from workloads import (PAPER_MEAN_S, UNVALIDATED_ERR, Cell, check_cell,
                       conservative_oracle, run_cell)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up probes per run, spread over the run's timed part so their
#: median sees the same host-speed drift as the cells' median.
SETUP_PROBES = 11

#: Host speed on a small shared machine drifts by tens of percent
#: within a minute, and CPU time drifts with it.  So each timed cell is
#: paired with the reference task (``probe.reference``), timed just
#: before and just after it (in this process, or for a cluster cell in a
#: :class:`ReferencePool`), and each set-up probe with the same task
#: timed in a fresh process just before it: fixed work that does not
#: use ``repro``.  Host times are reported scaled to a host on which
#: that task takes REFERENCE_S; a change to the program moves the cell,
#: not the task.
REFERENCE_S = 0.025

#: Reference tasks per timing in a :class:`ReferencePool` process, long
#: enough for the scheduler to share the cores out as it does over a
#: cluster cell.
POOL_REPEATS = 4


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method); kept
    apart from ``repro.metrics.stats`` so that a change there cannot
    move the benchmark's own figures."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count()


def _describe(exc):
    """Exception plus its cause, so a wrapped ResidualDataLeak shows."""
    text = f"{type(exc).__name__}: {exc}"
    if exc.__cause__ is not None:
        text += f" (caused by {type(exc.__cause__).__name__})"
    return text


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def probe_s(src_dir, *args):
    """Seconds a fresh ``probe.py`` process reports for its task."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), *args],
        env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True,
        text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class ReferencePool:
    """Reference-task processes (``probe.py serve``), one per shard.

    A cluster cell keeps every shard worker busy, and the slowest one
    sets each epoch, so it slows down when any core does.  The task
    timed in this process alone runs on whichever core is free and
    misses that.  The pool times the task in all its processes at once
    and reports the slowest.
    """

    def __init__(self, size):
        self.procs = []
        try:
            for _ in range(size):
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "probe.py"), "serve"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            self.time()  # warm-up: the first task in a process is slower
        except BaseException:
            self.close()
            raise

    def time(self):
        for proc in self.procs:
            proc.stdin.write(f"{POOL_REPEATS}\n")
            proc.stdin.flush()
        return max(float(proc.stdout.readline()) for proc in self.procs)

    def close(self):
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _reference_time(pool=None):
    """Seconds the reference task takes in this process (or in
    ``pool``), after a collection so no earlier garbage lands on it."""
    gc.collect()
    if pool is not None:
        return pool.time()
    began = perf_counter()
    reference_task()
    return perf_counter() - began


def _fresh_memory():
    """Hand freed memory back and restart the peak-RSS count, so the
    peak that follows is the next cell's.  Both steps are Linux/glibc
    only and skipped elsewhere."""
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        trim = None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


# ----------------------------------------------------------------------
# untraced run
# ----------------------------------------------------------------------
def run_plain(workload, seed, seconds, src_dir,
              oracle=conservative_oracle):
    """Timed cells until ``seconds`` of cell time and ``pool_cells``
    cells, with the set-up probes spread between them.

    Returns the :class:`Cell` list, the (set-up seconds, reference
    seconds) pairs, and the peak RSS of the first cell's shard workers
    in KiB.
    """
    setup_args = (workload.kind, workload.preset, str(workload.hosts),
                  str(seed))
    cells, setup = [], []
    workers_kb = 0
    timed = 0.0
    # Cluster cells are paired with the task timed on as many cores as
    # the cell has shards; host cells with the task in this process.
    with (ReferencePool(workload.shards) if workload.kind == "cluster"
          else contextlib.nullcontext()) as pool:
        while len(cells) < workload.pool_cells or timed < seconds:
            cell = Cell(seed=seed + len(cells))
            before = _reference_time(pool)
            _fresh_memory()
            began = perf_counter()
            try:
                cell.summary, cell.startups, _host = run_cell(workload,
                                                              cell.seed)
            except Exception as exc:  # a failed cell is counted, not fatal
                cell.failures.append(f"raised {_describe(exc)}")
            cell.wall_s = perf_counter() - began
            _host = None  # let the next gc.collect() free this cell's host
            timed += cell.wall_s
            cell.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            if not cells:
                # The kernel keeps one peak over all waited-for children.
                # Before any probe or oracle has run, that is the peak of
                # this cell's shard workers (0 on host workloads).
                workers_kb = resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss
            # The task timed just before and just after the cell brackets
            # the host speed the cell ran at.
            cell.reference_s = (before + _reference_time(pool)) / 2
            if not cell.failures and not _gets_oracle(workload, len(cells)):
                cell.failures.extend(check_cell(workload, cell.summary))
            # Reaches SETUP_PROBES by the last cell, when timed >= seconds.
            due = (int(SETUP_PROBES * min(1.0, timed / seconds)) if seconds
                   else SETUP_PROBES)
            while len(setup) < due:
                ref = probe_s(src_dir, "reference")
                setup.append((probe_s(src_dir, *setup_args), ref))
            cells.append(cell)
    # The oracle runs after the timed cells, so that the memory it
    # leaves behind does not raise the cells' peaks.
    for index, cell in enumerate(cells):
        if cell.failures or not _gets_oracle(workload, index):
            continue
        try:
            expected = oracle(workload, cell.seed)
        except Exception as exc:  # noqa: BLE001 - same as above
            cell.failures.append(f"oracle raised {_describe(exc)}")
            continue
        cell.startups = expected[1]
        cell.failures.extend(check_cell(workload, cell.summary, expected))
    return cells, setup, workers_kb


def _gets_oracle(workload, index):
    """The oracle costs more than a cell, so it runs on the pooled
    cluster cells only, whose startups it also supplies."""
    return workload.kind == "cluster" and index < workload.pool_cells


def end_to_end(workload, cells, setup, workers_kb):
    """The end-to-end metrics of an untraced run (see :func:`run_plain`),
    and the unscaled host times and pool size beside them."""
    ok = [cell for cell in cells if not cell.failures]
    pooled = [t for cell in cells[:workload.pool_cells] if not cell.failures
              for t in cell.startups]
    raw_us = [cell.wall_s / cell.summary["count"] * 1e6 for cell in ok]
    scaled_us = [us * REFERENCE_S / cell.reference_s
                 for us, cell in zip(raw_us, ok)]
    mean_s = statistics.fmean(pooled) if pooled else 0.0
    paper = PAPER_MEAN_S.get(workload.preset) if workload.kind == "host" else None
    metrics = {
        "wall_us_per_startup": (statistics.median(scaled_us)
                                if scaled_us else 0.0, "us"),
        "setup_s": (statistics.median(probe * REFERENCE_S / ref
                                      for probe, ref in setup), "s"),
        "peak_rss_mb": (max([workers_kb] + [c.peak_rss_kb for c in cells])
                        / 1024.0, "MB"),
        "sim_startup_mean_s": (mean_s, "s"),
        "sim_startup_p99_s": (percentile(pooled, 99) if pooled else 0.0, "s"),
        "paper_err_frac": (abs(mean_s - paper) / paper if paper
                           else UNVALIDATED_ERR, "frac"),
    }
    extras = {
        "pooled_startups": len(pooled),
        "unscaled_wall_us_per_startup": (statistics.median(raw_us)
                                         if raw_us else 0.0),
        "unscaled_setup_s": statistics.median(probe for probe, _r in setup),
        "reference_s": statistics.median(c.reference_s for c in cells),
    }
    return metrics, extras


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _timed(func, *args, **kwargs):
    gc.collect()
    began = perf_counter()
    result = func(*args, **kwargs)
    return result, perf_counter() - began


def _host_counters(hosts, records):
    """Counters read from the model objects after one traced cell."""
    from repro.metrics.timeline import PAPER_STEPS

    sims = {id(host.sim): host.sim for host in hosts}.values()
    locks = [stats for host in hosts
             for key, stats in host.contention_report().items()
             if key != "cpu-utilization"]
    fastiovds = [host.fastiovd for host in hosts if host.fastiovd is not None]
    ready = [record for record in records if record.t_ready is not None]
    counters = {
        "events": sum(sim.events_dispatched for sim in sims),
        "timers_cancelled": sum(sim.wheel_stats()["timers_cancelled"]
                                for sim in sims),
        "cpu_utilization": statistics.fmean(
            host.cpu.utilization() for host in hosts),
        "lock_wait_s": sum(stats.total_wait for stats in locks),
        "lock_contended": sum(stats.contended for stats in locks),
        "lock_acquisitions": sum(stats.acquisitions for stats in locks),
        "lock_max_queue": max((stats.max_queue for stats in locks), default=0),
        "ept_faults": sum(host.kvm.ept_faults_serviced for host in hosts),
        "bytes_zeroed": sum(host.vfio.bytes_zeroed_total for host in hosts),
        "background_zeroed_pages": sum(
            d.stats.background_zeroed_pages for d in fastiovds),
        "fault_zeroed_pages": sum(d.stats.fault_zeroed_pages for d in fastiovds),
        "instant_pages": sum(d.stats.instant_pages for d in fastiovds),
        "startups": len(ready),
        "vf_related_s": sum(record.vf_related_time() for record in ready),
    }
    for step in PAPER_STEPS:
        counters[f"step.{step}"] = sum(record.step_time(step)
                                       for record in ready)
    return counters


def _cluster_runtime(engine_stats, telemetry):
    """Sync-protocol, slowest-worker and wire numbers of one K>1 cell."""
    processes = telemetry["processes"]
    workers = [p for ident, p in processes.items()
               if ident.startswith("worker")]

    def phase(process, name):
        return process["phases"].get(name, [0.0, 0])[0]

    slowest = max(workers, key=lambda p: phase(p, "compute"))
    tx = [frames for p in processes.values()
          for frames in p["wire"].get("tx", {}).items()]
    speculated = engine_stats["sync_speculated_events"]
    replayed = engine_stats["sync_replayed_events"]
    return {
        "epochs": engine_stats["sync_epochs"],
        "barrier_wait_s": engine_stats["sync_barrier_wait_s"],
        "coordinator_wait_s": engine_stats["sync_coordinator_wait_s"],
        "coordinator_place_s": engine_stats["sync_coordinator_place_s"],
        "coordinator_reduce_s": engine_stats["sync_coordinator_reduce_s"],
        "placement_heap_ops": engine_stats["sync_placement_heap_ops"],
        "speculated_events": speculated,
        "rollbacks": engine_stats["sync_rollbacks"],
        "commit_frac": 1.0 - replayed / speculated if speculated else 1.0,
        "worker_compute_s": phase(slowest, "compute"),
        "worker_barrier_wait_s": phase(slowest, "barrier_wait"),
        "worker_ipc_s": phase(slowest, "ipc_send") + phase(slowest, "ipc_recv"),
        "worker_busy_frac": phase(slowest, "compute") / slowest["up_s"],
        "wire_frames": sum(count for _tag, (count, _bytes) in tx),
        "wire_bytes": sum(nbytes for _tag, (_count, nbytes) in tx),
        "wire_pickle_frames": sum(count for tag, (count, _bytes) in tx
                                  if tag == "P"),
    }


def traced_cell(workload, seed, tracer, cell_id):
    """One seed of the traced run; returns its row of raw numbers.

    The untraced run of the same seed comes first: it gives the
    overhead base and the results the traced run must reproduce.  For
    the cluster workload the layers are traced on the unsharded run
    (wrappers installed before a fork would record inside the shard
    workers), and the K-shard run is timed with the program's own
    telemetry for the sync, worker and wire numbers.
    """
    row = {"seed": seed, "failures": []}
    if workload.kind == "cluster":
        from repro.cluster.churn import run_cluster_cell

        engine_stats, telemetry = {}, {}
        sharded, row["sharded_s"] = _timed(
            run_cluster_cell, workload.preset, workload.concurrency,
            hosts=workload.hosts, seed=seed, rate_per_s=workload.rate_per_s,
            shards=workload.shards, sync=workload.sync,
            engine_stats=engine_stats, telemetry=telemetry)
        row["failures"] += check_cell(workload, sharded)
        row["runtime"] = _cluster_runtime(engine_stats, telemetry)
        shards = 1
    else:
        shards = None
    (plain, plain_startups, _host), row["untraced_s"] = _timed(
        run_cell, workload, seed, shards=shards)
    _host = None
    tracer.reset_cell_objects()
    gc.collect()
    with tracer, tracer.cell(cell_id):
        began = perf_counter()
        traced, traced_startups, _host = run_cell(workload, seed,
                                                  shards=shards)
        row["traced_s"] = perf_counter() - began
    _host = None
    tracer.finish_cell_regions()
    if traced != plain or traced_startups != plain_startups:
        row["failures"].append("tracing changed the cell's results")
    row["failures"] += check_cell(workload, traced)
    row.update(_host_counters(tracer.hosts, tracer.records))
    tracer.reset_cell_objects()
    return row


def run_traced(workload, seed, seconds):
    """Traced cells until ``seconds`` of cell time; returns (rows, tracer)."""
    tracer = Tracer()
    rows = []
    timed = 0.0
    while not rows or timed < seconds:
        try:
            row = traced_cell(workload, seed + len(rows), tracer, len(rows))
        except Exception as exc:  # noqa: BLE001 - counted as a failed cell
            row = {"seed": seed + len(rows),
                   "failures": [f"raised {_describe(exc)}"]}
        rows.append(row)
        timed += sum(row.get(key, 0.0) for key in
                     ("sharded_s", "untraced_s", "traced_s"))
        if row["failures"]:
            break
    return rows, tracer


def per_layer(workload, rows, tracer):
    """The per-layer metrics of a traced run (per-cell means)."""
    from repro.metrics.timeline import PAPER_STEPS

    rows = [row for row in rows if not row["failures"]]
    n = len(rows) or 1

    def total(key):
        return sum(row[key] for row in rows)

    by_name = tracer.by_name
    layers = tracer.layer_totals()

    def layer_self(layer):
        return layers.get(layer, {"self_s": 0.0})["self_s"] / n

    def calls(name):
        return by_name.get(name, [0])[0] / n

    def self_of(name):
        return by_name.get(name, [0, 0.0, 0.0])[2] / n

    def ratio(num, den):
        return num / den if den else 0.0

    events = total("events") / n
    startups = total("startups") / n
    memory_calls = layers.get("hw.memory", {"calls": 0})["calls"] / n
    faults = total("ept_faults") / n
    background = total("background_zeroed_pages") / n
    fault_zeroed = total("fault_zeroed_pages") / n
    traced_s = by_name.get(CELL_SPAN, [0, 0.0])[1] / n
    accounted = sum(value["self_s"] for layer, value in layers.items()
                    if layer != "bench.cell") / n
    metrics = {
        "sim.core.events": (events, "count"),
        "sim.core.events_per_startup": (ratio(events, startups), "count"),
        "sim.core.ns_per_event": (
            ratio(total("untraced_s") / n, events) * 1e9, "ns"),
        "sim.core.timers_cancelled": (total("timers_cancelled") / n, "count"),
        "sim.core.residual_s": (self_of(RUN_SPAN), "s"),
        "sim.cpu.jobs": (calls("sim.cpu.FairShareCPU.work"), "count"),
        "sim.cpu.self_s": (layer_self("sim.cpu"), "s"),
        "sim.cpu.utilization": (total("cpu_utilization") / n, "frac"),
        "sim.sync.lock_wait_s": (total("lock_wait_s") / n, "s"),
        "sim.sync.contended_frac": (
            ratio(total("lock_contended"), total("lock_acquisitions")),
            "frac"),
        "sim.sync.max_queue": (
            max((row["lock_max_queue"] for row in rows), default=0), "count"),
        "hw.memory.calls": (memory_calls, "count"),
        "hw.memory.self_s": (layer_self("hw.memory"), "s"),
        "hw.memory.ops_per_s": (
            ratio(memory_calls, layer_self("hw.memory")), "1/s"),
        "hw.memory.runs_per_region": (
            statistics.fmean(tracer.region_runs)
            if tracer.region_runs else 0.0, "count"),
        "hw.ept.inserts": (calls("hw.ept.EPT.insert"), "count"),
        "hw.ept.self_s": (layer_self("hw.ept"), "s"),
        "oskernel.kvm.ept_faults": (faults, "count"),
        "oskernel.kvm.fault_self_s": (
            self_of("oskernel.kvm.KVM.handle_ept_fault"), "s"),
        "oskernel.kvm.us_per_fault": (
            ratio(self_of("oskernel.kvm.KVM.handle_ept_fault"), faults) * 1e6,
            "us"),
        "oskernel.kvm.self_s": (layer_self("oskernel.kvm"), "s"),
        "oskernel.vfio.bytes_zeroed": (total("bytes_zeroed") / n, "bytes"),
        "oskernel.vfio.dma_map_calls": (
            calls("oskernel.vfio.VfioDriver.dma_map"), "count"),
        "oskernel.vfio.dma_map_self_s": (
            self_of("oskernel.vfio.VfioDriver.dma_map"), "s"),
        "oskernel.vfio.self_s": (layer_self("oskernel.vfio"), "s"),
        "oskernel.fastiovd.background_zeroed_pages": (background, "count"),
        "oskernel.fastiovd.fault_zeroed_pages": (fault_zeroed, "count"),
        "oskernel.fastiovd.instant_pages": (total("instant_pages") / n, "count"),
        "oskernel.fastiovd.self_s": (layer_self("oskernel.fastiovd"), "s"),
        "oskernel.fastiovd.fault_zeroed_frac": (
            ratio(fault_zeroed, fault_zeroed + background), "frac"),
        "containers.vf_related_mean_s": (
            ratio(total("vf_related_s"), total("startups")), "s"),
    }
    for step in PAPER_STEPS:
        metrics[f"containers.step.{step}.mean_s"] = (
            ratio(total(f"step.{step}"), total("startups")), "s")
    runtime = [row["runtime"] for row in rows if "runtime" in row]
    sharded_s = sum(row.get("sharded_s", 0.0) for row in rows)
    cluster = [
        ("cluster.sharded.epochs", "epochs", "count"),
        ("cluster.sharded.barrier_wait_s", "barrier_wait_s", "s"),
        ("cluster.sharded.coordinator_wait_s", "coordinator_wait_s", "s"),
        ("cluster.sharded.coordinator_place_s", "coordinator_place_s", "s"),
        ("cluster.sharded.coordinator_reduce_s", "coordinator_reduce_s", "s"),
        ("cluster.sharded.placement_heap_ops", "placement_heap_ops", "count"),
        ("cluster.sharded.speculated_events", "speculated_events", "count"),
        ("cluster.sharded.rollbacks", "rollbacks", "count"),
        ("cluster.sharded.commit_frac", "commit_frac", "frac"),
        ("cluster.worker.compute_s", "worker_compute_s", "s"),
        ("cluster.worker.barrier_wait_s", "worker_barrier_wait_s", "s"),
        ("cluster.worker.ipc_s", "worker_ipc_s", "s"),
        ("cluster.worker.busy_frac", "worker_busy_frac", "frac"),
        ("cluster.wire.frames", "wire_frames", "count"),
        ("cluster.wire.bytes", "wire_bytes", "bytes"),
        ("cluster.wire.pickle_frames", "wire_pickle_frames", "count"),
    ]
    for name, key, unit in cluster:
        value = (statistics.fmean(r[key] for r in runtime) if runtime
                 else 0.0)
        metrics[name] = (value, unit)
    metrics["cluster.sharded.speedup_x"] = (
        ratio(total("untraced_s"), sharded_s), "x")
    metrics["cluster.sharded.nproc"] = (nproc(), "count")
    metrics["trace_overhead_frac"] = (
        ratio(total("traced_s"), total("untraced_s")) - 1.0 if rows else 0.0,
        "frac")
    metrics["trace_accounted_frac"] = (ratio(accounted, traced_s), "frac")
    return metrics
