"""Tests for the sharded cluster runner (repro.cluster.sharded).

The contract under test: splitting a cluster over K shard simulators
(optionally K worker processes) is a wall-clock optimization only.
Round-robin and burst placements must come back *byte-identical* to the
single-process run for every K and worker count; spread-arrival
least-loaded follows the deterministic epoch-barrier protocol, which is
invariant to K, workers and sync mode (though intentionally a
conservative approximation of the single-process schedule).  The
in-process ``sync="conservative"`` reference is the oracle for those
cells.
"""

import hashlib
import json
import os
import time

import pytest

from repro.cluster import (
    ShardFailure,
    cluster_arrivals,
    min_startup_lookahead,
    partition_hosts,
    peak_concurrency,
    run_cluster_cell,
    run_sharded_cluster,
)
from repro.cluster.shard import ClusterShard
from repro.core import PRESETS
from repro.spec import PAPER_TESTBED


def _bytes(summary):
    return json.dumps(summary, sort_keys=True)


def _single(preset, concurrency, hosts, seed=0, **kw):
    return run_cluster_cell(preset, concurrency, hosts=hosts, seed=seed,
                            shards=1, **kw)


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
def test_partition_hosts_is_contiguous_and_balanced():
    assert partition_hosts(6, 3) == [(0, 2), (2, 4), (4, 6)]
    assert partition_hosts(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert partition_hosts(5, 1) == [(0, 5)]
    assert partition_hosts(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    ranges = partition_hosts(48, 8)
    assert ranges[0][0] == 0 and ranges[-1][1] == 48
    sizes = [stop - start for start, stop in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    # Regression: 50 hosts over 8 shards must spread the remainder one
    # host at a time across the leading shards — never pile the whole
    # remainder onto one shard (a skew of up to shards-1 hosts).
    ranges = partition_hosts(50, 8)
    sizes = [stop - start for start, stop in ranges]
    assert sizes == [7, 7, 6, 6, 6, 6, 6, 6]
    assert ranges[0][0] == 0 and ranges[-1][1] == 50
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    # Property: the remainder never skews any split by more than one.
    for hosts in range(1, 97):
        for shards in range(1, hosts + 1):
            sizes = [stop - start
                     for start, stop in partition_hosts(hosts, shards)]
            assert sum(sizes) == hosts
            assert max(sizes) - min(sizes) <= 1, (hosts, shards)


def test_partition_hosts_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        partition_hosts(4, 0)
    with pytest.raises(ValueError):
        partition_hosts(4, 5)


def test_peak_concurrency_counts_overlap_with_arrivals_first_at_ties():
    assert peak_concurrency([]) == 0
    assert peak_concurrency([(0.0, 1.0), (2.0, 3.0)]) == 1
    assert peak_concurrency([(0.0, 2.0), (1.0, 3.0), (1.5, 4.0)]) == 3
    # An arrival at exactly a completion time counts as overlapping,
    # matching the in-simulator semantics (same-timestamp arrivals are
    # dispatched in spawn order, before the completion's bookkeeping).
    assert peak_concurrency([(0.0, 1.0), (1.0, 2.0)]) == 2


def test_lookahead_is_positive_for_every_preset():
    for name in PRESETS:
        spec = PAPER_TESTBED
        assert min_startup_lookahead(spec) > 0
        assert name  # every preset shares the testbed spec


def test_run_until_steps_clock_without_skipping_events():
    from repro.sim.core import Simulator, Timeout

    sim = Simulator()
    fired = []

    def proc():
        yield Timeout(1.0)
        fired.append(sim.now)
        yield Timeout(1.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run_until(0.5)
    assert sim.now == 0.5 and fired == []
    sim.run_until(1.0)
    assert sim.now == 1.0 and fired == [1.0]
    with pytest.raises(ValueError):
        sim.run_until(0.25)
    sim.run_until(5.0)
    assert sim.now == 5.0 and fired == [1.0, 2.0]


# ----------------------------------------------------------------------
# Byte-identity: burst and round-robin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_burst_least_loaded_is_byte_identical_across_shards(shards):
    base = _bytes(_single("fastiov", 80, hosts=8, seed=7))
    sharded = run_cluster_cell(
        "fastiov", 80, hosts=8, seed=7, shards=shards
    )
    assert _bytes(sharded) == base


@pytest.mark.parametrize("preset", ["vanilla", "fastiov"])
def test_round_robin_is_byte_identical_across_shards(preset):
    base = _bytes(_single(preset, 60, hosts=6, seed=3,
                          placement="round-robin"))
    for shards in (2, 3, 6):
        sharded = run_cluster_cell(
            preset, 60, hosts=6, seed=3, placement="round-robin",
            shards=shards,
        )
        assert _bytes(sharded) == base, f"{preset} diverged at K={shards}"


def test_worker_count_never_changes_results():
    """Worker processes are transport, not semantics: 0 workers (all
    shards in-process) and one process per shard agree bytewise."""
    in_process = run_sharded_cluster(
        "fastiov", 48, hosts=6, seed=5, shards=3, workers=0
    )
    fanned_out = run_sharded_cluster(
        "fastiov", 48, hosts=6, seed=5, shards=3, workers=None
    )
    assert _bytes(in_process) == _bytes(fanned_out)


def test_shards_clamp_to_host_count():
    base = _bytes(_single("fastiov", 20, hosts=2, seed=1))
    sharded = run_cluster_cell("fastiov", 20, hosts=2, seed=1, shards=16)
    assert _bytes(sharded) == base


# ----------------------------------------------------------------------
# shards="auto": the hosts-per-shard threshold
# ----------------------------------------------------------------------
def test_resolve_shards_auto_picks_one_on_small_cells(capsys):
    from repro.cluster.sharded import MIN_HOSTS_PER_SHARD, resolve_shards

    # The quick scale cell (8 hosts): any split leaves fewer than the
    # threshold per shard, so auto must stay in-process — the measured
    # regression this guards against was 3.7 s sharded vs 2.3 s single.
    assert resolve_shards("auto", 8) == 1
    note = capsys.readouterr().err
    assert "single-shard" in note
    # Small-cell fallback at every size below one full shard pair.
    for hosts in (1, 2, MIN_HOSTS_PER_SHARD, 2 * MIN_HOSTS_PER_SHARD - 1):
        assert resolve_shards("auto", hosts) == 1


def test_resolve_shards_auto_respects_threshold_on_big_cells():
    import os

    from repro.cluster.sharded import MIN_HOSTS_PER_SHARD, resolve_shards

    # 48 hosts clears two floors, so auto always shards — at least
    # two ways, at most one shard per core beyond that.
    resolved = resolve_shards("auto", 48)
    assert 2 <= resolved <= 48 // MIN_HOSTS_PER_SHARD
    assert resolved <= max(2, os.cpu_count() or 1)


def test_resolve_shards_honors_explicit_counts():
    from repro.cluster.sharded import resolve_shards

    # An explicit count is a user decision: never second-guessed, only
    # clamped to the host count (and None means single-process).
    assert resolve_shards(4, 8) == 4
    assert resolve_shards(16, 8) == 8
    assert resolve_shards(1, 48) == 1
    assert resolve_shards(None, 48) == 1


def test_scale_experiment_resolves_auto_to_single_shard_on_quick_cells():
    from repro.experiments import get_experiment

    experiment = get_experiment("scale").configure(shards="auto")
    cells = experiment._cells(quick=True, seed=0)
    assert cells
    assert all(cell.shards == 1 for cell in cells)


def test_churn_experiment_resolves_auto_with_its_spread_floor(monkeypatch):
    """Churn cells are Poisson streams, so ``auto`` must apply the
    epoch floor (16 hosts/shard), not the burst one, on any machine."""
    import os as _os

    from repro.experiments import get_experiment

    monkeypatch.setattr(_os, "cpu_count", lambda: 8)
    for hosts, expected in ((24, 1), (48, 3)):
        experiment = get_experiment("churn").configure(
            hosts=hosts, shards="auto"
        )
        cells = experiment._cells(quick=True, seed=0)
        assert cells
        assert all(cell.shards == expected for cell in cells), hosts


def test_cli_shards_arg_accepts_auto_and_rejects_junk(capsys):
    import pytest as _pytest

    from repro.__main__ import main, shard_count

    assert shard_count("auto") == "auto"
    assert shard_count("4") == 4
    with _pytest.raises(Exception):
        shard_count("0")
    with _pytest.raises(Exception):
        shard_count("many")
    # --sync takes exactly the accepted modes: the removed
    # "optimistic", the old "auto" and junk are argparse errors.
    for command in ("run", "trace", "profile", "top"):
        for bad in ("optimistic", "auto", "yolo"):
            with _pytest.raises(SystemExit) as exit_info:
                main([command, "scale", "--sync", bad])
            assert exit_info.value.code == 2
            assert "hierarchical" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Epoch-barrier protocol: spread arrivals
# ----------------------------------------------------------------------
def test_poisson_least_loaded_is_invariant_to_shards_and_workers():
    """The epoch-barrier schedule depends only on (seed, hosts), never
    on how hosts are grouped into shards or shards into processes."""
    reference = None
    for shards in (2, 3, 6):
        for workers in (0, None):
            summary = run_sharded_cluster(
                "fastiov", 60, hosts=6, seed=9, shards=shards,
                workers=workers, arrivals=cluster_arrivals(9, 15.0),
            )
            if reference is None:
                reference = _bytes(summary)
            else:
                assert _bytes(summary) == reference, (
                    f"diverged at K={shards} workers={workers}"
                )


def test_poisson_round_robin_matches_single_process_exactly():
    """Round-robin ignores load, so even spread arrivals are placed
    identically with zero synchronization: the plan reaches the worker
    processes as one step at barrier 0 with ``safe=inf``."""
    base = _bytes(_single("vanilla", 40, hosts=4, seed=6,
                          placement="round-robin", rate_per_s=20.0))
    stats = {}
    sharded = run_cluster_cell(
        "vanilla", 40, hosts=4, seed=6, placement="round-robin",
        shards=4, rate_per_s=20.0, workers=None, engine_stats=stats,
    )
    assert _bytes(sharded) == base
    assert stats["sync_mode"] == "hierarchical"
    assert stats["sync_epochs"] == 1


def test_poisson_least_loaded_approximation_stays_close():
    """The conservative epoch schedule may differ from single-process
    least-loaded, but the startup distribution must stay in family."""
    single = _single("fastiov", 60, hosts=6, seed=9, rate_per_s=15.0)
    sharded = run_cluster_cell(
        "fastiov", 60, hosts=6, seed=9, rate_per_s=15.0, shards=3
    )
    assert sharded["count"] == single["count"]
    assert sharded["free_vfs_total"] == single["free_vfs_total"]
    assert sharded["mean"] == pytest.approx(single["mean"], rel=0.05)
    assert sharded["p99"] == pytest.approx(single["p99"], rel=0.10)


# ----------------------------------------------------------------------
# Cluster edge cases (single-process and sharded)
# ----------------------------------------------------------------------
def test_burst_smaller_than_host_count():
    """3 invocations over 8 hosts: only 3 hosts ever see load, peaks
    are 0/1, and sharding agrees bytewise."""
    single = _single("fastiov", 3, hosts=8, seed=2)
    assert single["count"] == 3
    peaks = single["peak_load_per_host"]
    assert sorted(peaks, reverse=True) == [1, 1, 1, 0, 0, 0, 0, 0]
    sharded = run_cluster_cell("fastiov", 3, hosts=8, seed=2, shards=4)
    assert _bytes(sharded) == _bytes(single)


def test_single_host_cluster_matches_itself_sharded():
    """hosts=1 is the degenerate cluster: everything lands on host0."""
    single = _single("fastiov", 30, hosts=1, seed=4)
    assert single["peak_load_per_host"] == [30]
    assert single["free_vfs_total"] == PAPER_TESTBED.nic_max_vfs
    sharded = run_cluster_cell("fastiov", 30, hosts=1, seed=4, shards=8)
    assert _bytes(sharded) == _bytes(single)


def test_one_host_least_loaded_equals_round_robin():
    """With one host there is nothing to choose: both policies must
    produce byte-identical results."""
    least = _single("vanilla", 25, hosts=1, seed=8)
    robin = _single("vanilla", 25, hosts=1, seed=8,
                    placement="round-robin")
    assert _bytes(least) == _bytes(robin)


def test_vf_recycling_when_teardown_races_last_placement():
    """Spread arrivals longer than a lifecycle: early containers tear
    down (recycling VFs) while later ones are still being placed.  The
    pool must end full, and the sharded run must agree on it."""
    single = _single("fastiov", 40, hosts=2, seed=13, rate_per_s=10.0)
    # The race actually happened: peak concurrency stayed below the
    # burst size because teardowns freed slots before the last arrival.
    assert single["peak_in_flight"] < 40
    assert single["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs
    sharded = run_cluster_cell(
        "fastiov", 40, hosts=2, seed=13, rate_per_s=10.0, shards=2
    )
    assert sharded["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs
    assert sharded["count"] == 40


def test_shard_worker_failure_surfaces_as_runtime_error():
    with pytest.raises((ValueError, RuntimeError)):
        run_sharded_cluster("no-such-preset", 10, hosts=2, shards=2)


def test_dead_worker_raises_named_shard_failure(monkeypatch):
    """A worker that dies mid-protocol (here: the second shard exits
    with code 9 while submitting its first batch; the patch is
    inherited over fork) surfaces as a ShardFailure naming that shard,
    its host range and its exit code — not a bare EOFError — and the
    group still shuts down promptly."""
    submit = ClusterShard.submit

    def dying_submit(self, assignments, name_prefix="w"):
        if self.host_start > 0:
            os._exit(9)
        return submit(self, assignments, name_prefix)

    monkeypatch.setattr(ClusterShard, "submit", dying_submit)
    began = time.monotonic()
    with pytest.raises(ShardFailure) as caught:
        run_sharded_cluster(
            "fastiov", 20, hosts=4, seed=1, shards=2,
            arrivals=cluster_arrivals(1, 50.0), sync="hierarchical",
        )
    assert time.monotonic() - began < 30.0
    failure = caught.value
    assert failure.shard_ids == [1]
    assert failure.hosts == [(2, 4)]
    assert failure.exitcode == 9
    assert failure.barrier is not None
    assert "shards [1] (hosts [2, 4))" in str(failure)
    assert "exit code 9" in str(failure)


# ----------------------------------------------------------------------
# The worker protocol: lockstep workers against the reference
# ----------------------------------------------------------------------
def test_poisson_k2_cell_matches_recorded_golden():
    """Cross-commit golden for the benchmark's K=2 Poisson cell: count,
    event total, mean and summary digest recorded on an earlier commit
    must hold under real worker processes and the in-process
    reference alike."""
    for sync in ("hierarchical", "conservative"):
        stats = {}
        summary = run_cluster_cell(
            "fastiov", 300, hosts=8, seed=1000, rate_per_s=150.0,
            shards=2, sync=sync, engine_stats=stats,
        )
        assert summary["count"] == 300
        assert stats["events_dispatched"] == 174_063
        assert summary["mean"] == 0.9665328617909724
        digest = hashlib.sha256(
            json.dumps(summary, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == "68b67d399e3518a9", sync


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_optimistic_burst_is_byte_identical_across_shards(shards):
    """Burst cells place everything in epoch 0, so in-process shards
    (``workers=0``) must hit the single-process bytes exactly."""
    base = _bytes(_single("fastiov", 80, hosts=8, seed=7))
    sharded = run_cluster_cell(
        "fastiov", 80, hosts=8, seed=7, shards=shards, workers=0,
        sync="hierarchical",
    )
    assert _bytes(sharded) == base


def test_optimistic_spread_matches_conservative_exactly():
    """The committed timeline is the reference's: same barriers, same
    batches, same grid — for every shard count and transport."""
    reference = _bytes(run_sharded_cluster(
        "fastiov", 60, hosts=6, seed=9, shards=2, workers=0,
        arrivals=cluster_arrivals(9, 15.0), sync="conservative",
    ))
    for shards in (2, 3, 6):
        for workers in (0, None):
            summary = run_sharded_cluster(
                "fastiov", 60, hosts=6, seed=9, shards=shards,
                workers=workers, arrivals=cluster_arrivals(9, 15.0),
                sync="hierarchical",
            )
            assert _bytes(summary) == reference, (
                f"hierarchical diverged at K={shards} workers={workers}"
            )


def test_forced_rollback_replays_to_identical_results():
    """A spread cell on real worker processes (3 shards over 6 hosts)
    must commit exactly the reference's timeline."""
    stats = {}
    stepped = run_sharded_cluster(
        "fastiov", 60, hosts=6, seed=9, shards=3, workers=None,
        arrivals=cluster_arrivals(9, 15.0), sync="hierarchical",
        engine_stats=stats,
    )
    conservative = run_sharded_cluster(
        "fastiov", 60, hosts=6, seed=9, shards=3, workers=0,
        arrivals=cluster_arrivals(9, 15.0), sync="conservative",
    )
    assert _bytes(stepped) == _bytes(conservative)
    assert stats["sync_mode"] == "hierarchical"


def test_optimistic_survives_teardown_racing_last_placement():
    """Adversarial teardown timing: arrivals outlast lifecycles, so
    teardowns land mid-epoch while later batches are still being
    placed.  Worker processes must report each teardown in the epoch
    the reference sees it."""
    stepped = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=13, shards=2, workers=None,
        arrivals=cluster_arrivals(13, 10.0), sync="hierarchical",
    )
    conservative = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=13, shards=2, workers=0,
        arrivals=cluster_arrivals(13, 10.0), sync="conservative",
    )
    assert _bytes(stepped) == _bytes(conservative)
    # The race happened and the pool still recycled completely.
    assert stepped["peak_in_flight"] < 40
    assert stepped["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_forced_rollback_never_loses_a_teardown_delta(seed):
    """Every teardown delta a worker reports is applied exactly once.
    A dropped delta leaks a VF (pool ends short); a double-applied one
    overfills it; either also shifts placement and breaks identity."""
    reference = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=seed, shards=1,
        arrivals=cluster_arrivals(seed, 10.0), sync="conservative",
    )
    summary = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=seed, shards=2,
        arrivals=cluster_arrivals(seed, 10.0), sync="hierarchical",
    )
    assert _bytes(summary) == _bytes(reference)
    assert summary["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs


def test_engine_stats_exports_sync_counters():
    stats = {}
    run_cluster_cell(
        "fastiov", 30, hosts=4, seed=2, shards=2, sync="hierarchical",
        rate_per_s=12.0, engine_stats=stats,
    )
    assert stats["shards"] == 2
    assert stats["sync_mode"] == "hierarchical"
    for key in ("sync_epochs", "sync_barrier_wait_s",
                "sync_coordinator_wait_s", "sync_placement_heap_ops"):
        assert key in stats, f"missing {key}"
    assert stats["sync_epochs"] > 0
    # Kept at zero for readers of the former speculation counters.
    for key in ("sync_rollbacks", "sync_speculated_events",
                "sync_replayed_events"):
        assert stats[key] == 0, key


# ----------------------------------------------------------------------
# Hierarchical sync: relay tree, digest replies, pipelined coordinator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4, 8])
def test_hierarchical_spread_is_byte_identical_across_shards(shards):
    """The relay tree, digest replies and depth-2 pipelining must not
    move a single byte: hierarchical == conservative == unsharded for
    every shard count and transport."""
    reference = _bytes(run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=1, workers=0,
        arrivals=cluster_arrivals(9, 15.0), sync="conservative",
    ))
    for workers in (0, None):
        summary = run_sharded_cluster(
            "fastiov", 60, hosts=8, seed=9, shards=shards,
            workers=workers, arrivals=cluster_arrivals(9, 15.0),
            sync="hierarchical",
        )
        assert _bytes(summary) == reference, (
            f"hierarchical diverged at K={shards} workers={workers}"
        )


@pytest.mark.parametrize("fan_in", [2, 3])
def test_hierarchical_fan_in_is_results_invariant(monkeypatch, fan_in):
    """8 workers over fan-in 2 or 3 forms a deeper relay tree (the
    default fan-in of 4 covers 8 workers at depth 2 already); tree
    depth must be invisible in the results."""
    from repro.cluster import sharded

    reference = _bytes(run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=8,
        arrivals=cluster_arrivals(9, 15.0), sync="conservative",
    ))
    # Relays fork from this process, so they inherit the patched value.
    monkeypatch.setattr(sharded, "RELAY_FAN_IN", fan_in)
    summary = run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=8, workers=None,
        arrivals=cluster_arrivals(9, 15.0), sync="hierarchical",
    )
    assert _bytes(summary) == reference


def test_hierarchical_rollback_storm_is_byte_identical(monkeypatch):
    """Eight workers under fan-in-2 relays (a three-level tree) against the
    reference at a different shard count: up to two pipelined step
    requests ride every pipe of the tree."""
    from repro.cluster import sharded

    reference = _bytes(run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=2,
        arrivals=cluster_arrivals(9, 15.0), sync="conservative",
    ))
    monkeypatch.setattr(sharded, "RELAY_FAN_IN", 2)
    summary = run_sharded_cluster(
        "fastiov", 60, hosts=8, seed=9, shards=8, workers=None,
        arrivals=cluster_arrivals(9, 15.0), sync="hierarchical",
    )
    assert _bytes(summary) == reference


def test_engine_stats_export_coordinator_occupancy():
    """The coordinator's occupancy split and the placement tracker's
    heap traffic ride the sync stats for every epoch-protocol cell."""
    for sync in ("conservative", "hierarchical"):
        stats = {}
        run_sharded_cluster(
            "fastiov", 40, hosts=8, seed=2, shards=2, workers=0,
            arrivals=cluster_arrivals(2, 12.0), sync=sync,
            engine_stats=stats,
        )
        for key in ("sync_coordinator_wait_s", "sync_coordinator_place_s",
                    "sync_coordinator_reduce_s", "sync_placement_heap_ops"):
            assert key in stats, f"{sync} missing {key}"
        assert stats["sync_coordinator_wait_s"] >= 0.0
        # Least-loaded runs the lazy heap: every arrival pushes at
        # least one entry, so the op count is bounded below by the
        # arrival count.
        assert stats["sync_placement_heap_ops"] >= 40


def test_heap_tracker_is_bit_identical_to_exact_scan():
    """Differential property test: the lazy min-heap tracker and the
    O(hosts) scan oracle must agree on every pick across interleaved
    place/release traffic, for several seeds."""
    import random

    from repro.cluster.placement import (
        LeastLoadedPlacement,
        LeastLoadedTracker,
        ScanTracker,
    )

    for seed in range(5):
        rng = random.Random(seed)
        hosts = rng.randrange(1, 40)
        heap = LeastLoadedTracker(hosts)
        scan = ScanTracker(hosts, LeastLoadedPlacement())
        placed = []
        for _ in range(400):
            if placed and rng.random() < 0.45:
                # Release a random prior placement, sometimes batched
                # (the digest path frees several at once).
                host = placed.pop(rng.randrange(len(placed)))
                count = 1
                while placed and count < 3 and rng.random() < 0.3:
                    try:
                        placed.remove(host)
                    except ValueError:
                        break
                    count += 1
                heap.release(host, count)
                scan.release(host, count)
            else:
                picked_heap = heap.pick()
                picked_scan = scan.pick()
                assert picked_heap == picked_scan, (
                    f"seed {seed}: heap {picked_heap} != scan {picked_scan}"
                )
                placed.append(picked_heap)
            assert heap.loads == scan.loads, f"seed {seed}: load drift"
        assert heap.heap_ops > 0


def test_coordinator_trace_track_is_opt_in(monkeypatch):
    """Wall-clock coordinator spans would break trace byte-identity
    across shard counts, so the track only appears under
    REPRO_TRACE_COORDINATOR=1 — and then as well-formed B/E pairs."""
    def traced():
        trace = {}
        run_sharded_cluster(
            "fastiov", 40, hosts=8, seed=2, shards=2, workers=0,
            arrivals=cluster_arrivals(2, 12.0), sync="hierarchical",
            trace=trace,
        )
        return trace

    monkeypatch.delenv("REPRO_TRACE_COORDINATOR", raising=False)
    assert "coordinator" not in traced()["tracks"]
    monkeypatch.setenv("REPRO_TRACE_COORDINATOR", "1")
    events = traced()["tracks"]["coordinator"]
    assert events, "no coordinator spans recorded"
    depth = 0
    kinds = set()
    for event in events:
        if event[0] == "B":
            depth += 1
            kinds.add(event[2])
        else:
            assert event[0] == "E"
            depth -= 1
        assert 0 <= depth <= 1
    assert depth == 0
    assert kinds <= {"wait", "place", "reduce"}
    assert "place" in kinds


# ----------------------------------------------------------------------
# resolve_shards / resolve_sync decision tables
# ----------------------------------------------------------------------
def test_resolve_shards_auto_decision_table(monkeypatch):
    """Pin the placement-plan-aware floors: up-front plans split at 8
    hosts per shard, the epoch protocol at 16; a cell below two floors
    stays single-process."""
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 8)
    table = [
        # (placement, rate, hosts) -> expected
        ("round-robin", 150.0, 64, 8),    # floor 8
        ("least-loaded", 0.0, 64, 8),     # burst: floor 8
        ("least-loaded", 150.0, 64, 4),   # epoch: floor 16
        ("least-loaded", 150.0, 48, 3),   # epoch: floor 16
        # Below two floors every plan degrades to single-shard.
        ("least-loaded", 150.0, 31, 1),
        ("least-loaded", 150.0, 8, 1),
        ("round-robin", 150.0, 8, 1),
    ]
    for placement, rate, hosts, expected in table:
        resolved = mod.resolve_shards(
            "auto", hosts, placement=placement, rate_per_s=rate
        )
        assert resolved == expected, (
            f"auto({placement}, rate={rate}, hosts={hosts}) "
            f"= {resolved}, expected {expected}"
        )


def test_resolve_shards_auto_caps_at_cpu_count(monkeypatch):
    """More shards than cores just multiplies barrier latency, so auto
    is capped by ``os.cpu_count()`` — but never below two once the
    cell is big enough to shard at all."""
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 2)
    table = [
        # (placement, rate, hosts) -> expected under 2 cores
        ("round-robin", 150.0, 64, 2),    # 64//8=8 -> cap 2
        ("least-loaded", 0.0, 256, 2),    # 256//8=32 -> cap 2
        ("least-loaded", 150.0, 64, 2),   # 64//16=4 -> cap 2
        ("least-loaded", 150.0, 16, 1),   # floor binds first
    ]
    for placement, rate, hosts, expected in table:
        resolved = mod.resolve_shards(
            "auto", hosts, placement=placement, rate_per_s=rate
        )
        assert resolved == expected, (
            f"auto({placement}, rate={rate}, hosts={hosts}) "
            f"= {resolved}, expected {expected} under cpu_count=2"
        )
    # cpu_count() may legitimately return None: treat it as one core.
    monkeypatch.setattr(_os, "cpu_count", lambda: None)
    assert mod.resolve_shards("auto", 256, placement="round-robin",
                              rate_per_s=150.0) == 2


def test_resolve_shards_auto_spread_never_beats_its_floor(monkeypatch):
    import os as _os

    from repro.cluster import sharded as mod

    monkeypatch.setattr(_os, "cpu_count", lambda: 64)
    floor = mod.MIN_HOSTS_PER_SHARD_EPOCH
    for hosts in range(1, 129):
        resolved = mod.resolve_shards(
            "auto", hosts, placement="least-loaded", rate_per_s=100.0,
        )
        assert resolved == 1 or hosts // resolved >= floor


def test_resolve_shards_auto_side_of_one_ignores_cpu_count(monkeypatch):
    """K=1 (the single-process cluster) and K>=2 (the epoch grid) give
    different results on spread least-loaded cells, so whether auto
    shards at all must not depend on the machine: a 48-host spread
    cell is sharded under 1, 2 and 8 cores alike."""
    import os as _os

    from repro.cluster import sharded as mod

    for cpus in (1, 2, 8):
        monkeypatch.setattr(_os, "cpu_count", lambda cpus=cpus: cpus)
        resolved = mod.resolve_shards(
            "auto", 48, placement="least-loaded", rate_per_s=150.0
        )
        assert resolved >= 2, f"cpu_count={cpus} resolved to {resolved}"


def test_shards_auto_bytes_ignore_sync_and_cpu_count(monkeypatch):
    """End to end: ``shards="auto"`` on a spread least-loaded cell gives
    one summary under every accepted sync mode and core count."""
    import os as _os

    summaries = set()
    for cpus in (1, 8):
        monkeypatch.setattr(_os, "cpu_count", lambda cpus=cpus: cpus)
        for sync in ("hierarchical", "conservative"):
            summaries.add(_bytes(run_cluster_cell(
                "fastiov", 40, hosts=48, seed=4, shards="auto",
                rate_per_s=20.0, sync=sync, workers=0,
            )))
    assert len(summaries) == 1


def test_resolve_sync_decision_table():
    from repro.cluster.sharded import SYNC_MODES, resolve_sync

    # hierarchical is the default; both modes are honored for every
    # cell — conservative always means the in-process reference.
    assert SYNC_MODES[0] == "hierarchical"
    assert resolve_sync(None) == "hierarchical"
    assert resolve_sync("hierarchical") == "hierarchical"
    assert resolve_sync("conservative") == "conservative"
    # Removed and unknown modes fail at the boundary, naming the
    # valid ones.
    for bad in ("optimistic", "auto", "yolo", ""):
        with pytest.raises(ValueError, match="hierarchical, conservative"):
            resolve_sync(bad)
    for entry in (run_cluster_cell, run_sharded_cluster):
        with pytest.raises(ValueError, match="valid modes"):
            entry("fastiov", 4, hosts=2, shards=2, sync="optimistic")


def test_scale_experiment_threads_sync_into_cells():
    from repro.experiments import get_experiment

    experiment = get_experiment("scale").configure(
        shards=4, sync="conservative", rate=150.0
    )
    cells = experiment._cells(quick=True, seed=0)
    assert cells
    assert all(cell.sync == "conservative" for cell in cells)
    assert all(cell.rate_per_s == 150.0 for cell in cells)
    default = get_experiment("scale").configure(shards=4)
    assert all(cell.sync == "hierarchical"
               for cell in default._cells(quick=True, seed=0))
    removed = get_experiment("scale").configure(sync="optimistic")
    with pytest.raises(ValueError):
        removed._cells(quick=True, seed=0)


def test_conservative_reference_starts_no_worker(monkeypatch):
    """``sync="conservative"`` is the in-process reference whatever
    ``workers`` says: it must never reach the worker spawn path."""
    from repro.cluster import sharded

    def no_spawn(*_args, **_kwargs):
        raise AssertionError("conservative reference spawned a worker")

    monkeypatch.setattr(sharded, "_spawn_workers", no_spawn)
    for placement in ("least-loaded", "round-robin"):
        stats = {}
        summary = run_sharded_cluster(
            "fastiov", 30, hosts=4, seed=2, shards=2, workers=2,
            placement=placement, arrivals=cluster_arrivals(2, 12.0),
            sync="conservative", engine_stats=stats,
        )
        assert summary["count"] == 30
        assert stats["sync_mode"] == "conservative"
    with pytest.raises(AssertionError, match="spawned a worker"):
        run_sharded_cluster("fastiov", 4, hosts=2, shards=2,
                            sync="hierarchical")
