"""Extension experiment: sustained serverless churn.

The paper evaluates simultaneous bursts (its production traces show
200 near-simultaneous invocations).  Real platforms also sustain
continuous load: containers arrive (Poisson), run a short task, and are
recycled — VFs return to the pool, frames return dirty to the
allocator.  This experiment drives sustained churn through the full
lifecycle (start -> app -> teardown) and measures steady-state startup
latency, demonstrating that FastIOV's gain is not an artifact of the
burst pattern and that recycling preserves the security invariant under
load (every guest read remains leak-checked).

With ``--hosts N`` (N > 1) the churn spreads over a cluster instead of
one host; combined with ``--shards K`` the Poisson stream drives the
epoch-barrier placement protocol of :mod:`repro.cluster.sharded`.
"""

from repro.containers.engine import ContainerRequest
from repro.experiments.base import Comparison, Experiment, pct, reduction
from repro.experiments.parallel import Cell
from repro.metrics.reporting import format_table
from repro.metrics.stats import Distribution
from repro.metrics.timeline import StartupRecord
from repro.spec import PAPER_TESTBED
from repro.workloads.generator import ArrivalPattern
from repro.workloads.serverless import make_app


def run_churn(preset, total, rate_per_s, app_name, seed, trace=None):
    """Drive ``total`` Poisson invocations at ``rate_per_s``; each runs
    ``app_name`` then is torn down.  Returns (records, host)."""
    from repro.core import build_host

    host = build_host(preset, spec=PAPER_TESTBED, seed=seed, trace=trace)
    arrivals = ArrivalPattern(
        "poisson", rate_per_s=rate_per_s, jitter=host.jitter.fork("arrivals")
    )
    offsets = arrivals.offsets(total)
    records = []
    for index, offset in enumerate(offsets):
        name = f"w{index}"
        record = StartupRecord(name)
        records.append(record)
        request = ContainerRequest(name, app=make_app(app_name))

        def flow(request=request, record=record, offset=offset, name=name):
            from repro.sim.core import Timeout

            yield Timeout(offset)
            yield from host.engine.run_container(request, record)
            yield from host.engine.remove_container(name)

        host.sim.spawn(flow(), name=f"churn-{name}")
    host.sim.run()
    return records, host


def run_churn_cell(preset, total, rate_per_s, seed, engine_stats=None,
                   trace=None):
    """One single-host churn cell; returns a plain-JSON summary.

    Pure in its arguments (the app is fixed to "image", matching the
    experiment), so it is safe to run in a worker process and to cache.
    Steady state drops the first third of arrivals (warm-up).
    ``engine_stats``, if given, is filled with the host simulator's
    ``wheel_stats()`` for diagnostics; never part of the summary.
    ``trace``, if given, is a dict filled with the flight-recorder
    bundle (never part of the summary).
    """
    recorder = None
    if trace is not None:
        from repro.obs.recorder import TraceRecorder

        recorder = TraceRecorder()
    records, host = run_churn(preset, total, rate_per_s, "image", seed,
                              trace=recorder)
    if engine_stats is not None:
        engine_stats.update(host.sim.wheel_stats())
    if recorder is not None:
        host.finalize_trace()
        trace.update(recorder.dump())
    steady = records[total // 3:]
    return {
        "startup": Distribution(
            [r.startup_time for r in steady], label=preset
        ).summary(),
        "tct": Distribution(
            [r.task_completion_time for r in steady], label=preset
        ).summary(),
        "free_vfs": host.cni.free_vf_count,
        "events": host.sim.events_dispatched,
    }


class Churn(Experiment):
    """Runs the sustained-churn lifecycle study (extension)."""

    experiment_id = "churn"
    title = "Sustained Poisson churn through the full container lifecycle"
    paper_reference = (
        "Extension (no paper figure): steady-state startup latency under "
        "continuous arrivals with recycling; expectations: FastIOV's "
        "reduction persists, VF pool fully recycles, no residual leaks."
    )

    @staticmethod
    def _load(quick):
        total = 60 if quick else 300
        # Little's law bounds the sustainable rate by the VF pool: with
        # 256 VFs and vanilla's ~9 s lifecycle (start + task + teardown),
        # arrivals beyond ~28/s exhaust the pool — itself a capacity
        # consequence of slow startup.  20/s is sustainable for both.
        rate = 15.0 if quick else 20.0
        return total, rate

    def _hosts(self):
        return self.option("hosts", 1)

    def _cells(self, quick, seed):
        total, rate = self._load(quick)
        hosts = self._hosts()
        if hosts > 1:
            from repro.cluster.sharded import resolve_shards

            placement = self.option("placement", "least-loaded")
            shards = resolve_shards(self.option("shards", 1), hosts,
                                    placement=placement, rate_per_s=rate)
            return [
                Cell(preset, total, None, seed, kind="cluster", hosts=hosts,
                     placement=placement, shards=shards, rate_per_s=rate)
                for preset in ("vanilla", "fastiov")
            ]
        return [
            Cell(preset, total, None, seed, kind="churn", rate_per_s=rate)
            for preset in ("vanilla", "fastiov")
        ]

    def _execute(self, quick, seed):
        if self._hosts() > 1:
            return self._execute_cluster(quick, seed)
        total, rate = self._load(quick)
        results = {
            preset: self._cell_summary(
                Cell(preset, total, None, seed, kind="churn", rate_per_s=rate)
            )
            for preset in ("vanilla", "fastiov")
        }

        rows = [
            (preset,
             r["startup"]["mean"], r["startup"]["p99"],
             r["tct"]["mean"], r["tct"]["p99"])
            for preset, r in results.items()
        ]
        text = format_table(
            ["solution", "startup mean (s)", "startup p99 (s)",
             "TCT mean (s)", "TCT p99 (s)"],
            rows,
            title=(f"Churn — {total} Poisson arrivals at {rate:.0f}/s "
                   f"(steady state)"),
        )

        vanilla = results["vanilla"]
        fastiov = results["fastiov"]
        free_vfs = {p: results[p]["free_vfs"] for p in results}
        comparisons = [
            Comparison(
                "steady-state startup reduction",
                "expected: persists under churn",
                pct(reduction(vanilla["startup"]["mean"],
                              fastiov["startup"]["mean"])),
            ),
            Comparison(
                "steady-state TCT p99 reduction",
                "expected: positive",
                pct(reduction(vanilla["tct"]["p99"], fastiov["tct"]["p99"])),
            ),
            Comparison(
                "VF pool fully recycled after the run",
                f"{PAPER_TESTBED.nic_max_vfs} free",
                f"vanilla={free_vfs['vanilla']}, fastiov={free_vfs['fastiov']}",
            ),
            Comparison(
                "residual-data leaks across recycles",
                "0", "0 (every guest read is checked in-simulation)",
            ),
            Comparison(
                "max sustainable rate (Little's law, 256 VFs)",
                "bounded by lifecycle length",
                f"vanilla ~{256 / (vanilla['tct']['mean'] + 1.0):.0f}/s vs "
                f"fastiov ~{256 / (fastiov['tct']['mean'] + 1.0):.0f}/s",
                note="slow startup also costs pool capacity",
            ),
        ]
        data = {
            "results": {
                p: {"startup": r["startup"], "tct": r["tct"]}
                for p, r in results.items()
            },
            "free_vfs": free_vfs,
            "total": total,
            "rate": rate,
        }
        return data, text, comparisons

    def _execute_cluster(self, quick, seed):
        """Churn spread over a cluster (``--hosts N``, optional shards).

        A Poisson stream into least-loaded placement is exactly the
        regime where sharding must exchange load deltas at epoch
        barriers, so this is the CLI path that exercises the protocol
        end to end.
        """
        total, rate = self._load(quick)
        hosts = self._hosts()
        from repro.cluster.sharded import resolve_shards

        placement = self.option("placement", "least-loaded")
        shards = resolve_shards(self.option("shards", 1), hosts,
                                placement=placement, rate_per_s=rate)
        results = {
            preset: self._cell_summary(
                Cell(preset, total, None, seed, kind="cluster", hosts=hosts,
                     placement=placement, shards=shards, rate_per_s=rate)
            )
            for preset in ("vanilla", "fastiov")
        }
        rows = [
            (preset, r["mean"], r["p99"], r["peak_in_flight"],
             f"{min(r['peak_load_per_host'])}..{max(r['peak_load_per_host'])}")
            for preset, r in results.items()
        ]
        sharding = f", {shards} shards" if shards > 1 else ""
        text = format_table(
            ["solution", "startup mean (s)", "startup p99 (s)",
             "peak in-flight", "host peak"],
            rows,
            title=(f"Churn — {total} Poisson arrivals at {rate:.0f}/s over "
                   f"{hosts} hosts ({placement}{sharding})"),
        )
        vanilla = results["vanilla"]
        fastiov = results["fastiov"]
        comparisons = [
            Comparison(
                "cluster churn startup reduction",
                "expected: persists under churn",
                pct(reduction(vanilla["mean"], fastiov["mean"])),
            ),
            Comparison(
                "VF pools fully recycled after the run",
                f"{hosts * PAPER_TESTBED.nic_max_vfs} free",
                f"vanilla={vanilla['free_vfs_total']}, "
                f"fastiov={fastiov['free_vfs_total']}",
            ),
        ]
        data = {
            "hosts": hosts,
            "placement": placement,
            "total": total,
            "rate": rate,
            "results": results,
        }
        return data, text, comparisons
