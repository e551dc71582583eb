r"""Sharded cluster simulation: one logical timeline over many cores.

The single-process :class:`~repro.cluster.cluster.Cluster` puts N hosts
on one simulator, so a 10,000-startup storm is one serial event stream
on one core.  Hosts in the model are almost perfectly independent —
per-host locks, CPUs, DRAM, VF pools — and interact only through
*placement*, which is exactly the structure this module exploits: the
cluster's hosts are partitioned into K contiguous shards, each simulated
by its own :class:`~repro.cluster.shard.ClusterShard`, and a
deterministic placement protocol stitches the shards into one logical
timeline.  Two ``sync`` values select who runs that protocol:

* ``"hierarchical"`` (the default) — the shards live in worker
  processes that speak the one worker protocol described below.
* ``"conservative"`` — the in-process lockstep *reference*: every
  shard in this process, advanced barrier by barrier
  (:class:`_InProcessGroup` + :func:`_place_epoch_barrier`).  It
  ignores ``workers`` and shares no worker, relay, wire or speculation
  code with the path it checks, which is what makes it the oracle the
  byte-identity gates compare against.

Placement plans
---------------

Round-robin is a pure function of arrival order (container ``n`` lands
on host ``n % H``), and arrival order is known before the simulation
starts, so the whole plan is computed up front and reaches the shards
as one submission.  Least-loaded with a simultaneous burst is the same
in effect: every arrival lands in epoch 0 before any teardown exists.
Because a host's event stream does not depend on which simulator it
shares (per-host jitter forks ``host-i``, per-host state), both merge
**byte-identical** to the single-process run for every shard count.

Least-loaded with spread arrivals needs cross-shard load knowledge.
Placements are made centrally (the coordinator walks arrivals in
schedule order), so the only information that must flow between shards
is *teardown times*.  The protocol advances over a fixed virtual-time
grid of width ``L`` (the lookahead, :func:`min_startup_lookahead`):

1. at barrier ``kL`` every shard has simulated to exactly ``kL`` and has
   reported every teardown with time <= ``kL``;
2. the coordinator applies the reported load deltas, places the arrivals
   of epoch ``[kL, (k+1)L)`` in (time, index) order, and sends each
   shard its assignments;
3. every shard advances to ``(k+1)L``, reporting new teardowns.

A teardown is visible to an arrival iff it happened at or before the
start of the arrival's epoch.  That rule is defined purely on the grid,
so the placement sequence is a function of the arrival schedule and
per-host teardown times only — invariant to K, to ``workers`` and to
``sync``.  Epochs without arrivals are skipped in one jump.  The grid
is *not* the single-process schedule: ``shards=1`` cells are routed by
:func:`~repro.cluster.churn.run_cluster_cell` to the single-process
:class:`Cluster`, whose teardowns are visible continuously, so for
spread least-loaded cells the K=1 and K>=2 summaries differ by design.
The oracle for those cells is the conservative reference (at any K
here — this module runs the grid even for one shard).

The worker protocol
-------------------

Worker and relay processes serve four ops: ``step``, ``drain``,
``finish`` and ``stop``.

* **step** ``(barrier, epoch_end, safe, batches)`` submits each shard's
  batch at the epoch ``barrier``, commits through ``epoch_end`` and
  replies with a per-host *load digest* of the teardowns up to it
  (wire tag ``L``).  ``safe`` is the earliest barrier any future batch
  can carry (the next unplaced arrival's epoch start; infinity once
  placement is done).  An up-front plan is one step at barrier 0 with
  ``safe=inf``.
* **Speculation.**  Between messages a shard free-runs past its
  committed frontier: risk-free up to ``safe``, and beyond it bounded
  by an AIMD window of W epochs, only while it has live lifecycles.
  Teardowns beyond the frontier stay buffered in the shard, so the
  coordinator only ever sees deltas no future input can invalidate.
* **Rollback.**  A batch whose barrier lies behind a shard's speculated
  clock means the speculation ran past a real input.  Generators cannot
  be snapshotted, so the shard resumes from a copy-on-write fork
  checkpoint and replays its journal suffix
  (:mod:`repro.cluster.checkpoint`), or — without fork support, with
  ``checkpoint_every=0``, or in-process — is rebuilt from its spec and
  replays its whole journal.  Teardowns the coordinator already saw are
  dropped from the replay.
* **drain / finish.**  ``drain`` reports max(committed frontier, last
  lifecycle completion); ``finish`` aligns every shard to the global
  horizon (rolling back a clock that overshot it), so merged event
  counts match the single-process run exactly.

Around the workers sit the paths that only move wall-clock:

* **Relay tree.**  When the worker count exceeds :data:`RELAY_FAN_IN`,
  workers hang off relay processes (recursively), which route step
  batches down and merge their children's digests by per-host addition,
  so the coordinator touches at most fan-in pipes per epoch.
* **Heap placement.**  Least-loaded picks come off a lazy min-heap of
  ``(load, host)`` (:class:`repro.cluster.placement.LeastLoadedTracker`),
  bit-identical to the O(hosts) scan.
* **Depth-2 pipelining.**  After a batched step the coordinator streams
  the next epoch's batchless jump before draining replies; every reply
  is still applied before the next placement decision.  A fork-checkpoint
  handover tolerates this: the queued request is unread bytes in the
  kernel pipe buffer, which the resumed image inherits.
* **Packed frames** (:mod:`repro.cluster.wire`) for steps and digests.

``REPRO_OPTIMISTIC_ADVERSARIAL_SAFE=1`` makes the coordinator
under-promise ``safe`` (the barrier itself) and pins every speculation
window open, so speculating shards conflict on nearly every batched
epoch — the rollback-storm regime the determinism gates use to hammer
the checkpoint handover.

The committed timeline every worker ends on is exactly the reference's —
same barriers, same batches, same grid — so results are byte-identical
across sync modes, shard counts and worker counts.
"""

import multiprocessing
import os
import sys
import time
import traceback

from repro.cluster import wire
from repro.cluster.checkpoint import (
    ForkCheckpointer,
    fork_checkpoints_supported,
)
from repro.cluster.placement import make_load_tracker
from repro.cluster.shard import ClusterShard
from repro.metrics.stats import Distribution
from repro.obs import runtime
from repro.obs.runtime import (
    RecordBuffer,
    RuntimeProbe,
    TelemetryAggregator,
)
from repro.spec import PAPER_TESTBED
from repro.workloads.generator import ArrivalPattern


#: Below this many hosts per shard, worker spawn and the per-epoch
#: barrier cost more wall-clock than the split saves: the quick scale
#: cell (8 hosts) measured 3.7 s at ``--shards 4`` against 2.3 s
#: single-process.  This floor applies to the up-front plans
#: (round-robin, and burst arrivals under any placement), whose only
#: overhead is worker spawn plus one step/drain/finish exchange.
MIN_HOSTS_PER_SHARD = 8
#: Spread-arrival least-loaded cells run the epoch protocol — a barrier
#: every lookahead (~52 ms of virtual time) — so a split has to
#: amortize far more synchronization before it wins.
MIN_HOSTS_PER_SHARD_EPOCH = 16

#: Relay-tree fan-in: how many child pipes any one node (the
#: coordinator, or a relay) serves before another relay layer is
#: inserted.  Four keeps the coordinator's per-epoch pipe work at
#: fan_in writes + fan_in reads while the tree stays shallow (depth 2
#: covers 16 workers, depth 3 covers 64).  Worker counts at or below
#: the fan-in keep the flat star — a single relay layer would add a
#: hop without removing any coordinator work.
RELAY_FAN_IN = 4

#: Accepted ``sync`` values, default first (see the module docstring).
SYNC_MODES = ("hierarchical", "conservative")


def resolve_shards(shards, hosts, placement="least-loaded", rate_per_s=0.0):
    """Resolve a shard request — ``None``, an int, or ``"auto"`` — to a
    concrete shard count for a ``hosts``-host cell.

    ``"auto"`` decides from hosts, placement and rate only — never from
    ``sync`` or the CPU count — whether the cell runs single-process or
    sharded, because for spread least-loaded cells K=1 (continuous
    teardown visibility) and K>=2 (the epoch grid) give different
    results, while every K>=2 gives the same ones.  The floor is the
    minimum hosts per shard for the cell's plan:

    ============================  =========================  =========
    plan                          synchronization            floor
    ============================  =========================  =========
    round-robin (any arrivals)    none (placed up front)     8
    least-loaded, burst           none (single epoch 0)      8
    least-loaded, spread          one step per epoch         16
    ============================  =========================  =========

    A cell with fewer than two floors of hosts runs single-process
    (with a note on stderr); a larger one gets
    ``max(2, min(cpus, hosts // floor))`` shards — the CPU count only
    moves K within the sharded side.  Explicit integer counts are
    honored (clamped to ``hosts``) — the caller asked for that split,
    overhead and all.
    """
    if shards is None:
        return 1
    if shards == "auto":
        if placement == "round-robin" or not rate_per_s:
            floor = MIN_HOSTS_PER_SHARD
        else:
            floor = MIN_HOSTS_PER_SHARD_EPOCH
        if hosts < 2 * floor:
            print(
                f"shards=auto: {hosts}-host cell is below "
                f"{floor} hosts/shard at any split; "
                f"using the in-process single-shard path",
                file=sys.stderr,
            )
            return 1
        return max(2, min(os.cpu_count() or 1, hosts // floor))
    return max(1, min(int(shards), hosts))


def resolve_sync(sync):
    """Validate a ``sync`` request; ``None`` means the default.

    Raises :class:`ValueError` naming the valid modes for anything
    else, so a removed or misspelt mode fails at the API boundary
    instead of silently running some other protocol.
    """
    if sync is None:
        return SYNC_MODES[0]
    if sync not in SYNC_MODES:
        raise ValueError(
            f"unknown sync mode {sync!r}; valid modes: "
            f"{', '.join(SYNC_MODES)}"
        )
    return sync


def partition_hosts(hosts, shards):
    """Contiguous balanced host ranges: ``[(start, stop), ...]``.

    The first ``hosts % shards`` shards get one extra host.  With
    round-robin placement a burst spreads uniformly over hosts, so
    contiguous ranges balance container counts too.
    """
    if hosts <= 0:
        raise ValueError(f"hosts must be positive, got {hosts}")
    if not 1 <= shards <= hosts:
        raise ValueError(
            f"shards must be in [1, hosts={hosts}], got {shards}"
        )
    base, extra = divmod(hosts, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def min_startup_lookahead(spec=None):
    """Epoch width: a lower-ish bound on the placement->teardown gap.

    Every lifecycle serially spends at least the VM-create and
    guest-boot base costs between placement and teardown; half of that
    floor absorbs the multiplicative (log-normal, unit-mean) jitter in
    practice.  The protocol is deterministic and K-invariant for *any*
    positive epoch width — a smaller value only tightens how stale the
    conservative load vector can get, at the cost of more barriers.
    """
    spec = spec if spec is not None else PAPER_TESTBED
    return (spec.vm_create_base_s + spec.guest_boot_base_s) / 2.0


def peak_concurrency(spans):
    """Peak overlap of ``[(start, end), ...]``, starts before ends on ties.

    This is how the merged run recovers the cluster-wide realized
    startup concurrency the single-process driver counts incrementally:
    at equal timestamps an arrival's resume event always carries a
    smaller sequence number than a completion scheduled later, so
    arrivals are counted first.
    """
    events = []
    for start, end in spans:
        events.append((start, 0))
        events.append((end, 1))
    events.sort()
    current = peak = 0
    for _time, kind in events:
        if kind == 0:
            current += 1
            if current > peak:
                peak = current
        else:
            current -= 1
    return peak


# ----------------------------------------------------------------------
# speculative shard state: journal, speculation window, rollback
# ----------------------------------------------------------------------
#: Speculation window start/cap, in epochs of lookahead beyond the
#: risk-free ``safe`` bound.  Slow-start: risk-free speculation alone
#: must prove itself (a streak of confirmed epochs) before any risky
#: overshoot is attempted, so a rollback-prone cell never pays the
#: first replay at full window depth.
_SPEC_WINDOW_INIT = 0
_SPEC_WINDOW_MAX = 16
#: AIMD pacing: a rollback halves the window (toward zero — replay is
#: O(committed history), so risky speculation must back off hard); the
#: window grows by one only after this many consecutive confirmed
#: speculations.
_SPEC_GROW_STREAK = 4
#: Sticky breaker: once a shard has rolled back this many times with
#: fewer than half as many confirmed speculations, it stops risky
#: speculation for the rest of the run (risk-free speculation up to
#: ``safe`` continues — that part can never roll back).
_SPEC_BREAKER_ROLLBACKS = 8


def _adversarial_safe():
    """Rollback-storm test mode (see module docstring): the
    coordinator under-promises ``safe`` and shards pin their window
    open, so speculation conflicts on nearly every batched epoch."""
    return os.environ.get(
        "REPRO_OPTIMISTIC_ADVERSARIAL_SAFE", ""
    ) not in ("", "0")


def _hist_add(hist, value):
    """Bump a power-of-two histogram bucket: smallest b with
    ``value <= 2**b`` (bucket 0 spans everything at or below 1)."""
    bucket = 0
    while (1 << bucket) < value and bucket < 62:
        bucket += 1
    hist[bucket] = hist.get(bucket, 0) + 1


class _SpeculativeShard:
    """A :class:`ClusterShard` plus the worker protocol's bookkeeping.

    Holds the shard's input journal (every committed ``(barrier,
    batch)``), its committed frontier, and the adaptive speculation
    window.  Rollback is replay: generators cannot be snapshotted, so a
    mis-speculated shard is rebuilt from its spec and its journal is
    re-run up to the conflict point — O(committed history), which is
    why the window shrinks aggressively when rollbacks happen.
    """

    def __init__(self, spec, lookahead):
        self._spec = dict(spec)
        self._lookahead = lookahead
        self.shard = ClusterShard(**self._spec)
        # Wall-clock plane: let the engine publish its live frontier.
        # Telemetry-only — the probe never feeds back into the sim.
        self.shard.sim.runtime_probe = runtime.get_probe()
        #: Committed inputs, in submission order: ``(barrier, batch)``.
        #: After a checkpoint this holds only the post-checkpoint
        #: *suffix* — the prefix lives applied inside the CoW image.
        self._journal = []
        #: No input with a barrier below this can ever arrive; work at
        #: or before it is committed, work beyond it is speculation.
        self._frontier = 0.0
        #: Coordinator's promise: the next batch (for any shard) comes
        #: no earlier than this barrier, because the arrival schedule
        #: is known up front.  Speculation below it is risk-free — only
        #: the windowed overshoot beyond it can ever roll back.
        self._safe = 0.0
        #: Teardowns at or before this time were already sent to the
        #: coordinator (and must not be re-sent by a replayed shard).
        self._reported = 0.0
        #: Local clock of the newest fork checkpoint, None before the
        #: first capture.  Once set, the journal prefix is gone and
        #: in-place full replay would silently lose inputs — so
        #: :meth:`_rollback` refuses to run.
        self._ckpt_time = None
        self._ckpt_age = 0
        self.window = _SPEC_WINDOW_INIT
        self.throttled = False
        self._pinned = _adversarial_safe()
        if self._pinned:
            self.window = _SPEC_WINDOW_MAX
        self._commit_streak = 0
        self.stats = {
            "epochs": 0,
            "rollbacks": 0,
            "speculated_events": 0,
            "replayed_events": 0,
            "speculation_commits": 0,
            "checkpoints": 0,
            "checkpoint_resumes": 0,
            "full_replays": 0,
            "checkpoint_age_epochs": 0,
            "rollback_depth_hist": {},
            "replay_distance_hist": {},
        }

    def step(self, barrier, epoch_end, safe, batch):
        """One combined protocol step: commit through ``epoch_end``.

        Submits ``batch`` at the epoch ``barrier`` (rolling back first
        if the local clock speculated past it), advances to
        ``epoch_end``, and returns the teardown deltas with time <=
        ``epoch_end`` — exactly what the in-process reference's
        submit + run_until pair reports, so the coordinator's load
        vector sees identical deltas at identical barriers in both
        modes.

        ``safe`` is the earliest barrier any future batch can carry
        (the next unplaced arrival's epoch start; infinity once every
        arrival is placed) — it moves the shard's risk-free speculation
        bound forward.
        """
        self.stats["epochs"] += 1
        if self._ckpt_time is not None:
            self._ckpt_age += 1
            if self._ckpt_age > self.stats["checkpoint_age_epochs"]:
                self.stats["checkpoint_age_epochs"] = self._ckpt_age
        self._safe = safe
        shard = self.shard
        speculated = shard.sim.now > self._frontier
        rolled_back = False
        if batch and shard.sim.now > barrier:
            self._rollback(barrier)
            rolled_back = True
            shard = self.shard
        # Phase attribution: the rollback replay (if any) was timed by
        # _rollback itself; everything from here to the epoch end is
        # committed simulation work.  A rolled-back shard's clock sits
        # exactly at the barrier, so the run_until(barrier) catch-up
        # below never re-runs replayed work.
        probe = runtime.get_probe()
        began = probe.begin() if probe is not None else 0.0
        if batch:
            if shard.sim.now < barrier:
                shard.sim.run_until(barrier)
            shard.submit(batch)
            self._journal.append((barrier, batch))
        if shard.sim.now < epoch_end:
            shard.sim.run_until(epoch_end)
        if probe is not None:
            probe.lap("compute", began)
        if speculated:
            # Adaptive throttle, AIMD with a slow additive increase:
            # a rollback halves the window toward zero (replay costs
            # O(committed history), so risky overshoot must back off
            # hard), and the window regrows by one only after a streak
            # of confirmed speculations.  A sticky breaker stops risky
            # speculation for good when rollbacks dominate — a
            # pathological cell degrades to risk-free-only speculation
            # instead of paying replays forever.
            if rolled_back:
                if not self._pinned:
                    self.window //= 2
                    self._commit_streak = 0
                    if (self.stats["rollbacks"]
                            >= _SPEC_BREAKER_ROLLBACKS
                            and self.stats["speculation_commits"] * 2
                            < self.stats["rollbacks"]):
                        self.throttled = True
                        self.window = 0
            else:
                self.stats["speculation_commits"] += 1
                self._commit_streak += 1
                if (not self.throttled and not self._pinned
                        and self._commit_streak >= _SPEC_GROW_STREAK):
                    self._commit_streak = 0
                    self.window = min(self.window + 1, _SPEC_WINDOW_MAX)
        self._frontier = epoch_end
        self._reported = epoch_end
        return shard.take_teardowns(upto=epoch_end)

    def speculate_quantum(self):
        """Free-run up to one lookahead past the clock, inside the
        window; returns whether any progress was made.

        The target is ``max(safe, frontier) + window * lookahead``:
        everything below the coordinator's ``safe`` promise can never
        roll back (so even a fully throttled shard keeps speculating
        up to it), while the window bounds only the risky overshoot
        beyond it.
        """
        shard = self.shard
        if not shard.live:
            # Nothing in flight: only daemon ticks remain, and those
            # must not run past the cluster's natural end.
            return False
        sim = shard.sim
        target = (max(self._safe, self._frontier)
                  + self.window * self._lookahead)
        if sim.now >= target:
            return False
        before = sim.events_dispatched
        sim.run_until(min(target, sim.now + self._lookahead))
        self.stats["speculated_events"] += sim.events_dispatched - before
        return True

    # ------------------------------------------------------------------
    # fork-checkpoint hooks (worker processes only; see cluster.checkpoint)
    # ------------------------------------------------------------------
    def checkpointable(self):
        """Whether this instant is commit-safe to fork a checkpoint at.

        A checkpoint at local time T must sit at or below every input
        it could ever be resumed against: future batch barriers are >=
        max(committed frontier, ``safe``), and the finish horizon is >=
        the final frontier, so T <= max(frontier, safe) is safe — with
        the caveat that an *infinite* ``safe`` (placement done) is not
        a barrier bound at all, and only T <= frontier guarantees T
        stays below the global finish horizon.
        """
        now = self.shard.sim.now
        if self._safe != float("inf"):
            return now <= max(self._frontier, self._safe)
        return now <= self._frontier

    def mark_checkpoint(self):
        """Parent-side bookkeeping right after a checkpoint fork.

        The CoW image holds every journal entry already applied, so the
        live journal shrinks to the (empty) suffix — committed-teardown
        dedup is untouched because ``_reported`` still rides along and
        :meth:`apply_resume` re-drops everything at or below it.
        """
        self._ckpt_time = self.shard.sim.now
        self._ckpt_age = 0
        self._journal = []
        self.stats["checkpoints"] += 1

    def pack_state(self):
        """The per-shard handover payload a resumed checkpoint needs."""
        return {
            "journal": self._journal,
            "frontier": self._frontier,
            "safe": self._safe,
            "reported": self._reported,
            "ckpt_time": self._ckpt_time,
            "ckpt_age": self._ckpt_age,
            "window": self.window,
            "throttled": self.throttled,
            "streak": self._commit_streak,
            "stats": self.stats,
        }

    def apply_resume(self, packed):
        """Become the committed timeline again, inside a resumed child.

        The fork image sits at the checkpoint instant with every
        pre-checkpoint input applied; adopting the dead worker's
        bookkeeping and replaying the journal *suffix* (then running to
        the committed frontier) reproduces exactly the committed state
        the in-process reference would hold.  Teardowns regenerated on
        the way were already reported by the dead image — ``upto
        _reported`` drops them, so the coordinator's load vector never
        sees a delta twice.
        """
        probe = runtime.get_probe()
        began = probe.begin() if probe is not None else 0.0
        sim = self.shard.sim
        before = sim.events_dispatched
        self._journal = list(packed["journal"])
        self._frontier = packed["frontier"]
        self._safe = packed["safe"]
        self._reported = packed["reported"]
        self._ckpt_time = packed["ckpt_time"]
        self._ckpt_age = packed["ckpt_age"]
        self.window = packed["window"]
        self.throttled = packed["throttled"]
        self._commit_streak = packed["streak"]
        self.stats = packed["stats"]
        for submit_time, batch in self._journal:
            if sim.now < submit_time:
                sim.run_until(submit_time)
            self.shard.submit(batch)
        if sim.now < self._frontier:
            sim.run_until(self._frontier)
        self.shard.take_teardowns(upto=self._reported)
        replayed = sim.events_dispatched - before
        self.stats["replayed_events"] += replayed
        self.stats["checkpoint_resumes"] += 1
        _hist_add(self.stats["replay_distance_hist"], replayed)
        if probe is not None:
            probe.lap("checkpoint_resume", began)
            probe.instant("checkpoint_resume")
            probe.count("checkpoint_resumes")

    def note_checkpoint_rollback(self, barrier):
        """Dying-image accounting for a checkpoint-resolved conflict.

        The conflicted step never runs here (the resumed child replays
        it at the committed frontier, where it no longer conflicts), so
        the rollback count, depth histogram, and AIMD back-off are
        applied before the state packs itself into the handover.
        """
        self.stats["rollbacks"] += 1
        probe = runtime.get_probe()
        if probe is not None:
            # The count must cross the handover (it rides pack()); the
            # instant is recorded by the *resumed* child, which is the
            # image the telemetry timeline keeps.
            probe.count("rollbacks")
        _hist_add(
            self.stats["rollback_depth_hist"],
            self.shard.sim.now - barrier,
        )
        if not self._pinned:
            self.window //= 2
            self._commit_streak = 0
            if (self.stats["rollbacks"] >= _SPEC_BREAKER_ROLLBACKS
                    and self.stats["speculation_commits"] * 2
                    < self.stats["rollbacks"]):
                self.throttled = True
                self.window = 0

    def _rollback(self, when):
        """Rebuild the shard and replay its journal up to ``when``.

        This is the O(committed history) fallback: it exists for
        in-process groups and fork-less workers, whose journal is the
        complete input history.  After a checkpoint truncated the
        journal this replay would silently lose the prefix, so it
        refuses — conflicts must resume through the checkpoint image
        instead.
        """
        if self._ckpt_time is not None:
            raise RuntimeError(
                "full replay after checkpoint truncation would lose "
                "the journal prefix; conflicts must resume from the "
                "checkpoint image"
            )
        probe = runtime.get_probe()
        began = probe.begin() if probe is not None else 0.0
        self.stats["rollbacks"] += 1
        self.stats["full_replays"] += 1
        _hist_add(
            self.stats["rollback_depth_hist"],
            self.shard.sim.now - when,
        )
        self.shard.discard()
        self.shard = ClusterShard(**self._spec)
        sim = self.shard.sim
        sim.runtime_probe = probe
        for submit_time, batch in self._journal:
            sim.run_until(submit_time)
            self.shard.submit(batch)
        sim.run_until(when)
        # The replayed shard regenerated every committed teardown;
        # drop the ones the coordinator already saw.
        self.shard.take_teardowns(upto=self._reported)
        self.stats["replayed_events"] += sim.events_dispatched
        _hist_add(
            self.stats["replay_distance_hist"], sim.events_dispatched
        )
        if probe is not None:
            probe.lap("rollback_replay", began)
            probe.instant("rollback")
            probe.count("rollbacks")

    def drain(self):
        """Run lifecycles to completion; returns the conservative end.

        The speculated clock may sit past the last completion (a
        quantum never stops mid-flight), so the reported end is
        max(committed frontier, last lifecycle completion) — exactly
        the ``sim.now`` a reference shard lands on after its drain.
        """
        shard = self.shard
        shard.sim.run()
        return max(self._frontier, shard.last_lifecycle_end)

    def finish(self, horizon):
        """Align to the global ``horizon`` and return the shard result.

        A clock that overshot the horizon is rolled back by replay —
        the rebuilt simulator then counts exactly the events of the
        committed timeline, so merged event totals match the
        single-process run byte-for-byte.
        """
        shard = self.shard
        if shard.sim.now > horizon:
            self._rollback(horizon)
            shard = self.shard
        elif shard.sim.now < horizon:
            shard.sim.run_until(horizon)
        result = shard.result()
        result["sync"] = dict(self.stats, throttled=int(self.throttled))
        return result


#: Per-shard sync counters that sum across shards; ``epochs`` and
#: ``checkpoint_age_epochs`` take the max instead (they are per-shard
#: high-water marks of the same global grid), and the ``*_hist`` keys
#: are power-of-two histograms whose buckets merge by addition.
_SYNC_SUM_KEYS = (
    "rollbacks",
    "speculated_events",
    "replayed_events",
    "speculation_commits",
    "checkpoints",
    "checkpoint_resumes",
    "full_replays",
)
_SYNC_HIST_KEYS = ("rollback_depth_hist", "replay_distance_hist")


def _fold_sync_stats(results, barrier_wait_s):
    """Pop per-shard ``sync`` stats off ``results`` and aggregate them."""
    stats = {
        "epochs": 0,
        "barrier_wait_s": barrier_wait_s,
        "throttled_shards": 0,
        "checkpoint_age_epochs": 0,
    }
    stats.update({key: 0 for key in _SYNC_SUM_KEYS})
    stats.update({key: {} for key in _SYNC_HIST_KEYS})
    for result in results:
        shard_stats = result.pop("sync", None)
        if not shard_stats:
            continue
        stats["epochs"] = max(stats["epochs"], shard_stats["epochs"])
        stats["checkpoint_age_epochs"] = max(
            stats["checkpoint_age_epochs"],
            shard_stats.get("checkpoint_age_epochs", 0),
        )
        for key in _SYNC_SUM_KEYS:
            stats[key] += shard_stats.get(key, 0)
        for key in _SYNC_HIST_KEYS:
            for bucket, count in shard_stats.get(key, {}).items():
                stats[key][bucket] = stats[key].get(bucket, 0) + count
        stats["throttled_shards"] += shard_stats["throttled"]
    return stats


# ----------------------------------------------------------------------
# shard groups: the in-process reference, in-process workers, processes
# ----------------------------------------------------------------------
class _InProcessGroup:
    """The conservative reference: every shard here, in lockstep.

    No speculation, no worker, relay or wire code — the shards advance
    barrier by barrier exactly as the grid rule reads.
    """

    def __init__(self, shard_specs):
        self.shards = [ClusterShard(**spec) for _, spec in shard_specs]
        self.epochs = 0

    def submit(self, batches):
        for shard_id, batch in batches.items():
            self.shards[shard_id].submit(batch)

    def run_until(self, when):
        self.epochs += 1
        deltas = []
        for shard in self.shards:
            deltas.extend(shard.run_until(when))
        return deltas

    def drain(self):
        return [shard.drain() for shard in self.shards]

    def finish(self, horizon):
        results = []
        for shard in self.shards:
            if shard.sim.now < horizon:
                shard.sim.run_until(horizon)
            results.append(shard.result())
        stats = _fold_sync_stats(results, 0.0)
        stats["epochs"] = self.epochs
        return results, stats

    def close(self):
        self.shards = []


class _SpeculativeInProcessGroup:
    """The worker protocol with every shard in this process
    (``workers=0``, or inside a daemonic pool worker).

    Wall-clock-wise, in-process speculation buys nothing — there is no
    idle core to soak while the coordinator thinks — but it executes
    the identical protocol the worker processes run, and it does so
    *deterministically*: each step is executed the moment it is sent
    and speculation runs to window exhaustion right after it, so
    speculation depth depends only on the adaptive window, never on OS
    timing.  That is what makes rollback counts assertable in tests.
    """

    def __init__(self, shard_specs, lookahead):
        self.states = [
            _SpeculativeShard(spec, lookahead) for _, spec in shard_specs
        ]
        self._replies = []

    def step_send(self, barrier, epoch_end, safe, batches):
        deltas = []
        for shard_id, state in enumerate(self.states):
            deltas.extend(
                state.step(barrier, epoch_end, safe, batches.get(shard_id))
            )
        for state in self.states:
            while state.speculate_quantum():
                pass
        self._replies.append(wire.digest_deltas(deltas))

    def step_recv(self):
        return self._replies.pop(0)

    def step(self, barrier, epoch_end, safe, batches):
        self.step_send(barrier, epoch_end, safe, batches)
        return self.step_recv()

    def drain(self):
        return [state.drain() for state in self.states]

    def finish(self, horizon):
        results = [state.finish(horizon) for state in self.states]
        return results, _fold_sync_stats(results, 0.0)

    def close(self):
        self.states = []


def _shard_worker_main(conn, shard_specs, lookahead, checkpoint_every=None,
                       eager=False, use_fork=True):
    """Worker entry: serve the worker protocol for the assigned shards.

    The tree topology and the pipelined coordinator live entirely above
    this loop (relays speak the same ops), so a leaf worker cannot tell
    whether its parent is the coordinator or a relay.
    """
    try:
        if runtime.probes_enabled():
            name = multiprocessing.current_process().name
            probe = RuntimeProbe(
                name.replace("repro-shard-", "") or "worker",
                hosts=sorted(
                    [spec["host_start"], spec["host_stop"]]
                    for _sid, spec in shard_specs
                ),
            )
            runtime.set_probe(probe)
            wire.set_probe(probe)
        _worker_loop(
            conn, shard_specs, lookahead,
            checkpoint_every=checkpoint_every, eager=eager,
            use_fork=use_fork,
        )
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        try:
            wire.send(
                conn, ("error", f"{exc!r}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass


def _apply_handover(states, handover, ckpt):
    """Turn a resumed checkpoint child into the committed worker.

    Replays each shard's journal suffix and returns the decoded pending
    request — the one whose conflict killed the previous image — for
    the loop to process next (its reply has not been sent yet).

    The replayed suffix is credited toward the capture cadence: under
    a rollback storm conflicts land faster than any cadence, and a
    resumed child restarting its count at zero would keep serving an
    ever-staler checkpoint image — the replay suffix, and with it the
    rollback cost, would quietly grow back to O(history).  With the
    credit, the first commit-safe step after a deep resume re-captures
    at the new frontier and the suffix stays short.
    """
    probe = runtime.get_probe()
    if probe is not None and handover.get("probe") is not None:
        # Adopt the dead image's cumulative accounting before the
        # per-shard resumes below add their replay spans, then mark
        # the rollback this handover resolved (the dying image's
        # pending instants died with it).
        probe.adopt(handover["probe"])
        probe.instant("rollback")
    for shard_id, packed in handover["shards"].items():
        states[shard_id].apply_resume(packed)
    ckpt.confirmed = max(
        (len(state._journal) for state in states.values()), default=0
    )
    return wire.decode(handover["pending"])


def _worker_loop(conn, shard_specs, lookahead, checkpoint_every=None,
                 eager=False, use_fork=True):
    """Speculating worker: free-run whenever the pipe is quiet.

    Every quantum re-polls the pipe, so a pending step message is
    picked up within one lookahead of simulation; once every shard has
    exhausted its window (or its live work), the loop blocks — and
    only that blocked time counts as barrier wait.  ``eager`` trades
    that overlap away for determinism: speculation runs to exhaustion
    *before* the next blocking receive, so speculation depth (and with
    it every rollback count) depends only on the adaptive window,
    never on OS timing — that is what makes checkpoint behavior
    assertable in tests and benchmarks.

    With fork support (and unless ``checkpoint_every=0``) a
    :class:`~repro.cluster.checkpoint.ForkCheckpointer` bounds
    rollback to the journal suffix; conflicts then *leave this
    process*: the dying image packs its bookkeeping and the pending
    request into a handover, and the loop continues inside the resumed
    child with ``pending`` set (the fork happened after the previous
    reply was sent, so no reply is ever duplicated or lost).
    """
    states = {shard_id: _SpeculativeShard(spec, lookahead)
              for shard_id, spec in shard_specs}
    probe = runtime.get_probe()
    ckpt = None
    if (use_fork and checkpoint_every != 0
            and fork_checkpoints_supported()):
        ckpt = ForkCheckpointer(states, checkpoint_every)
    wait_s = 0.0
    pending = None
    while True:
        if pending is not None:
            message, pending = pending, None
        elif eager:
            began = probe.begin() if probe is not None else 0.0
            moved = False
            for state in states.values():
                while state.speculate_quantum():
                    moved = True
            if probe is not None and moved:
                probe.lap("speculate", began)
            waited = time.perf_counter()
            if probe is not None:
                conn.poll(None)
                probe.lap("barrier_wait", waited)
            message = wire.recv(conn)
            wait_s += time.perf_counter() - waited
        else:
            while not conn.poll(0):
                began = probe.begin() if probe is not None else 0.0
                moved = False
                for state in states.values():
                    if state.speculate_quantum():
                        moved = True
                if moved:
                    if probe is not None:
                        probe.lap("speculate", began)
                else:
                    waited = time.perf_counter()
                    conn.poll(None)
                    wait_s += time.perf_counter() - waited
                    if probe is not None:
                        probe.lap("barrier_wait", waited)
                    break
            message = wire.recv(conn)
        op = message[0]
        if op == "step":
            _op, barrier, epoch_end, safe, batches = message
            if ckpt is not None and ckpt.live is not None:
                conflicted = [
                    state for shard_id, state in states.items()
                    if batches.get(shard_id)
                    and state.shard.sim.now > barrier
                ]
                if conflicted:
                    for state in conflicted:
                        state.note_checkpoint_rollback(barrier)
                    # Never returns: the resumed child re-enters this
                    # loop with the same message pending, now at the
                    # committed frontier where it no longer conflicts.
                    ckpt.hand_over(wire.encode(message))
            deltas = []
            for shard_id, state in states.items():
                deltas.extend(
                    state.step(barrier, epoch_end, safe,
                               batches.get(shard_id))
                )
            # Reply with the load digest, not the raw deltas: the
            # coordinator applies every reply before the next placement
            # decision, so per-host freed counts carry exactly the
            # information placement consumes — and relays can merge
            # digests by addition on the way up.
            if probe is not None:
                probe.count("epochs")
                if lookahead > 0:
                    probe.gauge(
                        "frontier_epoch", round(epoch_end / lookahead)
                    )
            wire.send(conn, ("loads", wire.digest_deltas(deltas)),
                      piggyback=True)
            if ckpt is not None:
                resumed = ckpt.after_step()
                if resumed is not None:
                    pending = _apply_handover(states, resumed, ckpt)
        elif op == "drain":
            began = probe.begin() if probe is not None else 0.0
            reply = {sid: state.drain()
                     for sid, state in states.items()}
            if probe is not None:
                probe.lap("compute", began)
            wire.send(conn, ("ok", reply), piggyback=True)
        elif op == "finish":
            horizon = message[1]
            if ckpt is not None and ckpt.live is not None:
                over = [state for state in states.values()
                        if state.shard.sim.now > horizon]
                if over:
                    for state in over:
                        state.note_checkpoint_rollback(horizon)
                    ckpt.hand_over(wire.encode(message))
            results = {sid: state.finish(horizon)
                       for sid, state in states.items()}
            if ckpt is not None:
                ckpt.close()
                ckpt = None
            wire.send(conn, ("ok", {"results": results, "wait_s": wait_s}),
                      piggyback=True)
        elif op == "stop":
            if ckpt is not None:
                ckpt.close()
            wire.send(conn, ("ok", None), piggyback=True)
            return
        else:  # pragma: no cover - protocol guard
            wire.send(conn, ("error", f"unknown op {op!r}"))
            return


def _spawn_workers(context_name, chunks, lookahead, checkpoint_every,
                   eager, label="repro-shard"):
    """Spawn the processes serving ``chunks`` (one shard-spec list each).

    Flat star when the chunk count fits :data:`RELAY_FAN_IN`: one leaf
    worker per chunk.  Otherwise the chunks are grouped under fan-in
    relay processes — each relay re-enters this function for its own
    sub-tree, so depth grows logarithmically and no node ever serves
    more than fan-in pipes.  Returns ``(procs, conns,
    shard_ids_per_conn)``.
    """
    context = multiprocessing.get_context(context_name)
    # Fork checkpoints need the worker itself to be fork-started: a
    # spawn context stands in for platforms without os.fork, so its
    # workers keep the full journal and roll back by replay.
    use_fork = context_name == "fork"
    procs = []
    conns = []
    owners = []
    if len(chunks) > RELAY_FAN_IN:
        groups = [chunks[index::RELAY_FAN_IN]
                  for index in range(RELAY_FAN_IN)]
        for index, group_chunks in enumerate(groups):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_relay_main,
                args=(child_conn, group_chunks, lookahead,
                      checkpoint_every, eager, context_name),
                name=f"{label}-relay-{index}",
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
            owners.append([shard_id for chunk in group_chunks
                           for shard_id, _ in chunk])
        return procs, conns, owners
    for index, chunk in enumerate(chunks):
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(
            target=_shard_worker_main,
            args=(child_conn, chunk, lookahead, checkpoint_every, eager,
                  use_fork),
            name=f"{label}-worker-{index}",
        )
        proc.start()
        child_conn.close()
        procs.append(proc)
        conns.append(parent_conn)
        owners.append([shard_id for shard_id, _ in chunk])
    return procs, conns, owners


def _relay_main(conn, chunks, lookahead, checkpoint_every, eager,
                context_name):
    """Relay entry: aggregate a sub-tree of workers behind one pipe."""
    try:
        if runtime.probes_enabled():
            name = multiprocessing.current_process().name
            probe = RuntimeProbe(name.replace("repro-shard-", ""))
            runtime.set_probe(probe)
            wire.set_probe(probe)
            # Children's piggybacked records buffer here and ride this
            # relay's next upward reply — the tree reduction costs the
            # telemetry plane no extra frames.
            wire.set_telemetry_sink(RecordBuffer())
        procs, conns, owners = _spawn_workers(
            context_name, chunks, lookahead, checkpoint_every, eager,
            label=multiprocessing.current_process().name,
        )
        _relay_loop(conn, procs, conns, _owner_map(owners))
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        try:
            wire.send(
                conn, ("error", f"{exc!r}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass


def _owner_map(owners):
    """``[[shard_id, ...] per pipe]`` -> ``{shard_id: pipe index}``."""
    return {shard_id: index
            for index, shard_ids in enumerate(owners)
            for shard_id in shard_ids}


def _route(owner, pipes, batches):
    """Split ``{shard_id: batch}`` into one batch dict per child pipe."""
    routed = [{} for _ in range(pipes)]
    for shard_id, batch in batches.items():
        routed[owner[shard_id]][shard_id] = batch
    return routed


def _relay_loop(parent, procs, conns, owner):
    """Serve the worker protocol by fan-out and tree reduction.

    A relay is protocol-transparent: it routes step batches down by
    shard ownership, reduces the children's replies (digests merge by
    per-host addition, result/end dicts by union, wait by sum), and
    answers with exactly the frame a leaf worker would — so the parent,
    which may itself be a relay, cannot tell tree depth apart.

    Steps forward opportunistically at depth 2: if the parent already
    streamed a follow-up step (the pipelined coordinator's batchless
    empty-epoch jump), it is routed down *before* blocking on the first
    step's replies, so leaf workers cross both epochs without a relay
    round-trip between them.  Replies still flow up strictly in request
    order — the pipelining is invisible to everything above.
    """
    probe = runtime.get_probe()

    def forward_step(message):
        _op, barrier, epoch_end, safe, batches = message
        for conn, payload in zip(conns, _route(owner, len(conns), batches)):
            wire.send(conn, ("step", barrier, epoch_end, safe, payload))

    def gather():
        replies = []
        for conn in conns:
            if probe is not None:
                waited = probe.begin()
                conn.poll(None)
                probe.lap("barrier_wait", waited)
            reply = wire.recv(conn)
            if reply[0] == "error":
                raise RuntimeError(f"shard worker failed:\n{reply[1]}")
            replies.append(reply[1])
        return replies

    def recv_parent():
        if probe is not None:
            waited = probe.begin()
            parent.poll(None)
            probe.lap("barrier_wait", waited)
        return wire.recv(parent)

    backlog = []
    while True:
        message = backlog.pop(0) if backlog else recv_parent()
        op = message[0]
        if op == "step":
            forwarded = 1
            forward_step(message)
            if parent.poll(0):
                follow = wire.recv(parent)
                if follow[0] == "step":
                    forward_step(follow)
                    forwarded += 1
                else:
                    backlog.append(follow)
            for _ in range(forwarded):
                wire.send(
                    parent, ("loads", wire.merge_digests(gather())),
                    piggyback=True,
                )
        elif op == "drain":
            for conn in conns:
                wire.send(conn, message)
            ends = {}
            for payload in gather():
                ends.update(payload)
            wire.send(parent, ("ok", ends), piggyback=True)
        elif op == "finish":
            for conn in conns:
                wire.send(conn, message)
            results = {}
            wait_s = 0.0
            for payload in gather():
                results.update(payload["results"])
                wait_s += payload["wait_s"]
            wire.send(parent, ("ok", {"results": results,
                                      "wait_s": wait_s}),
                      piggyback=True)
        elif op == "stop":
            for conn in conns:
                wire.send(conn, ("stop", None))
            for conn in conns:
                wire.recv(conn)
            for proc in procs:
                proc.join(timeout=5)
            wire.send(parent, ("ok", None), piggyback=True)
            return
        else:  # pragma: no cover - protocol guard
            wire.send(parent, ("error", f"unknown op {op!r}"))
            return


class _WorkerGroup:
    """Shards spread over ``workers`` forked processes.

    Shard-to-process mapping is a pure convenience: every shard is a
    deterministic object, so results are invariant to how many processes
    serve them.  Protocol messages travel struct-packed
    (:mod:`repro.cluster.wire`); after a checkpoint handover the
    process behind a pipe is a different PID, but the Connection — and
    the bounded-outstanding-request framing on it — carries over
    untouched, so the group never needs to know.  With more workers
    than :data:`RELAY_FAN_IN` the pipes below are relay sub-trees
    instead of leaf workers — same protocol, fewer pipes on the
    coordinator's serial path.
    """

    def __init__(self, shard_specs, workers, lookahead,
                 checkpoint_every=None, context=None, eager=False):
        chunks = [shard_specs[index::workers] for index in range(workers)]
        chunks = [chunk for chunk in chunks if chunk]
        self._procs, self._conns, owners = _spawn_workers(
            context or "fork", chunks, lookahead, checkpoint_every, eager,
        )
        self._owner = _owner_map(owners)

    def _broadcast(self, message):
        for conn in self._conns:
            wire.send(conn, message)
        replies = []
        for conn in self._conns:
            status, payload = wire.recv(conn)
            if status != "ok":
                self.close()
                raise RuntimeError(f"shard worker failed:\n{payload}")
            replies.append(payload)
        return replies

    def step_send(self, barrier, epoch_end, safe, batches):
        """Ship one step without waiting for its replies.

        The pipelined coordinator calls this back-to-back (at most two
        outstanding per pipe — the depth the checkpoint handover
        tolerates: one request in processing travels in the handover,
        a queued one survives in the kernel pipe buffer); every send
        must be matched by a later :meth:`step_recv`, in order.
        """
        routed = _route(self._owner, len(self._conns), batches)
        for conn, payload in zip(self._conns, routed):
            wire.send(conn, ("step", barrier, epoch_end, safe, payload))

    def step_recv(self):
        """Collect one step's replies: the merged load digest."""
        digests = []
        for conn in self._conns:
            status, payload = wire.recv(conn)
            if status != "loads":
                self.close()
                raise RuntimeError(f"shard worker failed:\n{payload}")
            digests.append(payload)
        return wire.merge_digests(digests)

    def step(self, barrier, epoch_end, safe, batches):
        """Submit + advance + collect digests in one round-trip
        (workers speculate while it is in flight)."""
        self.step_send(barrier, epoch_end, safe, batches)
        return self.step_recv()

    def drain(self):
        ends = {}
        for payload in self._broadcast(("drain", None)):
            ends.update(payload)
        return [ends[shard_id] for shard_id in sorted(ends)]

    def finish(self, horizon):
        results = {}
        wait_s = 0.0
        for payload in self._broadcast(("finish", horizon)):
            results.update(payload["results"])
            wait_s += payload["wait_s"]
        ordered = [results[shard_id] for shard_id in sorted(results)]
        return ordered, _fold_sync_stats(ordered, wait_s)

    def close(self):
        for conn in self._conns:
            try:
                wire.send(conn, ("stop", None))
            except OSError:
                pass
        for proc in self._procs:
            # After a checkpoint handover the serving process is a
            # descendant, not this Process object (which is already
            # dead); the descendant exits on "stop" and is reaped by
            # init, so the join below is still the right wait.
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []


def _make_group(shard_specs, workers, sync, lookahead, checkpoint_every=None,
                context=None, eager=False):
    if sync == "conservative":
        return _InProcessGroup(shard_specs)
    if workers is None:
        workers = len(shard_specs)
    # A multiprocessing.Pool worker is daemonic and may not fork
    # children; sharded cells that land there run in-process.
    if multiprocessing.current_process().daemon:
        workers = 0
    if workers < 1:
        return _SpeculativeInProcessGroup(shard_specs, lookahead)
    return _WorkerGroup(
        shard_specs, min(workers, len(shard_specs)), lookahead,
        checkpoint_every=checkpoint_every, context=context, eager=eager,
    )


# ----------------------------------------------------------------------
# the sharded run
# ----------------------------------------------------------------------
def run_sharded_cluster(preset, concurrency, hosts, seed=0, shards=2,
                        placement="least-loaded", app_name=None,
                        teardown=True, memory_bytes=None, spec=None,
                        vf_count=None, arrivals=None, workers=None,
                        name_prefix="w", trace=None, sync="hierarchical",
                        engine_stats=None, checkpoint_every=None,
                        worker_context=None, eager_speculation=False,
                        telemetry=None):
    """Run one cluster churn burst over K shards; returns the summary.

    The summary has exactly the shape (and, for round-robin and for
    burst arrivals, exactly the bytes) of the single-process
    :func:`~repro.cluster.churn.run_cluster_cell`.

    Args:
        shards: Number of shards K (clamped to ``hosts``).
        workers: OS processes serving the shards under
            ``"hierarchical"``.  None = one per shard (the parallel fast
            path); 0 = everything in-process (useful under pool workers
            and in tests).  ``"conservative"`` ignores it.  Results are
            invariant to this knob.
        arrivals: :class:`ArrivalPattern` (default: simultaneous burst).
        trace: Optional dict, filled with the merged flight-recorder
            bundle (``repro.obs``): each shard records its own hosts
            and the merge is a disjoint union of host-unique tracks.
            The returned summary never contains trace data.
        sync: ``"hierarchical"`` (the worker protocol: speculating
            workers under a relay tree with a pipelined coordinator)
            or ``"conservative"`` (the in-process lockstep reference);
            validated by :func:`resolve_sync`.  Results are
            byte-identical across modes.
        engine_stats: Optional dict, filled with aggregated per-shard
            wheel stats plus the sync-protocol counters (epochs,
            barrier wait, rollbacks, speculated/replayed events,
            checkpoints/resumes and their depth histograms).
        checkpoint_every: Fork-checkpoint cadence for speculating
            workers, in confirmed epochs.  ``None`` adapts to the AIMD
            window; ``0`` disables checkpoints (rollback falls back to
            full replay from t=0).  Wall-clock only — results are
            invariant to this knob.
        worker_context: multiprocessing start-method name for the
            worker processes (default ``"fork"``).  ``"spawn"``
            exercises the no-fork-checkpoint fallback path.
        eager_speculation: Speculate to window exhaustion *before*
            blocking on the next protocol message instead of racing
            the pipe.  Deterministic rollback counts (for tests and
            benches) at the cost of the overlap the racing loop buys.
        telemetry: Optional dict, filled with the wall-clock telemetry
            snapshot (``repro.obs.runtime``): per-process phase
            totals, spans, instants and wire accounting for the
            coordinator, every relay, and every worker.  Passing it
            (or setting ``REPRO_RUNTIME_PROBES=1``) enables the
            probes; either way results stay byte-identical — the
            telemetry-invariance CI gate holds this plane to the same
            contract as every other wall-clock knob.
        Other arguments: as for ``run_cluster_cell``.
    """
    if concurrency <= 0:
        raise ValueError(f"concurrency must be positive, got {concurrency}")
    shards = min(shards, hosts)
    sync = resolve_sync(sync)
    bounds = partition_hosts(hosts, shards)
    if arrivals is None:
        arrivals = ArrivalPattern("burst")
    offsets = arrivals.offsets(concurrency)
    # Arrival order: schedule time, ties by submission index — exactly
    # the order the single-process simulator resumes them in.
    order = sorted(range(concurrency), key=lambda n: (offsets[n], n))

    shard_specs = [
        (shard_id, {
            "preset_or_config": preset,
            "host_start": start,
            "host_stop": stop,
            "spec": spec,
            "seed": seed,
            "vf_count": vf_count,
            "app_name": app_name,
            "teardown": teardown,
            "memory_bytes": memory_bytes,
            "trace": trace is not None,
        })
        for shard_id, (start, stop) in enumerate(bounds)
    ]

    # Host -> shard map, filled range by range (O(hosts), not
    # O(hosts x shards) — at 1M hosts the difference is the build).
    host_shard = [0] * hosts
    for shard_id, (start, stop) in enumerate(bounds):
        for host_index in range(start, stop):
            host_shard[host_index] = shard_id

    lookahead = min_startup_lookahead(spec)
    trace_coordinator = trace is not None and os.environ.get(
        "REPRO_TRACE_COORDINATOR", ""
    ) not in ("", "0")
    probes = telemetry is not None or runtime.probes_enabled()
    prev_probes_env = os.environ.get("REPRO_RUNTIME_PROBES")
    aggregator = None
    coord_probe = None
    if probes:
        # Workers decide from the environment (inherited across fork
        # and spawn starts), so an explicit ``telemetry=`` request
        # must arm it before the group spawns; restored below.
        os.environ["REPRO_RUNTIME_PROBES"] = "1"
        aggregator = TelemetryAggregator()
        coord_probe = RuntimeProbe("coordinator")
        aggregator.attach_local(coord_probe)
        runtime.set_aggregator(aggregator)
        runtime.set_probe(coord_probe)
        wire.set_probe(coord_probe)
        wire.set_telemetry_sink(aggregator.ingest)
    stats = _CoordinatorStats(record_spans=trace_coordinator,
                              probe=coord_probe)
    tracker = None
    group = _make_group(
        shard_specs, workers, sync, lookahead,
        checkpoint_every=checkpoint_every, context=worker_context,
        eager=eager_speculation,
    )
    try:
        if placement == "round-robin":
            batches = _round_robin_plan(order, offsets, hosts, host_shard)
            if sync == "conservative":
                group.submit(batches)
            else:
                # An up-front plan is one step at barrier 0 that
                # promises no later batch: shards free-run risk-free.
                group.step(0.0, 0.0, float("inf"), batches)
        else:
            tracker = make_load_tracker(placement, hosts)
            place = (_place_epoch_barrier if sync == "conservative"
                     else _place_epoch_steps)
            place(group, order, offsets, host_shard, tracker, lookahead,
                  stats)
        ends = group.drain()
        results, sync_stats = group.finish(max(ends))
    finally:
        group.close()
        if probes:
            wire.set_probe(None)
            wire.set_telemetry_sink(None)
            runtime.set_probe(None)
            runtime.set_aggregator(None)
            if prev_probes_env is None:
                os.environ.pop("REPRO_RUNTIME_PROBES", None)
            else:
                os.environ["REPRO_RUNTIME_PROBES"] = prev_probes_env
    if telemetry is not None and aggregator is not None:
        snapshot = aggregator.snapshot()
        snapshot["mode"] = sync
        snapshot["shards"] = shards
        snapshot["lookahead"] = lookahead
        telemetry.update(snapshot)
    sync_stats["mode"] = sync
    sync_stats["coordinator_wait_s"] = stats.wait_s
    sync_stats["coordinator_place_s"] = stats.place_s
    sync_stats["coordinator_reduce_s"] = stats.reduce_s
    sync_stats["placement_heap_ops"] = (
        tracker.heap_ops if tracker is not None else 0
    )
    wheels = [result.pop("wheel_stats", None) for result in results]
    if engine_stats is not None:
        engine_stats.update(_aggregate_wheel_stats(wheels))
        engine_stats["shards"] = shards
        engine_stats["sync_mode"] = sync
        for key, value in sync_stats.items():
            if key != "mode":
                engine_stats[f"sync_{key}"] = value
    if trace is not None:
        from repro.obs.metrics import MetricsRegistry, merge_metrics
        from repro.obs.recorder import merge_dumps

        trace.update(
            merge_dumps([result.pop("trace") for result in results])
        )
        # Protocol counters ride the merged bundle's metrics (flat
        # metrics JSON / --metrics export), never its tracks — the
        # Perfetto trace stays byte-identical across shard counts and
        # sync modes.
        registry = MetricsRegistry()
        registry.ingest_sync_stats(sync_stats)
        trace["metrics"] = merge_metrics(
            [trace["metrics"], registry.snapshot()]
        )
        if trace_coordinator:
            # Opt-in (REPRO_TRACE_COORDINATOR=1): the coordinator's
            # wait/place/reduce spans on a synthetic wall-clock track.
            # Never on by default — wall-clock spans differ run to run,
            # and the default bundle is byte-identical across shard
            # counts (the trace-determinism CI gate).
            trace["tracks"]["coordinator"] = stats.track_events()
    return _merge(results, hosts, concurrency)


#: Wheel-stat aggregation across shards: throughput/cost counters sum,
#: high-water marks take the max, descriptive keys (bucket_width,
#: engine name) come from the first shard.
_WHEEL_SUM_KEYS = frozenset({
    "events_dispatched", "pending_events", "timers_cancelled",
    "compactions", "spill_rebuckets", "pool_slots", "pool_free",
})
_WHEEL_MAX_KEYS = frozenset({
    "spill_peak", "max_bucket_occupancy", "pool_occupancy",
})


def _aggregate_wheel_stats(wheels):
    totals = {}
    for wheel in wheels:
        if not wheel:
            continue
        for key, value in wheel.items():
            if key in _WHEEL_SUM_KEYS:
                totals[key] = totals.get(key, 0) + value
            elif key in _WHEEL_MAX_KEYS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals.setdefault(key, value)
    return totals


def _round_robin_plan(order, offsets, hosts, host_shard):
    """The sync-free plan: container n -> host n % H, per shard."""
    batches = {}
    for position, n in enumerate(order):
        host_index = position % hosts
        batches.setdefault(host_shard[host_index], []).append(
            (n, offsets[n], host_index)
        )
    return batches


class _CoordinatorStats:
    """Wall-clock occupancy of the placement coordinator.

    Splits the coordinator's epoch-loop time into three buckets —
    ``wait`` (blocked on shard replies), ``place`` (walking arrivals
    against the load tracker), ``reduce`` (applying reply digests to
    the tracker) — exported through the sync stats as
    ``coordinator_*_s`` gauges.  With span recording enabled
    (``REPRO_TRACE_COORDINATOR=1`` on a traced run) every bucket also
    becomes a Perfetto span on a synthetic ``coordinator`` track, in
    *wall-clock seconds since the run started* (every simulation track
    is in virtual time — the coordinator has no virtual clock, and its
    occupancy is precisely a wall-clock question).  The track is
    opt-in because wall-clock spans differ run to run, and the default
    trace bundle must stay byte-identical across shard counts.
    """

    __slots__ = ("wait_s", "place_s", "reduce_s", "_events", "_record",
                 "_start", "_probe")

    def __init__(self, record_spans=False, probe=None):
        self.wait_s = 0.0
        self.place_s = 0.0
        self.reduce_s = 0.0
        self._record = record_spans
        self._probe = probe
        self._events = []
        self._start = time.perf_counter()

    def note(self, kind, began):
        """Account one ``kind`` span from ``began`` to now; returns now."""
        now = time.perf_counter()
        setattr(self, kind + "_s", getattr(self, kind + "_s") + now - began)
        if self._record:
            self._events.append(("B", began - self._start, kind))
            self._events.append(("E", now - self._start))
        if self._probe is not None:
            self._probe.lap(kind, began, now)
        return now

    def track_events(self):
        """The recorded span stream, recorder-track shaped."""
        return list(self._events)


def _place_epoch_barrier(group, order, offsets, host_shard, tracker,
                         lookahead, stats):
    """The reference walk: least-loaded over the fixed epoch grid,
    each epoch a submit plus a lockstep advance (see module docstring).
    """
    # Epochs are tracked by integer index so barrier times are always
    # the product ``k * lookahead`` — products of increasing integers
    # with the same positive float are monotonic, so shard clocks never
    # step backwards even when ``start + lookahead`` would round
    # differently from ``(k + 1) * lookahead``.
    barrier_epoch = 0
    position = 0
    count = len(order)

    def advance(when):
        began = time.perf_counter()
        deltas = group.run_until(when)
        began = stats.note("wait", began)
        for _time, host_index in deltas:
            tracker.release(host_index)
        stats.note("reduce", began)

    while position < count:
        epoch = int(offsets[order[position]] // lookahead)
        if epoch > barrier_epoch:
            # Jump over empty epochs in one step; the teardowns
            # collected here all have time <= the epoch start, so the
            # grid-visibility rule is unaffected by the jump.
            advance(epoch * lookahead)
            barrier_epoch = epoch
        epoch_end = (epoch + 1) * lookahead
        batches = {}
        began = time.perf_counter()
        while position < count and offsets[order[position]] < epoch_end:
            n = order[position]
            position += 1
            host_index = tracker.pick()
            batches.setdefault(host_shard[host_index], []).append(
                (n, offsets[n], host_index)
            )
        stats.note("place", began)
        runtime.note_progress(position, count, epoch)
        group.submit(batches)
        advance(epoch_end)
        barrier_epoch = epoch + 1


def _place_epoch_steps(group, order, offsets, host_shard, tracker,
                       lookahead, stats):
    """The same epoch walk, driven by pipelined ``step`` ops.

    Placement decisions, their order, and the teardown-visibility rule
    are identical to :func:`_place_epoch_barrier` — each step's digest
    reply carries exactly the load decrements with time <= its epoch
    end — so the placement sequence (and with it the results) is
    byte-identical.  What changes is wall-clock: one round-trip per
    epoch instead of two, and shards speculate into future epochs while
    the coordinator computes.

    Depth-2 streaming: after shipping a batched step, the next epoch's
    *batchless jump* (when the next arrival sits beyond the epoch just
    stepped) is sent before the batched step's replies are drained.
    The message sequence is the serial one — a jump's content is three
    copies of its barrier, independent of any reply — and every reply
    is still applied to the tracker before the next placement decision,
    so the load vector each pick sees is identical.  Only the waiting
    overlaps.
    """
    barrier_epoch = 0
    pending = 0
    position = 0
    count = len(order)
    adversarial = _adversarial_safe()

    def drain_replies():
        nonlocal pending
        while pending:
            began = time.perf_counter()
            digest = group.step_recv()
            began = stats.note("wait", began)
            for host_index, freed in digest:
                tracker.release(host_index, freed)
            stats.note("reduce", began)
            pending -= 1

    while position < count:
        epoch = int(offsets[order[position]] // lookahead)
        if epoch > barrier_epoch:
            # Jump over empty epochs in one batchless step — no batch
            # means no rollback can trigger; speculating shards simply
            # commit whatever they ran ahead.  (This branch only fires
            # for the very first arrival: later jumps were already
            # streamed right behind their batched step.)
            barrier = epoch * lookahead
            group.step_send(barrier, barrier, barrier, {})
            pending += 1
            barrier_epoch = epoch
        drain_replies()
        barrier = epoch * lookahead
        epoch_end = (epoch + 1) * lookahead
        batches = {}
        began = time.perf_counter()
        while position < count and offsets[order[position]] < epoch_end:
            n = order[position]
            position += 1
            host_index = tracker.pick()
            batches.setdefault(host_shard[host_index], []).append(
                (n, offsets[n], host_index)
            )
        stats.note("place", began)
        runtime.note_progress(position, count, epoch)
        # The arrival schedule is known up front, so the earliest
        # barrier any *future* batch can carry is the next unplaced
        # arrival's epoch start — shipped with the step as the shards'
        # risk-free speculation bound (infinity once placement is done).
        # The adversarial test mode under-promises (the current barrier
        # — a valid bound, just maximally pessimistic), so pinned-open
        # windows speculate riskily and conflict on nearly every
        # batched epoch: the rollback-storm regime.
        if adversarial:
            safe = barrier
        elif position < count:
            safe = int(offsets[order[position]] // lookahead) * lookahead
        else:
            safe = float("inf")
        group.step_send(barrier, epoch_end, safe, batches)
        pending += 1
        barrier_epoch = epoch + 1
        if position < count:
            next_epoch = int(offsets[order[position]] // lookahead)
            if next_epoch > barrier_epoch:
                # Stream the next jump behind the batched step: its
                # payload is independent of the in-flight replies, and
                # the jump's safe bound equals its own barrier exactly
                # as the serial loop would send it.
                jump = next_epoch * lookahead
                group.step_send(jump, jump, jump, {})
                pending += 1
                barrier_epoch = next_epoch
    drain_replies()


def _merge(results, hosts, concurrency):
    """Stitch shard results into the single-process summary shape."""
    records = []
    for result in results:
        records.extend(result["records"])
    records.sort()
    if len(records) != concurrency:
        raise RuntimeError(
            f"lost containers: {len(records)} records for "
            f"{concurrency} submissions"
        )
    summary = Distribution(
        [record[3] for record in records]
    ).summary()
    peak_loads = {}
    free_vfs = {}
    for result in results:
        peak_loads.update(result["peak_loads"])
        free_vfs.update(result["free_vfs"])
    if any(free_vfs[index] is None for index in free_vfs):
        free_total = None
    else:
        free_total = sum(free_vfs[index] for index in sorted(free_vfs))
    return {
        "count": summary["count"],
        "mean": summary["mean"],
        "p50": summary["p50"],
        "p99": summary["p99"],
        "min": summary["min"],
        "max": summary["max"],
        "hosts": hosts,
        "peak_in_flight": peak_concurrency(
            [(record[1], record[2]) for record in records]
        ),
        "events": sum(result["events"] for result in results),
        "free_vfs_total": free_total,
        "peak_load_per_host": [
            peak_loads[index] for index in range(hosts)
        ],
    }
