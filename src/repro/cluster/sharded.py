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
  ignores ``workers`` and shares no worker, relay or wire code with the
  path it checks, which is what makes it the oracle the
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
``finish`` and ``stop``.  Workers run in lockstep: between messages a
worker is blocked in a receive, and each op runs its shards exactly as
the in-process reference does.

* **step** ``(barrier, epoch_end, batches)`` submits each shard's batch
  at the epoch ``barrier``, runs to ``epoch_end`` and replies with a
  per-host *load digest* of the teardowns up to it (wire tag ``L``).
  An up-front plan is one step at barrier 0.
* **drain** runs every lifecycle to completion and reports each
  shard's end; **finish** runs every shard to the global horizon, so
  merged event counts match the single-process run exactly.

Around the workers sit the paths that only move wall-clock:

* **Parallel workers.**  Shards of one epoch advance in separate
  processes at once, while the reference runs them one after another.
* **Relay tree.**  When the worker count exceeds :data:`RELAY_FAN_IN`,
  workers hang off relay processes (recursively), which route step
  batches down and merge their children's digests by per-host addition,
  so the coordinator touches at most fan-in pipes per epoch.
* **Heap placement.**  Least-loaded picks come off a lazy min-heap of
  ``(load, host)`` (:class:`repro.cluster.placement.LeastLoadedTracker`),
  bit-identical to the O(hosts) scan.
* **Depth-2 pipelining.**  After a batched step the coordinator streams
  the next epoch's batchless jump before draining replies; every reply
  is still applied before the next placement decision.
* **Packed frames** (:mod:`repro.cluster.wire`) for steps and digests.

A worker or relay that dies mid-protocol surfaces as a
:class:`ShardFailure` naming its shards, host ranges, last barrier and
exit status.

The timeline every worker runs is exactly the reference's — same
barriers, same batches, same grid — so results are byte-identical
across sync modes, shard counts and worker counts.
"""

import multiprocessing
import os
import signal
import sys
import time
import traceback

from repro.cluster import wire
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
# shard groups: the in-process reference and worker processes
# ----------------------------------------------------------------------
class ShardFailure(RuntimeError):
    """A shard worker or relay died or failed mid-protocol.

    Raised instead of a bare ``EOFError`` or ``BrokenPipeError`` by the
    coordinator's group and by relays (which ship it upward as their
    ``error`` reply).  Names the shards behind the failed pipe
    (``shard_ids``, ``hosts`` as ``(start, stop)`` ranges), the last
    barrier sent down it (None before the first step) and the child's
    ``exitcode`` (negative: killed by that signal; None: still running).
    """

    def __init__(self, message, shard_ids=(), hosts=(), barrier=None,
                 exitcode=None):
        super().__init__(message)
        self.shard_ids = list(shard_ids)
        self.hosts = list(hosts)
        self.barrier = barrier
        self.exitcode = exitcode


def _exit_status(exitcode):
    """Human-readable ``Process.exitcode``."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"


class _InProcessGroup:
    """The conservative reference: every shard here, in lockstep.

    No worker, relay or wire code — the shards advance barrier by
    barrier exactly as the grid rule reads.  Also serves the
    ``hierarchical`` mode with ``workers=0`` and inside daemonic pool
    workers, which cannot fork.
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
        results = [shard.finish(horizon) for shard in self.shards]
        return results, {"epochs": self.epochs, "barrier_wait_s": 0.0}

    def close(self):
        self.shards = []


def _step_shard(shard, barrier, epoch_end, batch):
    """One ``step`` on one shard, exactly as the reference runs it.

    Submits ``batch`` at the epoch ``barrier``, runs to ``epoch_end``
    and returns the teardown deltas up to it — the submit + run_until
    pair :func:`_place_epoch_barrier` drives, so the coordinator's load
    vector sees identical deltas at identical barriers in every mode.
    """
    sim = shard.sim
    if batch:
        if sim.now < barrier:
            sim.run_until(barrier)
        shard.submit(batch)
    if sim.now < epoch_end:
        sim.run_until(epoch_end)
    return shard.take_teardowns()


def _shard_worker_main(conn, shard_specs, lookahead):
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
        _worker_loop(conn, shard_specs, lookahead)
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        try:
            wire.send(
                conn, ("error", f"{exc!r}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass


def _worker_loop(conn, shard_specs, lookahead):
    """Lockstep worker: block on the pipe, execute, reply, repeat.

    Each ``step`` runs every owned shard exactly as the in-process
    reference does (:func:`_step_shard`) and replies with the load
    digest.  Between messages the worker is blocked in a receive, and
    only that blocked time counts as barrier wait.
    """
    probe = runtime.get_probe()
    shards = {}
    for shard_id, spec in shard_specs:
        shard = ClusterShard(**spec)
        # Wall-clock plane: let the engine publish its live frontier.
        # Telemetry-only — the probe never feeds back into the sim.
        shard.sim.runtime_probe = probe
        shards[shard_id] = shard
    wait_s = 0.0
    while True:
        waited = time.perf_counter()
        conn.poll(None)
        now = time.perf_counter()
        wait_s += now - waited
        if probe is not None:
            probe.lap("barrier_wait", waited, now)
        message = wire.recv(conn)
        op = message[0]
        if op == "step":
            _op, barrier, epoch_end, batches = message
            began = probe.begin() if probe is not None else 0.0
            deltas = []
            for shard_id, shard in shards.items():
                deltas.extend(_step_shard(
                    shard, barrier, epoch_end, batches.get(shard_id)
                ))
            if probe is not None:
                probe.lap("compute", began)
                probe.count("epochs")
                if lookahead > 0:
                    probe.gauge(
                        "frontier_epoch", round(epoch_end / lookahead)
                    )
            # Reply with the load digest, not the raw deltas: the
            # coordinator applies every reply before the next placement
            # decision, so per-host freed counts carry exactly the
            # information placement consumes — and relays can merge
            # digests by addition on the way up.
            wire.send(conn, ("loads", wire.digest_deltas(deltas)),
                      piggyback=True)
        elif op == "drain":
            began = probe.begin() if probe is not None else 0.0
            reply = {sid: shard.drain() for sid, shard in shards.items()}
            if probe is not None:
                probe.lap("compute", began)
            wire.send(conn, ("ok", reply), piggyback=True)
        elif op == "finish":
            results = {sid: shard.finish(message[1])
                       for sid, shard in shards.items()}
            wire.send(conn, ("ok", {"results": results, "wait_s": wait_s}),
                      piggyback=True)
        elif op == "stop":
            wire.send(conn, ("ok", None), piggyback=True)
            return
        else:  # pragma: no cover - protocol guard
            wire.send(conn, ("error", f"unknown op {op!r}"))
            return


def _relay_main(conn, chunks, lookahead):
    """Relay entry: aggregate a sub-tree of workers behind one pipe."""
    children = None
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
        children = _WorkerGroup(
            chunks, lookahead, label=multiprocessing.current_process().name,
            wait_phase="barrier_wait",
        )
        _relay_loop(conn, children)
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        try:
            wire.send(
                conn, ("error", f"{exc!r}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        # Stop the surviving children so this relay can exit (a forked
        # process joins its non-daemonic children on the way out).
        if children is not None:
            children.close()


def _relay_loop(parent, children):
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
    backlog = []
    while True:
        if backlog:
            message = backlog.pop(0)
        else:
            if probe is not None:
                waited = probe.begin()
                parent.poll(None)
                probe.lap("barrier_wait", waited)
            message = wire.recv(parent)
        op = message[0]
        if op == "step":
            forwarded = 1
            children.step_send(*message[1:])
            if parent.poll(0):
                follow = wire.recv(parent)
                if follow[0] == "step":
                    children.step_send(*follow[1:])
                    forwarded += 1
                else:
                    backlog.append(follow)
            for _ in range(forwarded):
                wire.send(parent, ("loads", children.step_recv()),
                          piggyback=True)
        elif op == "drain":
            ends = {}
            for payload in children.broadcast(message):
                ends.update(payload)
            wire.send(parent, ("ok", ends), piggyback=True)
        elif op == "finish":
            results, wait_s = _merge_finish(children.broadcast(message))
            wire.send(parent, ("ok", {"results": results,
                                      "wait_s": wait_s}),
                      piggyback=True)
        elif op == "stop":
            children.close()
            wire.send(parent, ("ok", None), piggyback=True)
            return
        else:  # pragma: no cover - protocol guard
            wire.send(parent, ("error", f"unknown op {op!r}"))
            return


def _merge_finish(payloads):
    """Union the children's ``finish`` results; sum their waits."""
    results = {}
    wait_s = 0.0
    for payload in payloads:
        results.update(payload["results"])
        wait_s += payload["wait_s"]
    return results, wait_s


def _route(owner, pipes, batches):
    """Split ``{shard_id: batch}`` into one batch dict per child pipe."""
    routed = [{} for _ in range(pipes)]
    for shard_id, batch in batches.items():
        routed[owner[shard_id]][shard_id] = batch
    return routed


def _spawn_workers(chunks, lookahead, label):
    """Fork the processes serving ``chunks`` (one shard-spec list each).

    Flat star when the chunk count fits :data:`RELAY_FAN_IN`: one leaf
    worker per chunk.  Otherwise the chunks are grouped under fan-in
    relay processes — each relay spawns its own sub-tree, so depth
    grows logarithmically and no node ever serves more than fan-in
    pipes.  Returns ``(procs, conns, members)``, where ``members``
    lists ``(shard_id, (host_start, host_stop))`` per pipe.
    """
    context = multiprocessing.get_context("fork")
    if len(chunks) > RELAY_FAN_IN:
        plan = [(_relay_main, chunks[index::RELAY_FAN_IN],
                 f"{label}-relay-{index}")
                for index in range(RELAY_FAN_IN)]
    else:
        plan = [(_shard_worker_main, chunk, f"{label}-worker-{index}")
                for index, chunk in enumerate(chunks)]
    procs = []
    conns = []
    members = []
    for target, payload, name in plan:
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(
            target=target, args=(child_conn, payload, lookahead),
            name=name,
        )
        proc.start()
        child_conn.close()
        procs.append(proc)
        conns.append(parent_conn)
        specs = (payload if target is _shard_worker_main
                 else [item for chunk in payload for item in chunk])
        members.append([
            (shard_id, (spec["host_start"], spec["host_stop"]))
            for shard_id, spec in specs
        ])
    return procs, conns, members


class _WorkerGroup:
    """Shards spread over forked processes, one pipe per chunk.

    :func:`_spawn_workers` decides the topology (flat star or relay
    tree); a relay serves its own sub-tree through a group of its own.
    Shard-to-process mapping is a pure convenience: every shard is a
    deterministic object, so results are invariant to how many
    processes serve them.  Protocol messages travel struct-packed
    (:mod:`repro.cluster.wire`).

    ``wait_phase`` names the probe phase the blocked part of each
    receive is attributed to (a relay's ``barrier_wait``; the
    coordinator times its own waits).  A child that dies, or replies
    with an error, raises :class:`ShardFailure`.
    """

    def __init__(self, chunks, lookahead, label="repro-shard",
                 wait_phase=None):
        self._procs, self._conns, self._members = _spawn_workers(
            chunks, lookahead, label
        )
        self._owner = {shard_id: index
                       for index, members in enumerate(self._members)
                       for shard_id, _hosts in members}
        self._wait_phase = wait_phase
        self._barrier = None
        self.epochs = 0

    def _failure(self, index, detail=None):
        """The :class:`ShardFailure` for pipe ``index``'s child.

        Without ``detail``, an ``error`` reply the child managed to
        write before its pipe broke still becomes the detail.
        """
        conn = self._conns[index]
        try:
            while detail is None and conn.poll(0):
                status, payload = wire.recv(conn)
                if status == "error":
                    detail = payload
        except (EOFError, OSError):
            pass
        proc = self._procs[index]
        proc.join(timeout=5)
        members = self._members[index]
        shard_ids = [shard_id for shard_id, _hosts in members]
        hosts = [span for _shard_id, span in members]
        ranges = ", ".join(f"[{start}, {stop})" for start, stop in hosts)
        where = ("before the first step" if self._barrier is None
                 else f"after barrier {self._barrier!r}")
        message = (
            f"shard worker for shards {shard_ids} (hosts {ranges}) "
            f"failed {where}: {_exit_status(proc.exitcode)}"
        )
        if detail:
            message += f"\n{detail}"
        return ShardFailure(message, shard_ids, hosts, self._barrier,
                            proc.exitcode)

    def _send(self, index, message):
        try:
            wire.send(self._conns[index], message)
        except OSError:
            raise self._failure(index) from None

    def _recv(self, index, expect):
        conn = self._conns[index]
        probe = runtime.get_probe() if self._wait_phase else None
        try:
            if probe is not None:
                waited = probe.begin()
                conn.poll(None)
                probe.lap(self._wait_phase, waited)
            status, payload = wire.recv(conn)
        except (EOFError, OSError):
            raise self._failure(index) from None
        if status != expect:
            raise self._failure(index, payload)
        return payload

    def broadcast(self, message):
        """Send ``message`` down every pipe; the ``ok`` payloads."""
        for index in range(len(self._conns)):
            self._send(index, message)
        return [self._recv(index, "ok") for index in range(len(self._conns))]

    def step_send(self, barrier, epoch_end, batches):
        """Ship one step without waiting for its replies.

        The pipelined coordinator calls this back-to-back (at most two
        outstanding per pipe); every send must be matched by a later
        :meth:`step_recv`, in order.
        """
        self.epochs += 1
        self._barrier = barrier
        routed = _route(self._owner, len(self._conns), batches)
        for index, payload in enumerate(routed):
            self._send(index, ("step", barrier, epoch_end, payload))

    def step_recv(self):
        """Collect one step's replies: the merged load digest."""
        return wire.merge_digests([
            self._recv(index, "loads") for index in range(len(self._conns))
        ])

    def step(self, barrier, epoch_end, batches):
        """Submit + advance + collect digests in one round-trip."""
        self.step_send(barrier, epoch_end, batches)
        return self.step_recv()

    def drain(self):
        ends = {}
        for payload in self.broadcast(("drain", None)):
            ends.update(payload)
        return [ends[shard_id] for shard_id in sorted(ends)]

    def finish(self, horizon):
        results, wait_s = _merge_finish(self.broadcast(("finish", horizon)))
        ordered = [results[shard_id] for shard_id in sorted(results)]
        return ordered, {"epochs": self.epochs, "barrier_wait_s": wait_s}

    def close(self):
        for conn in self._conns:
            try:
                wire.send(conn, ("stop", None))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []


def _make_group(shard_specs, workers, sync, lookahead):
    if workers is None:
        workers = len(shard_specs)
    # A multiprocessing.Pool worker is daemonic and may not fork
    # children; sharded cells that land there run in-process.
    if (sync == "conservative" or workers < 1
            or multiprocessing.current_process().daemon):
        return _InProcessGroup(shard_specs)
    workers = min(workers, len(shard_specs))
    chunks = [shard_specs[index::workers] for index in range(workers)]
    return _WorkerGroup(chunks, lookahead)


# ----------------------------------------------------------------------
# the sharded run
# ----------------------------------------------------------------------
def run_sharded_cluster(preset, concurrency, hosts, seed=0, shards=2,
                        placement="least-loaded", app_name=None,
                        teardown=True, memory_bytes=None, spec=None,
                        vf_count=None, arrivals=None, workers=None,
                        name_prefix="w", trace=None, sync="hierarchical",
                        engine_stats=None, telemetry=None):
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
        sync: ``"hierarchical"`` (the worker protocol: lockstep
            workers under a relay tree with a pipelined coordinator)
            or ``"conservative"`` (the in-process lockstep reference);
            validated by :func:`resolve_sync`.  Results are
            byte-identical across modes.
        engine_stats: Optional dict, filled with aggregated per-shard
            engine stats plus the sync-protocol counters (epochs,
            barrier wait, coordinator occupancy, heap operations).
        telemetry: Optional dict, filled with the wall-clock telemetry
            snapshot (``repro.obs.runtime``): per-process phase
            totals, spans and wire accounting for the
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
    group = _make_group(shard_specs, workers, sync, lookahead)
    in_process = isinstance(group, _InProcessGroup)
    try:
        if placement == "round-robin":
            batches = _round_robin_plan(order, offsets, hosts, host_shard)
            if in_process:
                group.submit(batches)
            else:
                # An up-front plan is one step at barrier 0.
                group.step(0.0, 0.0, batches)
        else:
            tracker = make_load_tracker(placement, hosts)
            place = (_place_epoch_barrier if in_process
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
        # Always 0 (workers never speculate); perfbench still reads them.
        engine_stats.update(sync_rollbacks=0, sync_speculated_events=0,
                            sync_replayed_events=0)
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


def _aggregate_wheel_stats(wheels):
    """Engine stats across shards: counts sum, the engine name comes
    from the first shard."""
    totals = {}
    for wheel in wheels:
        if not wheel:
            continue
        for key, value in wheel.items():
            if isinstance(value, str):
                totals.setdefault(key, value)
            else:
                totals[key] = totals.get(key, 0) + value
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
    epoch, with the shards of different workers advancing in parallel.

    Depth-2 streaming: after shipping a batched step, the next epoch's
    *batchless jump* (when the next arrival sits beyond the epoch just
    stepped) is sent before the batched step's replies are drained.
    The message sequence is the serial one — a jump's content is two
    copies of its barrier, independent of any reply — and every reply
    is still applied to the tracker before the next placement decision,
    so the load vector each pick sees is identical.  Only the waiting
    overlaps.
    """
    barrier_epoch = 0
    pending = 0
    position = 0
    count = len(order)

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
            # Jump over empty epochs in one batchless step.  (This
            # branch only fires for the very first arrival: later jumps
            # were already streamed right behind their batched step.)
            barrier = epoch * lookahead
            group.step_send(barrier, barrier, {})
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
        group.step_send(barrier, epoch_end, batches)
        pending += 1
        barrier_epoch = epoch + 1
        if position < count:
            next_epoch = int(offsets[order[position]] // lookahead)
            if next_epoch > barrier_epoch:
                # Stream the next jump behind the batched step: its
                # payload is independent of the in-flight replies.
                jump = next_epoch * lookahead
                group.step_send(jump, jump, {})
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
