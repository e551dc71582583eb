r"""Fork-based copy-on-write checkpoints for speculating shard workers.

The worker protocol's rollback problem is that the model's
generator processes cannot be snapshotted in-process — an instruction
pointer is not copyable (see ``Simulator.snapshot``, which is
engine-state-only for exactly this reason) — so PR 8 rolled a
conflicted shard back by rebuilding it from spec and replaying its
**entire** input journal from t=0: O(committed history) per rollback,
which is what capped how deep speculation could profitably go.

Shard workers are already forked processes, and ``os.fork`` is the one
snapshot primitive that *does* capture generators: the child is a
copy-on-write image of the whole interpreter — Simulator, wheel
columns, generator frames, hosts, journal position — for the cost of a
page-table copy.  This module turns that into a checkpoint/rollback
subsystem:

* **Capture.**  Every C confirmed epochs the worker forks a *paused*
  child at a commit-safe instant — one whose state no future placement
  batch can invalidate (clock at the committed frontier, or inside the
  coordinator's ``safe`` promise).  The child immediately blocks on a
  private control pipe.  At most one live checkpoint exists per
  worker: capturing a new one dismisses the old (its control pipe
  closes; the child sees EOF and exits — without the worker blocking
  on the exit).  The adaptive default cadence is *reactive*: a
  conflict-free cell never forks at all (the first conflict costs one
  full replay and arms the cadence), the base interval tracks the AIMD
  speculation window, every capture that is never resumed doubles the
  effective interval (a fork is pure overhead while nothing conflicts),
  and a resume resets the backoff — so storms keep a tight cadence and
  quiet cells converge to zero checkpoint overhead.

* **Journal truncation.**  The fork instant splits the journal: the
  child's CoW copy holds everything already applied, so the parent
  clears its list and keeps only post-checkpoint entries — the replay
  *suffix*.  Rollback cost becomes O(events since checkpoint) instead
  of O(history), and the working set the coordinator protocol carries
  stops growing with run length.

* **Resume.**  On a conflict below the speculated clock, the parent
  ships a handover — the journal suffix, committed bookkeeping, and
  the raw pending message — down the control pipe and ``os._exit``\ s.
  The child wakes holding the *committed* image, first forks a
  replacement clone of itself (the same logical checkpoint, so
  repeated rollbacks stay O(suffix)), then replays the suffix and
  keeps serving the coordinator pipe it inherited at fork time.  The
  coordinator never notices the process swap: request/reply framing is
  strictly one-outstanding per worker, so the pending request travels
  in the handover and the reply comes from the resumed image.

  The hierarchical coordinator's depth-2 pipelining needs no change
  here: it allows *two* requests in flight per pipe, but at most one is
  ever being processed — the one whose conflict triggers the handover.
  A queued follow-up is still unread bytes in the kernel pipe buffer,
  and the buffer belongs to the pipe, not the process: the resumed
  child inherits the same descriptors at fork time, so the queued
  request is simply read next, in order, by the new image.

The subsystem degrades exactly as the protocol requires: workers
started under a ``spawn`` context (or platforms without ``os.fork``,
or ``checkpoint_every=0``) never fork checkpoints and keep the full
journal, so rollback falls back to PR 8's rebuild-and-replay-from-t=0
path; the in-process group (daemonic pool workers, ``workers=0``)
cannot sacrifice its own process and always uses full replay.
Byte-identity is unaffected either way — checkpoints only move
wall-clock, which the byte-identity CI gates (hierarchical == the
conservative reference at every shard count) hold to.
"""

import multiprocessing
import os

from repro.obs import runtime

#: Fallback cadence floor, in confirmed epochs, when the adaptive
#: interval is in use and the AIMD window is still in slow-start.
MIN_ADAPTIVE_INTERVAL = 2

#: Cap on the adaptive quiet-run backoff: each capture that is never
#: resumed doubles the effective cadence (a fork is pure overhead on a
#: cell that never conflicts), up to ``base << QUIET_SHIFT_CAP``.  A
#: resume resets the backoff — storms keep a tight cadence.
QUIET_SHIFT_CAP = 5


def fork_checkpoints_supported():
    """Whether this process can take CoW fork checkpoints at all."""
    return hasattr(os, "fork")


class ForkCheckpointer:
    """At most one live copy-on-write checkpoint child per worker.

    Args:
        states: ``{shard_id: _SpeculativeShard}`` served by this worker
            (the fork image captures all of them together, so capture
            waits for an instant where *every* shard is commit-safe).
        interval: Checkpoint cadence in confirmed epochs.  An explicit
            integer is honored unconditionally.  ``None`` is reactive
            and adaptive: no captures until the first rollback, then a
            base interval tracking the widest AIMD speculation window
            (a rollback-prone shard whose window collapsed checkpoints
            every couple of epochs, keeping its replay suffix short),
            doubled for every capture that is never resumed and reset
            on resume.
    """

    def __init__(self, states, interval=None):
        self.states = states
        self.interval = interval
        #: ``(pid, control_conn)`` of the live checkpoint child.
        self.live = None
        #: Confirmed epochs since the last capture.
        self.confirmed = 0
        #: Captures since the last resume (adaptive backoff input).
        self.quiet = 0
        #: Dismissed children not yet reaped (reaped without blocking).
        self._zombies = []

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def _due(self):
        if self.interval is not None:
            return self.confirmed >= self.interval
        # Adaptive mode is reactive: a checkpoint only pays off when
        # rollbacks actually happen, so a conflict-free cell never
        # forks at all.  The first conflict costs one full replay and
        # arms the cadence; every later rollback resumes a checkpoint.
        if not any(
            state.stats["rollbacks"] for state in self.states.values()
        ):
            return False
        window = max(
            (state.window for state in self.states.values()), default=0
        )
        base = max(MIN_ADAPTIVE_INTERVAL, window)
        return self.confirmed >= base << min(self.quiet, QUIET_SHIFT_CAP)

    def after_step(self):
        """Cadence hook, called right after each step reply.

        Returns ``None`` on the normal (parent) path.  In a checkpoint
        child that was later *resumed*, the call that originally forked
        it returns here with the handover payload — the caller applies
        it and re-enters its loop on the pending message.
        """
        self.confirmed += 1
        if not self._due():
            return None
        if not all(
            state.checkpointable() for state in self.states.values()
        ):
            return None
        return self.capture()

    def capture(self):
        """Fork a paused CoW child; replaces the previous checkpoint.

        Returns ``None`` in the parent.  The child blocks inside this
        call until it is dismissed (EOF -> ``os._exit``) or resumed —
        at which point the call returns the handover payload in the
        (now live) child.
        """
        probe = runtime.get_probe()
        began = probe.begin() if probe is not None else 0.0
        control_parent, control_child = multiprocessing.Pipe()
        pid = os.fork()
        if pid:
            control_child.close()
            previous, self.live = self.live, (pid, control_parent)
            self.confirmed = 0
            self.quiet += 1
            for state in self.states.values():
                state.mark_checkpoint()
            if previous is not None:
                self._dismiss(previous)
            if probe is not None:
                probe.lap("checkpoint_fork", began)
                probe.instant("checkpoint_fork")
                probe.count("checkpoint_forks")
            return None
        control_parent.close()
        # Drop the inherited handle of the *previous* checkpoint's
        # control pipe: dismissal-by-EOF only works if the capturing
        # process holds the last copy of that pipe's send end — an
        # undismissable predecessor would leave ``waitpid`` hanging.
        if self.live is not None:
            try:
                self.live[1].close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.live = None
        return self._child_wait(control_child)

    def _child_wait(self, control):
        """Checkpoint-child main: pause until dismissed or resumed."""
        while True:
            try:
                handover = control.recv()
            except (EOFError, OSError):
                os._exit(0)
            control.close()
            # Clone this image *before* replaying anything: the clone
            # is the same logical checkpoint, kept live so the next
            # rollback is again O(suffix) rather than impossible (the
            # journal prefix was truncated at capture and cannot be
            # replayed from spec).
            clone_parent, clone_child = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:
                clone_parent.close()
                control = clone_child
                continue
            clone_child.close()
            self.live = (pid, clone_parent)
            self.confirmed = 0
            self.quiet = 0
            self._zombies = []
            return handover

    # ------------------------------------------------------------------
    # rollback / teardown
    # ------------------------------------------------------------------
    def hand_over(self, pending_payload):
        """Resume the checkpoint child and retire this process image.

        Ships each shard's committed bookkeeping (journal suffix,
        frontier, AIMD window, stats) plus the raw bytes of the pending
        request, then ``os._exit``\\ s — the child replies on the
        coordinator pipe it inherited.  Never returns.
        """
        pid, control = self.live
        probe = runtime.get_probe()
        handover = {
            "pending": pending_payload,
            "shards": {
                shard_id: state.pack_state()
                for shard_id, state in self.states.items()
            },
            "probe": probe.pack() if probe is not None else None,
        }
        control.send(handover)
        control.close()
        os._exit(0)

    def _dismiss(self, checkpoint):
        """Close the control pipe (EOF -> child exits) without waiting.

        Blocking on the child's exit would put fork latency *and* exit
        latency on the worker's hot path; instead the pid joins a
        reap list polled with ``WNOHANG`` on later dismissals and
        drained for real at :meth:`close`.
        """
        pid, control = checkpoint
        try:
            control.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._zombies.append(pid)
        self._reap()

    def _reap(self, block=False):
        remaining = []
        for pid in self._zombies:
            try:
                done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
            except (ChildProcessError, OSError):  # pragma: no cover
                # Inherited (not our own child) or already reaped.
                continue
            if done == 0:
                remaining.append(pid)
        self._zombies = remaining

    def close(self):
        """Dismiss the live checkpoint (worker shutdown path)."""
        if self.live is not None:
            self._dismiss(self.live)
            self.live = None
        self._reap(block=True)
