"""Fork-checkpoint rollback and packed wire format (repro.cluster).

The contract under test: copy-on-write fork checkpoints
(:mod:`repro.cluster.checkpoint`) and the struct-packed wire framing
(:mod:`repro.cluster.wire`) are wall-clock optimizations only.  Every
speculating run — checkpointed, full-replay fallback, spawn-context,
adversarial rollback storm — must come back byte-identical to the
in-process conservative reference, and the journal-truncation machinery
must never drop or double-apply a committed teardown delta (the
``free_vfs_total`` invariant plus byte-identity are the oracle).
"""

import json
import multiprocessing

import pytest

from repro.cluster import cluster_arrivals, run_sharded_cluster
from repro.cluster import wire
from repro.cluster.checkpoint import (
    MIN_ADAPTIVE_INTERVAL,
    ForkCheckpointer,
    fork_checkpoints_supported,
)
from repro.spec import PAPER_TESTBED

ADVERSARIAL_ENV = "REPRO_OPTIMISTIC_ADVERSARIAL_SAFE"


def _bytes(summary):
    return json.dumps(summary, sort_keys=True)


# ----------------------------------------------------------------------
# Packed wire format: every frame round-trips to the exact tuple
# ----------------------------------------------------------------------
def test_wire_step_round_trips_exactly():
    batches = {
        0: [(0, 0.0, 3), (7, 0.12890625, 0)],
        2: [(1, 1.5e-9, 5)],
    }
    message = ("step", 0.25, 0.5, 1.75, batches)
    payload = wire.encode(message)
    assert payload[:1] == b"S"
    assert wire.decode(payload) == message


def test_wire_delta_reply_and_ack_round_trip():
    ack = wire.encode(("ok", None))
    assert ack == b"K"
    assert wire.decode(ack) == ("ok", None)
    # Raw teardown deltas are no reply of the worker protocol (steps
    # answer with ``L`` digests), so a delta list is a cold pickle.
    deltas = [(0.001953125, 2), (17.5, 0), (17.5, 11)]
    payload = wire.encode(("ok", deltas))
    assert payload[:1] == b"P"
    assert wire.decode(payload) == ("ok", deltas)


def test_wire_floats_survive_without_rounding():
    """Doubles round-trip bit-exactly through the packed step frame —
    the byte-identity gates depend on the wire never perturbing a
    single timestamp."""
    awkward = [0.1, 1 / 3, 2.0 ** -52, 1e300, 123456.789012345]
    batch = [(index, value, index) for index, value in enumerate(awkward)]
    message = ("step", awkward[0], awkward[1], awkward[3], {0: batch})
    decoded = wire.decode(wire.encode(message))
    assert decoded[1:4] == (awkward[0], awkward[1], awkward[3])
    for (_index, got, _host), expected in zip(decoded[4][0], awkward):
        assert got == expected  # exact, not approx


def test_wire_cold_messages_fall_back_to_pickle():
    for message in (("finish", 12.5), ("stop",), ("drain", None),
                    ("error", "boom"),
                    ("ok", {"not": "a delta list"}),
                    ("ok", [(1.0, 2), (3.0,)])):
        payload = wire.encode(message)
        assert payload[:1] == b"P"
        assert wire.decode(payload) == message


def test_wire_send_recv_over_a_real_pipe():
    parent, child = multiprocessing.Pipe()
    try:
        wire.send(parent, ("step", 0.0, 0.5, 2.5, {0: [(0, 0.0, 1)]}))
        assert wire.recv(child) == ("step", 0.0, 0.5, 2.5, {0: [(0, 0.0, 1)]})
        wire.send(child, ("loads", [(1, 2)]))
        assert wire.recv(parent) == ("loads", [(1, 2)])
    finally:
        parent.close()
        child.close()


def test_wire_rejects_unknown_tags():
    with pytest.raises(ValueError):
        wire.decode(b"Zjunk")


def test_wire_load_digest_round_trips_exactly():
    digest = [(0, 3), (7, 1), (11, 128)]
    payload = wire.encode(("loads", digest))
    assert payload[:1] == b"L"
    assert wire.decode(payload) == ("loads", digest)
    empty = wire.encode(("loads", []))
    assert empty[:1] == b"L"
    assert wire.decode(empty) == ("loads", [])


def test_wire_digest_helpers_summarize_and_merge():
    deltas = [(0.5, 3), (0.75, 1), (1.0, 3), (1.5, 3)]
    assert wire.digest_deltas(deltas) == [(1, 1), (3, 3)]
    assert wire.digest_deltas([]) == []
    merged = wire.merge_digests([[(1, 1), (3, 3)], [(0, 2), (3, 1)], []])
    assert merged == [(0, 2), (1, 1), (3, 4)]


def _pipe_round_trip(messages):
    """Round-trip each message over a real pipe; returns what arrived.

    Frames past the OS pipe buffer (64 KiB on Linux) block the writer
    until a reader drains them, so the send runs on a thread — the
    overlap a real coordinator/worker pair has for free.
    """
    import threading

    received = []
    parent, child = multiprocessing.Pipe()
    try:
        for message in messages:
            writer = threading.Thread(
                target=wire.send, args=(parent, message)
            )
            writer.start()
            try:
                received.append(wire.recv(child))
            finally:
                writer.join(timeout=10)
            assert not writer.is_alive()
    finally:
        parent.close()
        child.close()
    return received


def test_wire_large_frames_round_trip_over_a_real_pipe():
    """Frames past 64 KiB exercise multiprocessing's large-payload
    path (a length-prefixed second write on POSIX pipes); the packed
    arrays must come back intact on every hot frame shape."""
    batch = [(index, index * 0.5, index % 997) for index in range(6000)]
    messages = [
        ("step", 0.0, 0.5, 2.5, {0: batch, 1: batch}),
        ("loads", [(host, host % 7 + 1) for host in range(9000)]),
    ]
    for message in messages:
        assert len(wire.encode(message)) > 64 * 1024
    assert _pipe_round_trip(messages) == messages


def test_wire_pickle_fallback_carries_non_ascii_and_nested_payloads():
    """The one-byte-tag fallback ``P`` must be transparent to anything
    picklable — unicode well outside ASCII, deep nesting, bytes — and
    must survive a real pipe, large payloads included."""
    messages = [
        ("error", "champs-élysées → 京都 → Ωμέγα\n" + "traceé " * 10),
        ("ok", {"nested": {"résumé": ["naïve", ("tuple", b"\x00\xff")],
                           "depth": [{"k": [1, 2, {"deep": "végétal"}]}]}}),
        ("finish", float("inf")),
        ("error", "🔥" * 30000),  # multi-byte runes past 64 KiB encoded
    ]
    for message in messages:
        payload = wire.encode(message)
        assert payload[:1] == b"P"
        assert wire.decode(payload) == message
    assert _pipe_round_trip(messages) == messages


# ----------------------------------------------------------------------
# ForkCheckpointer cadence (no forking: gated states never capture)
# ----------------------------------------------------------------------
class _FakeState:
    def __init__(self, window=0, safe=False, rollbacks=1):
        self.window = window
        self._safe = safe
        self.marked = 0
        self.stats = {"rollbacks": rollbacks}

    def checkpointable(self):
        return self._safe

    def mark_checkpoint(self):
        self.marked += 1


def test_checkpointer_cadence_respects_explicit_interval():
    states = {0: _FakeState(safe=False)}
    ckpt = ForkCheckpointer(states, interval=3)
    # Not due yet: after_step returns before even asking the states.
    assert ckpt.after_step() is None
    assert ckpt.after_step() is None
    # Due, but the state is not commit-safe -> no capture, no reset.
    assert ckpt.after_step() is None
    assert ckpt.confirmed == 3
    assert states[0].marked == 0


def test_checkpointer_adaptive_mode_is_reactive():
    """Without a single rollback the adaptive cadence never comes due:
    a conflict-free cell must pay zero fork overhead."""
    ckpt = ForkCheckpointer({0: _FakeState(rollbacks=0)}, interval=None)
    ckpt.confirmed = 10_000
    assert not ckpt._due()
    # An explicit interval is honored regardless of rollback history.
    armed = ForkCheckpointer({0: _FakeState(rollbacks=0)}, interval=2)
    armed.confirmed = 2
    assert armed._due()


def test_checkpointer_adaptive_interval_tracks_widest_window():
    states = {0: _FakeState(window=1), 1: _FakeState(window=6)}
    ckpt = ForkCheckpointer(states, interval=None)
    # Adaptive cadence = max(MIN_ADAPTIVE_INTERVAL, widest window) = 6.
    for _ in range(6):
        assert not ckpt._due()
        ckpt.confirmed += 1
    assert ckpt._due()
    # In slow-start (window 0) the floor keeps cadence sane.
    slow = ForkCheckpointer({0: _FakeState(window=0)}, interval=None)
    slow.confirmed = MIN_ADAPTIVE_INTERVAL - 1
    assert not slow._due()
    slow.confirmed = MIN_ADAPTIVE_INTERVAL
    assert slow._due()


def test_checkpointer_quiet_captures_back_off_exponentially():
    """Every capture that is never resumed doubles the effective
    cadence; a resume resets it.  Storms stay tight, quiet runs
    converge to (almost) no forks."""
    ckpt = ForkCheckpointer({0: _FakeState(window=0)}, interval=None)
    for quiet, expect in ((0, 2), (1, 4), (3, 16), (10, 2 << 5)):
        ckpt.quiet = quiet
        ckpt.confirmed = expect - 1
        assert not ckpt._due(), f"due early at quiet={quiet}"
        ckpt.confirmed = expect
        assert ckpt._due(), f"not due at quiet={quiet}"


def test_fork_checkpoints_supported_on_this_platform():
    # The suite runs on POSIX; the gate itself must be a plain bool.
    assert fork_checkpoints_supported() is True


# ----------------------------------------------------------------------
# Checkpointed rollback: kill the image, resume, replay the suffix
# ----------------------------------------------------------------------
def _storm(monkeypatch, **kw):
    """An adversarial rollback storm: the coordinator under-promises
    ``safe`` and pins the speculation window open, so eager workers
    conflict on nearly every batched epoch."""
    monkeypatch.setenv(ADVERSARIAL_ENV, "1")
    stats = {}
    summary = run_sharded_cluster(
        "fastiov", 40, hosts=4, seed=11, shards=2,
        arrivals=cluster_arrivals(11, 12.0), sync="hierarchical",
        eager_speculation=True, engine_stats=stats, **kw,
    )
    return summary, stats


def _reference(monkeypatch):
    monkeypatch.delenv(ADVERSARIAL_ENV, raising=False)
    return run_sharded_cluster(
        "fastiov", 40, hosts=4, seed=11, shards=1,
        arrivals=cluster_arrivals(11, 12.0), sync="conservative",
    )


def test_checkpoint_kill_and_resume_is_byte_identical(monkeypatch):
    """Fork workers under a rollback storm: conflicts must be absorbed
    by killing the worker image and resuming the checkpoint child —
    zero full replays — and the bytes must match shards=1."""
    reference = _bytes(_reference(monkeypatch))
    summary, stats = _storm(monkeypatch, checkpoint_every=1,
                            worker_context="fork")
    assert _bytes(summary) == reference
    assert stats["sync_rollbacks"] >= 1
    assert stats["sync_checkpoints"] >= 1
    assert stats["sync_checkpoint_resumes"] >= 1
    assert stats["sync_full_replays"] == 0
    assert "sync_replay_distance_hist" in stats
    assert sum(stats["sync_replay_distance_hist"].values()) \
        == stats["sync_checkpoint_resumes"]


def test_checkpoints_disabled_falls_back_to_full_replay(monkeypatch):
    """``checkpoint_every=0`` turns the subsystem off: same storm, same
    bytes, but every rollback replays from t=0."""
    reference = _bytes(_reference(monkeypatch))
    summary, stats = _storm(monkeypatch, checkpoint_every=0,
                            worker_context="fork")
    assert _bytes(summary) == reference
    assert stats["sync_rollbacks"] >= 1
    assert stats["sync_checkpoints"] == 0
    assert stats["sync_checkpoint_resumes"] == 0
    assert stats["sync_full_replays"] == stats["sync_rollbacks"]


def test_spawn_context_workers_fall_back_to_full_replay(monkeypatch):
    """Spawn workers cannot fork CoW checkpoints: the group must detect
    the context, keep the full journal, and replay from t=0 — with the
    exact same bytes as the checkpointed fork run."""
    reference = _bytes(_reference(monkeypatch))
    summary, stats = _storm(monkeypatch, checkpoint_every=1,
                            worker_context="spawn")
    assert _bytes(summary) == reference
    assert stats["sync_rollbacks"] >= 1
    assert stats["sync_checkpoints"] == 0
    assert stats["sync_checkpoint_resumes"] == 0
    assert stats["sync_full_replays"] == stats["sync_rollbacks"]


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_forced_rollback_never_loses_a_teardown_delta(monkeypatch, seed):
    """The journal-truncation property: across repeated checkpoint
    resumes, every committed teardown delta is applied exactly once.
    A dropped delta leaks a VF (pool ends short); a double-applied one
    overfills it; either also shifts placement and breaks identity."""
    monkeypatch.delenv(ADVERSARIAL_ENV, raising=False)
    reference = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=seed, shards=1,
        arrivals=cluster_arrivals(seed, 10.0), sync="conservative",
    )
    monkeypatch.setenv(ADVERSARIAL_ENV, "1")
    stats = {}
    summary = run_sharded_cluster(
        "fastiov", 40, hosts=2, seed=seed, shards=2,
        arrivals=cluster_arrivals(seed, 10.0), sync="hierarchical",
        eager_speculation=True, checkpoint_every=1,
        worker_context="fork", engine_stats=stats,
    )
    assert _bytes(summary) == _bytes(reference)
    # VF recycling really raced the storm, and the pool still closed
    # out exactly full: no delta lost, none applied twice.
    assert summary["free_vfs_total"] == 2 * PAPER_TESTBED.nic_max_vfs
    assert stats["sync_rollbacks"] >= 1
    assert stats["sync_checkpoint_resumes"] >= 1


def test_adversarial_env_does_not_change_bytes_in_process(monkeypatch):
    """The adversarial knob only worsens the *promises*; the committed
    grid is untouched even on the in-process full-replay path."""
    monkeypatch.delenv(ADVERSARIAL_ENV, raising=False)
    reference = run_sharded_cluster(
        "fastiov", 30, hosts=4, seed=5, shards=2, workers=0,
        arrivals=cluster_arrivals(5, 12.0), sync="hierarchical",
    )
    monkeypatch.setenv(ADVERSARIAL_ENV, "1")
    stats = {}
    adversarial = run_sharded_cluster(
        "fastiov", 30, hosts=4, seed=5, shards=2, workers=0,
        arrivals=cluster_arrivals(5, 12.0), sync="hierarchical",
        engine_stats=stats,
    )
    assert _bytes(adversarial) == _bytes(reference)
    assert stats["sync_rollbacks"] >= 1
