"""Differential property test: snapshot → speculate → restore → replay.

The sharded worker protocol's correctness rests on one primitive:
rolling an engine back must leave *no trace* of the speculated work.
These tests drive randomized callback/timer workloads to a cut point,
snapshot the engine (checkpointing the plain-data model state
alongside, as :meth:`Simulator.snapshot` requires), speculate ahead —
dispatching events, arming and cancelling timers, recycling pool slots
— then restore and re-run.  The observable outcome (event log, dispatch
count, clock, pending accounting, wheel statistics) must be
byte-identical to the same plan executed straight through with no
snapshot at all.

Workloads are callback-only by design: the snapshot contract excludes
generator processes (an instruction pointer is not copyable), which is
why the cluster layer rolls back by journal replay instead — see
``repro.cluster.sharded``.
"""

import random

from repro.sim import Simulator

#: Quarter of the default bucket width, as in the wheel differential
#: suite: quantized delays force equal timestamps and shared buckets.
QUANTUM = 0.00025

N_CASES = 200


def build_plan(seed):
    """One randomized callback workload as pure data (engine-agnostic).

    Each initial event carries a small action program; actions log,
    spawn chained callbacks, arm cancellable timers into a shared id
    pool, or cancel timers out of it.  Delay bands span same-bucket,
    cross-bucket, and beyond-the-wheel (spill heap) distances so the
    snapshot covers every event container.
    """
    rng = random.Random(seed ^ 0x5AFE)

    def delay(positive=False):
        band = rng.random()
        if band < 0.20:
            # Timers reject non-positive delays; plain schedules allow 0.
            return QUANTUM if positive else 0.0
        if band < 0.55:
            return QUANTUM * rng.randint(1, 8)
        if band < 0.85:
            return QUANTUM * rng.randint(1, 4000)
        return QUANTUM * rng.randint(4000, 40000)

    def action(depth):
        ops = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.35 and depth < 3:
                ops.append(("spawn", delay(), action(depth + 1)))
            elif roll < 0.70:
                ops.append(("arm", rng.randint(0, 11), delay(positive=True)))
            else:
                ops.append(("cancel", rng.randint(0, 11)))
        return ops

    initial = [
        (QUANTUM * rng.randint(0, 30000), action(0))
        for _ in range(rng.randint(4, 10))
    ]
    span = QUANTUM * 50000
    cut = rng.uniform(0.0, span * 0.8)
    if rng.random() < 0.5:
        cut = QUANTUM * round(cut / QUANTUM)  # land exactly on events
    target = rng.uniform(cut, span * 1.2)
    return {"initial": initial, "cut": cut, "target": target}


def run_plan(plan, rollback):
    """Execute a plan; returns (log, dispatched, now, pending, stats).

    With ``rollback`` the run snapshots at the cut point, speculates to
    the target, restores (engine and checkpointed model together), and
    re-runs — the straight-line run skips the detour.  Everything else
    is identical, so any difference is snapshot/restore leakage.
    """
    sim = Simulator()
    model = {"log": [], "timers": {}, "next_tag": 0}

    def fire(tag, ops):
        model["log"].append((tag, sim.now, sim.events_dispatched))
        for op in ops:
            if op[0] == "spawn":
                child = model["next_tag"] = model["next_tag"] + 1
                sim.schedule(sim.now + op[1], fire, f"{tag}/{child}", op[2])
            elif op[0] == "arm":
                tid = op[1]
                old = model["timers"].pop(tid, None)
                if old is not None:
                    old.cancel()
                model["timers"][tid] = sim.call_later(
                    op[2], fire, f"t{tid}@{tag}", ()
                )
            else:
                timer = model["timers"].pop(op[1], None)
                if timer is not None:
                    timer.cancel()

    for index, (when, ops) in enumerate(plan["initial"]):
        sim.schedule(when, fire, f"i{index}", ops)

    sim.run_until(plan["cut"])
    if rollback:
        snap = sim.snapshot()
        # Model checkpoint rides alongside the engine snapshot: the log
        # as a copy, the timer table as a shallow copy — pre-snapshot
        # handles become valid again on restore, post-snapshot handles
        # simply are not in the checkpoint.
        saved = (list(model["log"]), dict(model["timers"]),
                 model["next_tag"])
        sim.run_until(plan["target"])  # speculate (and mutate freely)
        sim.restore(snap)
        model["log"], model["timers"], model["next_tag"] = saved
    sim.run_until(plan["target"])
    sim.run_until(plan["target"] + QUANTUM * 100000)  # drain the tail
    return (model["log"], sim.events_dispatched, sim.now,
            sim.pending_events, sim.wheel_stats())


def test_rollback_replay_matches_straight_line_on_randomized_plans():
    mismatches = []
    for seed in range(N_CASES):
        plan = build_plan(seed)
        straight = run_plan(plan, rollback=False)
        replayed = run_plan(plan, rollback=True)
        if straight != replayed:
            mismatches.append(seed)
    assert not mismatches, (
        f"rollback+replay diverged from straight-line on seeds "
        f"{mismatches[:10]} ({len(mismatches)}/{N_CASES} cases)"
    )


def test_double_rollback_of_the_same_snapshot_is_stable():
    # A snapshot is a value, not a one-shot: restoring it twice (the
    # shape of a shard that mis-speculates twice past one frontier)
    # replays identically both times.
    for seed in (3, 41, 99):
        plan = build_plan(seed)
        straight = run_plan(plan, rollback=False)

        sim = Simulator()
        model = {"log": [], "timers": {}, "next_tag": 0}

        def fire(tag, ops, sim=sim, model=model):
            model["log"].append((tag, sim.now, sim.events_dispatched))
            for op in ops:
                if op[0] == "spawn":
                    child = model["next_tag"] = model["next_tag"] + 1
                    sim.schedule(
                        sim.now + op[1], fire, f"{tag}/{child}", op[2]
                    )
                elif op[0] == "arm":
                    old = model["timers"].pop(op[1], None)
                    if old is not None:
                        old.cancel()
                    model["timers"][op[1]] = sim.call_later(
                        op[2], fire, f"t{op[1]}@{tag}", ()
                    )
                else:
                    timer = model["timers"].pop(op[1], None)
                    if timer is not None:
                        timer.cancel()

        for index, (when, ops) in enumerate(plan["initial"]):
            sim.schedule(when, fire, f"i{index}", ops)
        sim.run_until(plan["cut"])
        snap = sim.snapshot()
        saved = (list(model["log"]), dict(model["timers"]),
                 model["next_tag"])
        for _ in range(2):
            sim.run_until(plan["target"])
            sim.restore(snap)
            model["log"], model["timers"], model["next_tag"] = (
                list(saved[0]), dict(saved[1]), saved[2]
            )
        sim.run_until(plan["target"])
        sim.run_until(plan["target"] + QUANTUM * 100000)
        assert (model["log"], sim.events_dispatched, sim.now,
                sim.pending_events, sim.wheel_stats()) == straight


# ----------------------------------------------------------------------
# Targeted snapshot/restore units
# ----------------------------------------------------------------------
def test_restore_rewinds_clock_dispatch_count_and_pending():
    sim = Simulator()
    log = []
    for index in range(8):
        sim.schedule(0.01 * (index + 1), log.append, index)
    sim.run_until(0.035)
    assert log == [0, 1, 2]
    snap = sim.snapshot()
    pending = sim.pending_events
    sim.run(until=1.0)
    assert log == list(range(8))
    sim.restore(snap)
    assert sim.now == 0.035
    assert sim.events_dispatched == 3
    assert sim.pending_events == pending
    sim.run(until=1.0)
    assert log == list(range(8)) + [3, 4, 5, 6, 7]


def test_restore_reinstates_presnapshot_timer_handle():
    sim = Simulator()
    fired = []
    timer = sim.call_later(0.5, fired.append, "armed-before")
    sim.run_until(0.1)
    snap = sim.snapshot()
    sim.run(until=1.0)  # speculation consumes the timer, frees its slot
    assert fired == ["armed-before"] and not timer.active
    sim.restore(snap)
    assert timer.active and timer.when == 0.5
    assert timer.cancel() is True
    sim.run(until=1.0)
    assert fired == ["armed-before"]  # the restored timeline cancelled it


def test_post_snapshot_timer_handle_is_inert_after_restore():
    sim = Simulator()
    fired = []
    sim.run_until(0.1)
    snap = sim.snapshot()
    speculative = sim.call_later(0.2, fired.append, "speculative")
    sim.restore(snap)
    assert speculative.cancel() is False
    assert not speculative.active
    sim.run(until=1.0)
    assert fired == []
    assert sim.pending_events == 0


def test_snapshot_covers_spill_heap_beyond_the_wheel_window():
    # Events past the 256-slot window live on the spill heap; a restore
    # must bring them back in the same order, including ones the
    # speculated run already re-bucketed onto the wheel.
    sim = Simulator(bucket_width=0.001)
    log = []
    for index in range(6):
        sim.schedule(0.3 + 0.001 * index, log.append, index)  # all spill
    snap = sim.snapshot()
    sim.run_until(0.302)  # re-buckets the spill, dispatches a prefix
    assert log == [0, 1, 2]
    sim.restore(snap)
    log.clear()
    sim.run(until=1.0)
    assert log == [0, 1, 2, 3, 4, 5]
