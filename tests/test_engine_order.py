"""Engine-order golden: randomized workloads pinned by sha256.

Drives randomized workloads — mixed timeouts, cancellable timers,
zero-delay resumes, equal timestamps, direct ``schedule`` calls, and
``run_until`` epoch boundaries — through :class:`repro.sim.Simulator`
and hashes each suite's event log, dispatch count, clock and
pending-event accounting.  The digests were recorded when two
independent future-event sets (a timing wheel and a binary heap)
agreed on every plan; any change to event order or accounting moves
them.  The last three tests pin the tie-order edges directly.
"""

import hashlib
import random

import pytest

from repro.sim import Simulator, Timeout

#: Quantized delays force frequent equal timestamps.
QUANTUM = 0.00025

N_CASES = 500


def build_plan(seed):
    """Generate one randomized workload as pure data."""
    rng = random.Random(seed)
    n_procs = rng.randint(2, 7)
    procs = []
    for _ in range(n_procs):
        ops = []
        for _ in range(rng.randint(3, 9)):
            roll = rng.random()
            if roll < 0.40:
                # Sleep: zero-delay, near, mid, or far future.
                band = rng.random()
                if band < 0.25:
                    delay = 0.0
                elif band < 0.55:
                    delay = QUANTUM * rng.randint(1, 8)
                elif band < 0.85:
                    delay = QUANTUM * rng.randint(1, 4000)
                else:
                    delay = QUANTUM * rng.randint(4000, 40000)
                ops.append(("sleep", delay))
            elif roll < 0.60:
                # Plain (non-cancellable) schedule at a future/now time.
                ops.append(("sched", QUANTUM * rng.randint(0, 2000)))
            else:
                # Cancellable timer: fires, cancelled immediately, or
                # cancelled at the process's next wakeup.
                delay = QUANTUM * rng.randint(1, 30000)
                action = rng.choice(("keep", "cancel_imm", "cancel_later"))
                ops.append(("timer", delay, action))
        procs.append(ops)
    span = QUANTUM * 50000
    horizons = sorted(
        rng.uniform(0.0, span) for _ in range(rng.randint(0, 4))
    )
    # Quantize some horizons so epochs land exactly on event times.
    horizons = [
        (QUANTUM * round(h / QUANTUM)) if rng.random() < 0.5 else h
        for h in horizons
    ]
    horizons = sorted(set(horizons))
    # Work submitted *between* epochs (the sharded protocol's shape):
    # these inserts land between the clock and far-future timers armed
    # during the previous run_until.
    late = [
        [("sleep", QUANTUM * rng.randint(0, 3000)) for _ in range(2)]
        if rng.random() < 0.6
        else None
        for _ in horizons
    ]
    return {"procs": procs, "horizons": horizons, "late": late, "span": span}


def run_plan(sim_factory, plan):
    """Execute a plan; returns (event log, dispatched, now, pending)."""
    sim = sim_factory()
    log = []

    def fire(tag):
        log.append((tag, sim.now))

    def proc(pid, ops):
        cancel_next = []
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield Timeout(op[1])
                log.append((f"p{pid}.s{i}", sim.now))
                while cancel_next:
                    cancel_next.pop().cancel()
            elif kind == "sched":
                sim.schedule(sim.now + op[1], fire, f"p{pid}.d{i}")
            else:
                timer = sim.call_later(op[1], fire, f"p{pid}.t{i}")
                if op[2] == "cancel_imm":
                    timer.cancel()
                elif op[2] == "cancel_later":
                    cancel_next.append(timer)

    def keeper():
        # Outlives every timer so "keep" timers actually fire.
        yield Timeout(plan["span"] * 2)
        log.append(("keeper", sim.now))

    def late_proc(epoch_index, ops):
        for i, op in enumerate(ops):
            yield Timeout(op[1])
            log.append((f"late{epoch_index}.s{i}", sim.now))

    for pid, ops in enumerate(plan["procs"]):
        sim.spawn(proc(pid, ops), name=f"p{pid}")
    sim.spawn(keeper(), name="keeper")
    for epoch_index, horizon in enumerate(plan["horizons"]):
        sim.run_until(horizon)
        log.append(("epoch", sim.now, sim.pending_events))
        late_ops = plan["late"][epoch_index]
        if late_ops:
            sim.spawn(late_proc(epoch_index, late_ops))
    sim.run()
    return log, sim.events_dispatched, sim.now, sim.pending_events


def build_cancel_heavy_plan(seed):
    """A plan where most operations arm timers and most timers die.

    Exercises tombstones and compaction: the heap fills with dead
    entries that are dropped at the head or swept in bulk.
    """
    rng = random.Random(seed ^ 0x5CA1E)
    procs = []
    for _ in range(rng.randint(3, 6)):
        ops = []
        for _ in range(rng.randint(6, 14)):
            roll = rng.random()
            if roll < 0.70:
                delay = QUANTUM * rng.randint(1, 20000)
                action = rng.choice(
                    ("cancel_imm", "cancel_imm", "cancel_later", "keep")
                )
                ops.append(("timer", delay, action))
            elif roll < 0.85:
                ops.append(("sleep", QUANTUM * rng.randint(0, 400)))
            else:
                ops.append(("sched", QUANTUM * rng.randint(0, 400)))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


def build_zero_delay_plan(seed):
    """A plan dominated by zero-delay resumes and same-timestamp bursts.

    Zero-delay events bypass the heap (ready ring), but they interleave
    with heap cohorts at the same timestamp — the tie-order contract's
    sharpest edge.
    """
    rng = random.Random(seed ^ 0x0DE1A)
    procs = []
    for _ in range(rng.randint(3, 6)):
        ops = []
        for _ in range(rng.randint(5, 12)):
            roll = rng.random()
            if roll < 0.55:
                ops.append(("sleep", 0.0))
            elif roll < 0.75:
                # Same-timestamp cohort: quantized tiny delays collide.
                ops.append(("sleep", QUANTUM * rng.randint(1, 3)))
            elif roll < 0.90:
                ops.append(("sched", QUANTUM * rng.randint(0, 3)))
            else:
                ops.append(("timer", QUANTUM * rng.randint(1, 50), "keep"))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


def build_timer_wave_plan(seed):
    """Waves of short-lived timers that fire or are cancelled before
    the next wave arms."""
    rng = random.Random(seed ^ 0xF4EE)
    procs = []
    for _ in range(rng.randint(2, 4)):
        ops = []
        for _ in range(rng.randint(8, 16)):
            roll = rng.random()
            if roll < 0.45:
                # Fires soon, before the next wave.
                ops.append(("timer", QUANTUM * rng.randint(1, 8), "keep"))
            elif roll < 0.75:
                ops.append(("timer", QUANTUM * rng.randint(1, 8),
                            rng.choice(("cancel_imm", "cancel_later"))))
            else:
                # Step past the wave.
                ops.append(("sleep", QUANTUM * rng.randint(4, 16)))
        procs.append(ops)
    return {"procs": procs, "horizons": [], "late": [], "span": QUANTUM * 50000}


#: sha256 of the newline-joined ``repr(run_plan(Simulator, plan))`` over
#: each suite's seeds.
GOLDEN = {
    "build_plan": (
        N_CASES,
        "7b099216da2ae7149a3cd0dbba813753c5edd0536ef0c8a2f338532df0880b03",
    ),
    "build_cancel_heavy_plan": (
        120,
        "68552f1a48441cc522143cd69e6fb5c48cf376e0a8fcb5a07d1ab801d4201d15",
    ),
    "build_zero_delay_plan": (
        120,
        "3a5c09fc665b99dc913fe76cf7ab8e9dcbcdf061a84895c7e0344af7b8a219f6",
    ),
    "build_timer_wave_plan": (
        120,
        "da6959a9aa914df1b36c1ff1187909b7bf42e08d0924f8af95d03fb193b9426d",
    ),
}


@pytest.mark.parametrize("builder", [
    build_plan,
    build_cancel_heavy_plan,
    build_zero_delay_plan,
    build_timer_wave_plan,
], ids=lambda builder: builder.__name__)
def test_engine_order_matches_golden(builder):
    cases, expected = GOLDEN[builder.__name__]
    digest = hashlib.sha256()
    for seed in range(cases):
        digest.update(repr(run_plan(Simulator, builder(seed))).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == expected


def test_equal_time_cohort_scheduled_at_different_clock_times():
    # Events at one timestamp, scheduled while the clock was at
    # different times, fire in seq (scheduling) order.
    sim = Simulator()
    log = []
    target = 0.3

    def fire(tag):
        log.append((tag, sim.now))

    def driver():
        sim.schedule(target, fire, "early-seq")
        yield Timeout(target / 2)
        sim.schedule(target, fire, "mid-seq")
        yield Timeout(target / 2 - 0.0001)
        sim.schedule(target, fire, "late-seq")
        yield Timeout(target)  # outlive the cohort so it fires

    sim.spawn(driver())
    sim.run()
    assert [tag for tag, _ in log] == ["early-seq", "mid-seq", "late-seq"]
    assert {when for _, when in log} == {target}


def test_event_exactly_on_run_until_horizon_fires_inside_epoch():
    sim = Simulator()
    fired = []
    sim.schedule(0.5, fired.append, "on-horizon")
    sim.schedule(0.5000001, fired.append, "past-horizon")
    sim.run_until(0.5)
    assert fired == ["on-horizon"]
    assert sim.now == 0.5
    sim.run_until(1.0)
    assert fired == ["on-horizon", "past-horizon"]


def test_fired_timer_cancel_is_noop():
    """A Timer whose event already fired is inert: cancel() returns
    False and moves no accounting, and later timers still fire."""
    sim = Simulator()
    fired = []
    timer = sim.call_later(0.001, fired.append, "victim")
    sim.run_until(0.002)
    assert fired == ["victim"]
    assert not timer.active

    later = sim.call_later(0.5, fired.append, "later")
    pending_before = sim.pending_events
    cancelled_before = sim.wheel_stats()["timers_cancelled"]
    assert timer.cancel() is False
    assert timer.when is None
    assert sim.pending_events == pending_before
    assert sim.wheel_stats()["timers_cancelled"] == cancelled_before
    assert later.active

    sim.run_until(1.0)
    assert fired == ["victim", "later"]
