"""Unit tests for the processor-sharing CPU model."""

import pytest

from repro.sim import FairShareCPU, Simulator, Timeout


def run_jobs(cores, jobs):
    """Run (start_delay, amount) jobs; return [(tag, finish_time)]."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=cores)
    finishes = []

    def proc(tag, delay, amount):
        if delay:
            yield Timeout(delay)
        yield cpu.work(amount)
        finishes.append((tag, sim.now))

    for tag, (delay, amount) in enumerate(jobs):
        sim.spawn(proc(tag, delay, amount))
    sim.run()
    return sim, cpu, dict(finishes)


def test_single_job_runs_at_full_speed():
    _sim, _cpu, finish = run_jobs(4, [(0.0, 2.0)])
    assert finish[0] == pytest.approx(2.0)


def test_jobs_within_capacity_do_not_interfere():
    _sim, _cpu, finish = run_jobs(4, [(0.0, 2.0)] * 4)
    assert all(t == pytest.approx(2.0) for t in finish.values())


def test_oversubscription_stretches_elapsed_time():
    # 8 jobs of 1 core-second on 2 cores: each runs at 0.25 cores.
    _sim, _cpu, finish = run_jobs(2, [(0.0, 1.0)] * 8)
    assert all(t == pytest.approx(4.0) for t in finish.values())


def test_job_cannot_exceed_one_core():
    # 1 job on a 56-core socket still takes its full single-thread time.
    _sim, _cpu, finish = run_jobs(56, [(0.0, 3.0)])
    assert finish[0] == pytest.approx(3.0)


def test_departures_speed_up_remaining_jobs():
    # Two jobs on one core: 1.0 and 3.0 core-seconds.
    # Shared until t=2 (each has done 1.0); job0 leaves; job1 finishes
    # its remaining 2.0 alone at t=4.
    _sim, _cpu, finish = run_jobs(1, [(0.0, 1.0), (0.0, 3.0)])
    assert finish[0] == pytest.approx(2.0)
    assert finish[1] == pytest.approx(4.0)


def test_late_arrival_shares_fairly():
    # One core. Job0 (2.0) starts at t=0, job1 (1.0) at t=1.
    # t in [0,1): job0 alone, does 1.0. t in [1,?): both at 0.5.
    # Job0 remaining 1.0 -> done at t=3; job1 remaining 1.0 -> t=3.
    _sim, _cpu, finish = run_jobs(1, [(0.0, 2.0), (1.0, 1.0)])
    assert finish[0] == pytest.approx(3.0)
    assert finish[1] == pytest.approx(3.0)


def test_zero_work_completes_immediately():
    _sim, _cpu, finish = run_jobs(2, [(0.5, 0.0)])
    assert finish[0] == pytest.approx(0.5)


def test_negative_work_rejected():
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=1)
    with pytest.raises(ValueError):
        cpu.work(-1.0)
    with pytest.raises(ValueError):
        FairShareCPU(sim, cores=0)


def test_total_core_seconds_is_conserved():
    amounts = [0.3, 1.7, 2.2, 0.9, 4.0]
    _sim, cpu, _finish = run_jobs(2, [(0.1 * i, a) for i, a in enumerate(amounts)])
    assert cpu.total_core_seconds == pytest.approx(sum(amounts), rel=1e-6)


def test_utilization_bounded_and_sane():
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=2)

    def proc():
        yield cpu.work(2.0)

    sim.spawn(proc())
    sim.run()
    util = cpu.utilization()
    # 2.0 core-seconds of a 2-core socket over 2 s elapsed = 0.5.
    assert util == pytest.approx(0.5)


def test_makespan_matches_total_work_under_saturation():
    # 200 jobs x 0.57 core-seconds on 56 cores, all started together:
    # makespan = 200 * 0.57 / 56 (processor sharing finishes together).
    n, amount, cores = 200, 0.57, 56
    _sim, _cpu, finish = run_jobs(cores, [(0.0, amount)] * n)
    expected = n * amount / cores
    assert max(finish.values()) == pytest.approx(expected, rel=1e-6)


def test_rate_per_job_property():
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=4)
    assert cpu.rate_per_job == 0.0

    def proc():
        yield cpu.work(1.0)

    for _ in range(8):
        sim.spawn(proc())
    sim.run(until=0.5)
    assert cpu.rate_per_job == pytest.approx(0.5)
    sim.run()


# ----------------------------------------------------------------------
# numerical-guard regression: float drift must never stall completion
# ----------------------------------------------------------------------
def test_tiny_work_at_huge_virtual_time_terminates():
    """A work amount below the clock's ulp cannot advance ``now``.

    At t=1e16 the float ulp is 2.0 s, so ``now + amount/rate`` rounds
    back to ``now`` for small amounts and the completion event makes no
    virtual-time progress.  The scheduler's guard must finish the head
    job anyway instead of re-arming the same event forever.
    """
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=4)
    done = []

    def proc(tag, amount):
        yield Timeout(1e16)
        yield cpu.work(amount)
        done.append(tag)

    sim.spawn(proc("a", 1e-3))
    sim.run()
    assert done == ["a"]
    assert sim.now >= 1e16


def test_adversarial_amount_mix_terminates_and_completes_all():
    """Amounts spanning 19 orders of magnitude at a huge epoch all finish."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=2)
    done = []
    amounts = [1e-9, 1e-3, 2.0, 1e-6, 0.5, 3e-12, 1.0, 1e10]

    def proc(tag, amount):
        yield Timeout(1e15 + tag)  # stagger admits across the epoch
        yield cpu.work(amount)
        done.append(tag)

    for tag, amount in enumerate(amounts):
        sim.spawn(proc(tag, amount))
    sim.run()
    assert sorted(done) == list(range(len(amounts)))
    # Work conservation still holds to float accuracy at this scale.
    assert cpu.total_core_seconds == pytest.approx(sum(amounts), rel=1e-6)


def test_zero_progress_guard_finishes_jobs_in_tag_order():
    """When the guard fires, jobs retire in fair-queueing finish order."""
    sim = Simulator()
    cpu = FairShareCPU(sim, cores=1)
    done = []

    def proc(tag, amount):
        yield Timeout(4e15)
        yield cpu.work(amount)
        done.append(tag)

    # Both amounts are far below the ulp of 4e15 (0.5 s): neither can
    # move the clock, so completion order must follow the finish tags.
    sim.spawn(proc("small", 1e-6))
    sim.spawn(proc("large", 1e-1))
    sim.run()
    assert done == ["small", "large"]

