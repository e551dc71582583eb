"""Tests for the fastiovd module: lazy zeroing machinery and safety.

Includes the failure-injection scenarios of §4.3.2: what goes wrong
without the instant-zeroing list and without proactive EPT faults.
"""

import pytest

from repro.hw.memory import MIB
from repro.oskernel.kvm import PinnedBacking
from repro.oskernel.vfio import DECOUPLED_ZEROING
from repro.sim.core import Timeout
from tests.conftest import KernelRig


def make_rig(scanner=True):
    r = KernelRig(lock_policy="hierarchical", with_fastiovd=True, scanner=scanner)
    r.bind_all_vfs_to_vfio()
    return r


def build_lazy_vm(r, name="vm0", ram=16 * MIB):
    state = {}

    def flow():
        vm = r.kvm.create_vm(name, r.memory.page_size)
        domain = r.vfio.create_domain(name)
        region = yield from r.vfio.dma_map(
            domain, owner=name, label="ram", nbytes=ram, gpa_base=0,
            policy=DECOUPLED_ZEROING,
        )
        yield from r.kvm.register_slot(vm, 0, PinnedBacking(region), "ram")
        state.update(vm=vm, region=region)

    r.sim.spawn(flow())
    r.run()
    return state


# ----------------------------------------------------------------------
# lazy zeroing on the EPT-fault path
# ----------------------------------------------------------------------
def test_fault_zeroes_pending_page_before_guest_sees_it():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]

    def flow():
        yield from r.kvm.guest_access(vm, 0)  # read: must be zeroed first

    r.sim.spawn(flow())
    r.run()  # no ResidualDataLeak
    assert r.fastiovd.stats.fault_zeroed_pages == 1
    assert r.fastiovd.pending_pages(vm.pid) == state["region"].page_count - 1


def test_fault_zeroing_charges_cpu_time():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    t0 = r.sim.now
    elapsed = {}

    def flow():
        yield from r.kvm.guest_access(vm, 0)
        elapsed["dt"] = r.sim.now - t0

    r.sim.spawn(flow())
    r.run()
    zero_cost = r.spec.fault_zeroing_cpu_seconds(r.memory.page_size)
    assert elapsed["dt"] >= zero_cost


def test_faults_on_unmanaged_pages_are_cheap_noops():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]

    def flow():
        yield from r.kvm.guest_access(vm, 0)
        before = r.fastiovd.stats.fault_zeroed_pages
        yield from r.kvm.guest_access(vm, 100)  # same page, no fault at all
        assert r.fastiovd.stats.fault_zeroed_pages == before

    r.sim.spawn(flow())
    r.run()


# ----------------------------------------------------------------------
# background scanner
# ----------------------------------------------------------------------
def test_background_scanner_drains_the_table():
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=8 * MIB)
    assert r.fastiovd.pending_pages() == 8

    def waiter():
        yield Timeout(5.0)

    r.sim.spawn(waiter())
    r.run()
    assert r.fastiovd.pending_pages() == 0
    assert r.fastiovd.stats.background_zeroed_pages == 8
    assert all(page.is_zeroed for page in state["region"].pages)


def test_scanner_and_fault_never_double_zero_or_race():
    """A fault racing the scanner waits for the in-flight zeroing."""
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=32 * MIB)
    vm = state["vm"]

    def toucher():
        # Start touching right as the scanner begins claiming pages.
        yield Timeout(r.spec.fastiovd_scan_interval_s)
        for gpa in range(0, 32 * MIB, r.memory.page_size):
            yield from r.kvm.guest_access(vm, gpa)

    r.sim.spawn(toucher())
    r.run()
    stats = r.fastiovd.stats
    assert stats.fault_zeroed_pages + stats.background_zeroed_pages == 32
    assert all(page.is_zeroed for page in state["region"].pages)


def _await_claim(r, vm, page):
    """Poll (10 µs steps) until the scanner has claimed ``page``.

    A 1 MiB page takes the scanner ~625 µs to zero, so the poller always
    lands inside the claim's in-flight window.
    """
    key = (vm.pid, page.hpa)
    while key not in r.fastiovd._inflight:
        yield Timeout(10e-6)
    assert page.is_residual  # claimed, not yet zeroed


def test_fault_on_claimed_page_waits_for_the_scanner():
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=8 * MIB)
    vm, page = state["vm"], state["region"].pages[0]
    seen = {}

    def toucher():
        yield from _await_claim(r, vm, page)
        found = yield from r.kvm.guest_access(vm, 0)
        seen.update(page=found, zeroed=found.is_zeroed,
                    inflight=(vm.pid, page.hpa) in r.fastiovd._inflight)

    r.sim.spawn(toucher())
    r.run()
    stats = r.fastiovd.stats
    assert stats.fault_wait_events >= 1
    assert seen == {"page": page, "zeroed": True, "inflight": False}
    assert stats.fault_zeroed_pages == 0  # the scanner zeroed it, once
    assert stats.background_zeroed_pages == 8


def test_register_instant_on_claimed_pages_waits_before_scrubbing():
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=8 * MIB)
    vm = state["vm"]
    rom_pages = state["region"].pages[:2]
    times = {}

    def watch(event, label):
        yield event.wait()
        times[label] = r.sim.now

    def hypervisor():
        for page in rom_pages:
            yield from _await_claim(r, vm, page)
        for i, page in enumerate(rom_pages):
            event = r.fastiovd._inflight_event(vm.pid, page.hpa)
            assert event is not None
            r.sim.spawn(watch(event, f"scanned{i}"))
        yield from r.fastiovd.register_instant(vm.pid, rom_pages)
        times["scrubbed"] = r.sim.now
        for page in rom_pages:
            page.write("hypervisor:kernel")

    r.sim.spawn(hypervisor())
    r.run()
    # The scrub (at most one core) starts only once both claimed pages
    # are finished; without the wait it would overlap the scanner.
    scrub = r.spec.zeroing_cpu_seconds(2 * r.memory.page_size)
    scanned = max(times["scanned0"], times["scanned1"])
    assert times["scrubbed"] >= scanned + scrub * (1 - 1e-9)
    # ... so the scanner's zeroing never clobbers the hypervisor's write.
    assert [page.content_tag for page in rom_pages] == ["hypervisor:kernel"] * 2
    assert r.fastiovd.stats.instant_pages == 2


def test_inflight_map_empties_once_the_table_drains():
    r = make_rig(scanner=True)
    state = build_lazy_vm(r, ram=32 * MIB)
    vm = state["vm"]
    peak = {"inflight": 0}

    def toucher():
        yield Timeout(r.spec.fastiovd_scan_interval_s)
        for gpa in range(0, 32 * MIB, r.memory.page_size):
            peak["inflight"] = max(peak["inflight"], len(r.fastiovd._inflight))
            yield from r.kvm.guest_access(vm, gpa)

    r.sim.spawn(toucher())
    r.run()
    assert peak["inflight"] > 0
    assert r.fastiovd.pending_pages() == 0
    assert r.fastiovd._inflight == {}


def test_scanner_workers_are_not_processes():
    r = make_rig(scanner=True)
    build_lazy_vm(r, ram=8 * MIB)

    def waiter():
        yield Timeout(1.0)

    r.sim.spawn(waiter())
    r.run()
    assert r.fastiovd.stats.background_zeroed_pages == 8
    assert not [p for p in r.sim._processes if "worker" in p.name]


def test_scanner_respects_chunk_budget():
    spec_small_chunk = KernelRig().spec.derive(
        fastiovd_scan_chunk_bytes=2 * MIB, fastiovd_scan_interval_s=0.1
    )
    r = KernelRig(spec=spec_small_chunk, lock_policy="hierarchical",
                  with_fastiovd=True)
    r.bind_all_vfs_to_vfio()
    build_lazy_vm(r, ram=8 * MIB)

    def waiter():
        yield Timeout(0.25)  # two scan wakeups at most

    r.sim.spawn(waiter())
    r.run(until=0.25)
    assert r.fastiovd.stats.background_zeroed_pages <= 4


# ----------------------------------------------------------------------
# instant-zeroing list
# ----------------------------------------------------------------------
def test_instant_zeroing_protects_hypervisor_written_pages():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    rom_pages = state["region"].pages[:2]

    def flow():
        # Hypervisor path: instant-zero, then write kernel code.
        yield from r.fastiovd.register_instant(vm.pid, rom_pages)
        for page in rom_pages:
            page.write("hypervisor:kernel")
        # Guest boots and executes the kernel pages.
        yield from r.kvm.guest_touch_range(
            vm, 0, 2 * r.memory.page_size, expect="hypervisor:kernel", verify=True
        )

    r.sim.spawn(flow())
    r.run()  # no GuestCrash
    assert r.fastiovd.stats.instant_pages == 2


def test_missing_instant_list_entry_crashes_guest():
    """Failure injection: hypervisor writes a page that was (wrongly)
    left in the lazy table; the guest's first access zeroes the kernel
    code out from under it -> crash (§4.3.2 scenario 1)."""
    from repro.oskernel.errors import GuestCrash
    from repro.sim.errors import ProcessFailed

    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    vm = state["vm"]
    rom_page = state["region"].pages[0]

    def flow():
        rom_page.write("hypervisor:kernel")  # no instant-zeroing entry!
        yield from r.kvm.guest_access(vm, 0, expect="hypervisor:kernel")

    r.sim.spawn(flow())
    with pytest.raises(ProcessFailed) as excinfo:
        r.run()
    assert isinstance(excinfo.value.cause, GuestCrash)
    assert rom_page.is_zeroed  # the data really was clobbered


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_forget_pages_and_drop_pid():
    r = make_rig(scanner=False)
    state = build_lazy_vm(r)
    region = state["region"]
    r.fastiovd.forget_pages("vm0", region.pages[:4])
    assert r.fastiovd.pending_pages("vm0") == region.page_count - 4
    r.fastiovd.drop_pid("vm0")
    assert r.fastiovd.pending_pages() == 0


def test_pending_bytes_accounting():
    r = make_rig(scanner=False)
    build_lazy_vm(r, ram=8 * MIB)
    assert r.fastiovd.pending_bytes() == 8 * MIB
