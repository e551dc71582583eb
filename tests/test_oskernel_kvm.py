"""Tests for KVM memory slots, EPT-fault servicing, and guest access."""

import pytest

from repro.hw.errors import ResidualDataLeak
from repro.hw.memory import MIB
from repro.oskernel.errors import GuestCrash, KernelError
from repro.oskernel.kvm import AnonBacking, PinnedBacking
from repro.oskernel.vfio import DECOUPLED_ZEROING, EAGER_ZEROING
from repro.sim.errors import ProcessFailed
from tests.conftest import KernelRig


def build_vm(r, name="vm0", ram=16 * MIB, policy=EAGER_ZEROING):
    """Map RAM via VFIO and register it as a KVM slot."""
    state = {}

    def flow():
        vm = r.kvm.create_vm(name, r.memory.page_size)
        domain = r.vfio.create_domain(name)
        region = yield from r.vfio.dma_map(
            domain, owner=name, label="ram", nbytes=ram, gpa_base=0,
            policy=policy,
        )
        slot = yield from r.kvm.register_slot(vm, 0, PinnedBacking(region), "ram")
        state.update(vm=vm, region=region, slot=slot)

    r.sim.spawn(flow())
    r.run()
    return state


def test_slot_registration_and_lookup(rig):
    state = build_vm(rig)
    vm = state["vm"]
    slot, offset = vm.find_slot(5 * MIB)
    assert slot is state["slot"]
    assert offset == 5 * MIB
    with pytest.raises(KernelError):
        vm.find_slot(100 * MIB)


def test_overlapping_slots_rejected(rig):
    state = build_vm(rig)
    vm = state["vm"]

    def flow():
        yield from rig.kvm.register_slot(
            vm, 8 * MIB, PinnedBacking(state["region"]), "overlap"
        )

    rig.sim.spawn(flow())
    with pytest.raises(ProcessFailed):
        rig.run()


def test_duplicate_vm_name_rejected(rig):
    rig.kvm.create_vm("vm0", rig.memory.page_size)
    with pytest.raises(KernelError):
        rig.kvm.create_vm("vm0", rig.memory.page_size)


def test_ept_fault_installs_entry_once(rig):
    state = build_vm(rig)
    vm = state["vm"]

    def flow():
        yield from rig.kvm.guest_access(vm, MIB + 5)
        yield from rig.kvm.guest_access(vm, MIB + 7)  # same page: no fault

    rig.sim.spawn(flow())
    rig.run()
    assert vm.ept.fault_count == 1
    assert rig.kvm.ept_faults_serviced == 1
    assert vm.ept.has_entry(MIB)


def test_guest_touch_range_faults_each_page_once(rig):
    state = build_vm(rig)
    vm = state["vm"]

    def flow():
        yield from rig.kvm.guest_touch_range(vm, 0, 8 * MIB)
        yield from rig.kvm.guest_touch_range(vm, 0, 8 * MIB)

    rig.sim.spawn(flow())
    rig.run()
    assert vm.ept.fault_count == 8


def test_concurrent_faults_on_one_page_insert_one_entry(rig):
    """Two processes of one VM miss the same page before either fault is
    serviced: both violations count, the EPT gets one entry, and the
    second fault does not re-insert it (no duplicate-entry error)."""
    state = build_vm(rig)
    vm = state["vm"]
    pages = []

    def toucher():
        pages.append((yield from rig.kvm.guest_access(vm, 3 * MIB)))

    rig.sim.spawn(toucher())
    rig.sim.spawn(toucher())
    rig.run()
    assert vm.ept.fault_count == 2
    assert rig.kvm.ept_faults_serviced == 2
    assert vm.ept.entry_count == 1
    assert pages[0] is pages[1] is vm.ept.entries[3 * MIB]
    assert pages[0] is state["region"].pages[3]


def test_touch_range_across_adjacent_slots_resolves_each_page(rig):
    """One touch spanning two adjacent slots: every page lands in the
    slot that covers its GPA, at the right offset."""
    state = {}

    def flow():
        vm = rig.kvm.create_vm("vm0", rig.memory.page_size)
        low = AnonBacking(rig.mmu.create_mapping("vm0", "low", 3 * MIB))
        high = AnonBacking(rig.mmu.create_mapping("vm0", "high", 4 * MIB))
        yield from rig.kvm.register_slot(vm, 0, low, "low")
        yield from rig.kvm.register_slot(vm, 3 * MIB, high, "high")
        yield from rig.kvm.guest_touch_range(
            vm, MIB + 5, 4 * MIB, write=True, tag="span")
        state.update(vm=vm, low=low, high=high)

    rig.sim.spawn(flow())
    rig.run()
    vm, low, high = state["vm"], state["low"], state["high"]
    assert vm.ept.fault_count == 5  # pages at 1..5 MiB
    expected = {
        1 * MIB: (low, 1 * MIB),
        2 * MIB: (low, 2 * MIB),
        3 * MIB: (high, 0),
        4 * MIB: (high, 1 * MIB),
        5 * MIB: (high, 2 * MIB),
    }
    assert sorted(vm.ept.entries) == sorted(expected)
    for gpa, (backing, offset) in expected.items():
        page = vm.ept.entries[gpa]
        assert page is backing.page_if_resident(offset)
        assert page.content_tag == "span"
    assert low.page_if_resident(0) is None
    assert high.page_if_resident(3 * MIB) is None


def test_resident_anon_page_faults_without_a_second_host_fault(rig):
    """A page the host already demand-faulted (a backend write) costs
    the guest only the EPT fault: no second host fault or scrub."""
    spec = rig.spec
    state = {}

    def flow():
        vm = rig.kvm.create_vm("vm0", rig.memory.page_size)
        mapping = rig.mmu.create_mapping("vm0", "ram", 4 * MIB)
        yield from rig.kvm.register_slot(vm, 0, AnonBacking(mapping), "ram")
        yield from rig.kvm.host_write_range(vm, 2 * MIB, 10, "backend")
        state["host_faults"] = rig.mmu.fault_count
        started = rig.sim.now
        page = yield from rig.kvm.guest_access(vm, 2 * MIB, expect="backend")
        state.update(elapsed=rig.sim.now - started, page=page,
                     resident=mapping.page_if_resident(2 * MIB))

    rig.sim.spawn(flow())
    rig.run()
    assert state["host_faults"] == 1
    assert rig.mmu.fault_count == 1
    assert rig.kvm.ept_faults_serviced == 1
    assert state["page"] is state["resident"]
    assert state["elapsed"] == pytest.approx(spec.ept_fault_s)


def test_guest_read_of_eagerly_zeroed_ram_is_clean(rig):
    state = build_vm(rig)
    vm = state["vm"]

    def flow():
        yield from rig.kvm.guest_touch_range(vm, 0, 16 * MIB)

    rig.sim.spawn(flow())
    rig.run()  # would raise ResidualDataLeak if any page were dirty


def test_guest_read_without_zeroing_leaks(rig):
    """No zeroing at all (not even lazy): the leak check fires.

    This is the negative control proving the security invariant is
    actually enforced by the model.
    """
    state = {}

    def flow():
        vm = rig.kvm.create_vm("vm0", rig.memory.page_size)
        domain = rig.vfio.create_domain("vm0")
        # Simulate a (buggy) mapping that skips zeroing entirely by
        # allocating and pinning by hand.
        allocation = rig.memory.allocate(4 * MIB, owner="vm0", label="ram")
        for page in allocation.pages:
            page.pin()
        for index, page in enumerate(allocation.pages):
            domain.map_page(index * page.size, page)

        class RawBacking:
            size_bytes = allocation.size_bytes

            def page_at_offset(self, offset):
                return allocation.pages[offset // rig.memory.page_size]
                yield

            def page_if_resident(self, offset):
                return allocation.pages[offset // rig.memory.page_size]

        yield from rig.kvm.register_slot(vm, 0, RawBacking(), "ram")
        yield from rig.kvm.guest_access(vm, 0)

    rig.sim.spawn(flow())
    with pytest.raises(ProcessFailed) as excinfo:
        rig.run()
    assert isinstance(excinfo.value.cause, ResidualDataLeak)


def test_guest_write_then_read_roundtrip(rig):
    state = build_vm(rig)
    vm = state["vm"]
    seen = {}

    def flow():
        yield from rig.kvm.guest_access(vm, 2 * MIB, write=True, tag="guest-data")
        page = yield from rig.kvm.guest_access(vm, 2 * MIB, expect="guest-data")
        seen["tag"] = page.content_tag

    rig.sim.spawn(flow())
    rig.run()
    assert seen["tag"] == "guest-data"


def test_guest_expectation_mismatch_is_a_crash(rig):
    state = build_vm(rig)
    vm = state["vm"]

    def flow():
        yield from rig.kvm.guest_access(vm, 0, expect="kernel-code")

    rig.sim.spawn(flow())
    with pytest.raises(ProcessFailed) as excinfo:
        rig.run()
    assert isinstance(excinfo.value.cause, GuestCrash)


def test_anon_backing_demand_faults_and_zeroes():
    """The No-Net memory path: alloc+zero on first touch only."""
    r = KernelRig()
    r.bind_all_vfs_to_vfio()
    state = {}

    def flow():
        vm = r.kvm.create_vm("vm0", r.memory.page_size)
        mapping = r.mmu.create_mapping("vm0", "ram", 16 * MIB)
        yield from r.kvm.register_slot(vm, 0, AnonBacking(mapping), "ram")
        state["before"] = r.memory.allocated_bytes
        yield from r.kvm.guest_touch_range(vm, 0, 4 * MIB)
        state["after"] = r.memory.allocated_bytes
        state["mapping"] = mapping

    r.sim.spawn(flow())
    r.run()
    assert state["before"] == 0
    assert state["after"] == 4 * MIB  # only what was touched
    assert state["mapping"].resident_pages == 4


def test_destroy_vm_drops_fastiovd_table(rig_fastiovd):
    r = rig_fastiovd
    state = build_vm(r, policy=DECOUPLED_ZEROING)
    assert r.fastiovd.pending_pages("vm0") > 0
    r.kvm.destroy_vm(state["vm"])
    assert r.fastiovd.pending_pages("vm0") == 0


def test_touch_range_rejects_nonpositive(rig):
    state = build_vm(rig)
    with pytest.raises(ValueError):
        list(rig.kvm.guest_touch_range(state["vm"], 0, 0))
