"""KVM model: memory slots, EPT-fault servicing, lazy-zeroing hook.

Implements the translation flow of Fig. 9: guest accesses miss the EPT,
KVM resolves GPA -> HVA (memory slot) -> HPA (backing) and inserts the
EPT entry.  FastIOV's modification (§4.3.2/§5) sits on this path: just
before inserting the entry, KVM asks fastiovd whether the page's
zeroing was deferred, and if so the page is scrubbed *before* the guest
can observe it.

Memory slots can be backed two ways, matching the two startup paths:

* :class:`PinnedBacking` — pre-allocated, VFIO-pinned frames from
  :meth:`~repro.oskernel.vfio.VfioDriver.dma_map` (SR-IOV path);
* :class:`AnonBacking` — demand-paged host memory
  (:class:`~repro.oskernel.mmu.AnonMapping`; No-Net/software-CNI path).
"""

from repro.hw.ept import EPT
from repro.oskernel.errors import GuestCrash, KernelError
from repro.sim.core import Timeout

#: Sentinel distinguishing "no expectation" from "expect None (zeroed)".
_UNSET = object()


class PinnedBacking:
    """Slot backing by a VFIO-pinned :class:`MappedRegion`.

    Fully resident by construction, so lookups are O(log batches) and
    range accesses can go straight to the region's run-length state
    (:meth:`write_range` / :meth:`read_range`) without materializing a
    per-page list.
    """

    def __init__(self, mapped_region):
        self._region = mapped_region
        self.page_size = mapped_region.allocation.page_size

    @property
    def size_bytes(self):
        return self._region.size_bytes

    def page_at_offset(self, offset):
        return self._region.allocation.page_at_index(offset // self.page_size)
        yield  # pragma: no cover - makes this a generator for API uniformity

    def page_if_resident(self, offset):
        return self._region.allocation.page_at_index(offset // self.page_size)

    def write_range(self, offset, nbytes, tag):
        """Bulk host-side write: O(runs), never blocks (pinned memory)."""
        first = offset // self.page_size
        count = -(-nbytes // self.page_size)
        self._region.allocation.write_index_span(first, count, tag)

    def read_range(self, offset, nbytes, reader):
        """Bulk host-side read; per-page tags, leak-checked."""
        first = offset // self.page_size
        count = -(-nbytes // self.page_size)
        return self._region.allocation.read_index_span(first, count, reader)


class AnonBacking:
    """Slot backing by demand-paged anonymous host memory."""

    def __init__(self, anon_mapping):
        self._mapping = anon_mapping
        self.page_size = anon_mapping.page_size

    @property
    def size_bytes(self):
        return self._mapping.size_bytes

    def page_at_offset(self, offset):
        page = yield from self._mapping.page_at_offset(offset)
        return page

    def page_if_resident(self, offset):
        return self._mapping.page_if_resident(offset)


class FileBacking:
    """Slot backing by a shared page-cache file (read-only regions)."""

    def __init__(self, cached_file):
        self._file = cached_file
        self.page_size = cached_file.page_size

    @property
    def size_bytes(self):
        return self._file.size_bytes

    def page_at_offset(self, offset):
        page = yield from self._file.page_at_offset(offset)
        return page

    def page_if_resident(self, offset):
        return self._file.page_if_resident(offset)


class MemorySlot:
    """One GPA window mapped to host memory (KVM memslot).

    A backing's size is fixed, so the window's end is computed once:
    :meth:`KvmVM.find_slot` runs on every EPT fault.
    """

    def __init__(self, gpa_base, backing, label):
        self.gpa_base = gpa_base
        self.backing = backing
        self.label = label
        self.gpa_end = gpa_base + backing.size_bytes

    @property
    def size_bytes(self):
        return self.gpa_end - self.gpa_base

    def contains(self, gpa):
        return self.gpa_base <= gpa < self.gpa_end

    def __repr__(self):
        return (
            f"<MemorySlot {self.label!r} gpa={self.gpa_base:#x} "
            f"+{self.size_bytes >> 20} MiB>"
        )


class KvmVM:
    """Per-VM KVM state: EPT, memory slots, identity."""

    def __init__(self, name, pid, page_size):
        self.name = name
        self.pid = pid
        self.ept = EPT(name, page_size)
        self.slots = []

    def find_slot(self, gpa):
        for slot in self.slots:
            if slot.gpa_base <= gpa < slot.gpa_end:
                return slot, gpa - slot.gpa_base
        raise KernelError(f"VM {self.name!r}: GPA {gpa:#x} hits no memory slot")

    def __repr__(self):
        return f"<KvmVM {self.name} slots={len(self.slots)}>"


class KVM:
    """The KVM module shared by all microVMs on the host."""

    def __init__(self, sim, cpu, spec, fastiovd=None):
        self._sim = sim
        self._cpu = cpu
        self._spec = spec
        self._fastiovd = fastiovd
        self.ept_faults_serviced = 0
        self._vms = {}
        # Commands are stateless, so every fault yields the same one.
        self._fault_cost = Timeout(spec.ept_fault_s)

    def create_vm(self, name, page_size, pid=None):
        if name in self._vms:
            raise KernelError(f"VM name {name!r} already in use")
        vm = KvmVM(name, pid if pid is not None else name, page_size)
        self._vms[name] = vm
        return vm

    def destroy_vm(self, vm):
        self._vms.pop(vm.name, None)
        if self._fastiovd is not None:
            self._fastiovd.drop_pid(vm.pid)

    def register_slot(self, vm, gpa_base, backing, label):
        """Install one memory slot (charged ioctl cost)."""
        yield Timeout(self._spec.kvm_slot_register_s)
        slot = MemorySlot(gpa_base, backing, label)
        for existing in vm.slots:
            if existing.contains(gpa_base) or slot.contains(existing.gpa_base):
                raise KernelError(
                    f"VM {vm.name!r}: slot {label!r} overlaps {existing.label!r}"
                )
        vm.slots.append(slot)
        return slot

    # ------------------------------------------------------------------
    # EPT fault path (Fig. 9)
    # ------------------------------------------------------------------
    def handle_ept_fault(self, vm, gpa):
        """Service one EPT violation; returns the backing page.

        Order matters for correctness: the page is resolved, *then*
        lazily zeroed if pending, and only then does the EPT entry
        appear — the guest can never translate to a residual frame.
        Pinned frames (and already-faulted anon/file pages) resolve
        without a generator; only a host demand fault runs one.
        """
        yield self._fault_cost
        slot, offset = vm.find_slot(gpa)
        backing = slot.backing
        page = backing.page_if_resident(offset)
        if page is None:
            page = yield from backing.page_at_offset(offset)
        if self._fastiovd is not None:
            yield from self._fastiovd.on_ept_fault(vm.pid, page)
        if not vm.ept.has_entry(gpa):
            vm.ept.insert(gpa, page)
        self.ept_faults_serviced += 1
        return page

    # ------------------------------------------------------------------
    # host-side memory access (hypervisor / para-virt backends)
    # ------------------------------------------------------------------
    def host_write_range(self, vm, gpa_base, nbytes, tag):
        """Write guest memory *from the host*, bypassing the EPT.

        This is how the hypervisor loads the ROM/image and how virtio
        backends deliver data (§4.3.2).  Anonymous backings demand-fault
        host-side (charged); pinned backings resolve directly — which is
        exactly why a deferred-zeroing page written this way is in
        danger of being re-zeroed on the guest's first EPT fault.
        """
        if nbytes <= 0:
            raise ValueError(f"write length must be positive, got {nbytes}")
        page_size = vm.ept.page_size
        gpa = (gpa_base // page_size) * page_size
        end = gpa_base + nbytes
        while gpa < end:
            slot, offset = vm.find_slot(gpa)
            bulk = getattr(slot.backing, "write_range", None)
            if bulk is not None:
                limit = min(end, slot.gpa_end)
                bulk(offset, limit - gpa, tag)
                gpa = limit
                continue
            page = yield from slot.backing.page_at_offset(offset)
            page.write(tag)
            gpa += page_size

    def host_read_range(self, vm, gpa_base, nbytes, reader):
        """Read guest memory from the host (TX paths, introspection).

        Enforces the residual-data check like any other read.
        """
        if nbytes <= 0:
            raise ValueError(f"read length must be positive, got {nbytes}")
        page_size = vm.ept.page_size
        tags = []
        gpa = (gpa_base // page_size) * page_size
        end = gpa_base + nbytes
        while gpa < end:
            slot, offset = vm.find_slot(gpa)
            bulk = getattr(slot.backing, "read_range", None)
            if bulk is not None:
                limit = min(end, slot.gpa_end)
                tags.extend(bulk(offset, limit - gpa, reader))
                gpa = limit
                continue
            page = yield from slot.backing.page_at_offset(offset)
            tags.append(page.read(reader))
            gpa += page_size
        return tags

    # ------------------------------------------------------------------
    # guest memory access helpers (used by the virt layer)
    # ------------------------------------------------------------------
    def guest_access(self, vm, gpa, write=False, tag=None, expect=_UNSET):
        """One guest access to ``gpa`` (page granularity); returns the page.

        Reads enforce the residual-leak check and, when ``expect`` is
        given, verify the content tag — a mismatch is a
        :class:`GuestCrash` (lazy zeroing clobbered real data).
        """
        yield from self.guest_touch_range(
            vm, gpa, 1, write=write, tag=tag, expect=expect,
            verify=expect is not _UNSET,
        )
        return vm.ept.entries[vm.ept.align(gpa)]

    def guest_touch_range(self, vm, gpa_base, nbytes, write=False, tag=None,
                          expect=None, verify=False):
        """Touch every page in [gpa_base, gpa_base + nbytes).

        ``verify=True`` makes reads assert the expected content tag.
        This is the guest's only access loop: a present EPT entry is one
        dict lookup; a missing one counts a violation (as
        :meth:`EPT.translate` does) and runs :meth:`handle_ept_fault`.
        """
        if nbytes <= 0:
            raise ValueError(f"touch length must be positive, got {nbytes}")
        ept = vm.ept
        entries = ept.entries
        page_size = ept.page_size
        reader = vm.name
        gpa = (gpa_base // page_size) * page_size
        end = gpa_base + nbytes
        while gpa < end:
            page = entries.get(gpa)
            if page is None:
                ept.fault_count += 1
                page = yield from self.handle_ept_fault(vm, gpa)
            if write:
                page.write(tag)
            else:
                found = page.read(reader)
                if verify and found != expect:
                    raise GuestCrash(reader, gpa, expect, found)
            gpa += page_size

    def __repr__(self):
        return f"<KVM vms={len(self._vms)} faults={self.ept_faults_serviced}>"
