"""Extended Page Table: GPA -> HPA translation for one microVM.

The EPT is the hardware-assisted second-stage table the guest CPU uses
(§2.2 step iv).  Entries are installed *on first access*: a miss is an
EPT violation, which KVM services (§4.3.2, Fig. 9).  FastIOV's lazy
zeroing piggybacks on exactly this fault: the page is zeroed in the KVM
fault handler right before the entry is inserted, and subsequent
accesses translate in hardware with no interception.

The table is pure state; fault-servicing time is charged by
:class:`repro.oskernel.kvm.KVM`, whose guest touch loop reads
:attr:`EPT.entries` directly and counts a miss in ``fault_count``
exactly as :meth:`EPT.translate` does (which raises :class:`EptFault`
for direct callers).
"""

from repro.hw.errors import HardwareError


class EptFault(Exception):
    """EPT violation: the guest touched a GPA with no EPT entry.

    Carries the faulting GPA (page-aligned base) so KVM can resolve
    GPA -> HVA -> HPA and install the entry.
    """

    def __init__(self, vm_name, gpa):
        super().__init__(f"EPT violation in {vm_name!r} at GPA {gpa:#x}")
        self.vm_name = vm_name
        self.gpa = gpa


class EPT:
    """One microVM's extended page table."""

    def __init__(self, vm_name, page_size):
        self.vm_name = vm_name
        self.page_size = page_size
        #: gpa (page-aligned) -> Page.  Read-only outside this class:
        #: entries change only through :meth:`insert` / :meth:`invalidate`.
        self.entries = {}
        self.fault_count = 0

    @property
    def entry_count(self):
        return len(self.entries)

    def align(self, gpa):
        return (gpa // self.page_size) * self.page_size

    def has_entry(self, gpa):
        return self.align(gpa) in self.entries

    def translate(self, gpa):
        """Translate a GPA; raise :class:`EptFault` on a missing entry.

        Returns (page, offset_in_page).  The fault counter counts
        violations, which experiments use to verify that FastIOV's
        interception happens once per page (§6.5).
        """
        base = self.align(gpa)
        page = self.entries.get(base)
        if page is None:
            self.fault_count += 1
            raise EptFault(self.vm_name, base)
        return page, gpa - base

    def insert(self, gpa, page):
        """Install a GPA -> page entry (done by KVM after a fault)."""
        base = self.align(gpa)
        if base in self.entries:
            raise HardwareError(
                f"EPT {self.vm_name!r}: duplicate entry for GPA {base:#x}"
            )
        if page.size != self.page_size:
            raise HardwareError(
                f"EPT {self.vm_name!r}: page size {page.size} != EPT "
                f"granularity {self.page_size}"
            )
        self.entries[base] = page

    def invalidate(self, gpa):
        base = self.align(gpa)
        if base not in self.entries:
            raise HardwareError(f"EPT {self.vm_name!r}: no entry at {base:#x}")
        del self.entries[base]

    def __repr__(self):
        return (
            f"<EPT {self.vm_name!r} entries={self.entry_count} "
            f"faults={self.fault_count}>"
        )
