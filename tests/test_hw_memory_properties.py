"""Property-based tests for the page-frame allocator (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.errors import HardwareError, OutOfMemory
from repro.hw.memory import PageContent, PhysicalMemory

PAGE = 4096
TOTAL_PAGES = 64


class _Op:
    """One allocator operation: allocate(n pages) or free(index)."""

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"{self.kind}({self.value})"


ops_strategy = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=16).map(lambda n: _Op("alloc", n)),
        st.integers(min_value=0, max_value=30).map(lambda i: _Op("free", i)),
    ),
    max_size=60,
)


@given(ops_strategy)
@settings(max_examples=200, deadline=None)
def test_allocator_invariants_under_random_workload(ops):
    """No overlap, exact accounting, and full reclamation always hold."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    live = []
    for op in ops:
        if op.kind == "alloc":
            try:
                region = mem.allocate(op.value * PAGE, owner="w")
            except OutOfMemory:
                assert op.value * PAGE > mem.free_bytes
                continue
            live.append(region)
        elif live:
            region = live.pop(op.value % len(live))
            mem.free(region)

        # Invariant 1: live regions never overlap.
        seen = set()
        for region in live:
            for page in region.pages:
                assert page.hpa not in seen, "frame handed out twice"
                seen.add(page.hpa)
        # Invariant 2: accounting matches the live set exactly.
        assert mem.allocated_bytes == sum(r.size_bytes for r in live)
        assert 0 <= mem.free_bytes <= mem.total_bytes
        # Invariant 3: every allocated frame is addressable via page_at.
        for region in live:
            assert mem.page_at(region.pages[0].hpa) is region.pages[0]

    # Full reclamation: freeing everything coalesces back to one extent.
    for region in live:
        mem.free(region)
    assert mem.allocated_bytes == 0
    assert mem.free_extent_count == 1


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10)
)
@settings(max_examples=100, deadline=None)
def test_batches_partition_the_region(sizes):
    """Batches are disjoint, contiguous, and cover every page exactly once."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=8 * PAGE)
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        region = mem.allocate(npages * PAGE, owner="w")
        assert region.page_count == npages
        flattened = [p for batch in region.batches for p in batch]
        assert flattened == region.pages
        for batch in region.batches:
            for a, b in zip(batch, batch[1:]):
                assert b.hpa == a.hpa + a.size, "batch not contiguous"


@given(
    tags=st.lists(
        st.sampled_from(["tenant-a", "tenant-b", "tenant-c"]),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_recycled_memory_never_loses_dirty_marking(tags):
    """However frames are recycled, unzeroed data stays flagged residual."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    for tag in tags:
        region = mem.allocate(4 * PAGE, owner=tag)
        for i, page in enumerate(region.pages):
            if i % 2 == 0:
                page.write(f"{tag}-secret")
            else:
                page.zero()
        mem.free(region)
    final = mem.allocate(TOTAL_PAGES * PAGE, owner="auditor")
    for page in final.pages:
        if page.is_residual:
            assert page.content_tag is None or "secret" in page.content_tag
        # Zeroed-then-freed frames must never be flagged residual.
        if page.content_tag is None and not page.is_residual:
            assert page.is_zeroed


@given(
    max_run_pages=st.integers(min_value=1, max_value=16),
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_fragment_preserves_accounting_and_batch_structure(max_run_pages, sizes):
    """fragment() only reshapes free extents; allocations stay correct."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    free_before = mem.free_bytes
    mem.fragment(max_run_bytes=max_run_pages * PAGE)
    assert mem.free_bytes == free_before
    assert mem.allocated_bytes == 0

    live = []
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        region = mem.allocate(npages * PAGE, owner="w")
        live.append(region)
        # Each retrieval batch fits inside one (fragmented) free extent.
        for start, end in region._batch_spans:
            assert (end - start) <= max_run_pages * PAGE
        # The batch-span index and the run list describe the same pages.
        assert sum(e - s for s, e in region._batch_spans) == region.size_bytes
        assert sum(run.nbytes for run in region.runs) == region.size_bytes
        # page_at_index agrees with the flattened batch order.
        flattened = [p for batch in region.batches for p in batch]
        for i in (0, region.page_count // 2, region.page_count - 1):
            assert region.page_at_index(i) is flattened[i]
    for region in live:
        mem.free(region)
    assert mem.allocated_bytes == 0
    assert mem.free_bytes == free_before


@given(
    tags=st.lists(
        st.sampled_from(["tenant-a", "tenant-b", "tenant-c"]),
        min_size=1,
        max_size=6,
    ),
    max_run_pages=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_recycled_tags_survive_fragmentation(tags, max_run_pages):
    """Per-frame residual tags stay exact through fragment + recycle.

    The run-length representation may merge or split spans arbitrarily,
    but the byte an auditor would read from a recycled frame — and the
    tenant tag naming who wrote it — must match a per-frame oracle.
    """
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=max_run_pages * PAGE)
    oracle = {}  # hpa -> ("zero", None) | ("residual", tag)
    for tag in tags:
        region = mem.allocate(6 * PAGE, owner=tag)
        for i in range(region.page_count):
            page = region.page_at_index(i)
            if i % 3 == 0:
                page.write(f"{tag}-secret")
                oracle[page.hpa] = ("residual", f"{tag}-secret")
            elif i % 3 == 1:
                page.zero()
                oracle[page.hpa] = ("zero", None)
            else:
                # Untouched allocation: keeps whatever state the frame
                # already had; pristine frames free as owner-tagged dirt.
                oracle.setdefault(page.hpa, ("residual", tag))
        mem.free(region)

    final = mem.allocate(TOTAL_PAGES * PAGE, owner="auditor")
    for i in range(final.page_count):
        page = final.page_at_index(i)
        kind, tag = oracle.get(page.hpa, ("residual", None))
        if kind == "zero":
            assert page.is_zeroed and page.content_tag is None
        else:
            assert page.is_residual
            assert page.content_tag == tag


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8),
    writes=st.lists(st.integers(min_value=0, max_value=63), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_runs_stay_sorted_disjoint_and_maximally_coalesced(sizes, writes):
    """Structural invariants of the run-length region representation."""
    mem = PhysicalMemory(TOTAL_PAGES * PAGE, PAGE)
    mem.fragment(max_run_bytes=4 * PAGE)
    live = []
    for npages in sizes:
        if npages * PAGE > mem.free_bytes:
            continue
        live.append(mem.allocate(npages * PAGE, owner="w"))
    if not live:
        return
    for w in writes:
        region = live[w % len(live)]
        index = w % region.page_count
        if w % 2:
            region.page_at_index(index).write(f"data-{w}")
        else:
            region.page_at_index(index).zero()
    for region in live:
        runs = region.runs
        for a, b in zip(runs, runs[1:]):
            assert a.end <= b.hpa, "runs overlap or are unsorted"
        # Splitting never inflates the representation past one run per
        # page (adjacent same-state runs from separate retrieval batches
        # are legal until a mutation merges them).
        assert len(runs) <= region.page_count
        # Views resolve through the run list with stable identity.
        for i in (0, region.page_count - 1):
            page = region.page_at_index(i)
            assert region.page_at_index(i) is page
            assert mem.page_at(page.hpa) is page


REGION_PAGES = 10

page_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["zero", "zero_span", "write", "pin", "unpin"]),
        st.integers(min_value=0, max_value=REGION_PAGES - 1),
        st.sampled_from(["a", "b"]),
    ),
    max_size=80,
)


@given(page_ops_strategy)
@example([("zero", 0, "a"), ("zero", 2, "a"), ("zero", 1, "a")])
@example([("write", 3, "a"), ("zero", 2, "a"), ("zero", 3, "a"),
          ("zero", 4, "a")])
@example([("pin", 5, "a"), ("zero", 4, "a"), ("zero", 5, "a"),
          ("unpin", 5, "a")])
@settings(max_examples=300, deadline=None)
def test_page_mutations_match_a_per_page_model(ops):
    """Single-page zero/write/pin/unpin against a per-page dict model.

    Covers both run-edge outcomes of in-order zeroing: a boundary shift,
    and a one-page run that empties into its left neighbour and then
    merges with the run after it (the first two examples).
    """
    mem = PhysicalMemory(16 * PAGE, PAGE)
    region = mem.allocate(REGION_PAGES * PAGE, owner="w")
    base = region.runs[0].hpa
    model = {
        i: (PageContent.RESIDUAL, None, 0) for i in range(REGION_PAGES)
    }
    for kind, index, tag in ops:
        content, old_tag, pins = model[index]
        page = region.page_at_index(index)
        if kind == "zero":
            page.zero()
            model[index] = (PageContent.ZERO, None, pins)
        elif kind == "zero_span":
            hpa = base + index * PAGE
            region.zero_hpa_span(hpa, hpa + PAGE)
            model[index] = (PageContent.ZERO, None, pins)
        elif kind == "write":
            page.write(tag)
            model[index] = (PageContent.DATA, tag, pins)
        elif kind == "pin":
            page.pin()
            model[index] = (content, old_tag, pins + 1)
        elif pins:
            page.unpin()
            model[index] = (content, old_tag, pins - 1)
        else:
            try:
                page.unpin()
            except HardwareError:
                pass
            else:
                raise AssertionError("unpin of an unpinned page succeeded")

        runs = region.runs
        assert [run.hpa for run in runs] == region._starts
        assert runs[0].hpa == base
        assert runs[-1].end == base + REGION_PAGES * PAGE
        for a, b in zip(runs, runs[1:]):
            # One batch: sorted, disjoint and gap-free ...
            assert a.end == b.hpa
            # ... and maximally coalesced.
            assert not a.state_equals(b), f"unmerged neighbours {a} {b}"
        for run in runs:
            assert run.nbytes > 0
            for hpa in range(run.hpa, run.end, PAGE):
                expect = model[(hpa - base) // PAGE]
                assert (run.content, run.content_tag, run.pin_count) == expect
