"""Outside tracer: host-time spans around calls into each model layer.

The tracer patches the public entry points of the simulator's layers
from outside the program (class attributes, restored on exit) and
records one span per call.  Generator entry points -- the simulated
processes such as ``KVM.handle_ept_fault`` -- are timed per *resume*:
calling them only creates a generator, and the work happens each time
the engine (or a caller's ``yield from``) sends into it, so each
``send`` is one span.  Spans nest by the dynamic call stack, which is
single-threaded inside one simulation.

Each span records its name, start, end, parent span and cell id.  They
are kept in columnar arrays, for the first cells up to a size bound,
and written out by :meth:`Tracer.dump`.
Self time -- span time minus the time of its child spans -- is summed
per span name online, so per-layer totals need no second pass.

Wrappers only time and count; they never change arguments, results or
the order of anything the simulation does, so a traced cell's results
are identical to an untraced one (the benchmark checks this per cell).
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

# (layer, module, class, attribute).  Attributes named with a leading
# underscore are the entry points the engine itself calls for a layer:
# the CPU's command hook and completion callback, and fastiovd's two
# daemon process bodies.  Their work is the layer's, so leaving them
# out would move it into ``sim.core``'s residual.
SPAN_TARGETS = (
    ("sim.core", "repro.sim.core", "Simulator", "run"),
    ("sim.cpu", "repro.sim.cpu", "FairShareCPU", "work"),
    ("sim.cpu", "repro.sim.cpu", "_CpuJob", "subscribe"),
    ("sim.cpu", "repro.sim.cpu", "FairShareCPU", "_on_completion"),
    ("hw.memory", "repro.hw.memory", "PhysicalMemory", "allocate"),
    ("hw.memory", "repro.hw.memory", "PhysicalMemory", "free"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "page_view"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "page_at_index"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "index_spans"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "write_index_span"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "read_index_span"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "zero_hpa_span"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "zeroed_page_count"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "dirty_spans"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "zero_first_dirty"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "zero_all_dirty"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "pin_all"),
    ("hw.memory", "repro.hw.memory", "AllocatedRegion", "unpin_all"),
    ("hw.memory", "repro.hw.memory", "Page", "zero"),
    ("hw.memory", "repro.hw.memory", "Page", "write"),
    ("hw.memory", "repro.hw.memory", "Page", "read"),
    ("hw.memory", "repro.hw.memory", "Page", "pin"),
    ("hw.memory", "repro.hw.memory", "Page", "unpin"),
    ("hw.ept", "repro.hw.ept", "EPT", "insert"),
    ("hw.ept", "repro.hw.ept", "EPT", "translate"),
    ("hw.ept", "repro.hw.ept", "EPT", "invalidate"),
    ("oskernel.kvm", "repro.oskernel.kvm", "KVM", "handle_ept_fault"),
    ("oskernel.kvm", "repro.oskernel.kvm", "KVM", "guest_access"),
    ("oskernel.kvm", "repro.oskernel.kvm", "KVM", "guest_touch_range"),
    ("oskernel.kvm", "repro.oskernel.kvm", "KVM", "host_write_range"),
    ("oskernel.kvm", "repro.oskernel.kvm", "KVM", "host_read_range"),
    ("oskernel.vfio", "repro.oskernel.vfio", "VfioDriver", "dma_map"),
    ("oskernel.vfio", "repro.oskernel.vfio", "VfioDriver", "dma_unmap"),
    ("oskernel.vfio", "repro.oskernel.vfio", "VfioDriver", "open_device"),
    ("oskernel.vfio", "repro.oskernel.vfio", "VfioDriver", "close_device"),
    ("oskernel.vfio", "repro.oskernel.vfio", "VfioDriver", "reset_device"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "on_ept_fault"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "register_lazy"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd",
     "register_instant"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "forget_pages"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "forget_region"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "drop_pid"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "_scan_loop"),
    ("oskernel.fastiovd", "repro.oskernel.fastiovd", "Fastiovd", "_zero_share"),
)

#: The span that brackets one whole cell; its self time is what no
#: layer claims (host assembly, spawning, summarising).
CELL_SPAN = "bench.cell"

#: Spans are stored for the cells that start before this many are
#: (about 14 MB); later cells are only summed per span name.
MAX_SPANS = 500_000

#: The span name whose self time is ``sim.core.residual_s``: engine
#: dispatch plus every callback no wrapped layer claims.
RUN_SPAN = "sim.core.Simulator.run"


def layer_of(span_name):
    """``"hw.memory.Page.zero"`` -> ``"hw.memory"``."""
    parts = span_name.split(".")
    return ".".join(parts[:2])


class Tracer:
    """Records spans for the calls it wraps while installed.

    Use as a context manager around the code to trace; call
    :meth:`cell` around each cell so spans carry its id.
    """

    def __init__(self):
        self._names = []
        self._name_ids = {}
        # Columnar span store: one entry per span, appended at begin,
        # for the cells that start while it holds under MAX_SPANS.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.storing = True
        # Open spans: parallel stacks of stored index (-1 if not
        # stored), start time and child time.
        self._index = []
        self._start = []
        self._child = []
        #: name -> [calls, total_s, self_s]
        self.by_name = {}
        self.cell_id = -1
        #: Live objects seen in the current cell (read after it runs).
        self.hosts = []
        self.records = []
        #: Run count per region, over every cell: sampled when the
        #: region is freed, else at the end of its cell.
        self.region_runs = []
        self._live_regions = {}
        self._saved = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _name_id(self, name):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self.by_name[name] = [0, 0.0, 0.0]
        return ident

    def _begin(self, name_id):
        if self.storing:
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._index[-1] if self._index else -1)
            self.span_cell.append(self.cell_id)
            self.span_end.append(0.0)
        else:
            index = -1
        self._index.append(index)
        self._child.append(0.0)
        start = perf_counter()
        self._start.append(start)
        if index >= 0:
            self.span_start.append(start)

    def _end(self, name):
        end = perf_counter()
        index = self._index.pop()
        if index >= 0:
            self.span_end[index] = end
        duration = end - self._start.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += duration
        entry = self.by_name[name]
        entry[1] += duration
        entry[2] += duration - child

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_call(self, name, func):
        name_id = self._name_id(name)
        entry = self.by_name[name]
        begin = self._begin
        end = self._end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entry[0] += 1
            begin(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                end(name)

        return traced

    def _wrap_generator(self, name, func):
        name_id = self._name_id(name)
        entry = self.by_name[name]
        begin = self._begin
        end = self._end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entry[0] += 1
            return _resumes(func(*args, **kwargs), name, name_id, begin, end)

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        try:
            for layer, module_name, class_name, attribute in SPAN_TARGETS:
                owner = getattr(importlib.import_module(module_name), class_name)
                func = owner.__dict__[attribute]
                name = f"{layer}.{class_name}.{attribute}"
                wrap = (self._wrap_generator
                        if inspect.isgeneratorfunction(func)
                        else self._wrap_call)
                self._patch(owner, attribute, wrap(name, func))
            self._install_observers()
        except BaseException:
            self._restore()
            raise
        return self

    def _install_observers(self):
        """Capture the objects whose counters are read after a cell."""
        from repro.core.host import Host
        from repro.hw.memory import PhysicalMemory
        from repro.metrics.timeline import StartupRecord

        tracer = self

        def observe_init(cls, sink):
            original = cls.__init__

            @functools.wraps(original)
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                getattr(tracer, sink).append(obj)

            self._patch(cls, "__init__", init)

        observe_init(Host, "hosts")
        observe_init(StartupRecord, "records")

        allocate = PhysicalMemory.allocate  # already span-wrapped
        free = PhysicalMemory.free

        @functools.wraps(allocate)
        def allocate_observed(memory, *args, **kwargs):
            region = allocate(memory, *args, **kwargs)
            tracer._live_regions[id(region)] = region
            return region

        @functools.wraps(free)
        def free_observed(memory, region):
            free(memory, region)
            if tracer._live_regions.pop(id(region), None) is not None:
                tracer.region_runs.append(len(region.runs))

        self._patch(PhysicalMemory, "allocate", allocate_observed)
        self._patch(PhysicalMemory, "free", free_observed)

    def _restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __exit__(self, exc_type, exc, tb):
        self._restore()
        return False

    # ------------------------------------------------------------------
    # cells
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def cell(self, cell_id):
        """One root span around one cell; spans inside carry its id."""
        self.cell_id = cell_id
        self.storing = len(self.span_start) < MAX_SPANS
        name_id = self._name_id(CELL_SPAN)
        self.by_name[CELL_SPAN][0] += 1
        self._begin(name_id)
        try:
            yield self
        finally:
            self._end(CELL_SPAN)

    def reset_cell_objects(self):
        """Drop the objects captured from the last cell."""
        self.hosts = []
        self.records = []
        self._live_regions = {}

    def finish_cell_regions(self):
        """Sample the run count of regions still allocated."""
        for region in self._live_regions.values():
            self.region_runs.append(len(region.runs))
        self._live_regions = {}

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def layer_totals(self):
        """layer -> {"calls", "self_s"} over every span name."""
        layers = {}
        for name, (calls, _total, self_s) in self.by_name.items():
            layer = layers.setdefault(layer_of(name),
                                      {"calls": 0, "self_s": 0.0})
            layer["calls"] += calls
            layer["self_s"] += self_s
        return layers

    def dump(self, directory, stem):
        """Write the stored spans: a JSON header plus one binary file per
        column; returns the header's path."""
        os.makedirs(directory, exist_ok=True)
        columns = {
            "name": self.span_name,
            "parent": self.span_parent,
            "cell": self.span_cell,
            "start": self.span_start,
            "end": self.span_end,
        }
        header = {
            "spans": len(self.span_start),
            "names": self._names,
            "columns": {},
            "by_name": self.by_name,
        }
        for column, values in columns.items():
            path = os.path.join(directory, f"{stem}.{column}.bin")
            with open(path, "wb") as handle:
                values.tofile(handle)
            header["columns"][column] = {
                "file": os.path.basename(path),
                "typecode": values.typecode,
            }
        path = os.path.join(directory, f"{stem}.spans.json")
        with open(path, "w") as handle:
            json.dump(header, handle)
        return path


def _resumes(gen, name, name_id, begin, end):
    """Drive ``gen`` on behalf of its caller, one span per resume."""
    send_value = None
    thrown = None
    while True:
        begin(name_id)
        try:
            if thrown is None:
                command = gen.send(send_value)
            else:
                command, thrown = gen.throw(thrown), None
        except StopIteration as stop:
            return stop.value
        finally:
            end(name)
        try:
            send_value = yield command
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # handed to the wrapped generator
            thrown = exc
            send_value = None
