"""Host assembly: build a fully wired simulated server for one preset.

Reproduces the testbed of §3.1: hardware (CPU socket, physical memory,
PCI topology, SR-IOV NIC with pre-created VFs), the kernel substrate
(VFIO with the configured lock policy, KVM, MMU, cgroups, binding,
host network stack, optionally fastiovd), the hypervisor, the selected
CNI plugin, the Kata runtime, the container engine, and the
orchestrator.  A second "storage server" is modeled as a fair-shared
network link (two-server setup of §6.1).
"""

from repro.containers.cni import IpvtapCni, NoNetworkCni, SriovCni
from repro.containers.engine import Containerd
from repro.containers.orchestrator import Orchestrator
from repro.containers.runtime import KataRuntime
from repro.core.presets import get_preset
from repro.hw.iommu import IOMMU
from repro.hw.memory import PhysicalMemory
from repro.hw.nic import SriovNic
from repro.hw.pci import PciDevice, PciTopology
from repro.oskernel.binding import DriverRegistry
from repro.oskernel.cgroup import CgroupManager
from repro.oskernel.fastiovd import Fastiovd
from repro.oskernel.hostnet import HostNetworkStack
from repro.oskernel.kvm import KVM
from repro.oskernel.locks import CoarseLockPolicy, HierarchicalLockPolicy
from repro.oskernel.mmu import HostMMU
from repro.oskernel.vfio import VFIO_DRIVER_NAME, VfioDriver
from repro.sim.core import Simulator
from repro.sim.cpu import FairShareCPU
from repro.sim.rng import Jitter
from repro.spec import PAPER_TESTBED
from repro.virt.hypervisor import Hypervisor

NIC_BUS = 0x3B


class Host:
    """One fully assembled simulated server."""

    def __init__(self, config, spec=None, seed=0, vf_count=None,
                 sim=None, name="host", trace=None, ticker=None):
        """Args:
        config: A :class:`SolutionConfig` (or preset name via
            :func:`build_host`).
        spec: Host cost constants; defaults to the paper testbed.
        seed: Jitter seed; every run with the same (config, spec,
            seed) is bit-identical.
        vf_count: VFs to pre-create (defaults to the NIC maximum,
            256 on the modeled E810).
        sim: Optional shared :class:`Simulator`.  A cluster passes one
            simulator to all of its hosts so they advance on a single
            virtual timeline; standalone hosts build their own.
        name: Diagnostic name (distinguishes hosts within a cluster).
        trace: Optional :class:`repro.obs.recorder.TraceRecorder`.
            Binds to the host's simulator, host-prefixes every lock
            track, and registers the host's pull probes (CPU runnable
            jobs, EPT faults, bytes zeroed, fastiovd backlog).  Tracing
            never changes simulation results.
        ticker: Optional :class:`repro.sim.ticker.DaemonTicker` shared
            across a cluster cell; the host's fastiovd scanner parks on
            it instead of arming a private timer per scan interval.
            Standalone hosts leave it None (one host gains nothing from
            aggregation).
        """
        self.config = config
        self.spec = spec if spec is not None else PAPER_TESTBED
        self.seed = seed
        self.name = name
        spec = self.spec

        # -- simulation substrate --------------------------------------
        #: Whether this host built (and therefore owns) its simulator —
        #: engine-level statistics are attributed to the owner only, so
        #: cluster hosts sharing one simulator never double-report.
        self.owns_sim = sim is None
        self.sim = sim if sim is not None else Simulator()
        self.trace = trace
        if trace is not None:
            trace.bind(self.sim)
        self.jitter = Jitter(seed)
        self.cpu = FairShareCPU(self.sim, cores=spec.cores, name="host-cpu")
        #: The storage-server link: fair-shared among concurrent
        #: downloads (one "core" = the full link).
        self.storage_link = FairShareCPU(self.sim, cores=1, name="storage-link")
        #: Memory-controller write bandwidth for bulk zeroing: up to
        #: ``dram_channels`` streams at full per-stream rate, shared
        #: beyond that.
        self.dram = FairShareCPU(
            self.sim, cores=spec.dram_channels, name="dram-bandwidth"
        )

        # -- hardware ---------------------------------------------------
        self.memory = PhysicalMemory(spec.memory_bytes, spec.page_size)
        self.iommu = IOMMU()
        self.topology = PciTopology()
        self.topology.add_bus(NIC_BUS)
        self.nic = SriovNic(
            model=spec.nic_model,
            max_vfs=spec.nic_max_vfs,
            bandwidth_gbps=spec.nic_bandwidth_gbps,
            topology=self.topology,
            bus_number=NIC_BUS,
            pf_bdf="3b:00.0",
        )
        for index in range(spec.pci_extra_devices):
            # Device numbers above the VF range (VFs occupy 01..20).
            self.topology.attach(
                NIC_BUS, PciDevice(f"3b:40.{index}", f"bridge-{index}")
            )
        if vf_count is None:
            vf_count = spec.nic_max_vfs
        self.vfs = self.nic.pf.create_vfs(vf_count, self.topology, NIC_BUS)

        # -- kernel substrate --------------------------------------------
        self.fastiovd = (
            Fastiovd(self.sim, self.cpu, spec, dram=self.dram,
                     name=f"{name}-fastiovd", ticker=ticker)
            if config.needs_fastiovd
            else None
        )
        lock_factory = (
            HierarchicalLockPolicy
            if config.lock_decomposition
            else CoarseLockPolicy
        )
        self.vfio = VfioDriver(
            self.sim, self.cpu, self.memory, self.iommu, spec,
            lock_policy_factory=lock_factory, jitter=self.jitter,
            fastiovd=self.fastiovd, dram=self.dram,
        )
        self.kvm = KVM(self.sim, self.cpu, spec, fastiovd=self.fastiovd)
        self.mmu = HostMMU(self.sim, self.cpu, self.memory, spec, dram=self.dram)
        self.binding = DriverRegistry(self.sim, spec, self.jitter, self.vfio)
        self.cgroups = CgroupManager(self.sim, spec, self.jitter, cpu=self.cpu)
        self.hostnet = HostNetworkStack(self.sim, spec, self.jitter)
        self.hypervisor = Hypervisor(
            self.sim, self.cpu, self.kvm, self.vfio, self.mmu, spec,
            self.jitter, fastiovd=self.fastiovd,
            pf_mailbox=self.binding.pf_mailbox,
        )

        # -- boot-time VF binding ----------------------------------------
        if config.is_passthrough and not config.rebind_flaw:
            # §5 fix: bind every VF to vfio-pci exactly once after the
            # server boots; this one-time cost is outside the startup
            # path (like VF pre-creation, §2.3).
            for vf in self.vfs:
                vf.driver = VFIO_DRIVER_NAME
                self.vfio.register_device(vf)

        # -- container stack ----------------------------------------------
        self.cni = self._build_cni(config)
        self.runtime = KataRuntime(self, async_vf_init=config.async_vf_init)
        self.engine = Containerd(self, self.cni, self.runtime)
        self.orchestrator = Orchestrator(self, self.engine)

        if trace is not None:
            self._wire_trace(trace)

    def _build_cni(self, config):
        if config.network == "none":
            return NoNetworkCni(self)
        if config.network == "ipvtap":
            return IpvtapCni(self)
        return SriovCni(
            self,
            rebind_flaw=config.rebind_flaw,
            decoupled_zeroing=config.decoupled_zeroing,
            prezeroed_fraction=config.prezeroed_fraction,
            skip_image_mapping=config.skip_image_mapping,
            use_instant_zeroing_list=config.use_instant_zeroing_list,
            proactive_virtio_faults=config.proactive_virtio_faults,
            vdpa=config.vdpa,
            deferred_mapping=config.deferred_mapping,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _host_primitives(self):
        """The host-global sync primitives worth trace scoping."""
        return (
            self.cgroups._mutex,
            self.hostnet.rtnl,
            self.binding._pf_mailbox,
            self.hypervisor._virtiofs_mutex,
            self.engine._store_mutex,
        )

    def _wire_trace(self, trace):
        """Scope lock tracks to this host and register its pull probes."""
        scope = f"{self.name}/"
        for primitive in self._host_primitives():
            primitive.trace_scope = scope
        for devset in self.vfio._devsets.values():
            devset.lock.set_trace_scope(scope)
        owner = self.name
        self.vfio.probe_owner = owner
        trace.add_probe(owner, f"{owner}/cpu", "runnable",
                        lambda: self.cpu.runnable_jobs)
        trace.add_probe(owner, f"{owner}/kvm", "ept_faults",
                        lambda: self.kvm.ept_faults_serviced)
        trace.add_probe(owner, f"{owner}/vfio", "bytes_zeroed",
                        lambda: self.vfio.bytes_zeroed_total)
        fastiovd = self.fastiovd
        if fastiovd is not None:
            fastiovd.probe_owner = owner
            trace.add_probe(owner, f"{owner}/fastiovd", "pending_bytes",
                            fastiovd.pending_bytes)
            trace.add_probe(
                owner, f"{owner}/fastiovd", "background_zeroed_pages",
                lambda: fastiovd.stats.background_zeroed_pages)
            trace.add_probe(
                owner, f"{owner}/fastiovd", "fault_zeroed_pages",
                lambda: fastiovd.stats.fault_zeroed_pages)

    def finalize_trace(self):
        """Fold the host's ad-hoc statistics into the trace registry.

        Call after the simulation ran.  Lock contention stats become
        ``lock/<host>/<name>/*`` counters; CPU utilization a gauge;
        event-engine statistics fold in only for the simulator's owner
        (cluster hosts share one simulator).
        """
        trace = self.trace
        if trace is None:
            return
        registry = trace.registry
        scope = f"{self.name}/"
        for primitive in self._host_primitives():
            registry.ingest_lock_stats(scope + primitive.name,
                                       primitive.stats)
        for devset in self.vfio._devsets.values():
            for lock_name, stats in devset.lock.contention_stats.items():
                registry.ingest_lock_stats(
                    f"{scope}{devset.name}/{lock_name}", stats
                )
        registry.inc(f"{scope}vfio/bytes_zeroed_total",
                     self.vfio.bytes_zeroed_total)
        registry.set_gauge(f"{scope}cpu-utilization",
                           self.cpu.utilization())
        if self.owns_sim:
            registry.ingest_wheel_stats(self.sim.wheel_stats())

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def launch(self, count, **kwargs):
        """Shortcut for ``host.orchestrator.launch``."""
        return self.orchestrator.launch(count, **kwargs)

    def contention_report(self):
        """Host-wide lock/CPU telemetry for bottleneck analysis."""
        report = {
            "cgroup-mutex": self.cgroups.lock_stats,
            "rtnl": self.hostnet.rtnl_stats,
            "pf-mailbox": self.binding.mailbox_stats,
            "cpu-utilization": self.cpu.utilization(),
        }
        for devset in self.vfio._devsets.values():
            for lock_name, stats in devset.lock.contention_stats.items():
                report[f"{devset.name}/{lock_name}"] = stats
        return report

    def __repr__(self):
        return (
            f"<Host {self.name} config={self.config.name!r} seed={self.seed}>"
        )


def build_host(preset_or_config, spec=None, seed=0, vf_count=None,
               sim=None, name="host", trace=None):
    """Build a host from a preset name or a :class:`SolutionConfig`."""
    if isinstance(preset_or_config, str):
        config = get_preset(preset_or_config)
    else:
        config = preset_or_config
    return Host(config, spec=spec, seed=seed, vf_count=vf_count,
                sim=sim, name=name, trace=trace)
