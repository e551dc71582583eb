"""A multi-host cluster on one virtual timeline.

The paper's experiments stop at one server because that is where the
kernel bottlenecks live; production serverless platforms (Quark-style
secure-container fleets) spread the same burst over many servers.
:class:`Cluster` instantiates N fully wired :class:`~repro.core.host.Host`
models that share a single :class:`~repro.sim.core.Simulator`, so a
10,000-startup burst is simulated as one deterministic event stream —
every host's locks, CPUs, DRAM bandwidth, and VF pool are independent,
but virtual time is global.

Determinism: host *i* draws its jitter from ``Jitter(seed).fork("host-i")``,
so adding hosts never perturbs the draws of existing ones, and a
cluster run is a pure function of (config, spec, hosts, seed).
"""

from repro.core.presets import get_preset
from repro.sim.core import Simulator
from repro.sim.rng import Jitter
from repro.sim.ticker import DaemonTicker
from repro.spec import PAPER_TESTBED

from repro.cluster.placement import make_placement
from repro.core.host import Host


class Cluster:
    """N simulated hosts sharing one virtual clock.

    Args:
        preset_or_config: Solution preset name (or a SolutionConfig)
            applied to every host.
        hosts: Number of hosts.
        spec: Per-host :class:`~repro.spec.HostSpec` (default: paper
            testbed).
        seed: Cluster seed; per-host jitter streams are CRC-forked.
        vf_count: VFs to pre-create per host (default: NIC maximum).
        placement: "least-loaded" (default) or "round-robin".
    """

    def __init__(self, preset_or_config, hosts=4, spec=None, seed=0,
                 vf_count=None, placement="least-loaded", trace=None):
        if hosts <= 0:
            raise ValueError(f"hosts must be positive, got {hosts}")
        if isinstance(preset_or_config, str):
            config = get_preset(preset_or_config)
        else:
            config = preset_or_config
        self.config = config
        self.seed = seed
        self.sim = Simulator()
        #: Optional flight recorder shared by every host (one simulator,
        #: one timeline); tracks stay disjoint because each host scopes
        #: its locks/daemons with its own name.
        self.trace = trace
        if trace is not None:
            trace.bind(self.sim)
        self.placement = make_placement(placement)
        #: Cell-wide aggregated scan tick: every host's fastiovd scanner
        #: parks on this one ticker, so an idle interval costs one event
        #: for the whole cell instead of one per host.
        scan_spec = spec if spec is not None else PAPER_TESTBED
        self.ticker = DaemonTicker(
            self.sim, scan_spec.fastiovd_scan_interval_s
        )
        base = Jitter(seed)
        self.hosts = [
            Host(
                config,
                spec=spec,
                seed=base.fork(f"host-{index}").seed,
                vf_count=vf_count,
                sim=self.sim,
                name=f"host{index}",
                trace=trace,
                ticker=self.ticker,
            )
            for index in range(hosts)
        ]
        #: Containers currently placed on each host (driver-maintained).
        self.loads = [0] * hosts
        #: Peak concurrent placements per host — the placement-skew
        #: metric the scale table reports.
        self.peak_loads = [0] * hosts

    def place(self):
        """Pick a host for a new container; returns its index."""
        index = self.placement.pick(self.loads)
        load = self.loads[index] + 1
        self.loads[index] = load
        if load > self.peak_loads[index]:
            self.peak_loads[index] = load
        return index

    def unplace(self, index):
        """Return a container's slot to the host at ``index``."""
        self.loads[index] -= 1

    @property
    def size(self):
        return len(self.hosts)

    def free_vf_total(self):
        """Free VFs across the cluster (None for non-SR-IOV presets)."""
        totals = [getattr(host.cni, "free_vf_count", None) for host in self.hosts]
        if any(total is None for total in totals):
            return None
        return sum(totals)

    def __repr__(self):
        return (
            f"<Cluster {self.size}x {self.config.name!r} "
            f"placement={self.placement.name}>"
        )
