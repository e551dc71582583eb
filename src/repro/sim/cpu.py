"""Processor-sharing CPU model.

The paper's second bottleneck — page zeroing during DMA memory mapping
(§3.2.3) — is pure CPU work: at concurrency 200 the host's cores are
saturated by 200 single-threaded zeroing loops, which stretches the
elapsed time of every startup stage.  :class:`FairShareCPU` models a
multi-core socket under the Linux CFS idealization: every runnable job
receives an equal share of the cores, capped at one core per job
(zeroing, guest vCPU work, and memcpy loops are single-threaded).

The model is event-driven and exact, implemented as virtual-service-time
fair queueing: a single cumulative per-job service counter ``V`` is
advanced lazily (``V += rate * elapsed`` on each state change), and each
job is stamped at admission with a *finish tag* ``V + amount``.  A job
completes exactly when ``V`` reaches its tag, so the scheduler only ever
inspects the minimum tag in a heap: ``_advance`` is O(1) and ``_admit``
is O(log n), instead of decrementing ``remaining`` across every runnable
job on every event (O(n), i.e. O(n²) per run at paper concurrency).
With *n* jobs on *C* cores each job runs at ``min(1, C/n)``.
"""

import heapq

from repro.sim.core import Command

_EPSILON = 1e-9


class _CpuJob(Command):
    __slots__ = ("cpu", "amount", "finish_tag", "process")

    def __init__(self, cpu, amount):
        self.cpu = cpu
        self.amount = amount
        self.finish_tag = None
        self.process = None

    def subscribe(self, sim, process):
        self.process = process
        self.cpu._admit(self)


class FairShareCPU:
    """A socket of ``cores`` identical cores shared fairly among jobs.

    Processes obtain CPU time by yielding :meth:`work`::

        yield cpu.work(0.57)   # 0.57 core-seconds of single-thread work

    With idle cores this completes in 0.57 s of virtual time; with the
    socket oversubscribed 4x it takes ~2.28 s.  Utilization and total
    executed core-seconds are tracked for experiment reporting.
    """

    __slots__ = (
        "_sim",
        "cores",
        "name",
        "_virtual",
        "_heap",
        "_admit_seq",
        "_last_update",
        "_version",
        "total_core_seconds",
        "busy_core_seconds",
    )

    def __init__(self, sim, cores, name="cpu"):
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self._sim = sim
        self.cores = cores
        self.name = name
        #: Cumulative core-seconds of service received by any job that has
        #: been runnable the whole time (the fair-queueing virtual clock).
        self._virtual = 0.0
        self._heap = []  # (finish_tag, admit_seq, job)
        self._admit_seq = 0
        self._last_update = sim.now
        self._version = 0
        self.total_core_seconds = 0.0
        self.busy_core_seconds = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def work(self, amount):
        """Return a command performing ``amount`` core-seconds of work.

        ``amount`` may be zero, which completes immediately (useful for
        data-dependent costs that can legitimately be empty).
        """
        if amount < 0:
            raise ValueError(f"negative work amount: {amount}")
        return _CpuJob(self, amount)

    @property
    def runnable_jobs(self):
        return len(self._heap)

    @property
    def rate_per_job(self):
        """Current cores-per-job share (0 when idle)."""
        if not self._heap:
            return 0.0
        return min(1.0, self.cores / len(self._heap))

    def utilization(self):
        """Mean fraction of the socket busy since simulation start."""
        self._advance()
        elapsed = self._sim.now
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (elapsed * self.cores)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, job):
        self._advance()
        if job.amount <= _EPSILON:
            self._sim._ready.append((job.process._on_resume, (None,)))
            return
        job.finish_tag = self._virtual + job.amount
        heapq.heappush(self._heap, (job.finish_tag, self._admit_seq, job))
        self._admit_seq += 1
        self._reschedule()

    def _advance(self):
        """Account for work done since the last state change (O(1))."""
        now = self._sim.now
        elapsed = now - self._last_update
        self._last_update = now
        n = len(self._heap)
        if elapsed <= 0 or not n:
            return
        rate = min(1.0, self.cores / n)
        self._virtual += rate * elapsed
        self.busy_core_seconds += min(n, self.cores) * elapsed
        self.total_core_seconds += rate * elapsed * n

    def _reschedule(self):
        """Schedule the next job completion (invalidating older ones)."""
        self._version += 1
        if not self._heap:
            return
        rate = min(1.0, self.cores / len(self._heap))
        shortest = self._heap[0][0] - self._virtual
        eta = self._sim.now + max(0.0, shortest) / rate
        # Superseded completions still dispatch, as version-guarded
        # no-ops: cancelling them through Timer handles costs more.
        self._sim.schedule(eta, self._on_completion, self._version)

    def _on_completion(self, version):
        if version != self._version:
            return  # superseded by a later job-set change
        self._advance()
        heap = self._heap
        finished = []
        threshold = self._virtual + _EPSILON
        while heap and heap[0][0] <= threshold:
            finished.append(heapq.heappop(heap)[2])
        if not finished:
            # Numerical guard: this event is not stale (the version
            # matched), so it was scheduled for exactly the minimum tag's
            # ETA and no job set change intervened.  If float drift left
            # that tag an epsilon above V — e.g. the per-event progress
            # underflows against the ulp of a large clock value — re-arming
            # would recompute the same ETA and spin forever at zero
            # progress.  The head job is owed completion now; force it.
            job = heapq.heappop(heap)[2]
            self._virtual = job.finish_tag
            finished.append(job)
        ready = self._sim._ready
        for job in finished:
            ready.append((job.process._on_resume, (None,)))
        self._reschedule()

    def __repr__(self):
        return f"<FairShareCPU {self.name} cores={self.cores} jobs={len(self._heap)}>"
