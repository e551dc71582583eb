"""Child processes the benchmark times; each prints its task's seconds.

    python3 perfbench/probe.py reference
    python3 perfbench/probe.py serve
    python3 perfbench/probe.py <host|cluster> <preset> <hosts> <seed>

``reference`` times fixed pure-Python work that does not use ``repro``
(the benchmark also runs :func:`reference` in its own process): build,
index and pickle-round-trip 10,000 small objects, which is
allocation-heavy like the simulator, whose host time it tracks closely
as the machine's speed drifts.  ``serve`` stays alive and times the
task once for every line it reads, printing the seconds, until its
standard input closes.  The last form is the set-up probe: it
imports ``repro`` through the workload's entry point and builds its
first ``Host`` or ``Cluster`` (the benchmark sets ``PYTHONPATH`` to the
checkout's ``src``).
"""

import pickle
import sys
from time import perf_counter


class _Item:
    __slots__ = ("key", "name", "pair")

    def __init__(self, key, name, pair):
        self.key = key
        self.name = name
        self.pair = pair


def reference():
    items = [_Item(i, str(i), [i, i + 1]) for i in range(10000)]
    index = {item.name: item for item in items}
    back = pickle.loads(pickle.dumps([(i.key, i.name, i.pair) for i in items]))
    if len(back) != len(index):
        raise RuntimeError("reference task lost items")


def setup(kind, preset, hosts, seed):
    if kind == "host":
        from repro.core import build_host
        from repro.experiments.runs import launch_preset  # noqa: F401

        build_host(preset, seed=seed)
    else:
        from repro.cluster.churn import run_cluster_cell  # noqa: F401
        from repro.cluster.cluster import Cluster

        Cluster(preset, hosts=hosts, seed=seed)


def serve(lines, out):
    for line in lines:
        repeats = int(line)
        began = perf_counter()
        for _ in range(repeats):
            reference()
        print((perf_counter() - began) / repeats, file=out, flush=True)


def main(argv):
    if argv == ["serve"]:
        serve(sys.stdin, sys.stdout)
        return
    began = perf_counter()
    if argv == ["reference"]:
        reference()
    else:
        setup(argv[0], argv[1], int(argv[2]), int(argv[3]))
    print(perf_counter() - began)


if __name__ == "__main__":
    main(sys.argv[1:])
