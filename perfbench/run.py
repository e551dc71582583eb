"""The repository benchmark: host time per simulated container startup.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` is the separate
traced run that gives the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count cells, so ``failed / attempted`` is
the run's failed fraction.  The full result, with the environment stamp
and every cell, is also written under ``perfbench/out/``.

Exits with code 2, printing no result, when the checkout has no
``src/repro`` to measure.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def environment():
    """What the numbers were measured on."""
    from bench import nproc

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no sources to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rows, tracer = bench.run_traced(workload, args.seed, args.seconds)
        metrics = bench.per_layer(workload, rows, tracer)
        result["spans"] = os.path.relpath(tracer.dump(OUT, stem), ROOT)
        result["cells"] = rows
        failures = [row["failures"] for row in rows]
    else:
        cells, setup, workers_kb = bench.run_plain(
            workload, args.seed, args.seconds, SRC)
        metrics, extras = bench.end_to_end(workload, cells, setup, workers_kb)
        result.update(extras, setup_samples=setup)
        for name, value in extras.items():
            print(f"{name} {value:.6g}")
        result["cells"] = [
            {"seed": cell.seed, "wall_s": cell.wall_s,
             "reference_s": cell.reference_s, "summary": cell.summary,
             "failures": cell.failures}
            for cell in cells
        ]
        failures = [cell.failures for cell in cells]
    failed = sum(1 for cell_failures in failures if cell_failures)
    for cell_failures in failures:
        for failure in cell_failures:
            print(f"FAILED {failure}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"failed_frac {failed / len(failures):.4f} frac "
          f"({failed} of {len(failures)} cells)")
    if workload.kind == "cluster" and not args.trace:
        print("paper_err_frac: unvalidated (no paper reference for a "
              f"cluster cell; reported as {metrics['paper_err_frac'][0]})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    result.update(summary)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{stem}.json"), "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
