"""The benchmark's own tests, on reduced-size workloads.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, Cell, conservative_oracle,  # noqa: E402
                       run_cell)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

#: Each workload at a size that runs in about a second.
SMALL = {
    "paper_fastiov_c200": dataclasses.replace(
        WORKLOADS["paper_fastiov_c200"], concurrency=20, pool_cells=2),
    "paper_vanilla_c200": dataclasses.replace(
        WORKLOADS["paper_vanilla_c200"], concurrency=20, pool_cells=2),
    "cluster_poisson_k2": dataclasses.replace(
        WORKLOADS["cluster_poisson_k2"], concurrency=40, hosts=4,
        pool_cells=2),
}


def _units(section):
    return {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_untraced_reports_every_end_to_end_metric(name):
    workload = SMALL[name]
    cells, setup, workers_kb = bench.run_plain(workload, 3, 0, SRC)
    assert [cell.failures for cell in cells] == [[], []]
    assert len(setup) == bench.SETUP_PROBES
    if workload.kind == "cluster":
        assert workers_kb > 0
    metrics, extras = bench.end_to_end(workload, cells, setup, workers_kb)
    assert extras["pooled_startups"] == 2 * workload.concurrency
    assert {k: unit for k, (_v, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _unit in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_traced_reports_every_per_layer_metric(name):
    workload = SMALL[name]
    rows, tracer = bench.run_traced(workload, seed=3, seconds=0)
    assert [row["failures"] for row in rows] == [[]]
    metrics = bench.per_layer(workload, rows, tracer)
    assert {k: unit for k, (_v, unit) in metrics.items()} == _units("per_layer")
    # Layer self times plus the engine residual cover the cell.
    assert 0.9 < metrics["trace_accounted_frac"][0] <= 1.0
    assert metrics["sim.core.residual_s"][0] > 0
    if workload.kind == "cluster":
        assert metrics["cluster.sharded.epochs"][0] > 0
        assert metrics["cluster.wire.frames"][0] > 0
    if workload.preset == "vanilla":
        assert metrics["oskernel.fastiovd.self_s"][0] == 0
    else:
        assert metrics["oskernel.fastiovd.background_zeroed_pages"][0] > 0


def test_generator_entry_points_are_timed_per_resume():
    workload = SMALL["paper_fastiov_c200"]
    rows, tracer = bench.run_traced(workload, seed=0, seconds=0)
    name = "oskernel.kvm.KVM.handle_ept_fault"
    name_id = tracer._name_ids[name]
    resumes = sum(1 for ident in tracer.span_name if ident == name_id)
    calls = tracer.by_name[name][0]
    # Every fault yields at least once (the fault-cost Timeout).
    assert calls == rows[0]["ept_faults"] > 0
    assert resumes >= 2 * calls


def test_tracing_leaves_simulated_results_identical():
    workload = SMALL["paper_fastiov_c200"]
    _summary, plain, _host = run_cell(workload, 5)
    with Tracer() as tracer, tracer.cell(0):
        _summary, traced, _host = run_cell(workload, 5)
    assert traced == plain
    cluster = SMALL["cluster_poisson_k2"]
    plain_summary, _s, _h = run_cell(cluster, 5, shards=1)
    with Tracer() as tracer, tracer.cell(0):
        traced_summary, _s, _h = run_cell(cluster, 5, shards=1)
    assert traced_summary == plain_summary


def test_wrong_oracle_raises_failed_frac():
    workload = SMALL["cluster_poisson_k2"]

    def wrong(workload, seed):
        summary, startups = conservative_oracle(workload, seed)
        return dict(summary, mean=summary["mean"] * 1.01), startups

    cells, _setup, _kb = bench.run_plain(workload, 0, 0, SRC, oracle=wrong)
    failed = sum(1 for cell in cells if cell.failures)
    assert failed / len(cells) > 0
    assert "summary differs" in cells[0].failures[0]


def test_reference_scaling_cancels_host_speed():
    # A host running at half the reference speed: times are halved.
    slow = 2 * bench.REFERENCE_S
    cell = Cell(seed=0, wall_s=2.0, reference_s=slow,
                summary={"count": 100}, startups=[1.0])
    workload = dataclasses.replace(SMALL["paper_vanilla_c200"], pool_cells=1)
    metrics, extras = bench.end_to_end(workload, [cell], [(0.4, slow)], 0)
    assert metrics["wall_us_per_startup"][0] == pytest.approx(10000.0)
    assert extras["unscaled_wall_us_per_startup"] == pytest.approx(20000.0)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert 0 < bench.probe_s(SRC, "reference") < 5


def test_reference_pool_times_every_process_and_stops_them():
    with bench.ReferencePool(2) as pool:
        assert 0 < pool.time() < 5
        procs = pool.procs
    assert len(procs) == 2
    assert all(proc.returncode == 0 for proc in procs)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        CONTRACT["command"] + ["--workload", "paper_vanilla_c200", "--seed",
                               "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
