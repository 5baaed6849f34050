"""Tests of the served-path benchmark itself.

Run from the repository root::

    python3 -m pytest servebench/tests -q

The smoke tests start real ``repro serve`` processes for about a minute
in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_same_seed_same_queries_and_schedule():
    assert workloads.query_texts("DB2", 50, 11) == workloads.query_texts("DB2", 50, 11)
    assert workloads.query_texts("DB2", 50, 11) != workloads.query_texts("DB2", 50, 12)
    population = workloads.stratified_queries("DB2", 11)
    assert population == workloads.stratified_queries("DB2", 11)
    assert population.texts != workloads.stratified_queries("DB2", 12).texts
    assert len(population.texts) == sum(count for _, _, count in workloads.STRATA["DB2"])
    targets = workloads.perishable_cargo("DB2")
    first = workloads.write_schedule(11, 50.0, 4.0, targets)
    assert first == workloads.write_schedule(11, 50.0, 4.0, targets)
    assert first != workloads.write_schedule(12, 50.0, 4.0, targets)
    assert len(first) == 200
    assert {op.kind for op in first} == {"insert", "update", "delete"}


def test_schedule_writes_always_change_the_view():
    targets = workloads.perishable_cargo("DB2")
    quantities = dict(targets)
    inserts = set()
    for op in workloads.write_schedule(5, 50.0, 20.0, targets):
        if op.kind == "update":
            assert op.values["quantity"] != quantities[op.oid]
            quantities[op.oid] = op.values["quantity"]
            assert workloads.QUANTITY_LOW <= op.values["quantity"] <= workloads.QUANTITY_HIGH
        elif op.kind == "insert":
            assert op.values["category"] == "perishable"
            inserts.add(op.index)
        else:
            assert op.insert_index in inserts
            assert op.index - op.insert_index >= workloads.DELETE_LAG
            inserts.remove(op.insert_index)


def test_metric_names_match_benchmark_json():
    import spans
    from run import END_TO_END, WORKLOADS

    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in spans.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in spans.PER_LAYER]


@pytest.mark.parametrize("workload", ["serve-optimize", "serve-write"])
def test_smoke_run_passes_its_checks(workload):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run("--workload", "serve-write", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # Every span-derived metric that serve-write exercises reads above 0:
    # a wrap that silently stops matching its target would read 0.
    exercised = [
        "server.dispatch_self_ms",
        "server.unattributed_ms",
        "server.admission_wait_ms",
        "server.decode_ms",
        "server.encode_ms",
        "query.parse_ms",
        "service.execute_self_ms",
        "service.mutate_self_ms",
        "service.read_lock_wait_ms",
        "service.write_lock_wait_ms",
        "core.optimize_ms",
        "engine.plan_ms",
        "engine.execute_self_ms",
        "engine.store_write_ms",
        "durability.commit_ms",
        "durability.fsyncs_per_write",
        "durability.wal_bytes_per_write",
        "subscriptions.pump_ms",
        "subscriptions.push_bytes",
    ]
    missed = [name for name in exercised if not result["metrics"][name]["value"] > 0]
    assert not missed, missed
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "servebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "serve-optimize", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
