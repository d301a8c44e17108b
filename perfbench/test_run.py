"""Self-test of the benchmark: every workload at n = 1000, in both modes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--n", "1000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    printed = {line.split()[0]: line for line in lines[:-1] if line.strip()}
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert f" {m['unit']}" in printed[m["name"]]
        if isinstance(entry["value"], (int, float)):
            continue
        # At n = 1000 a query stream may never take one of the LCA cases.
        assert m["name"].startswith("cover.lca_us."), entry
        assert entry["unavailable"] == "no query took this case"
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert printed["error_rate"].split()[1:3] == ["0", "ratio"]
    assert printed["ops_failed"].split()[1:3] == ["0", "count"]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_unavailable_probe_is_recorded():
    import layers

    metrics = {}
    layers.probe(metrics, ["a", "b"], lambda: object().registry)
    assert metrics["a"]["value"] is None
    assert metrics["b"]["unavailable"].startswith("AttributeError:")


def test_resident_walk_agrees_with_tracemalloc():
    """The object-graph walk behind resident_bits_per_elem against tracemalloc,
    which is too slow to run at the benchmark's sizes."""
    import run
    from workloads import permutation, rmq_queries

    lib = run.import_library()
    n = 3000
    blob = lib.RmqIndex.build(permutation(n, 5)).to_bytes()
    queries = rmq_queries(n, 5, count=2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = lib.RmqIndex.from_bytes(blob)
        for i, j in queries:
            index.query(i, j)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.8 < run.deep_size(index) / traced < 1.25


def test_yardstick_answers_range_minima():
    """The yardstick is a real sparse-table RMQ, so its time means what the
    README says."""
    import numpy as np
    import yardstick

    y = yardstick.Yardstick()
    values = np.asarray(y.levels[0])
    for i, j in y.queries[:500]:
        level = (j - i + 1).bit_length() - 1
        row = y.levels[level]
        assert min(row[i - 1], row[j - (1 << level)]) == values[i - 1:j].min()
