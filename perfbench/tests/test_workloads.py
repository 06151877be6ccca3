"""Shrunken-shape smoke runs of every workload, untraced and traced."""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import pytest

from perfbench import catalog, run
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_its_gates_and_reports_every_metric(name, trace):
    workload = WORKLOADS[name](5, smoke=True)
    result, gates, measurement, traced = run.benchmark(workload, 0.0, trace)
    assert all(gates.values()), gates
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    specs = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == [spec.name for spec in specs]
    for spec in specs:
        entry = result["metrics"][spec.name]
        assert entry["unit"] == spec.unit
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, spec.name
    assert len(measurement.run_s) >= run.MIN_RUNS
    if trace:
        self_s = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in catalog.LAYERS)
        unwrapped = result["metrics"]["trace.unwrapped_s"]["value"]
        assert self_s + unwrapped == pytest.approx(traced.run_s)


def test_smoke_layers_are_the_expected_ones():
    """omega_fanout never reaches consensus, service, clients or storage."""
    workload = WORKLOADS["omega_fanout"](5, smoke=True)
    result, _, _, _ = run.benchmark(workload, 0.0, True)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for layer in ("consensus", "service", "clients", "storage", "parallel"):
        assert metrics[f"{layer}.self_s"] == 0.0
    assert metrics["core.self_s"] > 0 and metrics["simulation.self_s"] > 0


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark files must fail, printing no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "omega_fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
