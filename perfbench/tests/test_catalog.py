"""The metric catalog, BENCHMARK.json and the benchmark's output agree."""

from __future__ import annotations

import json

from perfbench import catalog, run

DOC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_metric_has_a_valid_name_a_unit_and_a_direction():
    names = [metric.name for metric in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert catalog.NAME_PATTERN.fullmatch(metric.name), metric.name
        assert len(metric.name) <= 64 and metric.name[0].isalnum()
        assert metric.unit and len(metric.unit) <= 16
        assert metric.better in ("lower", "higher")
        assert metric.meaning


def test_end_to_end_bounds_and_setup_metric():
    for metric in catalog.END_TO_END:
        assert 0 < metric.bound <= 0.25, metric.name
    setup = next(metric for metric in catalog.END_TO_END if metric.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in catalog.END_TO_END)


def test_benchmark_json_lists_the_catalog():
    assert DOC["end_to_end"] == catalog.benchmark_json_entries(catalog.END_TO_END, True)
    assert DOC["per_layer"] == catalog.benchmark_json_entries(catalog.PER_LAYER, False)
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]


def test_benchmark_json_names_every_workload():
    from perfbench.workloads import WORKLOADS

    assert [workload["name"] for workload in DOC["workloads"]] == list(WORKLOADS)


def test_grid_percentile_interpolates_inside_the_poll_cell():
    # Half the samples in cell (0, 1], half in (1, 2]: the median is the cell edge.
    samples = [1.0] * 50 + [2.0] * 50
    assert run.percentile(samples, 0.5, grid=1.0) == 1.0
    assert run.percentile(samples, 0.75, grid=1.0) == 1.5
    assert run.percentile(samples, 0.25, grid=1.0) == 0.5
    assert run.mean(samples, grid=1.0) == 1.0
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile([], 0.5) == 0.0
