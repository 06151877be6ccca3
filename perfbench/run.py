#!/usr/bin/env python3
"""The repository benchmark: one workload, from a seed, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_durable_write --seed 7 --seconds 12 --trace 0

``--trace 0`` repeats set-up and timed run of the workload for about
``--seconds`` host seconds (at least twice) with tracing off and prints every
end-to-end metric.  ``--trace 1`` does the same untraced runs, then one more
run with every layer entry point wrapped, and prints every per-layer metric;
its spans go to ``perfbench/out/<workload>.spans.jsonl``.

Every invocation checks the workload's correctness gates.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every gate passed.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalog  # noqa: E402
from perfbench.spans import EntryPoint, SpanRecorder, current, top_level_time  # noqa: E402

if TYPE_CHECKING:
    from perfbench.workloads import Outcome

SPANS_DIR = ROOT / "perfbench" / "out"
#: Timed runs per invocation at the least (the fingerprint gate compares them).
MIN_RUNS = 2
#: Set-ups timed per timed run, spread over the invocation; setup_s is their median.
SETUPS_PER_RUN = 4
#: Largest share of the traced run that may lie outside every span.
MAX_UNWRAPPED_SHARE = 0.05

ENTRY_POINTS = tuple(
    EntryPoint(target, layer)
    for layer, targets in (
        ("simulation", (
            "repro.simulation.scheduler:EventScheduler.run_until",
            "repro.simulation.network:Network.send",
            "repro.simulation.network:Network.broadcast",
        )),
        ("core", (
            "repro.core.omega_base:RotatingStarOmegaBase.on_message",
            "repro.core.omega_base:RotatingStarOmegaBase.on_timer",
        )),
        ("consensus", (
            "repro.consensus.replicated_log:ReplicatedLog.on_message",
            "repro.consensus.replicated_log:ReplicatedLog.on_timer",
            "repro.consensus.replicated_log:ReplicatedLog.submit",
        )),
        ("service", (
            "repro.service.sharding:ShardedService.submit",
            "repro.service.sharding:ShardedService.submit_read",
            "repro.service.state_machine:KeyValueStore.apply",
        )),
        ("clients", (
            "repro.service.clients:ClosedLoopClient._issue_next",
            "repro.service.clients:ClosedLoopClient._poll",
        )),
        ("storage", (
            "repro.storage.stable_store:StableStore.put",
            "repro.storage.stable_store:StableStore.delete",
            "repro.storage.snapshot:SnapshotManager.take_snapshot",
            "repro.storage.snapshot:SnapshotManager.install",
        )),
        ("parallel", (
            "repro.simulation.parallel:run_parallel_service",
            "repro.simulation.parallel:run_shard",
        )),
    )
    for target in targets
)


# ------------------------------------------------------------------- statistics --
def percentile(samples: Sequence[float], q: float, grid: Optional[float] = None) -> float:
    """The *q*-quantile of *samples* (0 for no samples).

    Without a grid: linear interpolation between order statistics.  With a
    grid: a sample ``k * grid`` was observed at the first client poll after
    the operation completed, so it stands for a value in
    ``((k - 1) * grid, k * grid]``; the quantile interpolates inside that cell.
    """
    if not samples:
        return 0.0
    if grid is None:
        ordered = sorted(samples)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    cells = Counter(round(sample / grid) for sample in samples)
    target = q * len(samples)
    below = 0
    for cell in sorted(cells):
        count = cells[cell]
        if below + count >= target:
            return (cell - 1 + (target - below) / count) * grid
        below += count
    return max(cells) * grid


def mean(samples: Sequence[float], grid: Optional[float] = None) -> float:
    """Mean of *samples* (0 for none); on a grid each sample counts as the
    middle of its cell, as in :func:`percentile`."""
    if not samples:
        return 0.0
    offset = grid / 2 if grid is not None else 0.0
    return sum(samples) / len(samples) - offset


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def timed(fn):
    """``(host seconds, result)`` of ``fn()``, after a full collection so one
    run's garbage is not collected inside the next one's timing."""
    gc.collect()
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def run_prepared(prepared) -> Tuple[float, Outcome]:
    """Time ``prepared.run()``; return its host seconds and the outcome."""
    run_s, _ = timed(prepared.run)
    return run_s, prepared.outcome()


def per(value: float, base: float) -> float:
    return value / base if base else 0.0


# ------------------------------------------------------------------ measurement --
class Measurement:
    """Untraced set-ups and timed runs of one workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setup_s: List[float] = []
        self.run_s: List[float] = []
        self.outcomes: List[Outcome] = []
        #: The pool workload's inline run in this process (None otherwise).
        self.reference: Optional[Outcome] = None
        self.reference_s = 0.0

    def run(self, seconds: float) -> None:
        workload = self.workload
        begin = perf_counter()
        if not workload.single_process:
            # The pool's shards run in worker processes; one inline run here
            # yields the client latencies and the fingerprint the pool must match.
            self.reference_s, self.reference = run_prepared(workload.reference())
        while True:
            for _ in range(SETUPS_PER_RUN - 1):
                self.setup_s.append(timed(workload.build)[0])
            setup_s, prepared = timed(workload.build)
            run_s, outcome = run_prepared(prepared)
            del prepared  # free this run's system before the next set-up
            self.setup_s.append(setup_s)
            self.run_s.append(run_s)
            self.outcomes.append(outcome)
            elapsed = perf_counter() - begin
            # Stop once one more run of the average length would overshoot.
            if len(self.run_s) >= MIN_RUNS and elapsed * (1 + 1 / len(self.run_s)) > seconds:
                break

    @property
    def all_outcomes(self) -> List[Outcome]:
        return self.outcomes + ([self.reference] if self.reference is not None else [])

    @property
    def observed(self) -> Outcome:
        """The outcome whose client latencies the metrics use."""
        return self.reference if self.reference is not None else self.outcomes[0]

    @property
    def untraced_s(self) -> float:
        """Host seconds of the untraced run a traced run is compared with."""
        if self.reference is not None:
            return self.reference_s
        return statistics.median(self.run_s)

    def gates(self) -> Dict[str, bool]:
        gates: Dict[str, bool] = {}
        for outcome in self.all_outcomes:
            for name, passed in outcome.gates.items():
                gates[name] = gates.get(name, True) and passed
        prints = {outcome.fingerprint for outcome in self.outcomes}
        gates["same_fingerprint_every_run"] = len(prints) == 1
        if self.reference is not None:
            gates["pool_matches_inline"] = prints == {self.reference.fingerprint}
        return gates

    def end_to_end(self) -> Dict[str, float]:
        observed = self.observed
        latencies, grid = observed.latencies, observed.poll
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_per_s": observed.completed / statistics.median(self.run_s),
            "lat_mean_vt": mean(latencies, grid),
            "lat_p90_vt": percentile(latencies, 0.90, grid),
            "vt_throughput": observed.completed / observed.horizon,
            "op_ok_ratio": per(observed.ok, observed.issued),
            "peak_rss_mb": peak_rss_mb(),
        }

    def pool_split(self) -> Dict[str, float]:
        """The participation/overhead split of the untraced runs.

        A single-process workload is its own one worker, busy for the whole
        run: participation 1, overhead 0, speedup 1.
        """
        run = statistics.median(self.run_s)
        if self.workload.single_process:
            return {"parallel.shard_busy_s": run, "parallel.participation": 1.0,
                    "parallel.overhead_s": 0.0, "parallel.pool_speedup": 1.0}
        workers = self.workload.workers
        busy = statistics.median(outcome.counters["shard_busy_s"] for outcome in self.outcomes)
        return {
            "parallel.shard_busy_s": busy,
            "parallel.participation": busy / (workers * run),
            "parallel.overhead_s": run - busy / workers,
            "parallel.pool_speedup": self.reference_s / run,
        }


class TracedRun:
    """One run with every layer entry point wrapped in a span."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.recorder = SpanRecorder()
        self.run_s = 0.0
        self.outcome: Optional[Outcome] = None
        self.restored = False

    def run(self) -> None:
        workload = self.workload
        originals = {point.target: current(point.target) for point in ENTRY_POINTS}
        self.recorder.install(ENTRY_POINTS)
        try:
            # Built after the wrappers are in: the simulator binds handlers at set-up.
            prepared = workload.build() if workload.single_process else workload.reference()
            self.recorder.clear()  # the set-up is not part of the traced run
            self.run_s, self.outcome = run_prepared(prepared)
        finally:
            self.recorder.restore()
        self.restored = all(current(target) is fn for target, fn in originals.items())

    @property
    def unwrapped_s(self) -> float:
        return self.run_s - top_level_time(self.recorder)

    def gates(self, untraced: Measurement) -> Dict[str, bool]:
        return {
            "traced_fingerprint_matches": self.outcome.fingerprint == untraced.observed.fingerprint,
            "wrappers_restored": self.restored,
            "self_times_cover_run": 0.0 <= self.unwrapped_s <= MAX_UNWRAPPED_SHARE * self.run_s,
        }

    def per_layer(self, untraced: Measurement) -> Dict[str, float]:
        outcome, recorder = self.outcome, self.recorder
        calls = recorder.call_counts()
        inclusive = recorder.inclusive_times()
        counters = outcome.counters

        def count(*methods: str) -> int:
            return sum(calls[_target(method)] for method in methods)

        def spent(*methods: str) -> float:
            return sum(inclusive[_target(method)] for method in methods)

        ops = outcome.completed
        client_events = count("ClosedLoopClient._issue_next", "ClosedLoopClient._poll")
        msgs = counters["msgs_sent"]
        core_msgs = counters["core_msgs"]
        served = counters.get("lease_reads_served", 0)
        fallbacks = counters.get("lease_read_fallbacks", 0)
        decided = counters.get("decided_cmds", 0)
        writes = count("StableStore.put", "StableStore.delete")
        metrics = {
            "simulation.events": counters["events"],
            "simulation.protocol_events": counters["events"] - client_events,
            "simulation.client_events": client_events,
            "simulation.send_calls": count("Network.send", "Network.broadcast"),
            "simulation.send_s": spent("Network.send", "Network.broadcast"),
            "simulation.msgs_sent": msgs,
            "simulation.msgs_per_op": per(msgs, ops),
            "core.handler_calls": count("RotatingStarOmegaBase.on_message",
                                        "RotatingStarOmegaBase.on_timer"),
            "core.msgs_sent": core_msgs,
            "core.leader_changes": counters["leader_changes"],
            "core.leader_recovery_vt": counters.get("leader_recovery_vt", 0.0),
            "consensus.handler_calls": count("ReplicatedLog.on_message", "ReplicatedLog.on_timer"),
            "consensus.msgs_per_op": per(msgs - core_msgs, ops),
            "consensus.cmds_per_instance": per(decided, counters.get("decided_instances", 0)),
            "consensus.catchup_polls": counters.get("catchup_polls", 0),
            "consensus.lease_reads_served": served,
            "consensus.lease_read_fallbacks": fallbacks,
            "consensus.lease_hit_ratio": per(served, served + fallbacks),
            "service.submit_calls": count("ShardedService.submit", "ShardedService.submit_read"),
            "service.submit_s": spent("ShardedService.submit", "ShardedService.submit_read"),
            "service.apply_calls": count("KeyValueStore.apply"),
            "service.apply_s": spent("KeyValueStore.apply"),
            "service.duplicate_ratio": per(counters.get("duplicates", 0), decided),
            "clients.callbacks": client_events,
            "clients.polls_per_op": per(count("ClosedLoopClient._poll"), ops),
            "clients.lat_samples": len(outcome.latencies),
            "clients.lat_p50_vt": percentile(outcome.latencies, 0.50, outcome.poll),
            "clients.lat_p99_vt": percentile(outcome.latencies, 0.99, outcome.poll),
            "storage.writes": writes,
            "storage.writes_per_op": per(writes, ops),
            "storage.write_s": spent("StableStore.put", "StableStore.delete"),
            "storage.snapshots": count("SnapshotManager.take_snapshot"),
            "storage.snapshot_s": spent("SnapshotManager.take_snapshot", "SnapshotManager.install"),
            "storage.snapshot_restores": counters.get("snapshot_restores", 0),
            "storage.peak_decided_residency": counters.get("peak_decided_residency", 0),
            "trace.overhead_ratio": self.run_s / untraced.untraced_s,
            "trace.run_s": self.run_s,
            "trace.unwrapped_s": self.unwrapped_s,
            "trace.spans": len(recorder),
        }
        self_s = recorder.layer_self_times()
        for layer in catalog.LAYERS:
            metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics.update(untraced.pool_split())
        return metrics


def _target(method: str) -> str:
    """The entry point named ``Owner.attr`` (or a bare function name)."""
    for point in ENTRY_POINTS:
        if point.target.endswith(":" + method):
            return point.target
    raise KeyError(method)


# ---------------------------------------------------------------------- driver --
def benchmark(workload, seconds: float, trace: bool):
    """Measure *workload*: the result object the command prints, the gates,
    the untraced measurement and the traced run (``None`` unless *trace*)."""
    measurement = Measurement(workload)
    measurement.run(seconds)
    gates = measurement.gates()
    outcomes = measurement.all_outcomes
    traced = None
    if trace:
        traced = TracedRun(workload)
        traced.run()
        gates.update(traced.gates(measurement))
        outcomes = outcomes + [traced.outcome]
        metrics, specs = traced.per_layer(measurement), catalog.PER_LAYER
    else:
        metrics, specs = measurement.end_to_end(), catalog.END_TO_END
    failed_gates = [name for name, passed in sorted(gates.items()) if not passed]
    result = {
        "correct": not failed_gates,
        "attempted": sum(outcome.issued for outcome in outcomes),
        "failed": sum(outcome.issued - outcome.completed for outcome in outcomes) + len(failed_gates),
        "metrics": {spec.name: {"value": metrics[spec.name], "unit": spec.unit} for spec in specs},
    }
    return result, gates, measurement, traced


def print_report(workload, result: Dict, gates: Dict[str, bool], measurement, traced) -> None:
    """Human-readable lines that precede the result object."""
    latencies, grid = measurement.observed.latencies, measurement.observed.poll
    print(f"workload {workload.name}: {len(measurement.run_s)} timed runs "
          f"(run_s {', '.join(f'{s:.3f}' for s in measurement.run_s)}), "
          f"{len(measurement.setup_s)} set-ups")
    print(f"latency samples {len(latencies)}, poll grid {grid}: "
          f"p50 {percentile(latencies, 0.5, grid):.4f} p99 {percentile(latencies, 0.99, grid):.4f} "
          f"(as observed: mean {mean(latencies):.4f} p50 {percentile(latencies, 0.5):.4f} "
          f"p90 {percentile(latencies, 0.9):.4f} p99 {percentile(latencies, 0.99):.4f})")
    for name, passed in sorted(gates.items()):
        print(f"gate {name}: {'ok' if passed else 'FAILED'}")
    if traced is not None:
        self_s = traced.recorder.layer_self_times()
        for layer in catalog.LAYERS:
            share = per(self_s.get(layer, 0.0), traced.run_s)
            print(f"layer {layer:<10} self {self_s.get(layer, 0.0):9.4f} s {share:7.1%}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    result, gates, measurement, traced = benchmark(workload, args.seconds, bool(args.trace))
    if traced is not None:
        traced.recorder.write(SPANS_DIR / f"{workload.name}.spans.jsonl")
    print_report(workload, result, gates, measurement, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
