"""Every metric the benchmark reports: name, unit, direction, and what it means.

``BENCHMARK.json`` at the repository root lists the same metrics (a test keeps
the two equal).  End-to-end metrics are measured with tracing off and carry the
bound by which a change may worsen them; per-layer metrics come from the
separate traced run and carry no bound.

Each workload completes *operations*.  On the key-value workloads an operation
is one client command, from issue to the poll that observes it applied.  On
``omega_fanout`` it is one leader re-election as seen by one correct process:
it starts when the trusted leader crashes and ends when that process outputs
the leader it then keeps.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Tuple

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    bound: Optional[float] = None  # end-to-end only


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "host seconds to build the system or service and start its clients "
           "(median of 4 set-ups per timed run)", 0.25),
    Metric("ops_per_s", "1/s", "higher",
           "operations completed per host second of the timed run", 0.25),
    Metric("lat_mean_vt", "vt", "lower",
           "mean operation latency in virtual time", 0.2),
    Metric("lat_p90_vt", "vt", "lower",
           "90th-percentile operation latency in virtual time", 0.2),
    Metric("vt_throughput", "1/vt", "higher",
           "operations completed per unit of virtual time", 0.2),
    Metric("op_ok_ratio", "ratio", "higher",
           "share of issued operations that completed without a retransmit", 0.05),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the processes that ran the workload", 0.2),
)

PER_LAYER: Tuple[Metric, ...] = (
    # simulation: scheduler, network, process shells, fault injection
    Metric("simulation.events", "count", "lower", "scheduler events executed"),
    Metric("simulation.protocol_events", "count", "lower",
           "events that were not client callbacks (deliveries, timers, faults)"),
    Metric("simulation.client_events", "count", "lower",
           "client callbacks (_issue_next and _poll)"),
    Metric("simulation.self_s", "s", "lower", "self time of the event loop and network"),
    Metric("simulation.send_calls", "count", "lower", "Network.send and broadcast calls"),
    Metric("simulation.send_s", "s", "lower", "time inside Network.send and broadcast"),
    Metric("simulation.msgs_sent", "count", "lower", "messages sent, all layers"),
    Metric("simulation.msgs_per_op", "msgs/op", "lower", "messages sent per operation"),
    # core: the Omega constructions
    Metric("core.handler_calls", "count", "lower", "Omega on_message and on_timer calls"),
    Metric("core.self_s", "s", "lower", "self time of the Omega handlers"),
    Metric("core.msgs_sent", "count", "lower", "ALIVE and SUSPICION messages sent"),
    Metric("core.leader_changes", "count", "lower", "leader outputs changed, all processes"),
    Metric("core.leader_recovery_vt", "vt", "lower",
           "from the last leader crash until every correct process keeps the "
           "final leader (0 when no leader crashes)"),
    # consensus: replicated log, leases, batching
    Metric("consensus.handler_calls", "count", "lower",
           "ReplicatedLog on_message and on_timer calls"),
    Metric("consensus.self_s", "s", "lower", "self time of the replicated log"),
    Metric("consensus.msgs_per_op", "msgs/op", "lower",
           "messages other than ALIVE and SUSPICION per operation"),
    Metric("consensus.cmds_per_instance", "count", "higher",
           "commands decided per decided consensus instance"),
    Metric("consensus.catchup_polls", "count", "lower", "catch-up polls sent"),
    Metric("consensus.lease_reads_served", "count", "higher", "reads served under a lease"),
    Metric("consensus.lease_read_fallbacks", "count", "lower",
           "lease reads that fell back to consensus"),
    Metric("consensus.lease_hit_ratio", "ratio", "higher",
           "lease reads served / (served + fallbacks)"),
    # service: sharding, replica, state machine
    Metric("service.submit_calls", "count", "lower", "ShardedService submit and submit_read calls"),
    Metric("service.submit_s", "s", "lower", "time inside submit and submit_read"),
    Metric("service.apply_calls", "count", "lower", "KeyValueStore.apply calls, all replicas"),
    Metric("service.apply_s", "s", "lower", "time inside KeyValueStore.apply"),
    Metric("service.duplicate_ratio", "ratio", "lower",
           "duplicates absorbed / applies, on a never-restarted replica per shard"),
    Metric("service.self_s", "s", "lower", "self time of the service entry points"),
    # clients: closed-loop client callbacks
    Metric("clients.callbacks", "count", "lower", "client callbacks run by the scheduler"),
    Metric("clients.self_s", "s", "lower", "self time of the client callbacks"),
    Metric("clients.polls_per_op", "count/op", "lower", "_poll callbacks per operation"),
    Metric("clients.lat_samples", "count", "higher",
           "latency samples behind the latency metrics"),
    Metric("clients.lat_p50_vt", "vt", "lower", "median operation latency in virtual time"),
    Metric("clients.lat_p99_vt", "vt", "lower",
           "99th-percentile operation latency in virtual time"),
    # storage: stable store, snapshots, compaction
    Metric("storage.writes", "count", "lower", "StableStore put and delete calls"),
    Metric("storage.writes_per_op", "count/op", "lower", "stable-store writes per operation"),
    Metric("storage.write_s", "s", "lower", "time inside StableStore put and delete"),
    Metric("storage.snapshots", "count", "lower", "SnapshotManager.take_snapshot calls"),
    Metric("storage.snapshot_s", "s", "lower", "time inside take_snapshot and install"),
    Metric("storage.snapshot_restores", "count", "lower", "snapshots installed"),
    Metric("storage.peak_decided_residency", "count", "lower",
           "most decided log entries resident on one replica"),
    Metric("storage.self_s", "s", "lower", "self time of the storage entry points"),
    # parallel: the shard pool
    Metric("parallel.shard_busy_s", "s", "lower", "summed event-loop time of all shards"),
    Metric("parallel.participation", "ratio", "higher", "busy / (workers x run)"),
    Metric("parallel.overhead_s", "s", "lower", "run - busy / workers"),
    Metric("parallel.pool_speedup", "ratio", "higher", "inline run time / pool run time"),
    Metric("parallel.self_s", "s", "lower",
           "self time of run_parallel_service and run_shard (build, fan-out, merge)"),
    # the traced run itself
    Metric("trace.overhead_ratio", "ratio", "lower", "traced run time / untraced run time"),
    Metric("trace.run_s", "s", "lower", "host seconds of the traced run"),
    Metric("trace.unwrapped_s", "s", "lower",
           "traced run time not inside any span (layer self times sum to the rest)"),
    Metric("trace.spans", "count", "lower", "spans recorded"),
)

LAYERS = ("simulation", "core", "consensus", "service", "clients", "storage", "parallel")


def benchmark_json_entries(metrics, with_bound: bool):
    """The ``BENCHMARK.json`` form of *metrics*."""
    entries = []
    for metric in metrics:
        entry = {"name": metric.name, "unit": metric.unit, "better": metric.better}
        if with_bound:
            entry["bound"] = metric.bound
        entries.append(entry)
    return entries
