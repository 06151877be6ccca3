"""The four benchmark workloads, each built from a seed.

Every workload runs on the virtual clock in one process, except that
``kv_sharded_pool`` fans its shards out over a worker pool.  Each one is split
into a set-up (build the system or service and start its clients) and a timed
run, and reduces its final state to an :class:`Outcome`: a fingerprint that is
a pure function of the seed, the operation latencies, and the correctness
gates the run must pass.

Why these four (each stresses a different set of layers):

* ``omega_fanout`` -- only ``simulation`` and ``core`` work: the n-squared
  ALIVE/SUSPICION fan-out of Figure 3 plus two re-elections.  A consensus,
  service or storage change must show no change here.
* ``kv_durable_write`` -- ``consensus`` and ``storage`` do most of the work
  (durable writes, snapshots, a follower restart per shard).
* ``kv_lease_read`` -- read-heavy through the lease path: ``clients`` and the
  lease code do most of the work, ``storage`` none.
* ``kv_sharded_pool`` -- the ``parallel`` layer (pickling, fan-out, merge).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.figure3 import Figure3Omega
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import parallel
from repro.simulation.delays import UniformDelay
from repro.simulation.faults import FaultPlan
from repro.simulation.parallel import ParallelServiceSpec
from repro.simulation.system import System, SystemConfig
from repro.storage import CompactionPolicy, WriteCostModel
from repro.util.rng import RandomSource

#: Virtual time the clients stop issuing before the horizon, so commands in
#: flight land and the final replica digests are converged when compared.
QUIESCE = 40.0
RETRY_TIMEOUT = 40.0
#: Slack above interval + retain allowed for decided-log residency: decides
#: that arrive above the frontier and in-flight instances sit past the window.
RESIDENCY_SLACK = 64


def fingerprint(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What one run of a workload produced.

    ``latencies`` are virtual-time operation latencies; ``poll`` is the client
    poll interval they are quantised to (``None`` when they are exact).
    ``issued`` counts operations started and ``ok`` those that completed
    without a retransmit; ``completed`` those that completed at all.
    """

    fingerprint: str
    issued: int
    completed: int
    ok: int
    latencies: List[float]
    poll: Optional[float]
    horizon: float
    gates: Dict[str, bool]
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)


class Prepared:
    """A built workload: :meth:`run` is the timed part, :meth:`outcome` reads the result."""

    def run(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


# ------------------------------------------------------------------ omega_fanout --
@dataclasses.dataclass(frozen=True)
class OmegaFanout:
    """Figure 3 Omega, n=25, t=8, UniformDelay(0.5, 2.0); pid 0 then pid 1 crash."""

    seed: int
    n: int = 25
    t: int = 8
    horizon: float = 400.0
    crashes: Tuple[Tuple[int, float], ...] = ((0, 150.0), (1, 250.0))

    name = "omega_fanout"
    single_process = True

    def build(self) -> "PreparedOmega":
        n, t = self.n, self.t
        system = System(
            SystemConfig(n=n, t=t, seed=self.seed),
            lambda pid: Figure3Omega(pid=pid, n=n, t=t),
            UniformDelay(0.5, 2.0, RandomSource(self.seed, label="bench-delay")),
            fault_plan=FaultPlan.crashes(dict(self.crashes)),
        )
        return PreparedOmega(self, system)


class PreparedOmega(Prepared):
    def __init__(self, spec: OmegaFanout, system: System) -> None:
        self.spec = spec
        self.system = system

    def run(self) -> None:
        self.system.run_until(self.spec.horizon)

    def outcome(self) -> Outcome:
        spec, system = self.spec, self.system
        correct = [shell for shell in system.shells if not shell.crashed]
        histories = {shell.pid: shell.algorithm.leader_history for shell in system.shells}
        latencies: List[float] = []
        ok = 0
        issued = 0
        bounds = [time for _, time in spec.crashes[1:]] + [spec.horizon]
        for (crashed, crash_time), until in zip(spec.crashes, bounds):
            for shell in correct:
                issued += 1
                before = [entry for entry in histories[shell.pid] if entry[0] < until]
                settled_at, leader = before[-1]
                if leader != crashed:
                    ok += 1
                    latencies.append(max(0.0, settled_at - crash_time))
        finals = {histories[shell.pid][-1][1] for shell in correct}
        alive = {shell.pid for shell in correct}
        stats = system.stats
        sent = stats.sent_by_tag
        last_crash = spec.crashes[-1][1]
        counters = {
            "events": system.scheduler.executed,
            "msgs_sent": stats.total_sent,
            "core_msgs": sent.get("ALIVE", 0) + sent.get("SUSPICION", 0),
            "leader_changes": sum(len(h) - 1 for h in histories.values()),
            "leader_recovery_vt": max(histories[pid][-1][0] for pid in alive) - last_crash,
        }
        return Outcome(
            fingerprint=fingerprint(
                {
                    "leader_histories": histories,
                    "sent_by_tag": dict(sent),
                    "total_delivered": stats.total_delivered,
                }
            ),
            issued=issued,
            completed=ok,
            ok=ok,
            latencies=latencies,
            poll=None,
            horizon=spec.horizon,
            gates={"one_final_leader": len(finals) == 1 and finals <= alive},
            counters=counters,
        )


# ---------------------------------------------------------------- kv workloads --
def _client_outcome(clients, poll: float) -> Tuple[int, int, int, List[float]]:
    """(issued, completed, ok, latencies) of closed-loop clients.

    The client retransmits at the first poll at least ``RETRY_TIMEOUT`` after
    its last submission, after checking for completion, so a command
    completed without a retransmit exactly when its latency is at most the
    timeout.
    """
    latencies = [latency for client in clients for latency in client.stats.latencies]
    issued = sum(client.seq for client in clients)
    ok = sum(1 for latency in latencies if latency <= RETRY_TIMEOUT + poll / 2)
    return issued, len(latencies), ok, latencies


def _service_counters(services) -> Dict[str, float]:
    """Program-side counters of one or more sharded services, summed."""
    counters: Dict[str, float] = {
        "events": 0, "msgs_sent": 0, "core_msgs": 0, "leader_changes": 0,
        "catchup_polls": 0, "lease_reads_served": 0, "lease_read_fallbacks": 0,
        "snapshot_restores": 0, "peak_decided_residency": 0,
        "decided_cmds": 0, "decided_instances": 0, "applied": 0, "duplicates": 0,
    }
    for service in services:
        counters["events"] += service.scheduler.executed
        counters["catchup_polls"] += service.catchup_polls()
        counters["snapshot_restores"] += service.snapshot_restores()
        if service.leases:
            counters["lease_reads_served"] += service.lease_reads_served()
            counters["lease_read_fallbacks"] += service.lease_read_fallbacks()
        counters["peak_decided_residency"] = max(
            counters["peak_decided_residency"], service.peak_decided_residency()
        )
        for system in service.systems:
            sent = system.stats.sent_by_tag
            counters["msgs_sent"] += system.stats.total_sent
            counters["core_msgs"] += sent.get("ALIVE", 0) + sent.get("SUSPICION", 0)
            for shell in system.shells:
                counters["leader_changes"] += len(shell.algorithm.omega.leader_history) - 1
            # Session counters restart with a recovered replica; read a shell
            # that never restarted (the star centre always qualifies).
            steady = next(s for s in system.shells if not s.recoveries and not s.crashed)
            machine = steady.algorithm.state_machine
            counters["applied"] += machine.applied
            counters["duplicates"] += machine.duplicates_skipped
            counters["decided_instances"] += steady.algorithm.decided_command_positions()
    counters["decided_cmds"] = counters["applied"] + counters["duplicates"]
    return counters


@dataclasses.dataclass(frozen=True)
class KvService:
    """A sharded KV service of n=3 groups with closed-loop zipfian clients."""

    name: str
    seed: int
    shards: int = 4
    clients: int = 48
    horizon: float = 2000.0
    read_fraction: float = 0.5
    batch_size: object = 8
    poll: float = 1.0
    leases: bool = False
    durable: bool = False

    single_process = True

    def build(self) -> "PreparedKv":
        kwargs = {}
        if self.durable:
            restart_at = self.horizon / 3

            def restart_plan(shard: int) -> FaultPlan:
                follower = (shard % 3 + 1) % 3  # the default star centre is spared
                return FaultPlan.rolling_restarts([follower], start=restart_at, downtime=30.0)

            kwargs = dict(
                fault_plan_factory=restart_plan,
                stable_storage=WriteCostModel(per_write=0.2),
                compaction=CompactionPolicy(interval=64, retain=16),
            )
        service = build_sharded_service(
            num_shards=self.shards, n=3, t=1, seed=self.seed,
            batch_size=self.batch_size, leases=self.leases, **kwargs,
        )
        clients = start_clients(
            service,
            num_clients=self.clients,
            workload_factory=lambda i: zipfian_workload(
                num_keys=64, read_fraction=self.read_fraction
            ),
            poll_interval=self.poll,
            retry_timeout=RETRY_TIMEOUT,
            stop_at=self.horizon - QUIESCE,
        )
        return PreparedKv(self, service, clients)


class PreparedKv(Prepared):
    def __init__(self, spec: KvService, service, clients) -> None:
        self.spec = spec
        self.service = service
        self.clients = clients

    def run(self) -> None:
        self.service.run_until(self.spec.horizon)

    def outcome(self) -> Outcome:
        spec, service = self.spec, self.service
        issued, completed, ok, latencies = _client_outcome(self.clients, spec.poll)
        counters = _service_counters([service])
        consistent = service.is_consistent()
        gates = {"consistent": consistent}
        if spec.durable:
            gates["bounded_residency"] = (
                counters["peak_decided_residency"] <= 64 + 16 + RESIDENCY_SLACK
            )
        return Outcome(
            fingerprint=fingerprint(
                {
                    "digests": [
                        service.state_digests(shard, correct_only=False)
                        for shard in range(service.num_shards)
                    ],
                    "applied": [
                        service.applied_commands(shard) for shard in range(service.num_shards)
                    ],
                    "consistent": consistent,
                    "counters": service.perf_counters(),
                    "latencies": latencies,
                }
            ),
            issued=issued,
            completed=completed,
            ok=ok,
            latencies=latencies,
            poll=spec.poll,
            horizon=spec.horizon,
            gates=gates,
            counters=counters,
        )


# ------------------------------------------------------------- kv_sharded_pool --
@contextlib.contextmanager
def capture_shard_clients():
    """Record ``(service, clients)`` of every shard ``run_shard`` builds in
    this process (the shard functions keep them local)."""
    captured: List[Tuple[object, list]] = []
    original = parallel.start_clients

    def recording(service, *args, **kwargs):
        clients = original(service, *args, **kwargs)
        captured.append((service, clients))
        return clients

    parallel.start_clients = recording
    try:
        yield captured
    finally:
        parallel.start_clients = original


@dataclasses.dataclass(frozen=True)
class ShardedPool:
    """10 shards x 12 clients through ``run_parallel_service``."""

    seed: int
    shards: int = 10
    clients_per_shard: int = 12
    horizon: float = 500.0
    workers: int = dataclasses.field(default_factory=lambda: min(2, os.cpu_count() or 1))

    name = "kv_sharded_pool"
    single_process = False

    @property
    def spec(self) -> ParallelServiceSpec:
        return ParallelServiceSpec(
            num_shards=self.shards, n=3, t=1, seed=self.seed, horizon=self.horizon,
            clients_per_shard=self.clients_per_shard, num_keys=64, batch_size=8,
            retry_timeout=RETRY_TIMEOUT, stop_at=self.horizon - QUIESCE,
        )

    def build(self) -> "PreparedPool":
        """Set-up as the shards do it: each shard's service and clients, built
        by ``run_shard`` at a horizon too short for any event to run."""
        spec = dataclasses.replace(self.spec, horizon=1e-9, stop_at=None)
        for shard in range(self.shards):
            parallel.run_shard(spec, shard)
        return PreparedPool(self, self.workers)

    def reference(self) -> "PreparedPool":
        """The same run inline in this process, with every shard's clients kept."""
        return PreparedPool(self, 0)


class PreparedPool(Prepared):
    def __init__(self, spec: ShardedPool, workers: int) -> None:
        self.spec = spec
        self.workers = workers
        self.report = None
        self.shard_clients: List[Tuple[object, list]] = []

    def run(self) -> None:
        if self.workers:
            self.report = parallel.run_parallel_service(self.spec.spec, workers=self.workers)
            return
        with capture_shard_clients() as captured:
            self.report = parallel.run_parallel_service(self.spec.spec, workers=0)
        self.shard_clients = captured

    def outcome(self) -> Outcome:
        report = self.report
        counters: Dict[str, float] = {
            "events": report.events,
            "msgs_sent": report.messages,
            "shard_busy_s": sum(shard.wall_seconds for shard in report.shards),
        }
        latencies: List[float] = []
        issued = completed = ok = report.committed
        if self.shard_clients:
            clients = [c for _, shard_clients in self.shard_clients for c in shard_clients]
            issued, completed, ok, latencies = _client_outcome(clients, 1.0)
            counters.update(_service_counters(service for service, _ in self.shard_clients))
        return Outcome(
            fingerprint=report.run_fingerprint,
            issued=issued,
            completed=completed,
            ok=ok,
            latencies=latencies,
            poll=1.0,
            horizon=self.spec.horizon,
            gates={"consistent": report.consistent},
            counters=counters,
        )


# --------------------------------------------------------------------- registry --
def omega_fanout(seed: int, smoke: bool = False):
    if smoke:
        return OmegaFanout(seed, n=7, t=2, horizon=60.0, crashes=((0, 20.0), (1, 40.0)))
    return OmegaFanout(seed)


def kv_durable_write(seed: int, smoke: bool = False):
    shape = dict(shards=2, clients=12, horizon=240.0) if smoke else {}
    return KvService("kv_durable_write", seed, durable=True, **shape)


def kv_lease_read(seed: int, smoke: bool = False):
    shape = dict(shards=2, clients=12, horizon=120.0) if smoke else dict(horizon=300.0)
    return KvService(
        "kv_lease_read", seed, read_fraction=0.95, batch_size="adaptive",
        poll=0.25, leases=True, **shape,
    )


def kv_sharded_pool(seed: int, smoke: bool = False):
    if smoke:
        return ShardedPool(seed, shards=3, clients_per_shard=4, horizon=100.0)
    return ShardedPool(seed)


WORKLOADS: Dict[str, Callable] = {
    "omega_fanout": omega_fanout,
    "kv_durable_write": kv_durable_write,
    "kv_lease_read": kv_lease_read,
    "kv_sharded_pool": kv_sharded_pool,
}
