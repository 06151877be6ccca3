"""Property-based tests (hypothesis) for the sharded service layer.

Two system-level properties over randomised workloads and seeds:

* **replica agreement**: after a random workload drains, every correct replica of
  every shard holds the identical KeyValueStore state;
* **exactly-once**: counters equal the number of *distinct* increment commands,
  whatever duplication the clients (retransmissions through several gateways) and
  the leaders (overlapping batches, leader changes, crashes) introduced.
"""

from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command
from repro.service import build_sharded_service, generate_commands, zipfian_workload

#: Keys shared by every generated increment (hot keys maximise collisions).
COUNTER_KEYS = ["c0", "c1", "c2"]


def drain(service, expected, horizon=800.0, step=25.0):
    time = 0.0
    while time < horizon:
        time += step
        service.run_until(time)
        if service.total_applied() >= expected and service.is_consistent():
            return True
    return False


class TestShardedReplicaAgreement:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        num_commands=st.integers(min_value=10, max_value=60),
        batch_size=st.sampled_from([1, 4, 8]),
    )
    def test_all_replicas_of_every_shard_apply_identical_states(
        self, seed, num_commands, batch_size
    ):
        service = build_sharded_service(
            num_shards=2, n=3, t=1, seed=seed, batch_size=batch_size
        )
        commands = generate_commands(
            zipfian_workload(num_keys=16),
            num_commands=num_commands,
            num_clients=8,
            rng=service.rng("prop", seed),
        )
        for index, command in enumerate(commands):
            service.submit(command, gateway=index % service.n)
        assert drain(service, len(commands)), "workload did not drain"
        for shard in range(service.num_shards):
            assert len(set(service.state_digests(shard))) == 1
        assert service.total_applied() == len(commands)


class TestExactlyOnce:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        increments=st.integers(min_value=4, max_value=24),
        duplication=st.integers(min_value=1, max_value=3),
    )
    def test_duplicated_submissions_apply_once(self, seed, increments, duplication):
        """Each distinct increment is submitted through *duplication* gateways
        (client retries); the counters must count each identity exactly once."""
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=seed, batch_size=4)
        commands = [
            Command.incr(f"client-{index % 4}", index // 4 + 1, COUNTER_KEYS[index % 3])
            for index in range(increments)
        ]
        for index, command in enumerate(commands):
            for gateway in range(duplication):
                service.submit(command, gateway=(index + gateway) % service.n)
        assert drain(service, len(commands)), "workload did not drain"
        machine = service.reference_replica(0).state_machine
        expected = {key: 0 for key in COUNTER_KEYS}
        for command in commands:
            expected[command.key] += 1
        for key, count in expected.items():
            assert machine.get(key, 0) == count
        assert machine.applied == len(commands)
        assert len(set(service.state_digests(0))) == 1

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        crash_time=st.floats(min_value=10.0, max_value=80.0),
    )
    def test_exactly_once_survives_a_leader_crash(self, seed, crash_time):
        """Retried increments across a mid-run crash (forcing a leader change at
        the affected shard) still apply exactly once."""
        from repro.simulation import FaultPlan

        # Crash the current-leader candidate pid 1 (centre 0 is protected).
        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=seed, batch_size=4,
            fault_plan_factory=lambda shard: FaultPlan.crashes({1: crash_time}),
        )
        commands = [Command.incr("hot-client", s, "c0") for s in range(1, 13)]
        # Submit everything twice, through both surviving gateways.
        for command in commands:
            service.submit(command, gateway=0)
            service.submit(command, gateway=2)
        assert drain(service, len(commands)), "workload did not drain"
        machine = service.reference_replica(0).state_machine
        assert machine.get("c0") == len(commands)
        assert machine.applied == len(commands)
        assert len(set(service.state_digests(0))) == 1
