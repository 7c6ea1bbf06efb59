"""Static replica routing: the thermal-aware baseline scheduler.

This is the pre-batching serving model (paper Section 7.2's proposal),
folded into :mod:`repro.inferserve` as the ``static`` baseline: a
cluster is partitioned into fixed replicas, batched requests arrive on
a seeded Poisson process, and a router assigns each batch whole to a
replica — no continuous batching, no KV accounting. Every replica
carries its own thermal state (two-node RC per GPU) and DVFS governor,
so hot replicas serve slower.

Routers:

* ``round_robin`` — the thermally oblivious baseline;
* ``least_loaded`` — shortest queue first (classic load balancing);
* ``thermal_aware`` — shortest *expected completion*: queue depth plus
  the thermally degraded service time (hot, throttled replicas serve
  slower) — the paper's proposal made concrete.

The ablation benchmark compares them on tail latency and thermal
spread.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.hardware.cluster import ClusterSpec
from repro.power.model import Activity, gpu_power
from repro.thermal.rc_model import NodeThermalState
from repro.thermal.throttle import DvfsGovernor

__all__ = [
    "ROUTERS",
    "RouterOutcome",
    "StaticRouterConfig",
    "compare_routers",
    "simulate_static_routing",
]

ROUTERS = ("round_robin", "least_loaded", "thermal_aware")


@dataclass(frozen=True)
class StaticRouterConfig:
    """Static-routing simulation parameters.

    Attributes:
        num_replicas: independent model replicas; GPUs per replica is
            ``cluster.total_gpus / num_replicas`` (must divide).
        base_service_s: batch service time at boost clock (cool replica).
        arrival_rate_per_s: mean batch arrival rate (Poisson, seeded).
        duration_s: simulated horizon.
        router: routing policy name (see :data:`ROUTERS`).
        seed: RNG seed (arrivals are identical across routers for a
            given seed, enabling paired comparisons).
    """

    num_replicas: int
    base_service_s: float
    arrival_rate_per_s: float
    duration_s: float
    router: str = "round_robin"
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("need at least one replica")
        if self.base_service_s <= 0 or self.arrival_rate_per_s <= 0:
            raise ValueError("service time and arrival rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.router not in ROUTERS:
            raise ValueError(f"unknown router {self.router!r}; {ROUTERS}")


@dataclass
class RouterOutcome:
    """Aggregate results of one static-routing simulation.

    Attributes:
        completed: batches served within the horizon.
        mean_latency_s / p99_latency_s: queueing + service latency.
        mean_temp_c / peak_temp_c: replica-GPU die temperatures.
        temp_spread_c: hottest minus coolest replica mean temperature.
        per_replica_served: load distribution across replicas.
    """

    completed: int
    mean_latency_s: float
    p99_latency_s: float
    mean_temp_c: float
    peak_temp_c: float
    temp_spread_c: float
    per_replica_served: list[int]


@dataclass
class _Replica:
    """One model replica: a set of GPUs in one node with thermal state."""

    index: int
    node: int
    locals_: list[int]
    thermal: NodeThermalState
    governor: DvfsGovernor
    busy_until_s: float = 0.0
    served: int = 0
    temp_samples: list[float] = field(default_factory=list)

    def mean_clock(self) -> float:
        ratios = [self.governor.freq_of(i) for i in self.locals_]
        return sum(ratios) / len(ratios)

    def mean_temp(self) -> float:
        temps = [self.thermal.temps_c[i] for i in self.locals_]
        return sum(temps) / len(temps)


def _build_replicas(cluster: ClusterSpec, num_replicas: int) -> list[_Replica]:
    per_node = cluster.node.gpus_per_node
    total = cluster.total_gpus
    if total % num_replicas:
        raise ValueError(
            f"{num_replicas} replicas do not divide {total} GPUs"
        )
    gpus_per_replica = total // num_replicas
    if gpus_per_replica > per_node:
        raise ValueError("replicas larger than a node are not supported")
    # One thermal state / governor per node, shared by its replicas.
    node_thermal = [
        NodeThermalState(cluster.node) for _ in range(cluster.num_nodes)
    ]
    node_governor = [
        DvfsGovernor(cluster.node) for _ in range(cluster.num_nodes)
    ]
    replicas = []
    for index in range(num_replicas):
        first_gpu = index * gpus_per_replica
        node = cluster.node_of(first_gpu)
        locals_ = [
            cluster.local_index(first_gpu + k)
            for k in range(gpus_per_replica)
        ]
        replicas.append(
            _Replica(
                index=index,
                node=node,
                locals_=locals_,
                thermal=node_thermal[node],
                governor=node_governor[node],
            )
        )
    return replicas


def _pick_replica(
    router: str,
    replicas: list[_Replica],
    now: float,
    rr_state: list[int],
    base_service_s: float,
) -> _Replica:
    if router == "round_robin":
        choice = replicas[rr_state[0] % len(replicas)]
        rr_state[0] += 1
        return choice
    queue_depth = {
        r.index: max(0.0, r.busy_until_s - now) for r in replicas
    }
    if router == "least_loaded":
        return min(replicas, key=lambda r: (queue_depth[r.index], r.index))

    # thermal_aware: minimise expected completion time — the queue plus
    # this replica's thermally degraded service time.
    def expected_completion(replica: _Replica) -> float:
        service = base_service_s / max(0.05, replica.mean_clock())
        return queue_depth[replica.index] + service

    return min(
        replicas, key=lambda r: (expected_completion(r), r.index)
    )


def simulate_static_routing(
    cluster: ClusterSpec, config: StaticRouterConfig
) -> RouterOutcome:
    """Run the static-routing simulation and return aggregate metrics."""
    rng = random.Random(config.seed)
    replicas = _build_replicas(cluster, config.num_replicas)
    per_node = cluster.node.gpus_per_node

    # Pre-generate arrivals so every router sees the same trace.
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(config.arrival_rate_per_s)
        if t >= config.duration_s:
            break
        arrivals.append(t)

    # Physics advances on a fixed grid; busy replicas dissipate at full
    # compute intensity, idle ones at idle power.
    dt = 0.1
    physics_time = 0.0

    def advance_physics(to_time: float) -> None:
        nonlocal physics_time
        gpu_spec = cluster.node.gpu
        while physics_time + dt <= to_time:
            for node_index in range(cluster.num_nodes):
                node_replicas = [
                    r for r in replicas if r.node == node_index
                ]
                if not node_replicas:
                    continue
                thermal = node_replicas[0].thermal
                governor = node_replicas[0].governor
                powers = [gpu_spec.idle_watts] * per_node
                for replica in node_replicas:
                    busy = replica.busy_until_s > physics_time
                    activity = (
                        Activity(compute=0.9, memory=0.3) if busy
                        else Activity()
                    )
                    for local in replica.locals_:
                        powers[local] = gpu_power(
                            gpu_spec, activity, governor.freq_of(local)
                        )
                temps = thermal.step(dt, powers)
                governor.update(dt, temps, powers)
            for replica in replicas:
                replica.temp_samples.append(replica.mean_temp())
            physics_time += dt

    latencies: list[float] = []
    rr_state = [0]
    for arrival in arrivals:
        advance_physics(arrival)
        replica = _pick_replica(
            config.router, replicas, arrival, rr_state,
            config.base_service_s,
        )
        start = max(arrival, replica.busy_until_s)
        # Hot replicas serve slower: service scales with 1/clock.
        service = config.base_service_s / max(0.05, replica.mean_clock())
        finish = start + service
        if finish <= config.duration_s:
            replica.busy_until_s = finish
            replica.served += 1
            latencies.append(finish - arrival)
    advance_physics(config.duration_s)

    if not latencies:
        raise ValueError("no batches completed; lower the service time")
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1,
                        math.ceil(0.99 * len(latencies)) - 1)]
    all_temps = [t for r in replicas for t in r.temp_samples]
    replica_means = [r.mean_temp() for r in replicas]
    return RouterOutcome(
        completed=len(latencies),
        mean_latency_s=sum(latencies) / len(latencies),
        p99_latency_s=p99,
        mean_temp_c=sum(all_temps) / len(all_temps),
        peak_temp_c=max(all_temps),
        temp_spread_c=max(replica_means) - min(replica_means),
        per_replica_served=[r.served for r in replicas],
    )


def compare_routers(
    cluster: ClusterSpec, config: StaticRouterConfig
) -> dict[str, RouterOutcome]:
    """Run the same arrival trace through every router."""
    from dataclasses import replace

    return {
        router: simulate_static_routing(
            cluster, replace(config, router=router)
        )
        for router in ROUTERS
    }
