"""Continuous-batching serving engine with KV-cache pressure.

The simulator is event-driven: replicas pull work from a shared
admission queue and advance in *scheduling rounds* of
``decode_quantum_tokens`` decode steps, so a day-long trace costs
O(total tokens / quantum) rather than O(wall-clock / dt). Two
disciplines are modelled:

* ``continuous`` — iteration-level scheduling: requests join the
  running batch at round boundaries (paying their prefill inline) and
  leave the moment their last token decodes, vLLM/Orca-style;
* ``run_to_completion`` — the static-batching baseline: a batch admits
  once, every slot waits for the longest decode in the batch.

KV-cache accounting uses the models-layer memory math: a replica's
token capacity is what remains of HBM after the resident weights.
Admission reserves the prompt (plus the full decode for the first
request, guaranteeing progress); when projected in-round growth would
overflow, the newest request is preempted back to the queue and its
generated tokens are recomputed later (vLLM's recompute preemption).

``disaggregated`` mode splits the replicas into a prefill pool and a
decode pool (Splitwise-style): prompts batch on prefill replicas, then
hand their KV cache to a decode replica over the inter-node fabric.

Timing comes from :mod:`repro.inferserve.latency` — prefill is
compute-bound (scales with ``1/freq_setpoint``), decode streams the
active weights (clock-insensitive until the batch crosses the
arithmetic-intensity knee) — and power from :mod:`repro.power.model`,
so DVFS moves energy-per-token and TTFT exactly the way the paper's
power model says it should.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from repro.hardware.cluster import ClusterSpec
from repro.inferserve.autoscale import Autoscaler
from repro.inferserve.config import ServingConfig
from repro.inferserve.latency import (
    decode_seconds_per_token,
    prefill_seconds,
)
from repro.inferserve.outcome import (
    EnergyReport,
    ReplicaStats,
    RequestRecord,
    ServingOutcome,
    ServingSample,
)
from repro.inferserve.slo import build_slo_report
from repro.inferserve.traces import RequestTrace, generate_trace
from repro.models.config import ModelConfig
from repro.models.memory import (
    kv_cache_bytes_per_token,
    serving_kv_capacity_tokens,
)
from repro.power.model import Activity, gpu_power

__all__ = ["simulate_serving_deployment", "serving_capacity_replicas"]

#: Board activity by phase: prefill saturates the tensor cores, decode
#: is dominated by the HBM weight stream.
PREFILL_ACTIVITY = Activity(compute=1.0)
DECODE_ACTIVITY = Activity(compute=0.2, memory=1.0)

# Request lifecycle states (parallel arrays in the simulation).
_QUEUED, _RUNNING, _READY, _DONE, _REJECTED = range(5)


def serving_capacity_replicas(cluster: ClusterSpec,
                              gpus_per_replica: int) -> int:
    """How many replicas of the given width the cluster can host."""
    return cluster.total_gpus // gpus_per_replica


class _ServiceModel:
    """Phase timings of one replica at a DVFS setpoint."""

    def __init__(self, model: ModelConfig, cluster: ClusterSpec,
                 gpus_per_replica: int, freq_setpoint: float) -> None:
        gpu = cluster.node.gpu
        self.model = model
        self.gpu = gpu
        self.g = gpus_per_replica
        self.freq = freq_setpoint
        self._mem_step_s = decode_seconds_per_token(
            model, gpu, gpus_per_replica, 1
        )
        self._compute_per_token_s = (
            2.0 * model.active_params_per_token
            / (gpus_per_replica * gpu.sustained_flops)
        )
        link = cluster.inter_node_link
        self._handoff_bw = (
            link.bandwidth_bytes_per_s * link.efficiency
        )
        self._handoff_latency_s = link.latency_s
        self._kv_bytes_per_token = kv_cache_bytes_per_token(model)

    def prefill_s(self, tokens: int) -> float:
        """Prompt-processing time; compute-bound, scales with 1/f."""
        if tokens <= 0:
            return 0.0
        return prefill_seconds(
            self.model, self.gpu, self.g, 1, tokens, tp=self.g
        ) / self.freq

    def decode_step_s(self, batch: int) -> float:
        """One decode iteration over ``batch`` requests.

        Memory-bound (one weight stream serves the whole batch) until
        per-step compute at the capped clock catches up.
        """
        return max(
            self._mem_step_s,
            batch * self._compute_per_token_s / self.freq,
        )

    def handoff_s(self, prompt_tokens: int) -> float:
        """Prefill-to-decode KV-cache transfer time (disaggregation)."""
        bytes_moved = prompt_tokens * self._kv_bytes_per_token
        return self._handoff_latency_s + bytes_moved / self._handoff_bw


@dataclass
class _Replica:
    """Mutable state of one replica during simulation."""

    index: int
    pool: str  # "mixed", "prefill", or "decode"
    kv_capacity: int
    active: bool = False
    draining: bool = False
    in_flight: list = field(default_factory=list)  # [request, tokens_left]
    kv_tokens: int = 0
    step_end_s: float = math.inf
    step_kind: str = ""
    step_decode_start_s: float = 0.0
    step_token_s: float = 0.0
    step_quantum: int = 0
    served: int = 0
    busy_prefill_s: float = 0.0
    busy_decode_s: float = 0.0
    active_s: float = 0.0
    kv_peak: int = 0

    @property
    def idle(self) -> bool:
        return self.step_end_s == math.inf


class _Simulation:
    """One serving run; see :func:`simulate_serving_deployment`."""

    def __init__(self, model: ModelConfig, cluster: ClusterSpec,
                 config: ServingConfig, trace: RequestTrace) -> None:
        self.model = model
        self.cluster = cluster
        self.config = config
        self.trace = trace
        batcher = config.batcher
        self.svc = _ServiceModel(
            model, cluster, batcher.gpus_per_replica, config.freq_setpoint
        )
        capacity = serving_capacity_replicas(
            cluster, batcher.gpus_per_replica
        )
        if capacity < 1:
            raise ValueError(
                f"gpus_per_replica={batcher.gpus_per_replica} exceeds "
                f"cluster {cluster.name!r} ({cluster.total_gpus} GPUs)"
            )
        if config.replicas > capacity:
            raise ValueError(
                f"{config.replicas} replicas x "
                f"{batcher.gpus_per_replica} GPUs exceed cluster "
                f"{cluster.name!r} ({cluster.total_gpus} GPUs)"
            )
        if batcher.disaggregated and config.replicas < 2:
            raise ValueError(
                "disaggregated mode needs >= 2 replicas "
                "(one per pool)"
            )
        kv_capacity = serving_kv_capacity_tokens(
            model,
            cluster.node.gpu.memory_bytes,
            batcher.gpus_per_replica,
            batcher.kv_headroom_fraction,
        )
        prefill_pool = 0
        if batcher.disaggregated:
            prefill_pool = min(
                config.replicas - 1,
                max(1, round(
                    batcher.prefill_replica_fraction * config.replicas
                )),
            )
        self.prefill_pool = prefill_pool
        self.replicas = [
            _Replica(
                index=i,
                pool=(
                    "mixed" if not batcher.disaggregated
                    else "prefill" if i < prefill_pool
                    else "decode"
                ),
                kv_capacity=kv_capacity,
            )
            for i in range(capacity)
        ]
        for replica in self.replicas[:config.replicas]:
            replica.active = True
        self.scaler = Autoscaler(
            config.autoscale, config.replicas, capacity
        )

        # Request-parallel state arrays.
        n = len(trace)
        self.arrival = [r.arrival_s for r in trace]
        self.prompt = [r.prompt_tokens for r in trace]
        self.decode = [r.decode_tokens for r in trace]
        self.state = [_QUEUED] * n
        self.tokens_out = [0] * n
        self.ttft_abs = [0.0] * n
        self.finish_abs = [0.0] * n
        self.replica_of = [-1] * n
        self.preempts = [0] * n

        self.queue: deque[int] = deque()
        self.ready: list[tuple[float, int, int]] = []  # disaggregation
        self._ready_seq = 0
        self.now = 0.0
        self.next_arrival = 0
        self.arrived = 0
        self.completed = 0
        self.rejected = 0
        self.preemptions = 0
        self.resident = 0  # requests inside replica batches
        self.tokens_prefilled = 0
        self.tokens_decoded = 0
        self.dynamic_energy_j = 0.0
        self.active_integral_s = 0.0  # replica-seconds powered
        self.samples: list[ServingSample] = []
        self._next_sample_s = config.sample_interval_s
        self._last_sample = (0.0, 0.0)  # (time, cumulative energy)

        idle_w = cluster.node.gpu.idle_watts
        g = batcher.gpus_per_replica
        self._idle_rate_w = idle_w * g
        self._prefill_extra_w = (
            gpu_power(cluster.node.gpu, PREFILL_ACTIVITY,
                      config.freq_setpoint) - idle_w
        ) * g
        self._decode_extra_w = (
            gpu_power(cluster.node.gpu, DECODE_ACTIVITY,
                      config.freq_setpoint) - idle_w
        ) * g

    # -- request bookkeeping --------------------------------------------

    def _active_count(self) -> int:
        return sum(1 for r in self.replicas if r.active)

    def _energy_j(self) -> float:
        return (self._idle_rate_w * self.active_integral_s
                + self.dynamic_energy_j)

    def _backlog(self) -> int:
        return len(self.queue) + len(self.ready)

    def _complete(self, rid: int, replica: _Replica,
                  finish_s: float) -> None:
        self.state[rid] = _DONE
        self.finish_abs[rid] = finish_s
        self.replica_of[rid] = replica.index
        self.completed += 1
        self.resident -= 1
        replica.served += 1
        if self.ttft_abs[rid] == 0.0:  # single-token decode edge
            self.ttft_abs[rid] = finish_s

    # -- admission ------------------------------------------------------

    def _admit_mixed(self, replica: _Replica) -> list[int]:
        batcher = self.config.batcher
        admitted: list[int] = []
        while (not replica.draining and self.queue
               and len(replica.in_flight) < batcher.max_batch_requests):
            rid = self.queue[0]
            need = self.prompt[rid]
            if not replica.in_flight:
                # First request reserves its full footprint: progress
                # is guaranteed even at minimum capacity.
                need += self.decode[rid]
            if replica.kv_tokens + need > replica.kv_capacity:
                break
            self.queue.popleft()
            replica.kv_tokens += self.prompt[rid]
            replica.in_flight.append([rid, self.decode[rid]])
            self.state[rid] = _RUNNING
            self.resident += 1
            admitted.append(rid)
        return admitted

    def _admit_ready(self, replica: _Replica) -> list[int]:
        batcher = self.config.batcher
        admitted: list[int] = []
        while (not replica.draining and self.ready
               and self.ready[0][0] <= self.now
               and len(replica.in_flight) < batcher.max_batch_requests):
            rid = self.ready[0][2]
            need = self.prompt[rid]
            if not replica.in_flight:
                need += self.decode[rid]
            if replica.kv_tokens + need > replica.kv_capacity:
                break
            heapq.heappop(self.ready)
            replica.kv_tokens += self.prompt[rid]
            replica.in_flight.append([rid, self.decode[rid]])
            self.state[rid] = _RUNNING
            self.resident += 1
            admitted.append(rid)
        return admitted

    def _preempt_overflow(self, replica: _Replica,
                          admitted: list[int]) -> int:
        """Evict newest requests until the round's KV growth fits.

        Returns the effective decode quantum for the round. The oldest
        request always survives (its full footprint was reserved at
        admission), so the loop terminates with KV under capacity.
        """
        quantum = self.config.batcher.decode_quantum_tokens
        while True:
            q_eff = min(
                quantum,
                max(left for _, left in replica.in_flight),
            )
            projected = replica.kv_tokens + sum(
                min(q_eff, left) for _, left in replica.in_flight
            )
            if projected <= replica.kv_capacity or (
                len(replica.in_flight) == 1
            ):
                replica.kv_peak = max(replica.kv_peak, projected)
                return q_eff
            rid, _ = replica.in_flight.pop()
            replica.kv_tokens -= self.prompt[rid] + self.tokens_out[rid]
            # Recompute preemption: generated tokens are discarded.
            self.tokens_out[rid] = 0
            self.preempts[rid] += 1
            self.preemptions += 1
            self.state[rid] = _QUEUED
            self.resident -= 1
            if rid in admitted:
                admitted.remove(rid)
            # Back to the admission queue: the discarded KV must be
            # rebuilt, which in disaggregated mode means another pass
            # through the prefill pool.
            self.queue.appendleft(rid)

    # -- scheduling rounds ----------------------------------------------

    def _start_round(self, replica: _Replica) -> bool:
        """Begin the next scheduling round; False when out of work."""
        if not replica.active or not replica.idle:
            return False
        if replica.pool == "prefill":
            return self._start_prefill_round(replica)
        if (self.config.batcher.scheduler == "run_to_completion"
                and replica.pool == "mixed"):
            return self._start_rtc_round(replica)
        return self._start_continuous_round(replica)

    def _start_continuous_round(self, replica: _Replica) -> bool:
        admitted = (
            self._admit_ready(replica) if replica.pool == "decode"
            else self._admit_mixed(replica)
        )
        if not replica.in_flight:
            return False
        q_eff = self._preempt_overflow(replica, admitted)
        batch = len(replica.in_flight)
        prefill_tokens = sum(self.prompt[rid] for rid in admitted)
        if replica.pool == "decode":
            prefill_tokens = 0  # KV arrived prefilled from the pool
        prefill_s = self.svc.prefill_s(prefill_tokens)
        step_token_s = self.svc.decode_step_s(batch)
        decode_start = self.now + prefill_s
        for rid in admitted:
            if self.ttft_abs[rid] == 0.0:
                self.ttft_abs[rid] = decode_start + step_token_s
        replica.step_kind = "continuous"
        replica.step_decode_start_s = decode_start
        replica.step_token_s = step_token_s
        replica.step_quantum = q_eff
        replica.step_end_s = decode_start + q_eff * step_token_s
        replica.busy_prefill_s += prefill_s
        replica.busy_decode_s += q_eff * step_token_s
        self.tokens_prefilled += prefill_tokens
        self.dynamic_energy_j += (
            self._prefill_extra_w * prefill_s
            + self._decode_extra_w * q_eff * step_token_s
        )
        return True

    def _start_rtc_round(self, replica: _Replica) -> bool:
        batcher = self.config.batcher
        admitted: list[int] = []
        while (not replica.draining and self.queue
               and len(admitted) < batcher.max_batch_requests):
            rid = self.queue[0]
            need = self.prompt[rid] + self.decode[rid]
            if replica.kv_tokens + need > replica.kv_capacity:
                break
            self.queue.popleft()
            replica.kv_tokens += need
            admitted.append(rid)
            self.state[rid] = _RUNNING
            self.resident += 1
        if not admitted:
            return False
        replica.kv_peak = max(replica.kv_peak, replica.kv_tokens)
        batch = len(admitted)
        prompt_tokens = sum(self.prompt[rid] for rid in admitted)
        max_decode = max(self.decode[rid] for rid in admitted)
        prefill_s = self.svc.prefill_s(prompt_tokens)
        step_token_s = self.svc.decode_step_s(batch)
        decode_s = max_decode * step_token_s
        for rid in admitted:
            self.ttft_abs[rid] = self.now + prefill_s + step_token_s
        replica.in_flight = [[rid, 0] for rid in admitted]
        replica.step_kind = "rtc"
        replica.step_token_s = step_token_s
        replica.step_end_s = self.now + prefill_s + decode_s
        replica.busy_prefill_s += prefill_s
        replica.busy_decode_s += decode_s
        self.tokens_prefilled += prompt_tokens
        self.dynamic_energy_j += (
            self._prefill_extra_w * prefill_s
            + self._decode_extra_w * decode_s
        )
        return True

    def _start_prefill_round(self, replica: _Replica) -> bool:
        batcher = self.config.batcher
        admitted: list[int] = []
        while (not replica.draining and self.queue
               and len(admitted) < batcher.max_batch_requests):
            rid = self.queue[0]
            if (replica.kv_tokens + self.prompt[rid]
                    > replica.kv_capacity):
                break
            self.queue.popleft()
            replica.kv_tokens += self.prompt[rid]
            admitted.append(rid)
            self.state[rid] = _RUNNING
            self.resident += 1
        if not admitted:
            return False
        replica.kv_peak = max(replica.kv_peak, replica.kv_tokens)
        prompt_tokens = sum(self.prompt[rid] for rid in admitted)
        prefill_s = self.svc.prefill_s(prompt_tokens)
        replica.in_flight = [[rid, 0] for rid in admitted]
        replica.step_kind = "prefill"
        replica.step_end_s = self.now + prefill_s
        replica.busy_prefill_s += prefill_s
        self.tokens_prefilled += prompt_tokens
        self.dynamic_energy_j += self._prefill_extra_w * prefill_s
        return True

    def _finish_round(self, replica: _Replica) -> None:
        kind = replica.step_kind
        replica.step_end_s = math.inf
        replica.step_kind = ""
        if kind == "prefill":
            for rid, _ in replica.in_flight:
                handoff = self.svc.handoff_s(self.prompt[rid])
                self._ready_seq += 1
                heapq.heappush(
                    self.ready,
                    (self.now + handoff, self._ready_seq, rid),
                )
                self.state[rid] = _READY
                self.resident -= 1
            replica.kv_tokens = 0
            replica.in_flight = []
        elif kind == "rtc":
            for rid, _ in replica.in_flight:
                self.tokens_decoded += self.decode[rid]
                self._complete(rid, replica, self.now)
                replica.kv_tokens -= (
                    self.prompt[rid] + self.decode[rid]
                )
            replica.in_flight = []
        else:  # continuous
            q_eff = replica.step_quantum
            step_token_s = replica.step_token_s
            decode_start = replica.step_decode_start_s
            survivors = []
            for rid, left in replica.in_flight:
                produced = min(q_eff, left)
                self.tokens_decoded += produced
                if left - produced == 0:
                    finish = decode_start + left * step_token_s
                    replica.kv_tokens -= (
                        self.prompt[rid] + self.tokens_out[rid]
                    )
                    self.tokens_out[rid] += produced
                    self._complete(rid, replica, finish)
                else:
                    self.tokens_out[rid] += produced
                    replica.kv_tokens += produced
                    survivors.append([rid, left - produced])
            replica.in_flight = survivors
        if replica.draining and not replica.in_flight:
            self._deactivate(replica)

    def _deactivate(self, replica: _Replica) -> None:
        replica.active = False
        replica.draining = False

    # -- autoscaling ----------------------------------------------------

    def _apply_scale_target(self, target: int) -> None:
        scalable = [
            r for r in self.replicas
            if r.active and not r.draining and r.pool != "prefill"
        ]
        # Disaggregated deployments keep at least one decode replica
        # serving, whatever the scaler asks for.
        floor = 1 if self.config.batcher.disaggregated else 0
        current = sum(
            1 for r in self.replicas if r.active and not r.draining
        )
        while current > target and len(scalable) > floor:
            victim = scalable.pop()  # highest index drains first
            victim.draining = True
            current -= 1
            if not victim.in_flight and victim.idle:
                self._deactivate(victim)

    def _activate_one(self) -> None:
        for replica in self.replicas:
            if not replica.active:
                replica.active = True
                replica.draining = False
                return

    # -- main loop ------------------------------------------------------

    def _advance(self, to_s: float) -> None:
        """Move time forward, accruing idle energy and samples."""
        while self._next_sample_s <= to_s:
            boundary = self._next_sample_s
            self._accrue(boundary)
            self._sample(boundary)
            self._next_sample_s += self.config.sample_interval_s
        self._accrue(to_s)

    def _accrue(self, to_s: float) -> None:
        if to_s > self.now:
            dt = to_s - self.now
            count = 0
            for replica in self.replicas:
                if replica.active:
                    replica.active_s += dt
                    count += 1
            self.active_integral_s += count * dt
            self.now = to_s

    def _sample(self, time_s: float) -> None:
        energy = self._energy_j()
        last_t, last_e = self._last_sample
        window = time_s - last_t
        power = (energy - last_e) / window if window > 0 else 0.0
        self._last_sample = (time_s, energy)
        active = [r for r in self.replicas if r.active]
        kv_util = max(
            (r.kv_tokens / r.kv_capacity for r in active), default=0.0
        )
        self.samples.append(ServingSample(
            time_s=time_s,
            arrived=self.arrived,
            completed=self.completed,
            rejected=self.rejected,
            queued=self._backlog(),
            in_flight=self.resident,
            active_replicas=len(active),
            kv_utilization=kv_util,
            energy_j=energy,
            power_w=power,
        ))

    def _kick(self) -> None:
        """Start rounds on idle replicas until no more work fits."""
        started = True
        while started:
            started = False
            for replica in self.replicas:
                if replica.active and replica.idle:
                    started |= self._start_round(replica)

    def run(self) -> ServingOutcome:
        trace = self.trace
        n = len(trace)
        autoscale = self.config.autoscale.enabled
        while True:
            if (self.next_arrival >= n and not self.queue
                    and not self.ready and self.resident == 0):
                break
            t_arrival = (
                self.arrival[self.next_arrival]
                if self.next_arrival < n else math.inf
            )
            t_round = min(
                (r.step_end_s for r in self.replicas if r.active),
                default=math.inf,
            )
            decode_idle = any(
                r.active and r.idle and not r.draining
                and r.pool in ("decode", "mixed")
                for r in self.replicas
            )
            t_ready = (
                self.ready[0][0]
                if self.ready and decode_idle else math.inf
            )
            t_activation = (
                self.scaler.pending_activation_s()
                if autoscale else None
            )
            t_activation = (
                math.inf if t_activation is None else t_activation
            )
            t_eval = self.scaler.next_eval_s if autoscale else math.inf
            t = min(t_arrival, t_round, t_ready, t_activation, t_eval)
            assert t < math.inf, "serving simulation stalled"
            self._advance(t)

            if t == t_arrival:
                rid = self.next_arrival
                self.next_arrival += 1
                self.arrived += 1
                limit = self.config.batcher.admission_queue_limit
                infeasible = (
                    self.prompt[rid] + self.decode[rid]
                    > self.replicas[0].kv_capacity
                )
                if infeasible or (limit and len(self.queue) >= limit):
                    self.state[rid] = _REJECTED
                    self.rejected += 1
                else:
                    self.queue.append(rid)
                    self._kick()
                continue
            if t == t_ready:
                self._kick()
                continue
            if t == t_round:
                for replica in self.replicas:
                    if replica.active and replica.step_end_s == t:
                        self._finish_round(replica)
                self._kick()
                continue
            if t == t_activation:
                self.scaler.complete_activation(t, self._backlog())
                self._activate_one()
                self._kick()
                continue
            # autoscaler evaluation tick
            target = self.scaler.evaluate(t, self._backlog())
            self._apply_scale_target(target)
            self._kick()

        # Provisioned replicas stay powered through the trace horizon.
        end_s = max(self.now, self.config.trace.duration_s)
        self._advance(end_s)
        return self._build_outcome(end_s)

    # -- outcome assembly -----------------------------------------------

    def _build_outcome(self, makespan_s: float) -> ServingOutcome:
        duration_s = self.config.trace.duration_s
        records = []
        ttft_list: list[float] = []
        tpot_list: list[float] = []
        e2e_list: list[float] = []
        for rid in range(len(self.trace)):
            done = self.state[rid] == _DONE
            ttft = (
                self.ttft_abs[rid] - self.arrival[rid] if done else 0.0
            )
            e2e = (
                self.finish_abs[rid] - self.arrival[rid] if done else 0.0
            )
            tpot = (
                (e2e - ttft) / max(1, self.decode[rid] - 1)
                if done and self.decode[rid] > 1 else 0.0
            )
            if done:
                ttft_list.append(ttft)
                tpot_list.append(tpot)
                e2e_list.append(e2e)
            records.append(RequestRecord(
                index=rid,
                arrival_s=self.arrival[rid],
                prompt_tokens=self.prompt[rid],
                decode_tokens=self.decode[rid],
                replica=self.replica_of[rid],
                ttft_s=ttft,
                tpot_s=tpot,
                e2e_s=e2e,
                finish_s=self.finish_abs[rid],
                preemptions=self.preempts[rid],
                rejected=self.state[rid] == _REJECTED,
            ))
        slo = build_slo_report(
            ttft_list, tpot_list, e2e_list, self.config.slo, duration_s
        )
        energy = self._build_energy(makespan_s)
        replica_stats = tuple(
            ReplicaStats(
                index=r.index,
                pool=r.pool,
                served=r.served,
                busy_prefill_s=r.busy_prefill_s,
                busy_decode_s=r.busy_decode_s,
                active_s=r.active_s,
                kv_peak_fraction=r.kv_peak / r.kv_capacity,
            )
            for r in self.replicas
            if r.served or r.busy_prefill_s or r.active
        )
        return ServingOutcome(
            model=self.model.name,
            cluster=self.cluster.name,
            config=self.config,
            arrived=self.arrived,
            completed=self.completed,
            rejected=self.rejected,
            preemptions=self.preemptions,
            slo=slo,
            energy=energy,
            requests=tuple(records),
            samples=tuple(self.samples),
            replicas=replica_stats,
            scale_events=tuple(self.scaler.events),
            duration_s=duration_s,
            makespan_s=makespan_s,
        )

    def _build_energy(self, makespan_s: float) -> EnergyReport:
        idle_j = self._idle_rate_w * self.active_integral_s
        total_j = idle_j + self.dynamic_energy_j
        tokens = self.tokens_prefilled + self.tokens_decoded
        gpu = self.cluster.node.gpu
        node = self.cluster.node
        gpu_seconds = (
            self.active_integral_s * self.config.batcher.gpus_per_replica
        )
        mean_gpu_w = total_j / gpu_seconds if gpu_seconds else 0.0
        offsets = node.airflow.inlet_offset_c
        mean_offset = sum(offsets) / len(offsets)
        peak_w = gpu.idle_watts + (
            self._prefill_extra_w / self.config.batcher.gpus_per_replica
        )
        return EnergyReport(
            energy_j=total_j,
            idle_energy_j=idle_j,
            dynamic_energy_j=self.dynamic_energy_j,
            tokens_prefilled=self.tokens_prefilled,
            tokens_decoded=self.tokens_decoded,
            energy_per_token_j=(
                total_j / tokens if tokens else math.inf
            ),
            mean_power_w=(
                total_j / makespan_s if makespan_s else 0.0
            ),
            mean_temp_c=(
                node.ambient_c + mean_offset
                + gpu.thermal_resistance_c_per_w * mean_gpu_w
            ),
            peak_temp_c=(
                node.ambient_c + max(offsets)
                + gpu.thermal_resistance_c_per_w * peak_w
            ),
        )


def simulate_serving_deployment(
    model: ModelConfig,
    cluster: ClusterSpec,
    config: ServingConfig,
    trace: RequestTrace | None = None,
) -> ServingOutcome:
    """Simulate one serving deployment end to end.

    Args:
        model / cluster: resolved catalog objects.
        config: deployment description.
        trace: pre-generated arrival trace; generated from
            ``config.trace`` when omitted (the cached path always
            regenerates, keeping the cache key purely configuration).
    """
    if trace is None:
        trace = generate_trace(config.trace)
    simulation = _Simulation(model, cluster, config, trace)
    return simulation.run()
