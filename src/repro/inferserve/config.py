"""Configuration schema for the serving simulator.

One frozen, JSON-round-trippable :class:`ServingConfig` describes a
deployment: the arrival trace, the batching engine, SLO targets, the
autoscaler, and the DVFS setpoint. It is the payload behind
``SimRequest(kind="serving")`` and the unit the result cache addresses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.envelope import _require, decode
from repro.inferserve.traces import TraceConfig
from repro.suggest import normalize_name, unknown_name_message

__all__ = [
    "SCHEDULERS",
    "AutoscaleConfig",
    "BatcherConfig",
    "ServingConfig",
    "SloConfig",
]

#: Batching disciplines: iteration-level continuous batching (requests
#: join and leave the running batch every decode step) vs. the
#: run-to-completion baseline (a batch admits once and drains fully).
SCHEDULERS = ("continuous", "run_to_completion")


@dataclass(frozen=True)
class BatcherConfig:
    """Continuous-batching engine parameters.

    Attributes:
        scheduler: batching discipline (see :data:`SCHEDULERS`).
        gpus_per_replica: tensor-parallel width of one replica.
        max_batch_requests: in-flight request ceiling per replica.
        decode_quantum_tokens: decode steps folded into one scheduling
            round; admission happens at round boundaries (iteration-
            level scheduling with a coarser clock keeps long traces
            cheap without changing steady-state behaviour).
        kv_headroom_fraction: share of post-weights HBM granted to the
            KV cache.
        admission_queue_limit: pending-queue depth beyond which new
            arrivals are rejected (0 disables rejection).
        disaggregated: split replicas into a prefill pool and a decode
            pool (Splitwise-style) instead of colocating both phases.
        prefill_replica_fraction: share of replicas in the prefill pool
            when disaggregated.
    """

    scheduler: str = "continuous"
    gpus_per_replica: int = 4
    max_batch_requests: int = 64
    decode_quantum_tokens: int = 8
    kv_headroom_fraction: float = 0.9
    admission_queue_limit: int = 0
    disaggregated: bool = False
    prefill_replica_fraction: float = 0.25

    def __post_init__(self) -> None:
        scheduler = normalize_name(str(self.scheduler)).replace("-", "_")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                unknown_name_message("scheduler", self.scheduler, SCHEDULERS)
            )
        object.__setattr__(self, "scheduler", scheduler)
        _require(self.gpus_per_replica >= 1,
                 "gpus_per_replica must be >= 1")
        _require(self.max_batch_requests >= 1,
                 "max_batch_requests must be >= 1")
        _require(self.decode_quantum_tokens >= 1,
                 "decode_quantum_tokens must be >= 1")
        _require(0 < self.kv_headroom_fraction <= 1,
                 f"kv_headroom_fraction must be in (0, 1], got "
                 f"{self.kv_headroom_fraction:g}")
        _require(self.admission_queue_limit >= 0,
                 "admission_queue_limit must be >= 0 (0 disables)")
        _require(0 < self.prefill_replica_fraction < 1,
                 f"prefill_replica_fraction must be in (0, 1), got "
                 f"{self.prefill_replica_fraction:g}")
        _require(not (self.disaggregated
                      and scheduler == "run_to_completion"),
                 "disaggregated mode implies continuous batching "
                 "(run_to_completion is the colocated baseline)")


@dataclass(frozen=True)
class SloConfig:
    """Latency objectives goodput is measured against.

    Attributes:
        ttft_p99_s: time-to-first-token target; a request is "good"
            only if its TTFT is within this bound.
        tpot_p99_s: time-per-output-token target over the decode phase.
    """

    ttft_p99_s: float = 2.0
    tpot_p99_s: float = 0.2

    def __post_init__(self) -> None:
        _require(self.ttft_p99_s > 0 and self.tpot_p99_s > 0,
                 "SLO targets must be positive")


@dataclass(frozen=True)
class AutoscaleConfig:
    """Reactive queue-depth autoscaler parameters.

    Attributes:
        enabled: scale the replica count at runtime; when off the
            deployment stays at ``ServingConfig.replicas``.
        min_replicas / max_replicas: scaling bounds (``max_replicas``
            additionally clips to what the cluster can host).
        interval_s: evaluation cadence.
        queue_high / queue_low: pending requests per active replica
            that trigger scale-up / allow scale-down (hysteresis band).
        scaleup_delay_s: provisioning delay before a new replica
            starts serving (model load, KV-cache warmup).
    """

    enabled: bool = False
    min_replicas: int = 1
    max_replicas: int = 64
    interval_s: float = 30.0
    queue_high: float = 4.0
    queue_low: float = 0.5
    scaleup_delay_s: float = 60.0

    def __post_init__(self) -> None:
        _require(self.min_replicas >= 1, "min_replicas must be >= 1")
        _require(self.max_replicas >= self.min_replicas,
                 "max_replicas must be >= min_replicas")
        _require(self.interval_s > 0, "interval_s must be positive")
        _require(self.queue_high > self.queue_low >= 0,
                 "need queue_high > queue_low >= 0 (hysteresis band)")
        _require(self.scaleup_delay_s >= 0,
                 "scaleup_delay_s must be >= 0")


@dataclass(frozen=True)
class ServingConfig:
    """One serving deployment: trace + batcher + SLO + autoscaler.

    Attributes:
        trace: arrival process (see :class:`TraceConfig`).
        batcher: batching engine knobs.
        slo: latency targets.
        autoscale: autoscaler; disabled by default (static provisioning
            at ``replicas``).
        replicas: initial replica count.
        freq_setpoint: DVFS clock cap in (0, 1] applied to every
            serving GPU (the axis the energy search optimises).
        sample_interval_s: telemetry sampling cadence.
    """

    trace: TraceConfig = field(default_factory=TraceConfig)
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    slo: SloConfig = field(default_factory=SloConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)
    replicas: int = 2
    freq_setpoint: float = 1.0
    sample_interval_s: float = 10.0

    def __post_init__(self) -> None:
        _require(isinstance(self.trace, TraceConfig),
                 "trace must be a TraceConfig")
        _require(isinstance(self.batcher, BatcherConfig),
                 "batcher must be a BatcherConfig")
        _require(isinstance(self.slo, SloConfig),
                 "slo must be an SloConfig")
        _require(isinstance(self.autoscale, AutoscaleConfig),
                 "autoscale must be an AutoscaleConfig")
        _require(self.replicas >= 1, "replicas must be >= 1")
        if self.autoscale.enabled:
            _require(
                self.autoscale.min_replicas <= self.replicas
                <= self.autoscale.max_replicas,
                "replicas must start inside "
                "[min_replicas, max_replicas]",
            )
        _require(0 < self.freq_setpoint <= 1.0,
                 f"freq_setpoint must be in (0, 1], got "
                 f"{self.freq_setpoint:g}")
        _require(self.sample_interval_s > 0,
                 "sample_interval_s must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        """Inverse of :meth:`to_dict` (strict; nested sections too)."""
        return decode(cls, data, "serving")
