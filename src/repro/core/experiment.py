"""Canonical experiment execution: one training or inference run.

:func:`execute_training` / :func:`execute_inference` are the single
place a simulation is actually run; :func:`assemble_run` is the one
place its configs, mesh and task graph are assembled (the batched grid
evaluator builds its shared anchor through it too). The stable public
surface on top of them is :mod:`repro.api`::

    from repro.api import SimRequest, submit
    result = submit(SimRequest(
        model="gpt3-175b", cluster="h200x32", parallelism="TP2-PP16",
    ))
    print(result.efficiency().tokens_per_s)

Models, clusters, and strategies accept either catalog names or the
corresponding config objects. Global batch size defaults to the paper's
128 sequences; the first iteration is treated as warm-up and discarded
(the simulator additionally pre-warms the thermal state, standing in for
the paper's 10 discarded iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.builder import build_inference_graph, build_training_graph
from repro.engine.simulator import SimOutcome, SimSettings, simulate
from repro.engine.task import TaskGraph
from repro.hardware.cluster import ClusterSpec, get_cluster
from repro.models.catalog import get_model
from repro.models.config import ModelConfig
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import (
    OptimizationConfig,
    ParallelismConfig,
    parse_strategy,
)
from repro.core.results import RunResult

DEFAULT_GLOBAL_BATCH = 128


def _resolve_model(model: ModelConfig | str) -> ModelConfig:
    return get_model(model) if isinstance(model, str) else model


def _resolve_cluster(cluster: ClusterSpec | str) -> ClusterSpec:
    return get_cluster(cluster) if isinstance(cluster, str) else cluster


def _resolve_strategy(
    parallelism: ParallelismConfig | str, cluster: ClusterSpec
) -> ParallelismConfig:
    if isinstance(parallelism, str):
        parallelism = parse_strategy(parallelism)
    if parallelism.world_size != cluster.total_gpus:
        parallelism = parallelism.fill_dp(cluster.total_gpus)
    return parallelism


@dataclass(frozen=True)
class RunAssembly:
    """One run, assembled and ready to simulate: the resolved configs,
    the device mesh and the task graph."""

    model: ModelConfig
    cluster: ClusterSpec
    strategy: ParallelismConfig
    optimizations: OptimizationConfig
    mesh: DeviceMesh
    graph: TaskGraph
    microbatch_size: int
    warmup_iterations: int

    def result(self, outcome: SimOutcome) -> RunResult:
        """Wrap one simulation of this run as a :class:`RunResult`."""
        return RunResult(
            model=self.model,
            cluster=self.cluster,
            parallelism=self.strategy,
            optimizations=self.optimizations,
            microbatch_size=self.microbatch_size,
            warmup_iterations=self.warmup_iterations,
            outcome=outcome,
            placement=self.mesh.placement,
        )


def assemble_run(
    kind: str,
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    optimizations: OptimizationConfig | None = None,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    warmup_iterations: int = 1,
    placement: list[int] | None = None,
    stage_layers: list[int] | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> RunAssembly:
    """Resolve a ``"train"`` / ``"infer"`` run and build its graph.

    The steps every executor shares: catalog names become configs,
    leftover GPUs take data parallelism, ``pipeline_schedule``
    overrides the strategy's schedule, and the mesh and task graph are
    built. Inference runs forward passes only, so their optimizations
    are fixed (no distributed optimizer) and ``optimizations`` /
    ``stage_layers`` are ignored.
    """
    model = _resolve_model(model)
    cluster = _resolve_cluster(cluster)
    strategy = _resolve_strategy(parallelism, cluster)
    if pipeline_schedule is not None:
        strategy = replace(strategy, pipeline_schedule=pipeline_schedule)
    mesh = DeviceMesh(
        cluster=cluster,
        config=strategy,
        placement=tuple(placement) if placement else (),
    )
    if kind == "train":
        opts = optimizations or OptimizationConfig()
        graph = build_training_graph(
            model=model,
            mesh=mesh,
            microbatch_size=microbatch_size,
            global_batch_size=global_batch_size,
            opts=opts,
            iterations=iterations,
            stage_layers=stage_layers,
            num_seq_splits=seq_splits,
        )
    else:
        opts = OptimizationConfig(distributed_optimizer=False)
        graph = build_inference_graph(
            model=model,
            mesh=mesh,
            microbatch_size=microbatch_size,
            global_batch_size=global_batch_size,
            iterations=iterations,
            num_seq_splits=seq_splits,
        )
    return RunAssembly(
        model=model,
        cluster=cluster,
        strategy=strategy,
        optimizations=opts,
        mesh=mesh,
        graph=graph,
        microbatch_size=microbatch_size,
        warmup_iterations=warmup_iterations,
    )


def execute_training(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    optimizations: OptimizationConfig | None = None,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    warmup_iterations: int = 1,
    placement: list[int] | None = None,
    stage_layers: list[int] | None = None,
    settings: SimSettings | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> RunResult:
    """Simulate a distributed training run and return its result.

    Args:
        model: catalog name or :class:`ModelConfig`.
        cluster: catalog name or :class:`ClusterSpec`.
        parallelism: paper-style strategy name (``"TP2-PP16"``) or config.
            Leftover GPUs take data parallelism automatically.
        optimizations: optimization toggles; defaults to the paper's Base.
        microbatch_size: sequences per microbatch.
        global_batch_size: sequences per optimizer step (paper: 128).
        iterations: simulated iterations (including warm-up).
        warmup_iterations: leading iterations excluded from metrics.
        placement: optional logical-rank -> physical-GPU permutation
            (thermal-aware scheduling).
        stage_layers: optional per-stage layer counts (asymmetric splits).
        settings: simulator fidelity knobs.
        pipeline_schedule: overrides the strategy's pipeline schedule
            (any name registered in :mod:`repro.schedules`).
        seq_splits: sequence splits per microbatch for schedules that
            support them (e.g. ``"seq1f1b"``); ``None`` uses the
            schedule's default.

    Returns:
        A :class:`RunResult` with throughput, energy, thermal, and trace
        metrics over the measured window.
    """
    run = assemble_run(
        "train", model, cluster, parallelism,
        optimizations=optimizations,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        placement=placement,
        stage_layers=stage_layers,
        pipeline_schedule=pipeline_schedule,
        seq_splits=seq_splits,
    )
    return run.result(simulate(run.mesh, run.graph, settings))


def execute_inference(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    warmup_iterations: int = 1,
    settings: SimSettings | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> RunResult:
    """Simulate a distributed (batch) inference run (Section 7.2).

    Forward passes only: fixed weights, no gradient synchronisation and
    no optimizer. The same telemetry and trace machinery applies.
    """
    run = assemble_run(
        "infer", model, cluster, parallelism,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
        warmup_iterations=warmup_iterations,
        pipeline_schedule=pipeline_schedule,
        seq_splits=seq_splits,
    )
    return run.result(simulate(run.mesh, run.graph, settings))
