"""Command-line interface: run experiments without writing Python.

Usage::

    python -m repro catalog
    python -m repro configs --model gpt3-175b --cluster h200x32
    python -m repro run --model gpt3-175b --cluster h200x32 \\
        --parallelism TP2-PP16 --act --output results/tp2pp16
    python -m repro sweep --model gpt3-30b --cluster mi250x32 \\
        --parallelism TP8-PP2 --parallelism TP2-PP8 --microbatch 1 2 4
    python -m repro figures --model gpt3-30b --cluster h200x32 \\
        --parallelism TP4-PP8-DP1 --output figures/
    python -m repro full-sweep --cluster h200x32 --cluster h100x64 \\
        --output results/
    python -m repro fleet --policy thermal-aware --seed 0 \\
        --power-cap-kw 10 --output results/fleet
    python -m repro powerctl sweep --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --setpoint 0.6 0.7 0.8 0.9 1.0
    python -m repro powerctl search --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --max-slowdown 0.05 --jobs 3
    python -m repro optimize --model gpt3-13b --cluster h100x64 \\
        --objective energy_delay --max-slowdown 0.05
    python -m repro optimize --kind serving --model llama3-70b \\
        --cluster h100x64 --replicas 2 4 8 --gpus-per-replica 4 8
    python -m repro run --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --fault-node 1 --fault-time 2.0 \\
        --fault-kind power_sag --fault-duration 3.0
    python -m repro resilience run --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --policy elastic --mtbf-s 3600
    python -m repro resilience sweep --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --mtbf-s 1800 3600 7200 --output results/res
    python -m repro inferserve run --model llama3-70b --cluster h100x64 \\
        --trace diurnal --daily-users 2e6 --replicas 8 --autoscale \\
        --output results/serving
    python -m repro inferserve sweep --model llama3-70b --cluster h100x64 \\
        --setpoint 0.6 0.8 1.0 --search --jobs 3
    python -m repro serve --port 8053 --concurrency 2
    python -m repro chaos --scenario soak --seed 0 --json
    python -m repro cache stats
    python -m repro cache clear

Mirrors the paper artifact's script surface (prepare/launch/
full_sweep/visualize) on top of the simulated testbed. Workload
subcommands build a :class:`repro.api.SimRequest` and execute through
:func:`repro.api.submit` — the same typed surface the ``serve`` broker
speaks over HTTP.

Conventions shared by every subcommand:

- ``--json`` prints a machine-readable summary to stdout instead of the
  human tables.
- exit codes: 0 ok, 2 bad arguments (unknown names, invalid flag
  combinations), 3 simulation/runtime failure (worker crash, timeout,
  unplaceable fleet).
- ``--jobs N`` fans simulations out over worker processes (``0`` =
  auto); results are identical regardless of ``N``.
- simulations are cached persistently under ``.repro_cache/``;
  ``--cache-dir`` redirects the store and ``--no-cache`` skips it for
  one invocation (see ``repro cache`` and docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

from repro.api import OptimizeRequest, SimRequest, submit, submit_many
from repro.core.artifact import run_summary, write_run_artifact
from repro.engine.simulator import SimSettings
from repro.hardware.cluster import cluster_names, get_cluster
from repro.models.catalog import get_model, model_names
from repro.parallelism.enumerate import ConfigSearchSpace, valid_configs
from repro.parallelism.strategy import OptimizationConfig

def _flagify(message: str) -> str:
    """Rewrite the snake_case request-field names in an error to the
    flags that set them (``microbatch_size`` -> ``--microbatch``), so
    validation errors from the request schemas read as flag errors."""
    flags = {
        spec.name: spec.metadata["flag"]
        for cls in (SimRequest, OptimizeRequest)
        for spec in fields(cls)
        if "flag" in spec.metadata and "_" in spec.name
    }
    return re.sub(
        r"\b(" + "|".join(flags) + r")\b",
        lambda match: flags[match.group(1)],
        message,
    )


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags describing what to run (shared by run/figures/powerctl)."""
    parser.add_argument("--model", required=True, help="catalog model name")
    parser.add_argument("--cluster", required=True,
                        help="catalog cluster name")
    parser.add_argument(
        "--parallelism", required=True,
        help="paper-style strategy, e.g. TP2-PP16 or EP8-TP1-PP4",
    )
    parser.add_argument("--microbatch", type=int, default=1)
    parser.add_argument("--global-batch", type=int, default=128)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument(
        "--pipeline-schedule", default="1f1b",
        help="pipeline schedule from the repro.schedules registry: "
             "1f1b (default), interleaved, gpipe, zb-h1, seq1f1b",
    )
    parser.add_argument(
        "--seq-splits", type=int, default=None,
        help="sequence splits per microbatch (seq1f1b; schedule default "
             "when omitted)",
    )
    parser.add_argument("--act", action="store_true",
                        help="activation recomputation")
    parser.add_argument("--cc", action="store_true",
                        help="compute-communication overlap")
    parser.add_argument("--lora", action="store_true",
                        help="LoRA finetuning")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_workload_arguments(parser)
    parser.add_argument(
        "--fail-node", type=int, default=None,
        help="alias for --fault-node with the default power scale",
    )
    parser.add_argument(
        "--fault-node", type=int, default=None,
        help="inject a power fault on this node (Section 1 incident)",
    )
    parser.add_argument(
        "--fault-power-scale", type=float, default=0.25,
        help="power-cap multiplier the faulted node is pinned to",
    )
    parser.add_argument(
        "--fault-time", type=float, default=None,
        help="onset second of a transient timed fault on --fault-node "
             "(instead of the whole-run fault above)",
    )
    parser.add_argument(
        "--fault-duration", type=float, default=None,
        help="timed fault duration in seconds (default 5)",
    )
    parser.add_argument(
        "--fault-kind", default=None,
        help="timed fault class: power_sag (default), link_degrade, "
             "gpu_failstop, thermal_runaway, or ecc_stall",
    )
    parser.add_argument(
        "--fault-severity", type=float, default=None,
        help="kind-specific severity (default: per-kind paper value)",
    )
    parser.add_argument(
        "--governor", default="none",
        help="powerctl governor: none, static, thermal, or straggler",
    )
    parser.add_argument(
        "--freq-setpoint", type=float, default=1.0,
        help="static governor: uniform clock-ratio ceiling (implies "
             "--governor static when below 1.0)",
    )
    parser.add_argument(
        "--power-limit-w", type=float, default=None,
        help="static governor: per-GPU board power limit in W (implies "
             "--governor static)",
    )


def _opts_from(args: argparse.Namespace) -> OptimizationConfig:
    return OptimizationConfig(
        activation_recompute=args.act,
        cc_overlap=args.cc,
        lora=args.lora,
    )


def _request_from(cls, args: argparse.Namespace, **overrides):
    """The ``cls`` request a flag namespace describes.

    Every field declaring a ``flag`` takes its parsed value (argparse
    dest: the flag in snake_case); an absent or ``None`` value keeps the
    field default, and ``overrides`` win. Validation stays in the
    request; :func:`main` rewrites field names in its errors to flags.
    """
    kwargs = {}
    for spec in fields(cls):
        if "flag" in spec.metadata:
            dest = spec.metadata["flag"].lstrip("-").replace("-", "_")
            value = getattr(args, dest, None)
            if value is not None:
                kwargs[spec.name] = value
    kwargs.update(overrides)
    return cls(**kwargs)


def _run_overrides(args: argparse.Namespace) -> dict:
    """Run-request fields the flags spell indirectly: the optimization
    toggles, and ``--fail-node`` (an alias of ``--fault-node``, whose
    power scale applies only when a node is faulted)."""
    node = args.fault_node if args.fault_node is not None else args.fail_node
    return dict(
        optimizations=_opts_from(args),
        fault_node=node,
        fault_power_scale=args.fault_power_scale if node is not None else None,
    )


def _print_summary(result) -> None:
    efficiency = result.efficiency()
    stats = result.stats()
    print(f"run           : {result.label}")
    print(f"dp            : {result.parallelism.dp}")
    print(f"step time     : {efficiency.step_time_s:.2f} s")
    print(f"throughput    : {efficiency.tokens_per_s:,.0f} tokens/s")
    print(f"energy        : {efficiency.tokens_per_joule:.3f} tokens/J")
    print(f"avg power     : {stats.avg_power_w / 1000:.1f} kW")
    per_gpu_power = result.per_gpu_mean_power_w()
    mean_power = sum(per_gpu_power) / len(per_gpu_power)
    print(
        f"per-GPU power : {min(per_gpu_power):.0f}/{mean_power:.0f}/"
        f"{max(per_gpu_power):.0f} W (min/mean/max)"
    )
    print(f"total energy  : {efficiency.energy_j:,.0f} J")
    print(f"peak temp     : {stats.peak_temp_c:.1f} C")
    print(f"mean clock    : {stats.mean_freq_ratio:.3f}")
    print(f"max throttle  : {max(result.throttle_ratio()):.2f}")
    trace = result.outcome.power_control
    if trace is not None:
        print(
            f"governor      : {trace.governor} "
            f"({len(trace.decisions)} actuations)"
        )
    faults = result.outcome.fault_trace
    if faults is not None:
        print(
            f"faults        : {faults.applied} applied, "
            f"{len(faults.hangs)} collective hang(s) detected"
        )


def cmd_catalog(args: argparse.Namespace) -> int:
    """List the models and clusters available."""
    if getattr(args, "as_json", False):
        _emit_json({
            "models": [
                {
                    "name": name,
                    "params_b": get_model(name).total_params / 1e9,
                    "kind": "moe" if get_model(name).is_moe else "dense",
                }
                for name in model_names()
            ],
            "clusters": [
                {
                    "name": name,
                    "nodes": get_cluster(name).num_nodes,
                    "gpus_per_node":
                        get_cluster(name).node.gpus_per_node,
                    "gpu": get_cluster(name).node.gpu.name,
                }
                for name in cluster_names()
            ],
        })
        return 0
    print("models:")
    for name in model_names():
        model = get_model(name)
        kind = "MoE" if model.is_moe else "dense"
        print(f"  {name:<16} {model.total_params / 1e9:6.0f}B {kind}")
    print("clusters:")
    for name in cluster_names():
        cluster = get_cluster(name)
        print(
            f"  {name:<10} {cluster.num_nodes} nodes x "
            f"{cluster.node.gpus_per_node} {cluster.node.gpu.name}"
        )
    return 0


def cmd_configs(args: argparse.Namespace) -> int:
    """List memory-valid parallelism configurations."""
    model = get_model(args.model)
    cluster = get_cluster(args.cluster)
    space = ConfigSearchSpace(microbatch_size=args.microbatch)
    configs = valid_configs(model, cluster, space, recompute=args.act)
    if getattr(args, "as_json", False):
        _emit_json({
            "model": model.name,
            "cluster": cluster.name,
            "configs": [
                {"name": config.name, "dp": config.dp}
                for config in configs
            ],
        })
        return 0
    print(
        f"{len(configs)} valid configurations for {model.name} on "
        f"{cluster.name}:"
    )
    for config in configs:
        print(f"  {config.name:<16} dp={config.dp}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment; optionally write an artifact directory."""
    request = _request_from(SimRequest, args, **_run_overrides(args))
    result = submit(request)
    fault_warning = None
    if request.fault_time is not None and \
            result.fault_events_applied() == 0:
        # Horizon is only known after the run: surface a fault that
        # landed past the end instead of silently simulating a clean run.
        fault_warning = (
            f"--fault-time {request.fault_time:g}s never fired; the run "
            f"ended at {result.window_end_s:.1f}s (raise --iterations or "
            "--global-batch to lengthen the run)"
        )
    directory = None
    if args.output:
        directory = write_run_artifact(result, args.output)
    if getattr(args, "as_json", False):
        payload = run_summary(result)
        payload["request_digest"] = request.digest()
        payload["artifact"] = (
            str(directory) if directory is not None else None
        )
        if fault_warning is not None:
            payload["warning"] = fault_warning
        _emit_json(payload)
        return 0
    _print_summary(result)
    if fault_warning is not None:
        print(f"warning: {fault_warning}", file=sys.stderr)
    if directory is not None:
        print(f"artifact      : {directory}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a strategy x microbatch grid and print the table."""
    from repro.core.parallel import ExecutionReport

    opts = _opts_from(args)
    schedules = getattr(args, "pipeline_schedule", None) or ["1f1b"]
    requests = [
        _request_from(
            SimRequest, args,
            parallelism=strategy,
            optimizations=opts,
            microbatch_size=microbatch,
            pipeline_schedule=schedule,
        )
        for strategy in args.parallelism
        for microbatch in args.microbatch
        for schedule in schedules
    ]
    report = ExecutionReport()
    results = submit_many(requests, jobs=args.jobs, report=report)
    if report.crashed:
        print(
            f"warning: sweep survived worker crashes "
            f"({report.describe()})",
            file=sys.stderr,
        )
    rows = []
    for request, result in zip(requests, results):
        efficiency = result.efficiency()
        stats = result.stats()
        rows.append({
            "strategy": request.parallelism,
            "microbatch": request.microbatch_size,
            "schedule": request.pipeline_schedule,
            "tokens_per_s": efficiency.tokens_per_s,
            "tokens_per_joule": efficiency.tokens_per_joule,
            "peak_temp_c": stats.peak_temp_c,
            "mean_freq_ratio": stats.mean_freq_ratio,
        })
    if getattr(args, "as_json", False):
        _emit_json({"rows": rows})
        return 0
    print(
        f"{'strategy':<16} {'mb':>3} {'schedule':<11} {'tok/s':>10} "
        f"{'tok/J':>7} {'peakT':>6} {'clock':>6}"
    )
    for row in rows:
        print(
            f"{row['strategy']:<16} {row['microbatch']:>3} "
            f"{row['schedule']:<11} "
            f"{row['tokens_per_s']:>10,.0f} "
            f"{row['tokens_per_joule']:>7.3f} "
            f"{row['peak_temp_c']:>6.1f} "
            f"{row['mean_freq_ratio']:>6.3f}"
        )
    return 0


def cmd_full_sweep(args: argparse.Namespace) -> int:
    """Run the paper's evaluation grid and write all artifacts."""
    from repro.core.campaign import paper_campaign, run_campaign

    as_json = getattr(args, "as_json", False)
    specs = paper_campaign(clusters=tuple(args.cluster))
    if not as_json:
        print(f"{len(specs)} experiments -> {args.output}")

    def progress(spec, result):
        print(
            f"  {spec.name:<48} "
            f"{result.efficiency().tokens_per_s:>10,.0f} tok/s"
        )

    campaign = run_campaign(
        specs,
        output_dir=args.output,
        on_result=None if as_json else progress,
        jobs=args.jobs,
    )
    summary_csv = campaign.directory / "summary.csv"
    if as_json:
        _emit_json({
            "experiments": len(specs),
            "summary_csv": str(summary_csv),
            "rows": campaign.summary_rows,
        })
        return 0
    print(f"summary: {summary_csv}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Render the figure bundle for one configuration."""
    from repro.viz.figures import (
        kernel_breakdown_figure,
        powerctl_timeline_figure,
        schedule_timeline_figure,
        temperature_heatmap_figure,
        thermal_timeseries_figure,
        throttle_heatmap_figure,
        throughput_comparison,
    )

    result = submit(_request_from(SimRequest, args, **_run_overrides(args)))
    output = Path(args.output)
    label = result.parallelism.name
    throughput_comparison({label: result}, path=output / "throughput.svg")
    kernel_breakdown_figure({label: result}, path=output / "breakdown.svg")
    temperature_heatmap_figure(result, path=output / "temperature.svg")
    throttle_heatmap_figure(result, path=output / "throttling.svg")
    thermal_timeseries_figure(result, path=output / "timeseries.svg")
    names = [
        "throughput.svg", "breakdown.svg", "temperature.svg",
        "throttling.svg", "timeseries.svg",
    ]
    if result.parallelism.pp > 1:
        schedule_timeline_figure(result, path=output / "schedule.svg")
        names.append("schedule.svg")
    if result.outcome.power_control is not None:
        powerctl_timeline_figure(result, path=output / "powerctl.svg")
        names.append("powerctl.svg")
    if getattr(args, "as_json", False):
        _emit_json({
            "output": str(output),
            "figures": [str(output / name) for name in names],
        })
        return 0
    print(f"wrote {len(names)} figures to {output}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate a multi-job fleet and print the goodput/energy summary."""
    from repro.datacenter import format_fleet_summary, simulate_fleet

    request = SimRequest(
        kind="fleet",
        fleet={
            "clusters": list(args.cluster or ("h200x32",)),
            "policy": args.policy,
            "seed": args.seed,
            "num_jobs": args.num_jobs,
            "mean_interarrival_s": args.mean_arrival_s,
            "power_cap_kw": args.power_cap_kw,
            "cap_mode": args.cap_mode,
            "node_mtbf_s": args.mtbf_s,
            "repair_time_s": args.repair_s,
            "recovery_policy": args.recovery,
            "restart_delay_s": args.restart_delay_s,
            "spare_swapin_s": args.spare_swapin_s,
            "reconfig_s": args.reconfig_s,
            "gpu_clock_limit": args.gpu_clock_limit,
            "gpu_power_limit_w": args.gpu_power_limit_w,
        },
    )
    outcome = simulate_fleet(request.to_fleet_config(), jobs=args.jobs)
    telemetry_csv = timeline_svg = None
    if args.output:
        from repro.telemetry.export import write_fleet_telemetry_csv
        from repro.viz.figures import fleet_timeline_figure

        output = Path(args.output)
        telemetry_csv = write_fleet_telemetry_csv(
            outcome.samples, output / "fleet_telemetry.csv"
        )
        timeline_svg = output / "fleet_timeline.svg"
        fleet_timeline_figure(outcome, path=timeline_svg)
    if getattr(args, "as_json", False):
        payload = asdict(outcome.metrics())
        payload["telemetry_csv"] = (
            str(telemetry_csv) if telemetry_csv else None
        )
        payload["timeline_svg"] = (
            str(timeline_svg) if timeline_svg else None
        )
        _emit_json(payload)
        return 0
    print(format_fleet_summary(outcome.metrics()))
    if telemetry_csv is not None:
        print(f"telemetry     : {telemetry_csv}")
        print(f"timeline      : {timeline_svg}")
    return 0


def _powerctl_workload_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        optimizations=_opts_from(args),
        microbatch_size=args.microbatch,
        global_batch_size=args.global_batch,
        iterations=args.iterations,
        settings=SimSettings(),
        jobs=args.jobs,
        # None (not "1f1b") keeps default-run cache keys unchanged.
        pipeline_schedule=(
            schedule if (schedule := getattr(
                args, "pipeline_schedule", None)) != "1f1b" else None
        ),
        seq_splits=getattr(args, "seq_splits", None),
    )


def _probe_dict(probe, baseline) -> dict:
    saving = (
        1.0 - probe.energy_j / baseline.energy_j
        if baseline.energy_j > 0 else 0.0
    )
    slowdown = (
        probe.step_time_s / baseline.step_time_s - 1.0
        if baseline.step_time_s > 0 else 0.0
    )
    return {
        "setpoint": probe.setpoint,
        "tokens_per_s": probe.tokens_per_s,
        "energy_j": probe.energy_j,
        "mean_freq_ratio": probe.mean_freq_ratio,
        "peak_temp_c": probe.peak_temp_c,
        "energy_saving_fraction": saving,
        "slowdown_fraction": slowdown,
        "feasible": probe.feasible,
    }


def _print_probe_table(probes, baseline) -> None:
    print(
        f"{'setpoint':>8} {'tok/s':>10} {'energy_J':>12} "
        f"{'clock':>6} {'peakT':>6} {'dE%':>7} {'slow%':>6}"
    )
    for probe in sorted(probes, key=lambda p: p.setpoint):
        row = _probe_dict(probe, baseline)
        flag = "" if probe.feasible else "  (infeasible)"
        print(
            f"{probe.setpoint:>8.4f} {probe.tokens_per_s:>10,.0f} "
            f"{probe.energy_j:>12,.0f} "
            f"{probe.mean_freq_ratio:>6.3f} {probe.peak_temp_c:>6.1f} "
            f"{100 * row['energy_saving_fraction']:>7.1f} "
            f"{100 * row['slowdown_fraction']:>6.1f}{flag}"
        )


def cmd_powerctl_sweep(args: argparse.Namespace) -> int:
    """Run a grid of static clock ceilings and print the table."""
    from repro.optimize import evaluate_setpoints

    rows = evaluate_setpoints(
        args.model,
        args.cluster,
        args.parallelism,
        args.setpoint,
        **_powerctl_workload_kwargs(args),
    )
    baseline = max(rows, key=lambda row: row[0])[1]
    base_eff = baseline.efficiency()
    if getattr(args, "as_json", False):
        _emit_json({
            "rows": [
                {
                    "setpoint": setpoint,
                    "tokens_per_s": result.efficiency().tokens_per_s,
                    "energy_j": result.efficiency().energy_j,
                    "tokens_per_joule":
                        result.efficiency().tokens_per_joule,
                    "mean_freq_ratio": result.stats().mean_freq_ratio,
                    "peak_temp_c": result.stats().peak_temp_c,
                }
                for setpoint, result in rows
            ],
        })
        return 0
    print(
        f"{'setpoint':>8} {'tok/s':>10} {'energy_J':>12} {'tok/J':>7} "
        f"{'clock':>6} {'peakT':>6} {'dE%':>7} {'slow%':>6}"
    )
    for setpoint, result in rows:
        eff = result.efficiency()
        stats = result.stats()
        saving = (
            100.0 * (1.0 - eff.energy_j / base_eff.energy_j)
            if base_eff.energy_j > 0 else 0.0
        )
        slowdown = 100.0 * (eff.step_time_s / base_eff.step_time_s - 1.0)
        print(
            f"{setpoint:>8.4f} {eff.tokens_per_s:>10,.0f} "
            f"{eff.energy_j:>12,.0f} {eff.tokens_per_joule:>7.3f} "
            f"{stats.mean_freq_ratio:>6.3f} {stats.peak_temp_c:>6.1f} "
            f"{saving:>7.1f} {slowdown:>6.1f}"
        )
    return 0


def cmd_powerctl_search(args: argparse.Namespace) -> int:
    """Golden-section energy-optimal setpoint search."""
    from repro.optimize import SearchSettings, optimize_setpoint

    max_slowdown = args.max_slowdown if args.max_slowdown >= 0 else None
    search = SearchSettings(
        lo=args.lo,
        hi=args.hi,
        tolerance=args.tolerance,
        edp_exponent=args.edp_exponent,
        max_slowdown=max_slowdown,
    )
    outcome = optimize_setpoint(
        args.model,
        args.cluster,
        args.parallelism,
        search=search,
        **_powerctl_workload_kwargs(args),
    )
    directory = None
    if args.output:
        directory = write_run_artifact(outcome.best_result, args.output)
        if outcome.best_result.outcome.power_control is not None:
            from repro.viz.figures import powerctl_timeline_figure

            powerctl_timeline_figure(
                outcome.best_result, path=directory / "powerctl.svg"
            )
    if getattr(args, "as_json", False):
        _emit_json({
            "best_setpoint": outcome.best.setpoint,
            "energy_saving_fraction": outcome.energy_saving_fraction,
            "slowdown_fraction": outcome.slowdown_fraction,
            "probes": [
                _probe_dict(probe, outcome.baseline)
                for probe in sorted(
                    outcome.probes, key=lambda p: p.setpoint
                )
            ],
            "iterations": outcome.iterations,
            "artifact": str(directory) if directory else None,
        })
        return 0
    print(
        f"search        : energy x delay^{search.edp_exponent:g}, "
        f"bracket [{search.lo:g}, {search.hi:g}], "
        f"{len(outcome.probes)} probes "
        f"({outcome.iterations} refinements)"
    )
    _print_probe_table(outcome.probes, outcome.baseline)
    print(
        f"best setpoint : {outcome.best.setpoint:.4f} "
        f"({100 * outcome.energy_saving_fraction:.1f}% energy saved, "
        f"{100 * outcome.slowdown_fraction:+.1f}% step time)"
    )
    if directory is not None:
        print(f"artifact      : {directory}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """Joint configuration auto-search (docs/optimize.md)."""
    from repro.core.parallel import resolve_jobs
    from repro.optimize import run_optimize

    request = _request_from(
        OptimizeRequest, args,
        max_slowdown=None if args.max_slowdown < 0 else args.max_slowdown,
        serving=None if args.serving is None else json.loads(args.serving),
    )
    jobs = 1 if args.jobs == 1 else resolve_jobs(args.jobs)
    result = run_optimize(request, jobs=jobs)
    if getattr(args, "as_json", False):
        _emit_json(result.to_dict())
        return 0
    prune = result.prune
    print(
        f"search        : min {result.objective} over {prune.raw} "
        f"candidates ({args.model} on {args.cluster}, "
        f"kind={result.kind})"
    )
    print(
        f"pruned        : {prune.raw - prune.simulated}/{prune.raw} "
        f"before simulation ({100 * prune.pruned_fraction:.1f}%): "
        f"tiling {prune.pruned_tiling}, "
        f"schedule {prune.pruned_schedule}, "
        f"memory {prune.pruned_memory}, "
        f"power cap {prune.pruned_power_cap}, "
        f"ranked out {prune.ranked_out}"
    )
    print(
        f"probes        : {result.probes_total} simulations, "
        f"{result.probes_cached} answered from cache"
    )
    print(
        f"{'config':<22} {'mb':>3} {'schedule':>11} {'setpoint':>8} "
        f"{'cost':>12} {'feasible':>8}"
    )
    for c in result.candidates:
        print(
            f"{c.parallelism:<22} {c.microbatch_size:>3} "
            f"{c.pipeline_schedule or '-':>11} {c.setpoint:>8.4f} "
            f"{c.cost:>12.5g} {'yes' if c.feasible else 'no':>8}"
        )
    best = result.best
    print(
        f"best          : {best.parallelism} mb={best.microbatch_size} "
        f"{best.pipeline_schedule or '-'} @ setpoint "
        f"{best.setpoint:.4f} (cost {best.cost:.5g})"
    )
    if result.baseline is not None and result.baseline is not best:
        base = result.baseline
        print(
            f"baseline      : {base.parallelism} "
            f"mb={base.microbatch_size} "
            f"{base.pipeline_schedule or '-'} @ setpoint "
            f"{base.setpoint:.4f} (cost {base.cost:.5g})"
        )
        print(
            f"improvement   : "
            f"{100 * result.improvement_fraction:.1f}% vs the default "
            "schedule/setpoint"
        )
    return 0


def _serving_dict_from(args: argparse.Namespace) -> dict:
    """The ``SimRequest.serving`` payload the inferserve flags describe."""
    from repro.inferserve import rate_from_daily_users

    rate = args.rate
    if args.daily_users is not None:
        rate = rate_from_daily_users(args.daily_users)
    trace = dict(
        kind=args.trace,
        duration_s=args.duration_s,
        mean_rate_per_s=rate,
        seed=args.seed,
        prompt_tokens_mean=args.prompt_tokens,
        decode_tokens_mean=args.decode_tokens,
    )
    if args.diurnal_period_s is not None:
        trace["diurnal_period_s"] = args.diurnal_period_s
    batcher = dict(
        scheduler=args.scheduler,
        gpus_per_replica=args.gpus_per_replica,
        max_batch_requests=args.max_batch,
        disaggregated=args.disaggregated,
    )
    serving: dict = dict(
        trace=trace,
        batcher=batcher,
        slo=dict(ttft_p99_s=args.slo_ttft, tpot_p99_s=args.slo_tpot),
        replicas=args.replicas,
    )
    if args.autoscale:
        serving["autoscale"] = dict(
            enabled=True,
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
        )
    return serving


def _serving_metrics_dict(outcome) -> dict:
    return asdict(outcome.metrics())


def _print_serving_outcome(outcome) -> None:
    metrics = outcome.metrics()
    print(
        f"requests      : {metrics.arrived} arrived, "
        f"{metrics.completed} completed, {metrics.rejected} rejected, "
        f"{metrics.preemptions} preemption(s)"
    )
    print(
        f"goodput       : {metrics.goodput_per_s:.2f} req/s within SLO "
        f"({100 * metrics.slo_attainment:.1f}% attainment)"
    )
    print(
        f"latency       : TTFT p50 {metrics.ttft_p50_s:.3f} s / "
        f"p99 {metrics.ttft_p99_s:.3f} s, TPOT p99 "
        f"{metrics.tpot_p99_s * 1e3:.1f} ms, E2E p99 "
        f"{metrics.e2e_p99_s:.2f} s"
    )
    print(
        f"energy        : {metrics.energy_j:,.0f} J total, "
        f"{metrics.energy_per_token_j:.3f} J/token, "
        f"mean {metrics.mean_power_w / 1e3:.2f} kW"
    )
    print(
        f"replicas      : {len(outcome.replicas)} used, "
        f"{len(outcome.scale_events)} scale event(s), "
        f"{metrics.active_replica_seconds:,.0f} replica-seconds"
    )


def _write_serving_artifacts(outcome, output: str) -> dict:
    from repro.telemetry.export import (
        write_serving_requests_csv,
        write_serving_timeline_csv,
    )
    from repro.viz.figures import serving_timeline_figure

    directory = Path(output)
    paths = {
        "requests_csv": str(
            write_serving_requests_csv(
                outcome, directory / "serving_requests.csv"
            )
        ),
        "timeline_csv": str(
            write_serving_timeline_csv(
                outcome, directory / "serving_timeline.csv"
            )
        ),
        "figure": str(directory / "serving.svg"),
    }
    serving_timeline_figure(outcome, path=directory / "serving.svg")
    return paths


def cmd_inferserve_run(args: argparse.Namespace) -> int:
    """Simulate one serving deployment and print its headline metrics."""
    request = _request_from(
        SimRequest, args, kind="serving", serving=_serving_dict_from(args)
    )
    outcome = submit(request)
    artifacts = {}
    if args.output:
        artifacts = _write_serving_artifacts(outcome, args.output)
    if getattr(args, "as_json", False):
        payload = _serving_metrics_dict(outcome)
        payload["digest"] = request.digest()
        payload.update(artifacts)
        _emit_json(payload)
        return 0
    print(f"deployment    : {request.label}")
    _print_serving_outcome(outcome)
    for name, path in artifacts.items():
        print(f"{name:<14}: {path}")
    return 0


def cmd_inferserve_sweep(args: argparse.Namespace) -> int:
    """Sweep DVFS setpoints (optionally refine with the golden search)."""
    serving = _serving_dict_from(args)
    requests = [
        _request_from(SimRequest, args, kind="serving",
                      freq_setpoint=setpoint, serving=serving)
        for setpoint in args.setpoint
    ]
    outcomes = submit_many(requests, jobs=args.jobs)
    rows = list(zip(args.setpoint, outcomes))
    search_outcome = None
    if args.search:
        from repro.inferserve import ServingConfig
        from repro.optimize import (
            ServingSearchSettings,
            optimize_serving_setpoint,
        )

        settings = ServingSearchSettings(
            lo=min(args.setpoint),
            hi=max(args.setpoint),
            max_ttft_regression=args.max_ttft_regression,
        )
        search_outcome = optimize_serving_setpoint(
            args.model,
            args.cluster,
            ServingConfig.from_dict(serving),
            settings=settings,
            jobs=args.jobs,
        )
    if getattr(args, "as_json", False):
        payload: dict = {
            "rows": [
                dict(setpoint=setpoint, **_serving_metrics_dict(outcome))
                for setpoint, outcome in rows
            ],
        }
        if search_outcome is not None:
            payload["search"] = {
                "best_setpoint": search_outcome.best.setpoint,
                "energy_saving_fraction":
                    search_outcome.energy_saving_fraction,
                "ttft_regression_fraction":
                    search_outcome.ttft_regression_fraction,
                "iterations": search_outcome.iterations,
                "probes": len(search_outcome.probes),
            }
        _emit_json(payload)
        return 0
    baseline = max(rows, key=lambda row: row[0])[1].metrics()
    print(
        f"{'setpoint':>8} {'goodput':>8} {'attain%':>8} {'ttft99':>8} "
        f"{'J/token':>8} {'dE%':>7}"
    )
    for setpoint, outcome in rows:
        metrics = outcome.metrics()
        saving = (
            100.0 * (1.0 - metrics.energy_per_token_j
                     / baseline.energy_per_token_j)
            if baseline.energy_per_token_j > 0 else 0.0
        )
        print(
            f"{setpoint:>8.4f} {metrics.goodput_per_s:>8.2f} "
            f"{100 * metrics.slo_attainment:>8.1f} "
            f"{metrics.ttft_p99_s:>8.3f} "
            f"{metrics.energy_per_token_j:>8.3f} {saving:>7.1f}"
        )
    if search_outcome is not None:
        print(
            f"best setpoint : {search_outcome.best.setpoint:.4f} "
            f"({100 * search_outcome.energy_saving_fraction:.1f}% "
            "energy/token saved, "
            f"{100 * search_outcome.ttft_regression_fraction:+.1f}% "
            "p99 TTFT)"
        )
    return 0


def _recovery_config_from(args: argparse.Namespace):
    from repro.resilience.recovery import RecoveryConfig

    return RecoveryConfig(
        policy=getattr(args, "policy", "failstop"),
        total_iterations=args.total_iterations,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_bw_gb_s=args.checkpoint_bw_gb_s,
        repair_time_s=args.repair_s,
        restart_delay_s=args.restart_delay_s,
        spare_swapin_s=args.spare_swapin_s,
        reconfig_s=args.reconfig_s,
        mtbf_s=getattr(args, "mtbf_s", 0.0) or 0.0,
        fault_times_s=tuple(getattr(args, "fault_at", None) or ()),
        seed=args.seed,
    )


def _probe_kwargs_from(args: argparse.Namespace) -> dict:
    return dict(
        global_batch_size=args.global_batch,
        microbatch_size=args.microbatch,
    )


def _resilience_run_dict(run) -> dict:
    return {
        "policy": run.policy,
        "mtbf_s": run.mtbf_s,
        "faults_seen": run.faults_seen,
        "hangs_detected": run.hangs_detected,
        "completed": run.completed,
        "replayed": run.replayed,
        "lost": run.lost,
        "scheduled": run.scheduled,
        "makespan_s": run.makespan_s,
        "ideal_makespan_s": run.ideal_makespan_s,
        "goodput_fraction": run.goodput_fraction,
        "energy_per_token_j": run.energy_per_token_j,
        "checkpoint_writes": run.checkpoint_writes,
        "checkpoint_write_s": run.checkpoint_write_s,
    }


def _print_resilience_run(run) -> None:
    print(f"policy        : {run.policy}")
    print(
        f"faults        : {run.faults_seen} seen, "
        f"{run.hangs_detected} hang(s) detected"
    )
    print(
        f"iterations    : {run.completed} completed + {run.replayed} "
        f"replayed + {run.lost} lost = {run.scheduled} scheduled"
    )
    print(
        f"makespan      : {run.makespan_s:,.1f} s "
        f"(fault-free {run.ideal_makespan_s:,.1f} s)"
    )
    print(f"goodput       : {100 * run.goodput_fraction:.1f}% of fault-free")
    print(f"energy/token  : {run.energy_per_token_j:.4f} J")
    print(
        f"checkpoints   : {run.checkpoint_writes} writes x "
        f"{run.checkpoint_write_s:.2f} s"
    )


def cmd_resilience_run(args: argparse.Namespace) -> int:
    """Walk one recovery policy over one fault schedule."""
    from repro.resilience.recovery import simulate_recovery

    if args.mtbf_s and args.fault_at:
        raise ValueError(
            "--mtbf-s and --fault-at are exclusive: give either a "
            "failure rate or explicit fault times"
        )
    run = simulate_recovery(
        args.model, args.cluster, args.parallelism,
        _recovery_config_from(args), **_probe_kwargs_from(args),
    )
    csv_path = None
    if args.output:
        from repro.telemetry.export import write_resilience_csv

        csv_path = write_resilience_csv(
            [run], Path(args.output) / "resilience.csv"
        )
    if getattr(args, "as_json", False):
        payload = _resilience_run_dict(run)
        payload["csv"] = str(csv_path) if csv_path else None
        _emit_json(payload)
        return 0
    _print_resilience_run(run)
    if csv_path is not None:
        print(f"csv           : {csv_path}")
    return 0


def cmd_resilience_sweep(args: argparse.Namespace) -> int:
    """Compare every recovery policy across an MTBF grid."""
    from repro.resilience.recovery import POLICIES, sweep_mtbf
    from repro.suggest import unknown_name_message

    policies = tuple(args.policies or POLICIES)
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(
                "--policy: "
                + unknown_name_message("recovery policy", policy, POLICIES)
            )
    rows = sweep_mtbf(
        args.model, args.cluster, args.parallelism,
        args.mtbf_grid, _recovery_config_from(args),
        policies=policies, **_probe_kwargs_from(args),
    )
    csv_path = figure_path = None
    if args.output:
        from repro.telemetry.export import write_resilience_csv
        from repro.viz.figures import mtbf_goodput_figure

        output = Path(args.output)
        runs = [row[policy] for row in rows for policy in policies]
        csv_path = write_resilience_csv(runs, output / "resilience.csv")
        figure_path = output / "mtbf_goodput.svg"
        mtbf_goodput_figure(rows, path=figure_path)
    if getattr(args, "as_json", False):
        _emit_json({
            "rows": [
                _resilience_run_dict(row[policy])
                for row in rows
                for policy in policies
            ],
            "csv": str(csv_path) if csv_path else None,
            "figure": str(figure_path) if figure_path else None,
        })
        return 0
    header = f"{'mtbf_s':>8}"
    for policy in policies:
        header += f" {policy + ' good%':>16} {'lost':>5}"
    print(header)
    for row in rows:
        mtbf = row[policies[0]].mtbf_s
        line = f"{mtbf:>8,.0f}"
        for policy in policies:
            run = row[policy]
            line += (
                f" {100 * run.goodput_fraction:>15.1f}% {run.lost:>5}"
            )
        print(line)
    if csv_path is not None:
        print(f"csv           : {csv_path}")
        print(f"figure        : {figure_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation broker as a long-lived HTTP service."""
    from repro.serve import BrokerConfig, BrokerServer

    # The deployed service runs with the self-healing stack on (crash
    # retries, circuit breakers, degraded answers); the library-level
    # BrokerConfig defaults keep them off for embedders and tests.
    config = BrokerConfig(
        concurrency=max(args.concurrency, args.workers),
        queue_limit=args.queue_limit,
        default_timeout_s=(
            args.timeout_s if args.timeout_s > 0 else None
        ),
        use_processes=not args.inline,
        workers=args.workers,
        slo_target_s=(
            args.slo_target_s if args.slo_target_s > 0 else None
        ),
        retry_attempts=args.retry_attempts,
        breaker_failures=args.breaker_failures,
        hedge_s=args.hedge_s if args.hedge_s > 0 else None,
        degraded=not args.no_degraded,
    )
    server = BrokerServer(
        config, host=args.host, port=args.port, verbose=True
    )
    if args.worker_listen > 0:
        if not args.worker_authkey:
            print(
                "error: --worker-listen requires --worker-authkey",
                file=sys.stderr,
            )
            server.stop()
            return 2
        if server.broker.pool is None:
            print(
                "error: --worker-listen requires --workers >= 1 "
                "(remote workers join the local pool)",
                file=sys.stderr,
            )
            server.stop()
            return 2
        host, port = server.broker.pool.listen(
            (args.host, args.worker_listen),
            args.worker_authkey.encode(),
        )
        print(
            f"accepting remote workers on {host}:{port} "
            "(python -m repro worker --connect ...)"
        )
    print(
        f"serving on http://{server.address} "
        "(POST /v1/simulate, GET /v1/status, GET /v1/metrics; "
        "Ctrl-C to stop)"
    )
    server.run()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a broker's worker pool from this host (TCP).

    By default a lost broker (restart, network partition) is re-dialled
    with capped full-jitter backoff instead of killing the worker; each
    connection-state change is logged as one structured JSON line on
    stderr so supervisors can alert on ``reconnect_wait`` storms.
    """
    from repro.chaos.policies import RetryPolicy
    from repro.serve import serve_worker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --connect must be HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2

    def log_event(event: dict) -> None:
        print(json.dumps({"worker": True, **event}), file=sys.stderr)

    print(f"joining worker pool at {host}:{port} (Ctrl-C to leave)")
    try:
        serve_worker(
            (host, int(port)),
            args.authkey.encode(),
            reconnect=not args.no_reconnect,
            retry=RetryPolicy(
                attempts=2, base_s=0.5,
                cap_s=max(0.5, args.retry_cap_s),
            ),
            max_retries=(
                args.max_retries if args.max_retries >= 0 else None
            ),
            on_event=log_event,
        )
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError) as error:
        print(f"error: could not join pool: {error}", file=sys.stderr)
        return 3
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded fault-injection scenarios against the serve stack."""
    from repro.chaos import SCENARIOS, get_scenario, run_scenario

    if args.list:
        if args.as_json:
            _emit_json({
                name: scenario.description
                for name, scenario in sorted(SCENARIOS.items())
            })
        else:
            for name, scenario in sorted(SCENARIOS.items()):
                print(f"{name:<14} {scenario.description}")
        return 0
    names = args.scenario or ["soak"]
    scenarios = [get_scenario(name) for name in names]
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    scratch = None
    if cache_dir is None:
        # Corruption faults must never touch a real cache.
        scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        cache_dir = scratch.name
    reports = []
    try:
        for scenario in scenarios:
            if not args.as_json:
                print(f"running {scenario.name} "
                      f"(seed {args.seed}, {args.requests} requests, "
                      f"{args.workers} workers)...")
            report = run_scenario(
                scenario,
                seed=args.seed,
                requests=args.requests,
                workers=args.workers,
                cache_dir=cache_dir,
            )
            reports.append(report)
            if not args.as_json:
                print(report.describe())
    finally:
        if scratch is not None:
            scratch.cleanup()
    payload = {
        "seed": args.seed,
        "requests": args.requests,
        "workers": args.workers,
        "scenarios": [report.to_dict() for report in reports],
        "survived": all(report.survived for report in reports),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        if not args.as_json:
            print(f"wrote {args.out}")
    if args.as_json:
        _emit_json(payload)
    return 0 if payload["survived"] else 3


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent result cache."""
    from repro.core.store import result_store

    store = result_store()
    as_json = getattr(args, "as_json", False)
    if args.action == "clear":
        removed = store.clear()
        if as_json:
            _emit_json({"removed": removed, "root": str(store.root)})
        else:
            print(f"removed {removed} cached results from {store.root}")
        return 0
    stats = store.stats()
    if as_json:
        _emit_json({
            "root": str(stats.root),
            "schema_version": stats.schema_version,
            "entries": stats.entries,
            "total_mb": stats.total_mb,
            "stale_entries": stats.stale_entries,
            "quarantined_entries": stats.quarantined_entries,
            "entries_by_version": dict(stats.entries_by_version),
        })
        return 0
    print(f"cache root    : {stats.root}")
    print(f"schema        : v{stats.schema_version}")
    print(f"entries       : {stats.entries}")
    print(f"size          : {stats.total_mb:.1f} MiB")
    for version, count in stats.entries_by_version:
        marker = (
            "" if version == f"v{stats.schema_version}" else " (stale)"
        )
        print(f"  {version:<11} : {count}{marker}")
    if stats.stale_entries:
        print(
            f"stale entries : {stats.stale_entries} "
            "(older schema; 'repro cache clear' removes them)"
        )
    if stats.quarantined_entries:
        print(
            f"quarantined   : {stats.quarantined_entries} corrupt "
            "entries moved aside (recomputed on next use; 'repro cache "
            "clear' removes them)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CharLLM-PPT: power/performance/thermal characterization of "
            "distributed LLM training on a simulated testbed"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared once and attached via parents=[...]:
    # every result-producing subcommand speaks the same --json / --jobs /
    # cache dialect (the CLI consistency contract in docs/api.md).
    json_flags = argparse.ArgumentParser(add_help=False)
    json_flags.add_argument(
        "--json", dest="as_json", action="store_true",
        help="print a machine-readable JSON summary to stdout",
    )
    jobs_flags = argparse.ArgumentParser(add_help=False)
    jobs_flags.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for simulations (0 = auto: cpu_count-1)",
    )
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result store for this invocation",
    )
    cache_flags.add_argument(
        "--cache-dir", default=None,
        help="redirect the persistent result store "
             "(default: .repro_cache, or $REPRO_CACHE_DIR)",
    )
    sim_parents = [json_flags, jobs_flags, cache_flags]

    catalog = subparsers.add_parser(
        "catalog", help="list models and clusters", parents=[json_flags]
    )
    catalog.set_defaults(func=cmd_catalog)

    configs = subparsers.add_parser(
        "configs", help="list valid parallelism configurations",
        parents=[json_flags],
    )
    configs.add_argument("--model", required=True)
    configs.add_argument("--cluster", required=True)
    configs.add_argument("--microbatch", type=int, default=1)
    configs.add_argument("--act", action="store_true")
    configs.set_defaults(func=cmd_configs)

    run = subparsers.add_parser(
        "run", help="run one experiment", parents=sim_parents
    )
    _add_run_arguments(run)
    run.add_argument("--output", default=None,
                     help="write an artifact directory here")
    run.set_defaults(func=cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="run a strategy x microbatch x schedule grid",
        parents=sim_parents,
    )
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--cluster", required=True)
    sweep.add_argument(
        "--parallelism", action="append", required=True,
        help="repeatable: one strategy per flag",
    )
    sweep.add_argument(
        "--microbatch", type=int, nargs="+", default=[1],
    )
    sweep.add_argument(
        "--pipeline-schedule", action="append", default=None,
        help="repeatable sweep axis: one registered schedule per flag "
             "(default: 1f1b only)",
    )
    sweep.add_argument("--global-batch", type=int, default=128)
    sweep.add_argument("--iterations", type=int, default=2)
    sweep.add_argument("--act", action="store_true")
    sweep.add_argument("--cc", action="store_true")
    sweep.add_argument("--lora", action="store_true")
    sweep.set_defaults(func=cmd_sweep, fail_node=None)

    figures = subparsers.add_parser(
        "figures", help="render the SVG figure bundle for one run",
        parents=sim_parents,
    )
    _add_run_arguments(figures)
    figures.add_argument("--output", required=True)
    figures.set_defaults(func=cmd_figures)

    full_sweep = subparsers.add_parser(
        "full-sweep",
        help="run the paper's evaluation grid and write all artifacts",
        parents=sim_parents,
    )
    full_sweep.add_argument(
        "--cluster", action="append", required=True,
        help="repeatable: h200x32/h100x64 together, or mi250x32",
    )
    full_sweep.add_argument("--output", required=True)
    full_sweep.set_defaults(func=cmd_full_sweep)

    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a multi-job fleet with power/thermal-aware placement",
        parents=sim_parents,
    )
    fleet.add_argument(
        "--policy", default="packed",
        choices=("packed", "spread", "thermal-aware"),
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--cluster", action="append", default=None,
        help="repeatable: clusters in the fleet pool (default h200x32)",
    )
    fleet.add_argument("--num-jobs", type=int, default=12,
                       help="number of arriving jobs")
    fleet.add_argument("--mean-arrival-s", type=float, default=20.0,
                       help="mean interarrival time (exponential)")
    fleet.add_argument(
        "--power-cap-kw", type=float, default=None,
        help="facility power cap in kW (default: uncapped)",
    )
    fleet.add_argument("--cap-mode", default="defer",
                       choices=("defer", "cap"))
    fleet.add_argument("--mtbf-s", "--node-mtbf-s", dest="mtbf_s",
                       type=float, default=0.0,
                       help="per-node mean time between failures (0 = off)")
    fleet.add_argument("--repair-s", "--repair-time-s", dest="repair_s",
                       type=float, default=180.0,
                       help="node repair time after a fault")
    fleet.add_argument(
        "--recovery", default="failstop",
        help="recovery policy for fault-interrupted jobs: failstop "
             "(default), hot-spare, or elastic",
    )
    fleet.add_argument("--restart-delay-s", type=float, default=0.0,
                       help="failstop: restore delay before requeue")
    fleet.add_argument("--spare-swapin-s", type=float, default=0.0,
                       help="hot-spare: swap-in delay before requeue")
    fleet.add_argument("--reconfig-s", type=float, default=0.0,
                       help="elastic: re-group delay before requeue")
    fleet.add_argument(
        "--gpu-clock-limit", type=float, default=None,
        help="fleet-wide static clock ceiling applied to every placed "
             "job (composes with the facility power cap)",
    )
    fleet.add_argument(
        "--gpu-power-limit-w", type=float, default=None,
        help="fleet-wide per-GPU board power limit in W "
             "(overrides --gpu-clock-limit)",
    )
    fleet.add_argument("--output", default=None,
                       help="write fleet telemetry CSV + timeline SVG here")
    fleet.set_defaults(func=cmd_fleet)

    powerctl = subparsers.add_parser(
        "powerctl",
        help="GPU power management: setpoint sweeps and the "
             "energy-optimal search (docs/powerctl.md)",
    )
    modes = powerctl.add_subparsers(dest="mode", required=True)

    pc_sweep = modes.add_parser(
        "sweep", help="run a grid of static clock ceilings",
        parents=sim_parents,
    )
    _add_workload_arguments(pc_sweep)
    pc_sweep.add_argument(
        "--setpoint", type=float, nargs="+",
        default=[0.6, 0.7, 0.8, 0.9, 1.0],
        help="clock-ratio ceilings to evaluate",
    )
    pc_sweep.set_defaults(func=cmd_powerctl_sweep)

    pc_search = modes.add_parser(
        "search",
        help="golden-section search for the energy-optimal setpoint",
        parents=sim_parents,
    )
    _add_workload_arguments(pc_search)
    pc_search.add_argument("--lo", type=float, default=0.55,
                           help="lower bracket bound")
    pc_search.add_argument("--hi", type=float, default=1.0,
                           help="upper bracket bound")
    pc_search.add_argument("--tolerance", type=float, default=0.03,
                           help="stop when the bracket is this narrow")
    pc_search.add_argument(
        "--edp-exponent", type=float, default=1.0,
        help="n in the energy x delay^n cost (0 = pure energy)",
    )
    pc_search.add_argument(
        "--max-slowdown", type=float, default=0.05,
        help="max step-time inflation vs uncapped (negative = unbounded)",
    )
    pc_search.add_argument(
        "--output", default=None,
        help="write the best run's artifact + powerctl figure here",
    )
    pc_search.set_defaults(func=cmd_powerctl_search)

    optimize = subparsers.add_parser(
        "optimize",
        help="joint auto-search: plan x microbatch x schedule x "
             "setpoint under constraints (docs/optimize.md)",
        parents=sim_parents,
    )
    optimize.add_argument("--model", required=True,
                          help="catalog model name")
    optimize.add_argument("--cluster", required=True,
                          help="catalog cluster name")
    optimize.add_argument(
        "--kind", choices=["training", "serving"], default="training",
        help="search a training plan grid or a serving deployment grid",
    )
    optimize.add_argument(
        "--objective", default="energy_delay",
        help="energy | energy_delay | energy_delay^N | time | "
             "energy_per_token (serving)",
    )
    optimize.add_argument(
        "--max-slowdown", type=float, default=0.05,
        help="max step-time inflation vs the fastest simulated plan "
             "(negative = unbounded)",
    )
    optimize.add_argument(
        "--max-ttft-regression", type=float, default=0.05,
        help="serving: max p99 TTFT inflation during setpoint "
             "refinement",
    )
    optimize.add_argument(
        "--power-cap-w", type=float, default=None,
        help="facility power cap on the cluster's mean draw",
    )
    optimize.add_argument("--global-batch", type=int, default=32)
    optimize.add_argument("--iterations", type=int, default=2)
    optimize.add_argument(
        "--microbatch", type=int, nargs="+", default=[1, 2, 4],
        help="microbatch sizes on the grid",
    )
    optimize.add_argument(
        "--schedule", action="append", default=None,
        help="pin the schedule axis (repeatable; default: every "
             "registered pipeline schedule)",
    )
    optimize.add_argument(
        "--parallelism", action="append", default=None,
        help="pin the plan axis to explicit strategies (repeatable; "
             "default: every tiling-valid layout)",
    )
    optimize.add_argument("--allow-fsdp", action="store_true",
                          help="include FSDP layouts in the plan axis")
    optimize.add_argument(
        "--beam-width", type=int, default=4,
        help="distinct layouts simulated after analytic ranking",
    )
    optimize.add_argument(
        "--refine-top", type=int, default=2,
        help="feasible plans given the golden-section setpoint search",
    )
    optimize.add_argument("--lo", type=float, default=0.55,
                          help="setpoint bracket lower bound")
    optimize.add_argument("--hi", type=float, default=1.0,
                          help="setpoint bracket upper bound")
    optimize.add_argument("--tolerance", type=float, default=0.03,
                          help="setpoint bracket width at convergence")
    optimize.add_argument(
        "--replicas", type=int, nargs="+", default=None,
        help="serving: replica counts on the deployment grid",
    )
    optimize.add_argument(
        "--gpus-per-replica", type=int, nargs="+", default=None,
        help="serving: per-replica GPU counts on the deployment grid",
    )
    optimize.add_argument(
        "--serving", default=None,
        help="serving: ServingConfig JSON (catalog defaults when "
             "omitted)",
    )
    optimize.add_argument("--timeout-s", type=float, default=None,
                          help="broker deadline when served over HTTP")
    optimize.set_defaults(func=cmd_optimize)

    inferserve = subparsers.add_parser(
        "inferserve",
        help="LLM serving: continuous batching, SLO goodput, and "
             "energy-per-token under DVFS (docs/inferserve.md)",
    )
    is_modes = inferserve.add_subparsers(dest="mode", required=True)

    def _add_serving_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--model", required=True,
                         help="catalog model name")
        sub.add_argument("--cluster", required=True,
                         help="catalog cluster name")
        sub.add_argument(
            "--trace", default="poisson",
            choices=("poisson", "diurnal", "bursty"),
            help="arrival process",
        )
        sub.add_argument("--duration-s", type=float, default=600.0,
                         help="simulated horizon")
        sub.add_argument("--rate", type=float, default=1.0,
                         help="mean request arrival rate per second")
        sub.add_argument(
            "--daily-users", type=float, default=None,
            help="size the mean rate from users/day instead of --rate",
        )
        sub.add_argument(
            "--diurnal-period-s", type=float, default=None,
            help="diurnal cycle length (default: 24 h)",
        )
        sub.add_argument("--seed", type=int, default=0,
                         help="trace seed")
        sub.add_argument("--prompt-tokens", type=int, default=512,
                         help="mean prompt length")
        sub.add_argument("--decode-tokens", type=int, default=128,
                         help="mean decode length")
        sub.add_argument("--replicas", type=int, default=2,
                         help="initial model replicas")
        sub.add_argument("--gpus-per-replica", type=int, default=4,
                         help="tensor-parallel width of one replica")
        sub.add_argument("--max-batch", type=int, default=64,
                         help="in-flight request ceiling per replica")
        sub.add_argument(
            "--scheduler", default="continuous",
            choices=("continuous", "run_to_completion"),
            help="batching discipline",
        )
        sub.add_argument(
            "--disaggregated", action="store_true",
            help="split replicas into prefill and decode pools",
        )
        sub.add_argument(
            "--autoscale", action="store_true",
            help="enable the reactive queue-depth autoscaler",
        )
        sub.add_argument("--min-replicas", type=int, default=1)
        sub.add_argument("--max-replicas", type=int, default=64)
        sub.add_argument("--slo-ttft", type=float, default=2.0,
                         help="p99 TTFT target in seconds")
        sub.add_argument("--slo-tpot", type=float, default=0.2,
                         help="p99 TPOT target in seconds")

    is_run = is_modes.add_parser(
        "run", help="simulate one serving deployment",
        parents=sim_parents,
    )
    _add_serving_arguments(is_run)
    is_run.add_argument("--freq-setpoint", type=float, default=1.0,
                        help="DVFS clock cap for every serving GPU")
    is_run.add_argument(
        "--output", default=None,
        help="write request/timeline CSVs + serving figure here",
    )
    is_run.set_defaults(func=cmd_inferserve_run)

    is_sweep = is_modes.add_parser(
        "sweep",
        help="sweep DVFS setpoints for energy-per-token "
             "(--search refines with the golden-section search)",
        parents=sim_parents,
    )
    _add_serving_arguments(is_sweep)
    is_sweep.add_argument(
        "--setpoint", type=float, nargs="+",
        default=[0.6, 0.7, 0.8, 0.9, 1.0],
        help="clock-ratio ceilings to evaluate",
    )
    is_sweep.add_argument(
        "--search", action="store_true",
        help="run the golden-section energy-per-token search over "
             "the setpoint bracket",
    )
    is_sweep.add_argument(
        "--max-ttft-regression", type=float, default=0.05,
        help="admissible p99 TTFT inflation for the search",
    )
    is_sweep.set_defaults(func=cmd_inferserve_sweep)

    resilience = subparsers.add_parser(
        "resilience",
        help="fault timelines and checkpoint/restart recovery policies "
             "(docs/resilience.md)",
    )
    res_modes = resilience.add_subparsers(dest="mode", required=True)

    def _add_resilience_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--model", required=True,
                         help="catalog model name")
        sub.add_argument("--cluster", required=True,
                         help="catalog cluster name")
        sub.add_argument("--parallelism", required=True,
                         help="paper-style strategy, e.g. TP4-PP2")
        sub.add_argument("--microbatch", type=int, default=1)
        sub.add_argument("--global-batch", type=int, default=16)
        sub.add_argument("--total-iterations", type=int, default=200,
                         help="optimizer steps the job owes")
        sub.add_argument("--checkpoint-interval", type=int, default=10,
                         help="iterations between checkpoint writes")
        sub.add_argument("--checkpoint-bw-gb-s", type=float, default=25.0,
                         help="effective checkpoint write bandwidth")
        sub.add_argument("--repair-s", "--repair-time-s", dest="repair_s",
                         type=float, default=900.0,
                         help="failstop: node repair time")
        sub.add_argument("--restart-delay-s", type=float, default=120.0,
                         help="failstop: job restart delay after repair")
        sub.add_argument("--spare-swapin-s", type=float, default=180.0,
                         help="hot-spare: spare swap-in time")
        sub.add_argument("--reconfig-s", type=float, default=15.0,
                         help="elastic: DP re-group time")
        sub.add_argument("--seed", type=int, default=0,
                         help="fault schedule seed")
        sub.add_argument("--output", default=None,
                         help="write resilience CSV (and figure) here")

    res_run = res_modes.add_parser(
        "run", help="walk one recovery policy over one fault schedule",
        parents=[json_flags, cache_flags],
    )
    _add_resilience_arguments(res_run)
    res_run.add_argument(
        "--policy", default="failstop",
        help="recovery policy: failstop, hot-spare, or elastic",
    )
    res_run.add_argument(
        "--mtbf-s", "--node-mtbf-s", dest="mtbf_s",
        type=float, default=0.0,
        help="per-node mean time between failures (0 = fault-free)",
    )
    res_run.add_argument(
        "--fault-at", type=float, nargs="+", default=None,
        help="explicit fault onset seconds (exclusive with --mtbf-s)",
    )
    res_run.set_defaults(func=cmd_resilience_run)

    res_sweep = res_modes.add_parser(
        "sweep", help="compare recovery policies across an MTBF grid",
        parents=[json_flags, cache_flags],
    )
    _add_resilience_arguments(res_sweep)
    res_sweep.add_argument(
        "--mtbf-s", "--node-mtbf-s", dest="mtbf_grid",
        type=float, nargs="+", required=True,
        help="MTBF grid points in seconds",
    )
    res_sweep.add_argument(
        "--policy", action="append", dest="policies", default=None,
        help="repeatable: policies to compare (default: all three)",
    )
    res_sweep.set_defaults(func=cmd_resilience_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation broker as an HTTP service "
             "(POST /v1/simulate; docs/api.md)",
        parents=[cache_flags],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8053,
                       help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--concurrency", type=int, default=2,
        help="simulations executing at once",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="waiting requests before new misses are rejected (429)",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=300.0,
        help="default per-request deadline (0 = unlimited)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="execute in-process instead of supervised worker "
             "processes (no kill-on-timeout; mainly for debugging)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="persistent worker-pool processes executing misses "
             "(0 = fork one supervised child per request); raises "
             "--concurrency to match when larger",
    )
    serve.add_argument(
        "--slo-target-s", type=float, default=0.0,
        help="reject misses whose predicted wait (queue depth x mean "
             "service time) exceeds this bound with 429 + Retry-After "
             "(0 = disabled)",
    )
    serve.add_argument(
        "--worker-listen", type=int, default=0,
        help="also accept remote TCP workers on this port "
             "(requires --workers and --worker-authkey)",
    )
    serve.add_argument(
        "--worker-authkey", default="",
        help="shared secret authenticating remote workers",
    )
    serve.add_argument(
        "--retry-attempts", type=int, default=3,
        help="execution attempts per miss after worker crashes "
             "(1 = never retry)",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=5,
        help="consecutive execution failures that open the broker's "
             "circuit breaker (0 = disabled)",
    )
    serve.add_argument(
        "--hedge-s", type=float, default=0.0,
        help="hedged requests: duplicate a pool dispatch that has not "
             "answered after this many seconds, first answer wins "
             "(0 = disabled; needs --workers)",
    )
    serve.add_argument(
        "--no-degraded", action="store_true",
        help="return structured errors instead of degraded "
             "(stale-cache / analytic) answers when execution fails",
    )
    serve.set_defaults(func=cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="join a remote broker's worker pool over TCP "
             "(the other side of 'repro serve --worker-listen')",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's --worker-listen address",
    )
    worker.add_argument(
        "--authkey", required=True,
        help="shared secret (must match the broker's --worker-authkey)",
    )
    worker.add_argument(
        "--no-reconnect", action="store_true",
        help="exit when the broker connection is lost instead of "
             "re-dialling with capped backoff",
    )
    worker.add_argument(
        "--retry-cap-s", type=float, default=30.0,
        help="ceiling on the jittered reconnect backoff delay",
    )
    worker.add_argument(
        "--max-retries", type=int, default=-1,
        help="give up after this many consecutive failed reconnect "
             "dials (-1 = keep trying)",
    )
    worker.set_defaults(func=cmd_worker)

    chaos = subparsers.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios against the serve "
             "stack and report survival (docs/chaos.md)",
        parents=[json_flags, cache_flags],
    )
    chaos.add_argument(
        "--scenario", action="append", default=None,
        help="repeatable: scenario name from --list (default: soak)",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="list the registered scenarios and exit",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-injection seed")
    chaos.add_argument(
        "--requests", type=int, default=50,
        help="requests driven through the broker per scenario",
    )
    chaos.add_argument(
        "--workers", type=int, default=4,
        help="local worker-pool processes behind the broker",
    )
    chaos.add_argument(
        "--out", default=None,
        help="also write the full JSON report to this path",
    )
    chaos.set_defaults(func=cmd_chaos)

    cache = subparsers.add_parser(
        "cache",
        help="inspect or clear the persistent result cache (.repro_cache)",
        parents=[json_flags, cache_flags],
    )
    cache.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "clear"),
        help="stats (default) prints entry count and size; "
             "clear deletes every cached result",
    )
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 ok, 2 bad arguments (also argparse's own code for
    unparseable flags), 3 simulation/runtime failure.
    """
    from repro.core.store import persistence_enabled, set_persistence

    parser = build_parser()
    args = parser.parse_args(argv)
    prior_persistence = persistence_enabled()
    if getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE_DIR"] = str(args.cache_dir)
    if getattr(args, "no_cache", False):
        set_persistence(False)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        print(f"error: {_flagify(f'{error}')}", file=sys.stderr)
        return 2
    except (RuntimeError, TimeoutError) as error:
        # Simulation/runtime failures (worker crashes, deadlines,
        # unplaceable fleets) — distinct from argument errors.
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        set_persistence(prior_persistence)


if __name__ == "__main__":
    sys.exit(main())
