"""Integration tests for the core experiment API."""

import pytest

from repro.core.experiment import execute_inference, execute_training
from repro.core.sweep import (
    SweepPoint,
    cached_run,
    clear_cache,
    normalize_by_best,
    run_sweep,
)
from repro.engine.kernels import KernelCategory
from repro.engine.simulator import SimSettings
from repro.parallelism.strategy import OptimizationConfig

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


class TestRunTraining:
    def test_by_name_end_to_end(self):
        result = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
            settings=FAST,
        )
        assert result.parallelism.dp == 4
        efficiency = result.efficiency()
        assert efficiency.tokens_per_s > 0
        assert efficiency.tokens_per_joule > 0
        assert result.stats().avg_power_w > 0

    def test_measured_window_excludes_warmup(self):
        result = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
            iterations=2,
            warmup_iterations=1,
            settings=FAST,
        )
        assert result.window_start_s > 0
        assert result.measured_iterations == 1
        assert all(
            r.iteration >= 1 for r in result.measured_records()
        )

    def test_breakdown_normalised_per_iteration(self):
        result = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
            iterations=3,
            settings=FAST,
        )
        breakdown = result.kernel_breakdown()
        assert breakdown.get(KernelCategory.COMPUTE) > 0

    def test_strategy_object_accepted(self, tiny_model):
        from repro.parallelism.strategy import ParallelismConfig

        result = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism=ParallelismConfig(tp=2, pp=2),
            microbatch_size=1,
            global_batch_size=16,
            settings=FAST,
        )
        assert result.parallelism.dp == 8

    def test_label(self):
        result = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
            settings=FAST,
        )
        assert "gpt3-13b" in result.label
        assert "TP2-PP4" in result.label

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError):
            execute_training(
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism="TP2-PP4",
                microbatch_size=1,
                global_batch_size=16,
                iterations=2,
                warmup_iterations=2,
                settings=FAST,
            )


class TestRunInference:
    def test_forward_only_metrics(self):
        result = execute_inference(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP4-PP2",
            microbatch_size=2,
            global_batch_size=16,
            settings=FAST,
        )
        assert result.efficiency().tokens_per_s > 0
        breakdown = result.kernel_breakdown()
        assert breakdown.get(KernelCategory.OPTIMIZER) == 0.0

    def test_inference_cooler_than_training(self):
        """Section 7.2: inference draws less average power than training."""
        common = dict(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
            settings=FAST,
        )
        train = execute_training(**common)
        infer = execute_inference(**common)
        assert infer.stats().avg_power_w < train.stats().avg_power_w


class TestSweep:
    def test_cache_returns_same_object(self):
        clear_cache()
        kwargs = dict(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=16,
        )
        first = cached_run("train", **kwargs)
        second = cached_run("train", **kwargs)
        assert first is second

    def test_run_sweep_covers_points(self):
        clear_cache()
        points = [
            SweepPoint(model="gpt3-13b", cluster="mi250x32",
                       parallelism="TP2-PP4"),
            SweepPoint(model="gpt3-13b", cluster="mi250x32",
                       parallelism="TP4-PP2"),
        ]
        results = run_sweep(points, global_batch_size=16)
        assert set(results) == set(points)

    def test_run_sweep_deduplicates_points(self):
        clear_cache()
        point = SweepPoint(model="gpt3-13b", cluster="mi250x32",
                           parallelism="TP2-PP4")
        seen = []
        results = run_sweep(
            [point, point, point],
            global_batch_size=16,
            on_result=lambda p, r: seen.append(p),
        )
        assert list(results) == [point]
        assert seen == [point]

    def test_normalize_by_best(self):
        a = SweepPoint(model="m", cluster="c", parallelism="TP1")
        b = SweepPoint(model="m", cluster="c", parallelism="TP2-PP1")
        normalized = normalize_by_best({a: 5.0, b: 10.0})
        assert normalized[b] == 1.0
        assert normalized[a] == 0.5

    def test_sweep_point_label(self):
        point = SweepPoint(
            model="gpt3-13b", cluster="h200x32", parallelism="TP2-PP4",
            optimizations=OptimizationConfig(activation_recompute=True),
        )
        assert "act" in point.label
        assert "gpt3-13b" in point.label
