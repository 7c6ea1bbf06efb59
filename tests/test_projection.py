"""Tests for datacenter-scale projection (Section 7.1)."""

import pytest

from repro.core.experiment import execute_training
from repro.engine.simulator import SimSettings
from repro.projection.scaling import (
    dp_allreduce_seconds,
    project_scaling,
    scaling_gain,
)

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


@pytest.fixture(scope="module")
def base_run():
    """A DP=1 measurement to project from (module-scoped: reused)."""
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP8-PP4",
        microbatch_size=1,
        global_batch_size=16,
        settings=FAST,
    )


class TestDpAllReduce:
    def test_zero_for_single_replica(self):
        assert dp_allreduce_seconds(1e9, 1, 100) == 0.0

    def test_grows_with_dp(self):
        assert dp_allreduce_seconds(1e9, 8, 100) > dp_allreduce_seconds(
            1e9, 2, 100
        )

    def test_bandwidth_shrinks_time(self):
        assert dp_allreduce_seconds(1e9, 8, 800) < dp_allreduce_seconds(
            1e9, 8, 100
        )

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            dp_allreduce_seconds(1e9, 2, 0)


class TestProjection:
    def test_dp1_matches_measurement_shape(self, base_run):
        points = project_scaling(base_run, [1])
        assert points[0].total_gpus == 32
        assert points[0].strong_scaling == pytest.approx(1.0)
        assert points[0].dp_allreduce_s == 0.0

    def test_strong_scaling_degrades_with_dp(self, base_run):
        points = project_scaling(base_run, [1, 2, 8, 32, 256])
        efficiencies = [p.strong_scaling for p in points]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(efficiencies, efficiencies[1:])
        )
        assert efficiencies[-1] < 0.9

    def test_per_gpu_throughput_degrades(self, base_run):
        points = project_scaling(base_run, [1, 8, 64])
        throughputs = [p.tokens_per_s_per_gpu for p in points]
        assert throughputs[0] > throughputs[-1]

    def test_8k_gpus_reachable(self, base_run):
        points = project_scaling(base_run, [256])
        assert points[0].total_gpus == 8192

    def test_higher_bandwidth_improves_scaling(self, base_run):
        slow = project_scaling(base_run, [8, 64, 256], inter_node_gbps=100)
        fast = project_scaling(base_run, [8, 64, 256], inter_node_gbps=800)
        gain = scaling_gain(slow, fast)
        assert gain > 1.5  # paper reports up to 4.2x

    def test_allreduce_time_in_iteration(self, base_run):
        points = project_scaling(base_run, [16])
        point = points[0]
        assert point.iteration_s == pytest.approx(
            point.compute_s + point.comm_s + point.dp_allreduce_s
        )

    def test_requires_dp1_base(self):
        run = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",  # dp = 4 after fill
            microbatch_size=1,
            global_batch_size=16,
            settings=FAST,
        )
        with pytest.raises(ValueError):
            project_scaling(run, [1, 2])

    def test_rejects_bad_dp(self, base_run):
        with pytest.raises(ValueError):
            project_scaling(base_run, [0])

    def test_scaling_gain_requires_overlap(self, base_run):
        low = project_scaling(base_run, [2])
        high = project_scaling(base_run, [4], inter_node_gbps=800)
        with pytest.raises(ValueError):
            scaling_gain(low, high)
