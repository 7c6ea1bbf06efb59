"""End-to-end qualitative invariants from the paper, at reduced scale.

Each test here asserts a *direction* the paper reports, on configurations
small enough to simulate in well under a second. The full-scale versions
live in the benchmark suite.
"""

import pytest

from repro.core.experiment import execute_training
from repro.engine.kernels import KernelCategory
from repro.engine.simulator import SimSettings
from repro.parallelism.strategy import OptimizationConfig

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


def _train(model="gpt3-13b", cluster="mi250x32", parallelism="TP2-PP4",
           **kwargs):
    kwargs.setdefault("global_batch_size", 32)
    kwargs.setdefault("microbatch_size", 1)
    kwargs.setdefault("settings", FAST)
    return execute_training(
        model=model, cluster=cluster, parallelism=parallelism, **kwargs
    )


def _comm_seconds(result):
    breakdown = result.kernel_breakdown()
    return sum(
        breakdown.get(c)
        for c in (
            KernelCategory.ALLREDUCE,
            KernelCategory.SENDRECV,
            KernelCategory.ALLTOALL,
            KernelCategory.ALLGATHER_RS,
        )
    )


class TestSection42ParallelismChoices:
    def test_tp_heavy_moves_more_bytes(self):
        """TP-heavy strategies amplify fabric traffic (Figure 5)."""
        tp_heavy = _train(parallelism="TP8-PP1")
        pp_heavy = _train(parallelism="TP1-PP8")
        tp_bytes = sum(
            tp_heavy.outcome.traffic.total_for(g) for g in range(32)
        )
        pp_bytes = sum(
            pp_heavy.outcome.traffic.total_for(g) for g in range(32)
        )
        assert tp_bytes > 2 * pp_bytes

    def test_tp_allreduce_time_grows_with_width(self):
        narrow = _train(parallelism="TP2-PP4")
        wide = _train(parallelism="TP8-PP1")
        narrow_ar = narrow.kernel_breakdown().get(KernelCategory.ALLREDUCE)
        wide_ar = wide.kernel_breakdown().get(KernelCategory.ALLREDUCE)
        assert wide_ar > narrow_ar

    def test_ep_local_beats_ep_spread(self):
        """Confining all-to-all within a node wins (Section 4.2)."""
        local = _train(model="mixtral-4x7b", parallelism="EP4-TP1-PP2",
                       cluster="mi250x32")
        spread = _train(model="mixtral-4x7b", parallelism="EP4-TP4-PP2",
                        cluster="mi250x32")
        local_a2a = local.kernel_breakdown().get(KernelCategory.ALLTOALL)
        spread_a2a = spread.kernel_breakdown().get(KernelCategory.ALLTOALL)
        assert spread_a2a > local_a2a


class TestSection43Optimizations:
    def test_recompute_lowers_throughput_same_config(self):
        base = _train()
        act = _train(
            optimizations=OptimizationConfig(activation_recompute=True)
        )
        assert act.efficiency().tokens_per_s < base.efficiency().tokens_per_s

    def test_lora_runs_faster_than_full_training(self):
        """LoRA cuts gradient sync and optimizer work (Figure 12)."""
        full = _train(parallelism="TP4-PP2")
        lora = _train(
            parallelism="TP4-PP2",
            optimizations=OptimizationConfig(lora=True),
        )
        assert lora.efficiency().tokens_per_s > (
            full.efficiency().tokens_per_s
        )
        assert lora.efficiency().tokens_per_joule > (
            full.efficiency().tokens_per_joule
        )

    def test_cc_overlap_helps_comm_bound_config(self):
        base = _train(parallelism="TP8-PP1")
        cc = _train(
            parallelism="TP8-PP1",
            optimizations=OptimizationConfig(cc_overlap=True),
        )
        assert cc.efficiency().tokens_per_s > (
            0.95 * base.efficiency().tokens_per_s
        )


class TestSection5Microbatch:
    def test_thermal_stress_rises_with_microbatch(self):
        """Longer, more intense compute bursts at larger microbatches
        push peak power and die temperature up (Section 5)."""
        small = _train(parallelism="TP8-PP1", microbatch_size=1,
                       global_batch_size=64)
        large = _train(parallelism="TP8-PP1", microbatch_size=4,
                       global_batch_size=64)

        def peak_gpu_power(result):
            return max(g.peak_power_w for g in result.stats().per_gpu)

        assert peak_gpu_power(large) > peak_gpu_power(small)
        assert large.stats().peak_temp_c > small.stats().peak_temp_c

    def test_mi250_microbatch_scaling_improves(self):
        """On MI250, memory runs out before thermals: bigger microbatches
        monotonically help (Figure 14)."""
        results = [
            _train(
                parallelism="TP8-PP1", microbatch_size=mb,
                global_batch_size=64,
            ).efficiency().tokens_per_s
            for mb in (1, 2, 4)
        ]
        assert results[0] < results[1] < results[2]


class TestSection6Thermal:
    def test_rear_gpus_hotter_and_more_throttled(self):
        result = _train(cluster="h200x32", parallelism="TP4-PP8",
                        model="gpt3-30b")
        stats = result.stats()
        front = [stats.per_gpu[g].avg_temp_c for g in range(4)]
        rear = [stats.per_gpu[g].avg_temp_c for g in range(4, 8)]
        assert sum(rear) / 4 > sum(front) / 4

    def test_front_rear_gap_positive(self):
        result = _train(cluster="h200x32", parallelism="TP4-PP8",
                        model="gpt3-30b")
        assert result.front_rear_gap_c() > 0
