"""Tests for the thermal-aware static request router
(``repro.inferserve.static_router``)."""

import pytest

from repro.hardware.cluster import H200_X32
from repro.inferserve import (
    ROUTERS,
    StaticRouterConfig,
    compare_routers,
    simulate_static_routing,
)


def _config(**overrides) -> StaticRouterConfig:
    defaults = dict(
        num_replicas=8,
        base_service_s=0.6,
        arrival_rate_per_s=8.0,
        duration_s=60.0,
        seed=7,
    )
    defaults.update(overrides)
    return StaticRouterConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            _config(num_replicas=0)
        with pytest.raises(ValueError):
            _config(base_service_s=0.0)
        with pytest.raises(ValueError):
            _config(router="random")

    def test_rejects_non_dividing_replicas(self):
        with pytest.raises(ValueError):
            simulate_static_routing(H200_X32, _config(num_replicas=7))

    def test_rejects_multi_node_replicas(self):
        with pytest.raises(ValueError):
            simulate_static_routing(H200_X32, _config(num_replicas=2))


class TestSimulation:
    def test_completes_with_sane_metrics(self):
        outcome = simulate_static_routing(H200_X32, _config())
        assert outcome.completed > 100
        assert outcome.mean_latency_s >= _config().base_service_s
        assert outcome.p99_latency_s >= outcome.mean_latency_s
        assert 30 < outcome.mean_temp_c < 100
        assert len(outcome.per_replica_served) == 8

    def test_deterministic_for_seed(self):
        first = simulate_static_routing(H200_X32, _config())
        second = simulate_static_routing(H200_X32, _config())
        assert first.completed == second.completed
        assert first.mean_latency_s == second.mean_latency_s

    def test_seed_changes_trace(self):
        first = simulate_static_routing(H200_X32, _config(seed=1))
        second = simulate_static_routing(H200_X32, _config(seed=2))
        assert first.completed != second.completed or (
            first.mean_latency_s != second.mean_latency_s
        )

    def test_higher_load_raises_latency(self):
        light = simulate_static_routing(H200_X32, _config(arrival_rate_per_s=4.0))
        heavy = simulate_static_routing(H200_X32, _config(arrival_rate_per_s=11.0))
        assert heavy.mean_latency_s > light.mean_latency_s

    def test_round_robin_balances_load(self):
        outcome = simulate_static_routing(H200_X32, _config(router="round_robin"))
        served = outcome.per_replica_served
        assert max(served) - min(served) <= 2


class TestRouterComparison:
    def test_all_routers_run_same_trace(self):
        outcomes = compare_routers(H200_X32, _config())
        assert set(outcomes) == set(ROUTERS)
        # Same arrival trace: the total offered load matches.
        totals = {sum(o.per_replica_served) for o in outcomes.values()}
        assert len(totals) <= 2  # at most off-by-a-tail-batch

    def test_thermal_aware_prefers_cool_replicas(self):
        """The paper's proposal: route to cooler GPUs. Front-positioned
        replicas (even node halves) must receive more work."""
        outcome = simulate_static_routing(
            H200_X32, _config(router="thermal_aware", duration_s=120.0)
        )
        served = outcome.per_replica_served
        front = sum(served[i] for i in range(0, 8, 2))
        rear = sum(served[i] for i in range(1, 8, 2))
        assert front > rear

    def test_thermal_aware_not_worse_than_round_robin(self):
        outcomes = compare_routers(
            H200_X32, _config(duration_s=120.0, arrival_rate_per_s=9.0)
        )
        assert (
            outcomes["thermal_aware"].p99_latency_s
            <= outcomes["round_robin"].p99_latency_s * 1.02
        )
