"""Tests for telemetry anomaly detection (Section 7.3 + the Section 1
incident, recovered from telemetry alone)."""

import pytest

from repro.core.experiment import execute_training
from repro.core.faults import power_failure
from repro.engine.simulator import SimSettings
from repro.hardware.cluster import MI250_X32, H200_X32
from repro.telemetry.anomaly import (
    AnomalyKind,
    DetectorConfig,
    detect_gpu_anomalies,
    diagnose,
    group_node_incidents,
)

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


@pytest.fixture(scope="module")
def failed_node_run():
    """MI250 run with node 1's power budget collapsed."""
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP2-PP4",
        microbatch_size=1,
        global_batch_size=32,
        settings=SimSettings(
            physics_dt_s=0.01,
            telemetry_interval_s=0.02,
            faults=power_failure(node=1, severity=0.25),
        ),
    )


@pytest.fixture(scope="module")
def healthy_run():
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP2-PP4",
        microbatch_size=1,
        global_batch_size=32,
        settings=FAST,
    )


class TestPowerFailureDetection:
    def test_detects_exactly_the_failed_node(self, failed_node_run):
        """The Section 1 incident is recoverable from telemetry alone."""
        anomalies, incidents = diagnose(
            failed_node_run.outcome.telemetry, MI250_X32
        )
        assert incidents, "the failed node must surface as an incident"
        assert [i.node for i in incidents] == [1]
        assert incidents[0].kind is AnomalyKind.POWER_DELIVERY
        assert len(incidents[0].gpus) == 8

    def test_flagged_gpus_belong_to_failed_node(self, failed_node_run):
        anomalies = detect_gpu_anomalies(
            failed_node_run.outcome.telemetry,
            throttle_temp_c=MI250_X32.node.gpu.throttle_temp_c,
        )
        power_gpus = {
            a.gpu for a in anomalies
            if a.kind is AnomalyKind.POWER_DELIVERY
        }
        assert power_gpus == set(range(8, 16))

    def test_healthy_cluster_has_no_node_incidents(self, healthy_run):
        _, incidents = diagnose(
            healthy_run.outcome.telemetry, MI250_X32
        )
        assert incidents == []


class TestThermalDetection:
    def test_throttled_rear_gpus_flagged_thermal(self):
        """On the thermally saturated H200, the rear GPUs' throttling is
        classified as a thermal anomaly, not power delivery."""
        run = execute_training(
            model="gpt3-30b",
            cluster="h200x32",
            parallelism="TP4-PP8-DP1",
            microbatch_size=1,
            global_batch_size=32,
            settings=SimSettings(physics_dt_s=0.02,
                                 telemetry_interval_s=0.05),
        )
        anomalies = detect_gpu_anomalies(
            run.outcome.telemetry,
            throttle_temp_c=H200_X32.node.gpu.throttle_temp_c,
        )
        thermal = [a for a in anomalies if a.kind is AnomalyKind.THERMAL]
        assert thermal
        # Every thermally flagged GPU sits in a rear position (local 4-7).
        assert all(a.gpu % 8 >= 4 for a in thermal)


class TestDetectorConfig:
    def test_stricter_threshold_finds_less(self, failed_node_run):
        loose = detect_gpu_anomalies(
            failed_node_run.outcome.telemetry,
            DetectorConfig(clock_deficit_threshold=0.02),
        )
        strict = detect_gpu_anomalies(
            failed_node_run.outcome.telemetry,
            DetectorConfig(clock_deficit_threshold=0.5),
        )
        assert len(strict) <= len(loose)

    def test_node_fraction_gates_incidents(self, failed_node_run):
        anomalies = detect_gpu_anomalies(
            failed_node_run.outcome.telemetry
        )
        none = group_node_incidents(
            anomalies, MI250_X32, DetectorConfig(node_fraction=1.01)
        )
        assert none == []
