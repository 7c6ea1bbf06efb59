"""Tests for the artifact-style results writer."""

import json

import pytest

from repro.core.artifact import (
    read_run_summary,
    run_summary,
    write_run_artifact,
)
from repro.core.experiment import execute_training
from repro.engine.simulator import SimSettings
from repro.telemetry.export import read_telemetry_csv
from repro.trace.export import read_trace_csv

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


@pytest.fixture(scope="module")
def result():
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP2-PP4",
        microbatch_size=1,
        global_batch_size=16,
        settings=FAST,
    )


class TestRunSummary:
    def test_contains_headline_metrics(self, result):
        summary = run_summary(result)
        assert summary["model"] == "gpt3-13b"
        assert summary["parallelism"] == "TP2-PP4"
        assert summary["tokens_per_s"] > 0
        assert summary["peak_temp_c"] > 20
        assert "Compute" in summary["kernel_seconds"]

    def test_json_serialisable(self, result):
        json.dumps(run_summary(result))


class TestWriteArtifact:
    def test_layout(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run1")
        assert (directory / "summary.json").exists()
        assert (directory / "telemetry.csv").exists()
        assert (directory / "trace.csv").exists()

    def test_summary_round_trip(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run2")
        loaded = read_run_summary(directory)
        assert loaded == run_summary(result)

    def test_telemetry_readable(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run3")
        telemetry = read_telemetry_csv(directory / "telemetry.csv")
        assert len(telemetry) == 32  # one series per GPU

    def test_trace_covers_measured_window_only(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run4")
        records = read_trace_csv(directory / "trace.csv")
        assert records
        assert all(r.iteration >= result.warmup_iterations for r in records)
