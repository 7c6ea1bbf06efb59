"""Parallel execution equivalence: ``jobs`` changes wall-clock, never results.

Exercises ``repro.core.parallel`` directly and through every consumer:
``run_sweep``, ``run_campaign``, and the fleet's pre-profiling pass. The
serial path (``jobs=1``) is byte-for-byte the pre-existing code; parallel
results must match it field by field.
"""

import os
import signal
from pathlib import Path

import pytest

import repro.core.parallel as parallel
from repro.core.campaign import ExperimentSpec, run_campaign
from repro.core.parallel import (
    ExecutionReport,
    default_jobs,
    map_calls,
    map_runs,
    resolve_jobs,
)
from repro.core.sweep import SweepPoint, clear_cache, lookup_memo, run_sweep
from tests.conftest import assert_run_results_equal

POINTS = [
    SweepPoint("gpt3-13b", "mi250x32", "TP4-PP2"),
    SweepPoint("gpt3-13b", "mi250x32", "TP8-PP1"),
]

# Crash-test worker functions must be top-level (closures cannot be
# pickled into the pool), and every one of them guards on the parent
# pid so the in-process fallback path can never kill the test runner.

_REAL_RUN_PAYLOAD = parallel._run_payload


def _crash_always(item):
    """Kill every worker that picks this item up; safe in the parent."""
    parent_pid, value = item
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _crash_once(item):
    """Kill the first worker to see this item; succeed ever after."""
    parent_pid, sentinel_dir, value = item
    marker = Path(sentinel_dir) / f"attempted-{value}"
    if os.getpid() != parent_pid and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _crashing_run_payload(payload):
    """``parallel._run_payload`` stand-in: one worker dies, then normal
    service resumes (forked workers inherit the monkeypatched module)."""
    marker = Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    parent_pid = int(os.environ["REPRO_TEST_PARENT_PID"])
    if os.getpid() != parent_pid and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_RUN_PAYLOAD(payload)


class TestJobResolution:
    def test_default_leaves_one_core(self):
        assert default_jobs() >= 1

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == default_jobs()
        assert resolve_jobs(-2) == default_jobs()
        assert resolve_jobs(None) == default_jobs()


class TestMapPrimitives:
    def test_map_calls_preserves_order(self):
        assert map_calls(abs, [3, -1, -2, 4], jobs=2) == [3, 1, 2, 4]

    def test_map_calls_serial_path(self):
        assert map_calls(abs, [-5], jobs=4) == [5]
        assert map_calls(abs, [], jobs=4) == []

    def test_map_runs_empty(self):
        assert map_runs([], jobs=4) == []

    def test_map_runs_raises_the_payloads_own_error(self):
        bad = [
            ("train", dict(model="gpt3-13b", cluster="mi250x32",
                           parallelism="TP3", global_batch_size=batch))
            for batch in (16, 32)
        ]
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="not divisible"):
                map_runs(bad, jobs=jobs)

    def test_pooled_map_runs_dedupes_and_seeds_the_memo(
        self, monkeypatch
    ):
        import repro.serve.workers as workers_mod

        pools = []

        class RecordingPool(workers_mod.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(workers_mod, "WorkerPool", RecordingPool)
        a, b = [
            ("train", dict(model="gpt3-13b", cluster="mi250x32",
                           parallelism=point.parallelism,
                           global_batch_size=16))
            for point in POINTS
        ]
        clear_cache()
        results = map_runs([a, b, a, b, a], jobs=2)
        assert len(pools) == 1
        assert pools[0].completed == 2  # one run per distinct payload
        assert results[0] is results[2] is results[4]
        assert results[1] is results[3]
        assert lookup_memo(*a) is results[0]
        assert lookup_memo(*b) is results[1]


class TestCrashRecovery:
    """A SIGKILLed worker breaks its payload, never the fan-out."""

    def test_clean_fan_out_reports_no_crashes(self):
        report = ExecutionReport()
        assert map_calls(abs, [-1, 2, -3], jobs=2, report=report) \
            == [1, 2, 3]
        assert not report.crashed
        assert report.retried == [] and report.fell_back == []

    def test_transient_crash_is_retried(self, tmp_path):
        items = [(os.getpid(), str(tmp_path), v) for v in (1, 2, 3)]
        # Only item 1's first sighting kills its worker: the retry pool
        # must finish everything without falling back in-process.
        (tmp_path / "attempted-2").touch()
        (tmp_path / "attempted-3").touch()
        report = ExecutionReport()
        results = map_calls(_crash_once, items, jobs=2, report=report)
        assert results == [10, 20, 30]
        assert report.crashed
        assert 0 in report.retried
        assert report.fell_back == []

    def test_poisoned_payload_falls_back_in_process(self):
        items = [(os.getpid(), v) for v in (1, 2, 3)]
        report = ExecutionReport()
        results = map_calls(_crash_always, items, jobs=2, report=report)
        assert results == [10, 20, 30]
        assert report.retried == [0, 1, 2]
        assert report.fell_back == [0, 1, 2]
        assert "3 payload(s) retried" in report.describe()

    def test_sweep_survives_a_worker_crash(
        self, monkeypatch, tmp_path, capfd
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_cache()
        serial = run_sweep(POINTS, global_batch_size=16)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "crashy"))
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_MARKER", str(tmp_path / "crashed")
        )
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        monkeypatch.setattr(parallel, "_run_payload",
                            _crashing_run_payload)
        clear_cache()
        survived = run_sweep(POINTS, global_batch_size=16, jobs=2)

        assert (tmp_path / "crashed").exists()  # a worker really died
        assert list(survived) == POINTS
        for point in POINTS:
            assert_run_results_equal(survived[point], serial[point])
        assert "sweep survived worker crashes" in capfd.readouterr().err


class TestSweepEquivalence:
    def test_parallel_identical_to_serial(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_cache()
        serial = run_sweep(POINTS, global_batch_size=16)

        # A separate store proves the parallel run truly re-simulates.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        clear_cache()
        parallel = run_sweep(POINTS, global_batch_size=16, jobs=2)

        assert list(serial) == list(parallel) == POINTS
        for point in POINTS:
            assert_run_results_equal(parallel[point], serial[point])

    def test_on_result_order_is_point_order(self):
        clear_cache()
        seen = []
        run_sweep(
            POINTS,
            global_batch_size=16,
            jobs=2,
            on_result=lambda point, result: seen.append(point),
        )
        assert seen == POINTS

    def test_duplicates_run_once(self):
        clear_cache()
        seen = []
        results = run_sweep(
            POINTS + [POINTS[0]],
            global_batch_size=16,
            jobs=2,
            on_result=lambda point, result: seen.append(point),
        )
        assert len(results) == 2
        assert seen == POINTS


class TestCampaignEquivalence:
    SPECS = [
        ExperimentSpec(
            name="a", model="gpt3-13b", cluster="mi250x32",
            parallelism="TP4-PP2", global_batch_size=16,
        ),
        ExperimentSpec(
            name="b", model="gpt3-13b", cluster="mi250x32",
            parallelism="TP4-PP2", global_batch_size=16,
        ),  # same config, different name: must dedupe
    ]

    def test_parallel_identical_to_serial(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_cache()
        serial = run_campaign(self.SPECS)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        clear_cache()
        parallel = run_campaign(self.SPECS, jobs=2)

        assert parallel.summary_rows == serial.summary_rows
        for name in serial.results:
            assert_run_results_equal(
                parallel.results[name], serial.results[name]
            )
        # Distinct names sharing a config share one simulation.
        assert parallel.results["a"] is parallel.results["b"]


class TestFleetPreprofile:
    def test_eager_profiling_matches_lazy(self):
        from repro.datacenter import (
            ArrivalConfig,
            FleetConfig,
            clear_profile_cache,
            simulate_fleet,
        )

        config = FleetConfig(
            arrivals=ArrivalConfig(num_jobs=2, seed=0)
        )
        clear_profile_cache()
        lazy = simulate_fleet(config)
        clear_profile_cache()
        eager = simulate_fleet(config, jobs=2)
        assert eager.metrics() == lazy.metrics()
        assert eager.makespan_s == lazy.makespan_s
        assert eager.energy_j == lazy.energy_j
