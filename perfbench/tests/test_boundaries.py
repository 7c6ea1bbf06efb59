"""Every wrapped boundary fires on the workload that names it.

Runs each workload's measured process once, traced, for a short time
(optimize-cold still runs one full cold search, ~10 s on two cores).
A wrapper that counts zero calls where the layer map says the layer
works is a bug in the benchmark, not a property of the program.
"""

import json
import os
import subprocess
import sys

import layers
import pytest
from conftest import BENCH, ROOT

import inputs

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_boundary_belongs_to_a_workload():
    named = {layer for names in layers.EXPECTED_CALLS.values()
             for layer in names}
    assert {layer for layer, _, _ in layers.BOUNDARIES} == named


def test_per_layer_names_match_benchmark_json():
    derived = set(layers.derive({}, 1))
    extra = {f"import.{k}_s" for k in
             ("total", "numpy", "networkx", "repro_own")}
    extra |= {"loadgen.lag_max_s", "loadgen.slo_miss_rate"}
    extra |= {f"trace.overhead.{m['name']}"
              for m in BENCHMARK["end_to_end"]}
    listed = {m["name"] for m in BENCHMARK["per_layer"]}
    assert listed == derived | extra


#: Long enough for seed 0 to reach every layer its workload names
#: (run-cold sends its first serving request about 3.5 s in).
SECONDS = {"run-cold": 6}


def _traced(workload, cache):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(cache))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seconds", str(SECONDS.get(workload, 1)), "--trace", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(layers.EXPECTED_CALLS))
def test_wrapped_boundaries_fire(workload, tmp_path):
    report = _traced(workload, tmp_path / "cache")
    assert report["ops"] and all(op["ok"] and op["match"]
                                 for op in report["ops"])
    raw = report["layers"]
    silent = [layer for layer in layers.EXPECTED_CALLS[workload]
              if raw.get(f"{layer}.calls", 0) < 1]
    assert not silent, f"{workload}: no calls through {silent}"


def test_serve_plan_prefill_is_what_serve_mix_hits(tmp_path):
    # The prefill process writes exactly the plan's prefilled share.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload",
         "serve-mix", "--mode", "prefill"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stored = list((tmp_path / "cache").rglob("*.pkl"))
    plan = inputs.serve_plan(inputs.load_pins(), 0, 1.0)
    assert len(stored) == len(plan["prefill"])
