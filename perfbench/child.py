"""One measured process of a workload (started by ``run.py``).

Modes:

* ``measure``: set up, report when ready, run the workload's
  operations, and print one JSON line with every operation's latency
  and output check (plus raw layer sums when ``--trace 1``);
* ``setup``: set up exactly as ``measure`` does, report, and exit;
* ``prefill``: store serve-mix's pre-filled requests (not timed).

Setup is everything between process start and the first request
being ready: interpreter start, ``import repro``, input generation,
and for serve-mix the broker and its worker pool. ``--spawned-at`` is
the parent's ``time.monotonic()`` just before it started this process
(the clock is system-wide on Linux), so setup includes interpreter
start.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import outputs  # noqa: E402
from spans import Recorder  # noqa: E402

clock = time.monotonic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", default="measure",
                        choices=("measure", "setup", "prefill"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned = clock() if args.spawned_at is None else args.spawned_at

    import repro  # noqa: F401 - the import is part of setup

    tracer = layers.install(Recorder()) if args.trace else None
    pins = inputs.load_pins()
    runner = WORKLOADS[args.workload]
    report = runner(args, pins)
    report["setup_s"] = report.pop("ready") - spawned
    report["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    if tracer is not None:
        report["layers"] = layers.raw_sums(tracer)
        for name, value in report.get("broker", {}).items():
            report["layers"][f"broker.{name}"] = value
    print(json.dumps(report))
    return 0


def _op(start: float, ok: bool, expected: dict | None,
        got: dict | None, work: int = 1) -> dict:
    return {
        "latency_s": clock() - start,
        "ok": ok,
        "match": ok and expected is not None and outputs.matches(
            expected, got),
        "out": got,
        "work": work,
    }


# -- run-cold ---------------------------------------------------------


def run_cold(args, pins) -> dict:
    from repro import submit
    from repro.core.sweep import clear_cache

    sequence = inputs.run_sequence(pins, args.seed)
    ready = clock()
    if args.mode == "setup":
        return {"ready": ready, "ops": []}
    ops = []
    began = clock()
    for spec in sequence:
        if ops and clock() - began >= args.seconds:
            break
        expected = pins["run"][inputs.spec_key(spec)]["expect"]
        start = clock()
        try:
            got = outputs.run_outputs(submit(outputs.make_request(spec)))
        except Exception as error:  # noqa: BLE001 - counted as failed
            print(f"run-cold failed: {error!r}", file=sys.stderr)
            ops.append(_op(start, False, expected, None))
        else:
            ops.append(_op(start, True, expected, got))
        # A user's `repro run` is a fresh process: keep no result.
        clear_cache()
    return {"ready": ready, "ops": ops}


# -- sweep-grid -------------------------------------------------------


def sweep_grid(args, pins) -> dict:
    from repro import submit_many
    from repro.core.store import persistence_disabled
    from repro.core.sweep import clear_cache

    grids = inputs.grid_sequence(args.seed)
    ready = clock()
    if args.mode == "setup":
        return {"ready": ready, "ops": []}
    ops = []
    began = clock()
    for grid in grids:
        if ops and clock() - began >= args.seconds:
            break
        # Every grid starts cold (empty memo) and, like the repo's own
        # sweep benchmarks, runs with the result store off: storing 48
        # results would take 60% of a grid and hide the batched layer.
        clear_cache()
        expected = [pins["grid"][inputs.spec_key(s)]["expect"]
                    for s in grid]
        results = None
        start = clock()
        try:
            with persistence_disabled():
                results = submit_many(
                    [outputs.make_request(spec) for spec in grid], jobs=1
                )
            got = [outputs.run_outputs(result) for result in results]
        except Exception as error:  # noqa: BLE001 - counted as failed
            print(f"sweep-grid failed: {error!r}", file=sys.stderr)
            op = _op(start, False, None, None, work=len(grid))
            op["failed"] = len(grid)
        else:
            op = _op(start, True, None, got, work=len(grid))
            op["failed"] = sum(
                not outputs.matches(want, have)
                for want, have in zip(expected, got)
            )
            op["match"] = op["failed"] == 0
        ops.append(op)
        del results
        clear_cache()
    return {"ready": ready, "ops": ops}


# -- optimize-cold ----------------------------------------------------


def optimize_cold(args, pins) -> dict:
    from repro import submit

    spec = inputs.FLAGSHIP_OPTIMIZE
    expected = pins["optimize"][inputs.spec_key(spec)]["expect"]
    ready = clock()
    if args.mode == "setup":
        return {"ready": ready, "ops": []}
    start = clock()
    try:
        result = submit(outputs.make_optimize_request(spec))
        got = outputs.optimize_outputs(result)
    except Exception as error:  # noqa: BLE001 - counted as failed
        print(f"optimize-cold failed: {error!r}", file=sys.stderr)
        op = _op(start, False, expected, None)
    else:
        op = _op(start, True, expected, got)
    return {"ready": ready, "ops": [op]}


# -- serve-mix --------------------------------------------------------


def serve_mix(args, pins) -> dict:
    plan = inputs.serve_plan(pins, args.seed, args.seconds)
    if args.mode == "prefill":
        from repro import submit

        for spec in plan["prefill"]:
            submit(outputs.make_request(spec))
        return {"ready": clock(), "ops": []}
    return asyncio.run(_serve(args, pins, plan))


async def _serve(args, pins, plan) -> dict:
    from repro.serve.broker import Broker, BrokerConfig

    broker = Broker(BrokerConfig(workers=2, concurrency=2))
    try:
        ready = clock()
        if args.mode == "setup":
            return {"ready": ready, "ops": []}


        async def send(spec):
            response = await broker.submit(outputs.make_request(spec))
            if response.status != "ok":
                raise RuntimeError(f"{response.status}: {response.error}")
            return outputs.run_outputs(response.result)

        records = await loadgen.open_loop(plan["sends"], send, clock)
        metrics = broker.metrics_dict()
    finally:
        broker.close()
    ops = []
    for record, latency, (_, spec) in zip(
            records, loadgen.latencies(records), plan["sends"]):
        expected = pins["serve"][inputs.spec_key(spec)]["expect"]
        got = record.get("value")
        ops.append({
            "latency_s": latency,
            "ok": record["ok"],
            "match": record["ok"] and outputs.matches(expected, got),
            "out": got,
            "work": 1,
        })
    return {
        "ready": ready,
        "ops": ops,
        "window_s": max(r["done"] for r in records) - records[0]["due"],
        "lag_max_s": loadgen.lag_max(records),
        "slo_misses": loadgen.slo_misses(
            records, inputs.SERVE_LATENCY_LIMIT_S
        ),
        "broker": {name: metrics[name] for name in
                   ("hits", "misses", "deduped", "rejected")},
    }


WORKLOADS = {
    "run-cold": run_cold,
    "sweep-grid": sweep_grid,
    "optimize-cold": optimize_cold,
    "serve-mix": serve_mix,
}


if __name__ == "__main__":
    sys.exit(main())
