"""Layer boundaries: wrap the program's public callables, derive metrics.

:func:`install` replaces each callable in :data:`BOUNDARIES` with a
wrapper that records a span, at the attribute its callers look up
(the class for methods; the module callers read at call time for
functions, e.g. ``repro.optimize.search.prune_candidates``, which
``search.py`` imports by name). Nothing inside the program changes.

:func:`derive` turns the raw sums of one or more traced processes into
the per-layer metrics listed in ``BENCHMARK.json``. Counts and times
are per operation of the workload (one run, one grid, one search, one
served request), so they do not grow with the run length.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading

from spans import Recorder, self_times

#: (layer, module, attribute path). One layer may own several callables.
BOUNDARIES = [
    ("api", "repro.api", "SimRequest.__post_init__"),
    ("api", "repro.api", "SimRequest.digest"),
    ("api", "repro.optimize.request", "OptimizeRequest.__post_init__"),
    ("api", "repro.optimize.request", "OptimizeRequest.digest"),
    ("builder", "repro.engine.builder", "GraphBuilder.build"),
    ("simulator", "repro.engine.simulator", "Simulator.run"),
    ("batched", "repro.engine.batched", "evaluate_grid"),
    ("batched", "repro.engine.batched", "SetpointSession.evaluate"),
    ("store.get", "repro.core.store", "ResultStore.get"),
    ("store.put", "repro.core.store", "ResultStore.put"),
    ("memo", "repro.core.sweep", "lookup_memo"),
    ("memo", "repro.core.sweep", "lookup_cached"),
    ("results", "repro.core.results", "RunResult.efficiency"),
    ("results", "repro.core.results", "RunResult.stats"),
    ("optimize", "repro.optimize.search", "run_optimize"),
    ("optimize.prune", "repro.optimize.search", "prune_candidates"),
    ("broker", "repro.serve.broker", "Broker.submit"),
    ("pool.run", "repro.serve.workers", "WorkerPool.run"),
    ("pool.spawn", "repro.serve.workers", "WorkerPool.__init__"),
    ("inferserve", "repro.inferserve.engine", "execute_serving"),
]

#: Which boundaries each workload must exercise (checked by the tests:
#: a wrapper that counts zero calls on its workload is a bug).
EXPECTED_CALLS = {
    "run-cold": ["api", "builder", "simulator", "store.get", "store.put",
                 "results", "inferserve"],
    "sweep-grid": ["api", "builder", "simulator", "batched", "memo",
                   "results"],
    "optimize-cold": ["api", "builder", "simulator", "batched",
                      "store.get", "store.put", "memo", "results",
                      "optimize", "optimize.prune"],
    "serve-mix": ["api", "broker", "memo", "store.get", "pool.run",
                  "pool.spawn", "results"],
}


class Tracer:
    """The installed wrappers' counters plus the span recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    # -- per-boundary extras ------------------------------------------

    def _after(self, layer: str, qualname: str, index: int, args,
               result) -> None:
        if layer == "builder":
            self.add("builder.tasks", result.total_tasks)
        elif layer == "simulator":
            self.add("simulator.tasks", args[0].graph.total_tasks)
            if "batched" in self.recorder.ancestors(index):
                self.add("batched.simulations")
        elif layer == "batched":
            if qualname == "evaluate_grid":
                from repro.core.sweep import cache_key

                points = {cache_key(kind, kw) for kind, kw in args[0]}
            else:
                points = set(args[1])
            self.add("batched.points", len(points))
        elif layer == "store.get" and result is not None:
            self._local.store_hit = True
            self.add("store.hits")
            self.add("store.bytes_read", _entry_size(args))
            if "batched" in self.recorder.ancestors(index):
                self.add("batched.hits")
        elif layer == "store.put":
            self.add("store.bytes_written", _entry_size(args))
        elif layer == "memo" and result is not None:
            if qualname == "lookup_memo" or not self._local.store_hit:
                self.add("memo.hits")
                if "batched" in self.recorder.ancestors(index):
                    self.add("batched.hits")
        elif layer == "optimize":
            if "optimize" not in self.recorder.ancestors(index):
                self.add("optimize.searches")
                self.add("optimize.candidates", result.prune.raw)
                self.add("optimize.simulated", result.prune.simulated)
                self.add("optimize.probes", result.probes_total)
                self.add("optimize.probes_cached", result.probes_cached)

    def _before(self, layer: str, qualname: str, args) -> tuple:
        """Count what must be read before the call; returns the args.

        A batched call's points are materialised into a list first, so
        counting them afterwards cannot consume a one-shot iterable.
        """
        if layer == "memo":
            self._local.store_hit = False
        elif layer == "broker":
            self.add("broker.queue_depth_sum", args[0].queue_depth)
        elif layer == "batched":
            position = 0 if qualname == "evaluate_grid" else 1
            args = (*args[:position], list(args[position]),
                    *args[position + 1:])
        return args


def _entry_size(args) -> int:
    store, digest = args[0], args[1]
    try:
        return store.path_for(digest).stat().st_size
    except OSError:
        return 0


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(recorder: Recorder) -> Tracer:
    """Wrap every boundary; returns the tracer holding the counters."""
    tracer = Tracer(recorder)
    for layer, module, path in BOUNDARIES:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        setattr(owner, attr,
                _wrap(tracer, layer, path.split(".")[-1], original))
    return tracer


def _wrap(tracer: Tracer, layer: str, qualname: str, fn):
    recorder = tracer.recorder
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            args = tracer._before(layer, qualname, args)
            token = recorder.begin(layer)
            try:
                result = await fn(*args, **kwargs)
            finally:
                recorder.end(token)
            tracer._after(layer, qualname, token[0], args, result)
            return result
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        args = tracer._before(layer, qualname, args)
        token = recorder.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(token)
        tracer._after(layer, qualname, token[0], args, result)
        return result
    return wrapper


def raw_sums(tracer: Tracer) -> dict[str, float]:
    """Span-derived sums (calls, busy, self) plus the tracer's counters.

    ``<layer>.busy_s`` sums only outermost spans of a layer (a digest
    computed inside request construction is not counted twice), and
    ``<layer>.self_s`` subtracts the time traced children cover.
    """
    recorder = tracer.recorder
    spans = recorder.spans
    own = self_times(spans)
    sums = dict(tracer.counts)
    for index, span in enumerate(spans):
        if span.end < span.start:
            continue  # still open (a worker thread mid-call)
        layer = span.name
        sums[f"{layer}.calls"] = sums.get(f"{layer}.calls", 0.0) + 1
        if layer not in recorder.ancestors(index):
            sums[f"{layer}.busy_s"] = (
                sums.get(f"{layer}.busy_s", 0.0) + span.duration
            )
            sums[f"{layer}.self_s"] = (
                sums.get(f"{layer}.self_s", 0.0) + own[index]
            )
        if layer == "builder" and "optimize" in recorder.ancestors(index):
            sums["optimize.builds"] = sums.get("optimize.builds", 0.0) + 1
    return sums


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum raw sums of several traced processes."""
    total: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0.0) + value
    return total


def derive(raw: dict[str, float], ops: int) -> dict[str, tuple]:
    """Per-layer metrics ``{name: (value, unit)}`` from merged sums."""
    def get(name: str) -> float:
        return raw.get(name, 0.0)

    def per_op(name: str) -> float:
        return get(name) / ops if ops else 0.0

    computed = get("batched.points") - get("batched.hits")
    replayed = computed - get("batched.simulations")
    broker_submits = get("broker.calls")
    metrics = {
        "api.calls": (per_op("api.calls"), "count/op"),
        "api.busy_s": (per_op("api.busy_s"), "s/op"),
        "builder.calls": (per_op("builder.calls"), "count/op"),
        "builder.busy_s": (per_op("builder.busy_s"), "s/op"),
        "builder.tasks": (per_op("builder.tasks"), "count/op"),
        "simulator.calls": (per_op("simulator.calls"), "count/op"),
        "simulator.busy_s": (per_op("simulator.busy_s"), "s/op"),
        "simulator.us_per_task": (
            1e6 * get("simulator.busy_s") / get("simulator.tasks")
            if get("simulator.tasks") else 0.0, "us/task"),
        "batched.calls": (per_op("batched.calls"), "count/op"),
        "batched.self_s": (per_op("batched.self_s"), "s/op"),
        "batched.points": (per_op("batched.points"), "count/op"),
        "batched.simulations": (per_op("batched.simulations"),
                                "count/op"),
        "batched.replayed_ratio": (
            replayed / computed if computed > 0 else 0.0, "ratio"),
        "store.gets": (per_op("store.get.calls"), "count/op"),
        "store.hits": (per_op("store.hits"), "count/op"),
        "store.get_s": (per_op("store.get.busy_s"), "s/op"),
        "store.bytes_read": (per_op("store.bytes_read"), "B/op"),
        "store.puts": (per_op("store.put.calls"), "count/op"),
        "store.put_s": (per_op("store.put.busy_s"), "s/op"),
        "store.bytes_written": (per_op("store.bytes_written"), "B/op"),
        "memo.hits": (per_op("memo.hits"), "count/op"),
        "results.summary_s": (per_op("results.busy_s"), "s/op"),
        "optimize.candidates": (per_op("optimize.candidates"), "count/op"),
        "optimize.pruned_fraction": (
            1.0 - get("optimize.simulated") / get("optimize.candidates")
            if get("optimize.candidates") else 0.0, "ratio"),
        "optimize.probes": (per_op("optimize.probes"), "count/op"),
        "optimize.probes_cached": (per_op("optimize.probes_cached"),
                                   "count/op"),
        "optimize.prune_s": (per_op("optimize.prune.busy_s"), "s/op"),
        "optimize.builds_per_probe": (
            get("optimize.builds") / get("optimize.probes")
            if get("optimize.probes") else 0.0, "ratio"),
        "broker.hits": (per_op("broker.hits"), "count/op"),
        "broker.misses": (per_op("broker.misses"), "count/op"),
        "broker.deduped": (per_op("broker.deduped"), "count/op"),
        "broker.rejected": (per_op("broker.rejected"), "count/op"),
        "broker.queue_depth_mean": (
            get("broker.queue_depth_sum") / broker_submits
            if broker_submits else 0.0, "count"),
        "pool.runs": (per_op("pool.run.calls"), "count/op"),
        "pool.run_s": (per_op("pool.run.busy_s"), "s/op"),
        "pool.spawn_s": (get("pool.spawn.busy_s"), "s"),
        "inferserve.calls": (per_op("inferserve.calls"), "count/op"),
        "inferserve.busy_s": (per_op("inferserve.busy_s"), "s/op"),
    }
    return metrics
