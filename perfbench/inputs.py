"""Seeded workload inputs, drawn from the pinned request universe.

Every request a workload can send is listed in ``pins.json`` together
with its expected simulated outputs, so the outputs of any seed can be
checked. A seed only chooses which pinned requests a run sends and in
what order; the program sees nothing but the resulting requests.

The draws are stratified so that every prefix of a run has about the
same mix of cheap and expensive requests, whatever the seed: a run is
time-bounded, and an unbalanced prefix would make host-time metrics
depend on the seed rather than on the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Open-loop offered rate of serve-mix, requests per second.
SERVE_RATE_PER_S = 6.0
#: Distinct requests a serve-mix run draws from (16 of each kind).
SERVE_DISTINCT = 48
#: Zipf exponent of serve-mix request popularity. At 0.6 a 20 s run has
#: about 20 misses, 21 store hits and 79 memo hits, so the 90th
#: percentile falls among the misses rather than on the edge between
#: misses and store hits, where one more or one fewer miss moves it.
SERVE_ZIPF_S = 0.6
#: Share of the distinct serve-mix requests stored before the run.
SERVE_PREFILL_FRACTION = 0.5
#: Fixed latency limit of serve-mix; a failed request also misses it.
SERVE_LATENCY_LIMIT_S = 0.5

#: Setpoints a sweep-grid grid samples, and how many it takes. They stop
#: below 0.925, where these layouts start to throttle and replay falls
#: back lane by lane, so every grid costs two simulations whatever the
#: seed draws (optimize-cold is the workload where replay falls back).
GRID_SETPOINTS = [round(0.6 + 0.0125 * i, 4) for i in range(26)]
GRID_SETPOINTS_PER_GRID = 24
GRID_MICROBATCHES = (1, 2)

#: The heaviest user path: the joint search pinned by the optimize
#: benchmark (winner TP4-PP8 mb=1 zb-h1 @ 0.747, cost 8176.59). It is
#: optimize-cold's only request, whatever the seed: a second,
#: seed-chosen search would halve the flagship samples a run can fit.
FLAGSHIP_OPTIMIZE = {
    "model": "gpt3-13b",
    "cluster": "h100x64",
    "objective": "energy_delay",
    "max_slowdown": 0.05,
    "global_batch_size": 32,
}

# -- the universe the pins are made from --------------------------------

#: run-cold cells: (kind, model, cluster, parallelism). Training cells
#: are pipelined so the schedule axis is real.
RUN_TRAIN_CELLS = [
    ("gpt3-13b", "h100x64", "TP4-PP8"),
    ("gpt3-13b", "mi250x32", "TP2-PP8"),
    ("gpt3-30b", "h200x32", "TP2-PP8"),
    ("llama3-30b", "h100x64", "TP2-PP8"),
    ("llama3-70b", "h200x32", "TP4-PP4"),
    ("mixtral-8x7b", "h100x64", "TP1-PP4-EP4"),
    ("mixtral-8x22b", "mi250x32", "TP2-PP4-EP4"),
    ("gpt3-175b", "h200x32", "TP8-PP4"),
]
RUN_INFER_CELLS = [
    ("gpt3-13b", "h100x64", "TP8-PP1"),
    ("gpt3-30b", "mi250x32", "TP4-PP2"),
    ("llama3-70b", "h200x32", "TP4-PP4"),
]
RUN_SERVE_CELLS = [
    ("gpt3-13b", "h200x32"),
    ("llama3-70b", "h100x64"),
]
RUN_SCHEDULES = ("1f1b", "zb-h1", "interleaved")
RUN_BATCHES = (16, 32, 64, 128)
#: Requests above this many kernel records are left out of the pins.
#: The dearest left take about 0.4 s on two cores, so a 25 s run sends
#: 90-150 requests and its 90th percentile has ten samples beyond it;
#: requests of 60,000+ records take 1-3.5 s each and would make a run
#: depend on whether the seed drew them.
RUN_MAX_RECORDS = 20000
#: run-cold draws one request from each of this many host-cost classes
#: in turn, in an order that does not depend on the seed, so runs of
#: any seed send the same mix of costs and differ only in which request
#: of a class they send. A run of 25 s covers three to five rounds.
RUN_STRATA = 28

#: sweep-grid layouts: PP=1, where batched replay can answer the grid,
#: chosen to cost about the same per grid (1.5-1.8 s on two cores) so
#: the median grid does not sit between two cost levels.
GRID_LAYOUTS = [
    ("gpt3-13b", "h100x64", "TP8-PP1"),
    ("gpt3-13b", "h100x64", "TP4-PP1"),
    ("llama3-30b", "h100x64", "TP4-PP1"),
    ("llama3-30b", "h200x32", "TP4-PP1"),
]

#: serve-mix kinds: one cheap request shape per kind, varied by
#: setpoint, so a miss costs about the same whichever request it is.
SERVE_BASES = [
    {"kind": "training", "model": "gpt3-13b", "cluster": "h100x64",
     "parallelism": "TP8-PP1", "global_batch_size": 32},
    {"kind": "inference", "model": "gpt3-13b", "cluster": "h100x64",
     "parallelism": "TP8-PP1", "global_batch_size": 128},
    {"kind": "serving", "model": "gpt3-13b", "cluster": "h200x32",
     "serving": {"trace": {"duration_s": 120.0, "mean_rate_per_s": 2.0}}},
]
SERVE_SETPOINTS = [round(0.6 + 0.0125 * i, 4) for i in range(24)]


def candidate_specs() -> dict[str, list[dict]]:
    """Every request spec the pins are made from, per section.

    ``pin.py`` runs each one; specs the program rejects are left out of
    ``pins.json``, so a workload never sends a request that fails.
    """
    run = []
    for model, cluster, plan in RUN_TRAIN_CELLS:
        for schedule in RUN_SCHEDULES:
            for recompute in (False, True):
                for microbatch in (1, 2):
                    for batch in RUN_BATCHES:
                        run.append({
                            "kind": "training", "model": model,
                            "cluster": cluster, "parallelism": plan,
                            "pipeline_schedule": schedule,
                            "optimizations": {
                                "activation_recompute": recompute},
                            "microbatch_size": microbatch,
                            "global_batch_size": batch,
                        })
    for model, cluster, plan in RUN_INFER_CELLS:
        for microbatch in (1, 2):
            for batch in RUN_BATCHES:
                run.append({
                    "kind": "inference", "model": model,
                    "cluster": cluster, "parallelism": plan,
                    "microbatch_size": microbatch,
                    "global_batch_size": batch,
                })
    for model, cluster in RUN_SERVE_CELLS:
        for rate in (0.5, 1.0, 2.0):
            for duration in (120.0, 300.0):
                run.append({
                    "kind": "serving", "model": model, "cluster": cluster,
                    "serving": {"trace": {"duration_s": duration,
                                          "mean_rate_per_s": rate}},
                })
    grid = [
        grid_spec(layout, microbatch, setpoint)
        for layout in range(len(GRID_LAYOUTS))
        for microbatch in GRID_MICROBATCHES
        for setpoint in GRID_SETPOINTS
    ]
    serve = [
        dict(base, freq_setpoint=setpoint)
        for base in SERVE_BASES
        for setpoint in SERVE_SETPOINTS
    ]
    return {"run": run, "grid": grid, "serve": serve,
            "optimize": [dict(FLAGSHIP_OPTIMIZE)]}


def grid_spec(layout: int, microbatch: int, setpoint: float) -> dict:
    model, cluster, plan = GRID_LAYOUTS[layout]
    return {
        "kind": "training", "model": model, "cluster": cluster,
        "parallelism": plan, "microbatch_size": microbatch,
        "governor": "static", "freq_setpoint": setpoint,
    }


def spec_key(spec: dict) -> str:
    """Canonical text of a spec: the pins are keyed by it."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def load_pins(path: Path = PINS_PATH) -> dict:
    """``{section: {spec_key: expected outputs}}`` plus the specs."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        section: {spec_key(e["spec"]): e for e in entries}
        for section, entries in data.items()
    }


def cost_classes(pins: dict) -> list[list[dict]]:
    """run-cold's universe split into :data:`RUN_STRATA` equal-count
    classes by the host cost recorded when the pins were made."""
    entries = sorted(pins["run"].values(),
                     key=lambda e: (e["cost_s"], spec_key(e["spec"])))
    count = len(entries)
    return [
        [e["spec"] for e in
         entries[i * count // RUN_STRATA:(i + 1) * count // RUN_STRATA]]
        for i in range(RUN_STRATA)
    ]


def run_sequence(pins: dict, seed: int) -> list[dict]:
    """run-cold's distinct requests, in rounds of one per cost class.

    Each round sends one seeded request of every class, classes in a
    fixed order, so any prefix of a run has the same mix of cheap and
    expensive requests whatever the seed.

    The dearest class alone goes in a fixed order, dearest first, so
    every run sends the universe's largest request in its first round.
    A run's peak RSS is set by its largest request (the dearest,
    mixtral-8x22b on mi250x32 at batch 128, peaks 12 MB above any
    other); drawn by the seed, it was in about half the runs, and the
    peak split into two levels 15% apart.
    """
    rng = random.Random(f"run-cold/{seed}")
    classes = cost_classes(pins)
    queues = [rng.sample(specs, len(specs)) for specs in classes[:-1]]
    queues.append(list(classes[-1]))  # ascending: pop() takes the dearest
    order = list(range(len(queues)))
    random.Random("run-cold/class-order").shuffle(order)
    sequence = []
    while any(queues):
        sequence.extend(queues[i].pop() for i in order if queues[i])
    return sequence


def grid_sequence(seed: int, grids: int = 64) -> list[list[dict]]:
    """sweep-grid's grids: setpoint x microbatch, one PP=1 layout each.

    Layouts cycle in a fixed order; each grid samples its setpoints
    from :data:`GRID_SETPOINTS`.
    """
    rng = random.Random(f"sweep-grid/{seed}")
    sequence = []
    while len(sequence) < grids:
        for layout in range(len(GRID_LAYOUTS)):
            setpoints = sorted(
                rng.sample(GRID_SETPOINTS, GRID_SETPOINTS_PER_GRID)
            )
            sequence.append([
                grid_spec(layout, microbatch, setpoint)
                for microbatch in GRID_MICROBATCHES
                for setpoint in setpoints
            ])
    return sequence[:grids]


def serve_plan(pins: dict, seed: int, seconds: float) -> dict:
    """serve-mix's open-loop schedule.

    Returns the distinct requests (most popular first), the ones stored
    before the run, and ``sends``: ``(due_offset_s, spec)`` at a fixed
    rate with Zipf-distributed popularity.
    """
    rng = random.Random(f"serve-mix/{seed}")
    # The traffic's shape -- which popularity rank is pre-stored and
    # which ranks are drawn when -- does not depend on the seed, so every
    # seed has the same hit/miss pattern; the seed picks the requests.
    shape = random.Random("serve-mix/shape")
    by_kind: dict[str, list[dict]] = {}
    for entry in pins["serve"].values():
        by_kind.setdefault(entry["spec"]["kind"], []).append(entry["spec"])
    kinds = sorted(by_kind)
    per_kind = SERVE_DISTINCT // len(kinds)
    chosen = {kind: rng.sample(sorted(by_kind[kind], key=spec_key),
                               per_kind) for kind in kinds}
    # Popularity ranks take the kinds in turn, and one request of every
    # two consecutive ones of a kind is pre-stored.
    distinct = [chosen[kind][i] for i in range(per_kind) for kind in kinds]
    stride = round(1 / SERVE_PREFILL_FRACTION)
    prefill = [
        chosen[kind][i + shape.randrange(stride)]
        for i in range(0, per_kind, stride) for kind in kinds
    ]
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S
               for rank in range(len(distinct))]
    count = max(1, int(round(seconds * SERVE_RATE_PER_S)))
    picks = shape.choices(range(len(distinct)), weights=weights, k=count)
    sends = [(i / SERVE_RATE_PER_S, distinct[pick])
             for i, pick in enumerate(picks)]
    return {"distinct": distinct, "prefill": prefill, "sends": sends}
