"""The same seed gives the same requests, all of them pinned."""

import inputs
import pytest


@pytest.fixture(scope="module")
def pins():
    return inputs.load_pins()


def test_run_sequence_is_seeded(pins):
    first = inputs.run_sequence(pins, 7)
    assert first == inputs.run_sequence(pins, 7)
    assert first != inputs.run_sequence(pins, 8)
    keys = [inputs.spec_key(spec) for spec in first]
    assert len(set(keys)) == len(keys) == len(pins["run"])


def test_run_sequence_blocks_take_one_request_per_cost_class(pins):
    classes = inputs.cost_classes(pins)
    assert len(classes) == inputs.RUN_STRATA
    where = {inputs.spec_key(spec): number
             for number, specs in enumerate(classes) for spec in specs}
    for seed in (0, 1, 2):
        sequence = inputs.run_sequence(pins, seed)
        for start in range(0, 3 * len(classes), len(classes)):
            block = sequence[start:start + len(classes)]
            assert sorted(where[inputs.spec_key(s)] for s in block) == (
                list(range(len(classes))))


def test_run_sequence_sends_the_dearest_request_first_round(pins):
    dearest = max(pins["run"].values(), key=lambda e: e["cost_s"])
    for seed in (0, 1, 2):
        first_round = inputs.run_sequence(pins, seed)[:inputs.RUN_STRATA]
        assert dearest["spec"] in first_round


def test_grid_sequence_is_seeded_and_pinned(pins):
    grids = inputs.grid_sequence(3, grids=8)
    assert grids == inputs.grid_sequence(3, grids=8)
    assert grids != inputs.grid_sequence(4, grids=8)
    for grid in grids:
        assert len(grid) == (inputs.GRID_SETPOINTS_PER_GRID
                             * len(inputs.GRID_MICROBATCHES))
        for spec in grid:
            assert inputs.spec_key(spec) in pins["grid"]


def test_serve_plan_is_seeded_and_pinned(pins):
    plan = inputs.serve_plan(pins, 5, 20.0)
    assert plan == inputs.serve_plan(pins, 5, 20.0)
    assert plan != inputs.serve_plan(pins, 6, 20.0)
    assert len(plan["distinct"]) == inputs.SERVE_DISTINCT
    assert len(plan["sends"]) == 20 * inputs.SERVE_RATE_PER_S
    distinct = {inputs.spec_key(s) for s in plan["distinct"]}
    assert {inputs.spec_key(s) for s in plan["prefill"]} <= distinct
    assert {inputs.spec_key(s) for _, s in plan["sends"]} <= distinct
    assert distinct <= set(pins["serve"])
    kinds = sorted({s["kind"] for s in plan["distinct"]})
    assert [s["kind"] for s in plan["distinct"][:6]] == kinds * 2
    assert len(plan["prefill"]) == len(plan["distinct"]) // 2
    # A shorter run sends a prefix of the longer run's requests.
    short = inputs.serve_plan(pins, 5, 10.0)
    assert short["sends"] == plan["sends"][:len(short["sends"])]
    assert short["prefill"] == plan["prefill"]


def test_flagship_is_pinned(pins):
    spec = inputs.FLAGSHIP_OPTIMIZE
    expect = pins["optimize"][inputs.spec_key(spec)]["expect"]
    assert expect["winner"] == "TP4-PP8 mb=1 zb-h1 @ 0.747"
    assert round(expect["cost"], 2) == 8176.59
