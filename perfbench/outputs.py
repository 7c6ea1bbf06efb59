"""Simulated outputs: extraction, comparison with the pins, digest."""

from __future__ import annotations

import hashlib
import json
import math

#: Relative tolerance of the output check. The simulator is
#: deterministic, so the pins match exactly today; the tolerance only
#: admits float re-association (a different summation order) in a
#: later change. Exact identity shows in the printed digest.
REL_TOL = 1e-9


def make_request(spec: dict):
    """The public request object for one spec."""
    from repro import OptimizationConfig, SimRequest

    fields = dict(spec)
    if "optimizations" in fields:
        fields["optimizations"] = OptimizationConfig(**fields["optimizations"])
    return SimRequest(**fields)


def make_optimize_request(spec: dict):
    from repro import OptimizeRequest

    return OptimizeRequest(**spec)


def run_outputs(result) -> dict:
    """Makespan, energy and tokens/s of a run or serving result."""
    if hasattr(result, "outcome"):
        efficiency = result.efficiency()
        return {
            "makespan_s": result.outcome.makespan_s,
            "energy_j": efficiency.energy_j,
            "tokens_per_s": efficiency.tokens_per_s,
        }
    metrics = result.metrics()
    return {
        "makespan_s": result.makespan_s,
        "energy_j": metrics.energy_j,
        "tokens_per_s": metrics.tokens_decoded / result.makespan_s,
    }


def optimize_outputs(result) -> dict:
    """The search's winner and its objective cost."""
    best = result.best
    return {
        "winner": (f"{best.parallelism} mb={best.microbatch_size} "
                   f"{best.pipeline_schedule} @ {best.setpoint:g}"),
        "cost": best.cost,
    }


def matches(expected: dict, got: dict) -> bool:
    """Whether ``got`` equals the pinned outputs (floats to REL_TOL)."""
    if set(expected) != set(got):
        return False
    for name, want in expected.items():
        value = got[name]
        if isinstance(want, float) or isinstance(value, float):
            if not math.isclose(value, want, rel_tol=REL_TOL,
                                abs_tol=1e-12):
                return False
        elif value != want:
            return False
    return True


def digest(records: list) -> str:
    """Short digest of exact output values, in the order given."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
