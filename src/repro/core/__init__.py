"""Experiment orchestration: runs, results, sweeps.

:func:`execute_training` / :func:`execute_inference` / :func:`cached_run`
are the execution paths; :mod:`repro.api` is the typed surface on top.
"""

from repro.core.artifact import (
    read_run_summary,
    run_summary,
    write_run_artifact,
)
from repro.core.campaign import (
    CampaignResult,
    ExperimentSpec,
    paper_campaign,
    run_campaign,
)
from repro.core.experiment import (
    DEFAULT_GLOBAL_BATCH,
    execute_inference,
    execute_training,
)
from repro.core.faults import HEALTHY, FaultSpec, power_failure
from repro.core.results import RunResult
from repro.core.sweep import (
    SweepPoint,
    cached_run,
    clear_cache,
    normalize_by_best,
    run_sweep,
)

__all__ = [
    "CampaignResult",
    "DEFAULT_GLOBAL_BATCH",
    "ExperimentSpec",
    "paper_campaign",
    "run_campaign",
    "HEALTHY",
    "FaultSpec",
    "power_failure",
    "read_run_summary",
    "run_summary",
    "write_run_artifact",
    "RunResult",
    "SweepPoint",
    "cached_run",
    "clear_cache",
    "execute_inference",
    "execute_training",
    "normalize_by_best",
    "run_sweep",
]
