"""Public-API snapshot: the importable surface cannot drift silently.

Pins ``repro.__all__``, the :class:`SimRequest` field list, and the
``repro.api`` callable signatures, and statically scans ``src/`` to
prove the removed legacy entrypoints do not come back under their old
names.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import SimRequest, submit, submit_many

SRC = Path(repro.__file__).resolve().parent

#: The frozen export list. Additions are fine but deliberate: update
#: this snapshot in the same change that extends ``repro/__init__.py``.
EXPECTED_ALL = [
    "H100_X64",
    "H200_X32",
    "MI250_X32",
    "TABLE1_MODELS",
    "ArrivalConfig",
    "ClusterSpec",
    "ConfigSearchSpace",
    "FaultSpec",
    "FleetConfig",
    "FleetMetrics",
    "FleetOutcome",
    "KINDS",
    "POLICIES",
    "PowerCapConfig",
    "simulate_fleet",
    "power_failure",
    "ModelConfig",
    "MoEConfig",
    "OptimizationConfig",
    "OptimizeRequest",
    "OptimizeResult",
    "ParallelismConfig",
    "RunResult",
    "ServingConfig",
    "ServingOutcome",
    "SimRequest",
    "SweepPoint",
    "TraceConfig",
    "cluster_names",
    "execute_serving",
    "get_cluster",
    "get_model",
    "minimal_model_parallel",
    "model_names",
    "normalize_by_best",
    "one_gpu_per_node",
    "parse_strategy",
    "run_sweep",
    "submit",
    "submit_many",
    "valid_configs",
    "__version__",
]

EXPECTED_REQUEST_FIELDS = [
    "kind",
    "model",
    "cluster",
    "parallelism",
    "optimizations",
    "microbatch_size",
    "global_batch_size",
    "iterations",
    "warmup_iterations",
    "governor",
    "freq_setpoint",
    "power_limit_w",
    "fault_node",
    "fault_power_scale",
    "fault_time",
    "fault_duration",
    "fault_kind",
    "fault_severity",
    "timeout_s",
    "fleet",
    "serving",
    "pipeline_schedule",
    "seq_splits",
]

LEGACY_NAMES = {
    "run_training",
    "run_inference",
    "cached_run_training",
    "cached_run_inference",
    # Renamed when static routing moved into repro.inferserve.
    "simulate_serving",
    # Renamed when the setpoint searches became the refinement stage of
    # the joint optimizer (repro.optimize, docs/optimize.md).
    "search_energy_optimal",
    "sweep_setpoints",
    "search_serving_setpoint",
}

#: Modules exempt from the scan. Empty: no module may mention a legacy
#: name.
LEGACY_ALLOWLIST: set[Path] = set()


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_serve_surface(self):
        from repro import serve

        assert serve.__all__ == [
            "Broker",
            "BrokerConfig",
            "BrokerMetrics",
            "BrokerServer",
            "BrokerUnavailableError",
            "SimResponse",
            "WorkerPool",
            "analytic_estimate",
            "serve_worker",
        ]


class TestApiSignatures:
    def test_request_fields(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(SimRequest)]
        assert names == EXPECTED_REQUEST_FIELDS

    def test_submit_signature(self):
        signature = inspect.signature(submit)
        assert list(signature.parameters) == ["request", "cache"]
        assert signature.parameters["cache"].kind is (
            inspect.Parameter.KEYWORD_ONLY
        )
        assert signature.parameters["cache"].default is True

    def test_submit_many_signature(self):
        signature = inspect.signature(submit_many)
        assert list(signature.parameters) == [
            "requests", "jobs", "report",
        ]
        assert signature.parameters["jobs"].default == 1

    def test_request_round_trip_methods_exist(self):
        for method in ("to_dict", "from_dict", "to_json", "from_json",
                       "digest"):
            assert callable(getattr(SimRequest, method)), method


def _modules_referencing_legacy() -> list[tuple[Path, str]]:
    """(module, legacy name) pairs found by walking every src/ AST.

    Flags uses, imports, definitions, and string mentions (``__all__``
    entries, ``__getattr__`` string tables) of a legacy name.
    """
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in LEGACY_ALLOWLIST:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            found = None
            if isinstance(node, ast.Name) and node.id in LEGACY_NAMES:
                found = node.id
            elif isinstance(node, ast.Attribute) and (
                node.attr in LEGACY_NAMES
            ):
                found = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name.split(".")[-1] in LEGACY_NAMES:
                        found = alias.name
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.name in LEGACY_NAMES:
                found = node.name
            elif isinstance(node, ast.Constant) and (
                node.value in LEGACY_NAMES
            ):
                # __all__ entries and string-table lazy re-exports.
                found = node.value
            if found:
                offenders.append((path.relative_to(SRC), found))
    return offenders


class TestNoInternalLegacyUse:
    def test_src_does_not_call_deprecated_entrypoints(self):
        offenders = _modules_referencing_legacy()
        assert offenders == [], (
            "the legacy entrypoints were removed; use repro.api or the "
            f"canonical functions (docs/api.md): {offenders}"
        )


class TestCleanInstall:
    def test_imports_without_networkx(self):
        # pyproject.toml declares only numpy, so repro must import on a
        # machine that has no networkx.
        code = 'import sys; sys.modules["networkx"] = None; import repro'
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
