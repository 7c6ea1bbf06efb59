"""The repository's benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload run-cold --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``run-cold``, ``sweep-grid``, ``optimize-cold``, ``serve-mix``.

Every measured operation runs in a fresh process against a fresh
scratch result store (``REPRO_CACHE_DIR`` under ``.perfbench_work/``),
so no run reads a warm cache. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it measures the workload twice,
for half the time each, untraced and then traced, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end values). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric by name with its unit and sample count.

Exits non-zero without a result when the program is missing or a
measured process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import importtime  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import outputs  # noqa: E402

WORKLOADS = ("run-cold", "sweep-grid", "optimize-cold", "serve-mix")

#: Extra processes per untraced run that only set up, so ``setup_s``
#: is a median of several set-ups.
SETUP_PROBES = 4
#: optimize-cold runs at least this many cold searches per run.
MIN_SEARCHES = 2
#: Operations whose outputs the printed digest covers (None: all).
DIGEST_OPS = {"run-cold": 20, "sweep-grid": 2, "optimize-cold": 1,
              "serve-mix": None}
#: Imports timed per traced run (median taken).
IMPORT_SAMPLES = 3
#: Every process must finish within this budget of the run's start.
BUDGET_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_s", "s"),
    ("p90_s", "s"),
    ("work_per_s", "1/s"),
]


class BenchError(RuntimeError):
    """A measured process failed; the run has no result."""


class Bench:
    """Spawns the workload's processes inside a scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        base = root / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.work))

    def spawn(self, mode: str, seconds: float = 0.0, trace: int = 0,
              cache: Path | None = None) -> dict:
        cache = cache or self.fresh_dir("cache")
        env = dict(self.env, REPRO_CACHE_DIR=str(cache))
        spawned = time.monotonic()
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--mode", mode,
            "--seed", str(self.seed), "--seconds", repr(seconds),
            "--trace", str(trace),
            "--spawned-at", repr(spawned),
        ]
        try:
            proc = subprocess.run(
                command, env=env, cwd=self.root, stdout=subprocess.PIPE,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} process timed out")
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{self.workload} {mode} process exited "
                f"{proc.returncode}"
            )
        return json.loads(lines[-1])

    def measure(self, seconds: float, trace: int,
                min_searches: int) -> dict:
        """The measured process(es) of one run, merged."""
        if self.workload == "optimize-cold":
            # One cold search per process, like `repro optimize`. Another
            # search starts only if, at the mean pace so far, it ends
            # within the window, so a run's length and sample count do
            # not swing with the box's speed.
            reports = []
            began = time.monotonic()
            while True:
                elapsed = time.monotonic() - began
                if (len(reports) >= min_searches and elapsed
                        + elapsed / len(reports) > seconds):
                    break
                reports.append(self.spawn("measure", seconds, trace))
        elif self.workload == "serve-mix":
            cache = self.fresh_dir("cache")
            shutil.copytree(self.prefilled(), cache, dirs_exist_ok=True)
            reports = [self.spawn("measure", seconds, trace, cache=cache)]
        else:
            reports = [self.spawn("measure", seconds, trace)]
        merged = {
            "ops": [op for r in reports for op in r["ops"]],
            "setup": [r["setup_s"] for r in reports],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "layers": layers.merge([r.get("layers", {}) for r in reports]),
        }
        for key in ("window_s", "lag_max_s", "slo_misses"):
            if key in reports[0]:
                merged[key] = reports[0][key]
        return merged

    def prefilled(self) -> Path:
        """serve-mix's store with half the distinct requests in it,
        written once per run by its own (untimed) process."""
        template = self.work / "prefilled"
        if not template.exists():
            template.mkdir()
            self.spawn("prefill", cache=template)
        return template


def quantile(values: list[float], fraction: float) -> float:
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A weighted mean of all order statistics, the weights peaking at the
    quantile's rank. A run-cold run has ~100 latencies spread from
    0.01 s to 1 s, a few percent apart near the median, so the single
    middle sample moves by a rank or two from run to run; the weighted
    estimate moves less (IQR/median of 8 runs 0.046 against 0.074 for
    the sample median, on one two-core box in one quiet period).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 2:
        return ordered[0]
    a = fraction * (count + 1)
    b = (1 - fraction) * (count + 1)
    cdf = [_beta_cdf(i / count, a, b) for i in range(count + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value
               for i, value in enumerate(ordered))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    evaluation of its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = (-(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1)))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def end_to_end(workload: str, run: dict, setup: list[float]) -> dict:
    """``{name: (value, unit, samples)}`` of one measured run."""
    ops = run["ops"]
    latency = [op["latency_s"] for op in ops]
    work = sum(op["work"] for op in ops)
    if workload == "serve-mix":
        done = sum(1 for op in ops if op["ok"])
        rate = done / run["window_s"]
    else:
        rate = work / sum(latency)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "p50_s": (quantile(latency, 0.5), len(latency)),
        "p90_s": (quantile(latency, 0.9), len(latency)),
        "work_per_s": (rate, work),
    }
    return {name: (values[name][0], unit, values[name][1])
            for name, unit in END_TO_END}


def failures(ops: list[dict]) -> int:
    """Failed or wrong operations, counted in work units."""
    total = 0
    for op in ops:
        if "failed" in op:
            total += op["failed"]
        elif not (op["ok"] and op["match"]):
            total += op["work"]
    return total


def run(workload: str, seed: int, seconds: float, trace: int,
        root: Path) -> tuple[dict, list[str]]:
    """One run; returns the result object and the report lines."""
    bench = Bench(root, workload, seed)
    lines = []
    try:
        if not trace:
            setup = [bench.spawn("setup")["setup_s"]
                     for _ in range(SETUP_PROBES)]
            measured = bench.measure(seconds, 0, MIN_SEARCHES)
            runs = [measured]
            metrics = end_to_end(workload, measured,
                                 setup + measured["setup"])
        else:
            untraced = bench.measure(seconds / 2, 0, 1)
            traced = bench.measure(seconds / 2, 1, 1)
            runs = [untraced, traced]
            metrics = per_layer(workload, untraced, traced, bench)
    finally:
        bench.close()
    ops = [op for r in runs for op in r["ops"]]
    attempted = sum(op["work"] for op in ops)
    failed = failures(ops)
    for name, (value, unit, samples) in metrics.items():
        lines.append(f"{workload}  {name:<28} {value:>14.6g} {unit:<9} "
                     f"n={samples}")
    lines.append(f"{workload}  error_rate {failed}/{attempted} = "
                 f"{failed / attempted:.4g}")
    shown = DIGEST_OPS[workload]
    first = runs[0]["ops"][:shown]
    lines.append(f"{workload}  outputs digest (first {len(first)} ops) "
                 f"{outputs.digest([op['out'] for op in first])}")
    if workload == "serve-mix":
        misses = sum(r["slo_misses"] for r in runs)
        sends = sum(len(r["ops"]) for r in runs)
        lines.append(f"{workload}  slo_miss_rate (>"
                     f"{inputs.SERVE_LATENCY_LIMIT_S:g} s or failed) "
                     f"{misses}/{sends}; generator lag max "
                     f"{max(r['lag_max_s'] for r in runs):.4g} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return result, lines


def per_layer(workload: str, untraced: dict, traced: dict,
              bench: Bench) -> dict:
    """The traced run's per-layer metrics, import breakdown, load
    generator checks, and tracing overhead."""
    ops = len(traced["ops"])
    metrics = {name: (value, unit, ops) for name, (value, unit)
               in layers.derive(traced["layers"], ops).items()}
    imports = [importtime.measure(bench.env, str(bench.root))
               for _ in range(IMPORT_SAMPLES)]
    for key in ("total", "numpy", "networkx", "repro_own"):
        metrics[f"import.{key}_s"] = (
            statistics.median(sample[key] for sample in imports), "s",
            IMPORT_SAMPLES,
        )
    sends = len(traced["ops"])
    metrics["loadgen.lag_max_s"] = (traced.get("lag_max_s", 0.0), "s",
                                    sends)
    metrics["loadgen.slo_miss_rate"] = (
        traced.get("slo_misses", 0) / sends, "ratio", sends,
    )
    before = end_to_end(workload, untraced, untraced["setup"])
    after = end_to_end(workload, traced, traced["setup"])
    for name, unit in END_TO_END:
        metrics[f"trace.overhead.{name}"] = (
            after[name][0] - before[name][0], unit, after[name][2],
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    # Compile once up front so no measured process pays for it.
    compileall.compile_dir(str(root / "src"), quiet=1)
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            args.trace, root)
    except RuntimeError as error:  # BenchError, or `import repro` failed
        print(f"error: {error}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
