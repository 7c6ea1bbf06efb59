"""``python -X importtime -c "import repro"``, parsed into import metrics."""

from __future__ import annotations

import subprocess
import sys


def parse(stderr: str) -> dict[str, float]:
    """Seconds: ``total`` (repro, cumulative), ``numpy`` and
    ``networkx`` (cumulative, 0 when not imported), and ``repro_own``
    (self time of repro's own modules).

    Each line reads ``import time: <self us> | <cumulative us> |
    <indented module name>``; a module appears once, where it was first
    imported, with everything it imported under it.
    """
    cumulative: dict[str, int] = {}
    repro_own = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        own, total, name = int(fields[0]), int(fields[1]), fields[2].strip()
        cumulative.setdefault(name, total)
        if name == "repro" or name.startswith("repro."):
            repro_own += own
    return {
        "total": cumulative.get("repro", 0) / 1e6,
        "numpy": cumulative.get("numpy", 0) / 1e6,
        "networkx": cumulative.get("networkx", 0) / 1e6,
        "repro_own": repro_own / 1e6,
    }


def measure(env: dict, cwd: str) -> dict[str, float]:
    """Import repro once in a fresh child; fails if the import does."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import repro failed:\n{proc.stderr[-2000:]}")
    return parse(proc.stderr)
