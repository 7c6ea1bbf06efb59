"""Regenerate ``pins.json``: run every candidate request, record outputs.

Run from the repository root when the request universe in
``inputs.py`` changes (never to make a failing check pass)::

    PYTHONPATH=src python3 perfbench/pin.py

Specs the program rejects, or that fail while simulating, are left out
and listed on stderr, so no workload sends a request that fails. Takes
a few minutes on two cores; it uses a scratch result store under
``.perfbench_work``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import outputs  # noqa: E402


def main() -> int:
    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pin-", dir=work)
    os.environ["REPRO_CACHE_DIR"] = scratch
    try:
        pins = build_pins()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(inputs.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sizes = {section: len(entries) for section, entries in pins.items()}
    print(f"wrote {inputs.PINS_PATH.name}: {sizes}")
    return 0


def build_pins() -> dict:
    from repro import submit, submit_many
    from repro.core.sweep import clear_cache

    candidates = inputs.candidate_specs()
    pins: dict[str, list] = {}
    for section in ("run", "serve"):
        pins[section] = []
        for spec in candidates[section]:
            start = time.perf_counter()
            try:
                result = submit(outputs.make_request(spec))
                expect = outputs.run_outputs(result)
            except Exception as error:  # noqa: BLE001 - report and skip
                print(f"skip {section} {inputs.spec_key(spec)}: "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
                continue
            finally:
                clear_cache()
            cost_s = time.perf_counter() - start
            records = len(getattr(getattr(result, "outcome", None),
                                  "records", ()))
            if records > inputs.RUN_MAX_RECORDS:
                print(f"skip {section} {inputs.spec_key(spec)}: "
                      f"{records} kernel records", file=sys.stderr)
                continue
            pins[section].append({"spec": spec, "expect": expect,
                                  "cost_s": round(cost_s, 4)})
    specs = candidates["grid"]
    results = submit_many([outputs.make_request(s) for s in specs], jobs=1)
    clear_cache()
    pins["grid"] = [
        {"spec": spec, "expect": outputs.run_outputs(result)}
        for spec, result in zip(specs, results)
    ]
    pins["optimize"] = []
    for spec in candidates["optimize"]:
        result = submit(outputs.make_optimize_request(spec))
        pins["optimize"].append(
            {"spec": spec, "expect": outputs.optimize_outputs(result)}
        )
    return pins


if __name__ == "__main__":
    sys.exit(main())
