"""Open-loop load generation: send on schedule, time from the due time.

A request is due at ``start + offset``. It is sent then, or as soon as
the generator gets the loop back if something stalled it; its latency
runs from the due time, so a stall counts against every request it
delayed, and how late each send was is recorded as lag.
"""

from __future__ import annotations

import asyncio
import time


async def open_loop(sends, send, clock=time.monotonic) -> list[dict]:
    """Send ``(offset_s, payload)`` items on schedule; wait for all.

    ``send`` is an async callable. Returns one record per item:
    ``due``, ``sent``, ``done`` (clock readings), ``ok``, and ``value``
    (what ``send`` returned) or ``error``.
    """
    start = clock()
    records: list[dict] = []
    tasks = []

    async def one(payload, record: dict) -> None:
        try:
            record["value"] = await send(payload)
            record["ok"] = True
        except Exception as error:  # noqa: BLE001 - a failed request
            record["ok"] = False
            record["error"] = f"{type(error).__name__}: {error}"
        record["done"] = clock()

    for offset, payload in sends:
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        record = {"due": due, "sent": clock()}
        records.append(record)
        tasks.append(asyncio.ensure_future(one(payload, record)))
    await asyncio.gather(*tasks)
    return records


def latencies(records: list[dict]) -> list[float]:
    """Per-request latency, due time to completion."""
    return [r["done"] - r["due"] for r in records]


def lag_max(records: list[dict]) -> float:
    """How late the generator sent its latest request."""
    return max((r["sent"] - r["due"] for r in records), default=0.0)


def slo_misses(records: list[dict], limit_s: float) -> int:
    """Requests that failed or took longer than ``limit_s``."""
    return sum(
        1 for r in records
        if not r["ok"] or r["done"] - r["due"] > limit_s
    )
