"""Open-loop lateness accounting: latency runs from the due time."""

import asyncio
import time

import loadgen

RATE = 50.0  # one request due every 20 ms


def _run(send, count=6):
    sends = [(i / RATE, i) for i in range(count)]
    return asyncio.run(loadgen.open_loop(sends, send))


def test_on_time_sends_have_small_lag():
    async def send(item):
        await asyncio.sleep(0.001)
        return item

    records = _run(send)
    assert [r["value"] for r in records] == list(range(6))
    assert loadgen.lag_max(records) < 0.015
    for record in records:
        assert record["ok"]
        assert record["sent"] >= record["due"]


def test_a_stall_makes_later_sends_late_and_counts_in_latency():
    async def send(item):
        if item == 1:
            time.sleep(0.1)  # blocks the loop, as a slow inline path would
        return item

    records = _run(send)
    # Items 2..5 were due within 0.1 s of the stall and sent after it.
    assert loadgen.lag_max(records) >= 0.05
    late = records[2]
    assert late["sent"] - late["due"] >= 0.05
    latency = loadgen.latencies(records)[2]
    assert latency >= late["sent"] - late["due"]
    assert latency == late["done"] - late["due"]


def test_failures_and_slow_requests_miss_the_limit():
    async def send(item):
        if item == 0:
            raise RuntimeError("rejected")
        if item == 1:
            await asyncio.sleep(0.06)
        return item

    records = _run(send, count=3)
    assert not records[0]["ok"]
    assert "rejected" in records[0]["error"]
    assert loadgen.slo_misses(records, limit_s=0.05) == 2
    assert loadgen.slo_misses(records, limit_s=1.0) == 1
