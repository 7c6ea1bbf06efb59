"""Self-time arithmetic and span parenting."""

import asyncio

import importtime
from spans import Recorder, Span, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered(0, 10, [(8, 12), (-2, 1)]) == 3
    assert covered(0, 10, [(2, 3), (2, 3)]) == 1


def test_self_time_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),      # overlaps a: union 1..5
        Span("a.child", 1.5, 2.5, 1),
        Span("late", 8.0, 12.0, 0),  # clipped to the parent's end
        Span("other-root", 20.0, 21.0, None),
    ]
    own = self_times(spans)
    assert own == [10 - 4 - 2, 2 - 1, 3, 1, 4, 1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_nests_and_unwinds():
    recorder = Recorder(clock=FakeClock())
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    sibling = recorder.begin("sibling")
    recorder.end(sibling)
    recorder.end(outer)
    after = recorder.begin("after")
    recorder.end(after)
    parents = [span.parent for span in recorder.spans]
    assert parents == [None, 0, 0, None]
    assert list(recorder.ancestors(1)) == ["outer"]
    # outer: 1..6 (5 s); inner 2..3 and sibling 4..5 cover 2 s.
    assert self_times(recorder.spans)[0] == 3.0


def test_concurrent_tasks_do_not_adopt_each_others_spans():
    recorder = Recorder()

    async def job(name):
        token = recorder.begin(name)
        await asyncio.sleep(0.01)
        child = recorder.begin(f"{name}.child")
        recorder.end(child)
        recorder.end(token)

    async def both():
        await asyncio.gather(job("x"), job("y"))

    asyncio.run(both())
    by_name = {span.name: span for span in recorder.spans}
    names = [span.name for span in recorder.spans]
    assert recorder.spans[by_name["x.child"].parent].name == "x"
    assert recorder.spans[by_name["y.child"].parent].name == "y"
    assert by_name["x"].parent is None and by_name["y"].parent is None
    assert len(names) == 4


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |     150000 |   numpy",
        "import time:       300 |        300 |       networkx.utils",
        "import time:      1000 |      50000 |     networkx",
        "import time:       400 |        400 |     repro.units",
        "import time:       600 |     220000 | repro",
    ])
    parsed = importtime.parse(text)
    assert parsed == {"total": 0.22, "numpy": 0.15, "networkx": 0.05,
                      "repro_own": 0.001}
