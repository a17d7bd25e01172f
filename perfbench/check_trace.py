"""Tests of the benchmark's tracing layer and metric bookkeeping.

Run with ``python3 perfbench/check_trace.py`` or
``python3 -m pytest perfbench/check_trace.py``.  The name keeps the file out
of the repository's own test collection.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from layertrace import Patcher, Tracer, restored  # noqa: E402

FAKE = "perfbench_fake"


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def _fake_program(clock: FakeClock):
    """A two-module program: ``inner`` defined in one, imported by another."""
    lib = types.ModuleType(FAKE + ".lib")

    def inner():
        clock.tick(4)

    def produce():
        for item in range(3):
            clock.tick(1)
            yield item

    class Base:
        def step(self):
            clock.tick(7)

    class Child(Base):
        pass

    lib.inner, lib.produce, lib.Base, lib.Child = inner, produce, Base, Child
    app = types.ModuleType(FAKE + ".app")
    app.inner = inner

    def outer():
        clock.tick(5)
        app.inner()
        clock.tick(3)
        app.inner()
        clock.tick(2)

    app.outer = outer
    sys.modules[lib.__name__] = lib
    sys.modules[app.__name__] = app
    return lib, app


def _traced(clock: FakeClock):
    lib, app = _fake_program(clock)
    tracer = Tracer(clock=clock)
    patcher = Patcher()
    patcher.patch(f"{app.__name__}:outer", tracer.wrap("outer"), FAKE)
    patcher.patch(f"{lib.__name__}:inner", tracer.wrap("inner"), FAKE)
    return lib, app, tracer, patcher


def test_nested_self_times():
    clock = FakeClock()
    _, app, tracer, patcher = _traced(clock)
    with patcher:
        app.outer()
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.totals["outer"].self_ns == 10
    assert tracer.totals["inner"].self_ns == 8
    assert tracer.totals["outer"].inclusive_ns == 18
    assert tracer.open_spans() == 0


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def recurse(depth):
        clock.tick(1)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("r")(recurse)
    traced(2)
    assert tracer.calls("r") == 3
    assert tracer.totals["r"].self_ns == 3
    assert tracer.totals["r"].inclusive_ns == 3


def test_fold_keeps_time_with_the_ancestor():
    clock = FakeClock()
    lib, app = _fake_program(clock)
    tracer = Tracer(clock=clock)
    with Patcher() as patcher:
        patcher.patch(f"{app.__name__}:outer", tracer.wrap("outer"), FAKE)
        patcher.patch(f"{lib.__name__}:inner", tracer.wrap("inner", fold=("outer",)), FAKE)
        app.outer()
        lib.inner()
    assert tracer.calls("inner") == 1
    assert tracer.totals["outer"].self_ns == 18
    assert tracer.totals["inner"].self_ns == 4


def test_generator_span_excludes_the_consumer():
    clock = FakeClock()
    lib, _ = _fake_program(clock)
    tracer = Tracer(clock=clock)
    with Patcher() as patcher:
        patcher.patch(f"{lib.__name__}:produce", tracer.wrap_generator("gen"), FAKE)
        items = []
        for item in lib.produce():
            clock.tick(100)
            items.append(item)
    assert items == [0, 1, 2]
    # Three items plus the final StopIteration.
    assert tracer.calls("gen") == 4
    assert tracer.totals["gen"].self_ns == 3


def test_other_threads_pass_through():
    clock = FakeClock()
    _, app, tracer, patcher = _traced(clock)
    with patcher:
        worker = threading.Thread(target=app.outer)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.totals == {}


def test_restore_puts_back_every_original():
    clock = FakeClock()
    lib, app = _fake_program(clock)
    originals = (lib.inner, app.inner, lib.Base.__dict__["step"])
    tracer = Tracer(clock=clock)
    patcher = Patcher()
    assert patcher.patch(f"{lib.__name__}:inner", tracer.wrap("inner"), FAKE) == 2
    patcher.patch(f"{lib.__name__}:Base.step", tracer.wrap("step"), FAKE)
    patcher.patch(f"{lib.__name__}:Child.step", tracer.wrap("child"), FAKE)
    # A second patch stacked on the first, as the unit-boundary hooks do.
    patcher.patch(f"{app.__name__}:inner", tracer.wrap("outer-hook"), FAKE)
    assert app.inner is not originals[1] and "step" in vars(lib.Child)
    lib.Child().step()
    assert tracer.calls("child") == 1 and tracer.calls("step") == 1
    saved = patcher.snapshot()
    patcher.restore()
    assert (lib.inner, app.inner, lib.Base.__dict__["step"]) == originals
    assert "step" not in vars(lib.Child)
    assert restored(saved)


def test_layer_table_installs_and_removes_cleanly():
    """Every layer target exists in the program and is restored afterwards."""
    import repro.data.generator  # noqa: F401
    import repro.data.loader  # noqa: F401
    import repro.invdes  # noqa: F401
    import repro.train  # noqa: F401
    from repro.train.models import make_model

    model_class = type(make_model("fno", width=4, modes=(2, 2), depth=1))
    patcher = Patcher()
    layers.install(patcher, Tracer(), "repro.train.trainer:Trainer.train", [model_class])
    saved = patcher.snapshot()
    assert len(saved) > len(layers.SPANS)
    owner, attr, original = saved[0]
    assert vars(owner)[attr] is not original
    patcher.restore()
    assert restored(saved)
    assert "__call__" not in vars(model_class)


def _benchmark_file() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_benchmark_file():
    spec = _benchmark_file()["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec] == list(layers.PER_LAYER)


def test_end_to_end_metrics_match_the_benchmark_file():
    import run

    episode = {
        "setup_s": 1.0,
        "timed_s": 2.0,
        "work": 4,
        "units_ms": [float(i) for i in range(20, 0, -1)],
        "peak_rss_mb": 100.0,
    }
    metrics, details = run.end_to_end([episode])
    spec = _benchmark_file()["end_to_end"]
    assert [(m["name"], m["unit"]) for m in spec] == [(k, v["unit"]) for k, v in metrics.items()]
    assert metrics["throughput"]["value"] == 2.0
    assert metrics["unit_p50_ms"]["value"] == 10.5
    # Twenty units: the 50th percentile (10 ms) has exactly ten beyond it.
    assert (metrics["unit_tail_ms"]["value"], details["tail_percentile"]) == (10.0, 50)


def test_tail_keeps_ten_units_beyond():
    import run

    for n in (11, 36, 256, 600, 1000):
        values = [float(i) for i in range(n)]
        value, percentile = run.tail(values)
        beyond = sum(v > value for v in values)
        assert beyond >= 10
        # One percentile higher would leave fewer than ten beyond.
        assert n * (100 - percentile - 1) / 100 < 10


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
