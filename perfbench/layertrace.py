"""Span tracing installed from outside the program, by patching names.

A :class:`Patcher` replaces an attribute (a module-level function or a class
method) with a wrapper and puts the original back on :meth:`Patcher.restore`.
A module-level function is patched in every loaded module that holds it under
that name.  That covers the module that defines it and every module that
imported it with ``from ... import name``, which is where its callers look it
up.  A method is patched on its class.

A :class:`Tracer` records nested spans on the thread that created it.  Each
wrapped call pushes a frame, and on return the frame's duration and the time
its child spans covered are folded into per-name totals.  A span's self time
is its duration minus its children's durations.  Calls made from any other
thread pass straight through.

Nothing here knows about the program under test; ``layers.py`` names the
functions to wrap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

_MISSING = object()


def resolve(target: str):
    """``"pkg.module:Name.attr"`` -> ``(owner, attr, current value)``."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        owner = __import__(module_name, fromlist=["_"])
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Replace attributes with wrappers and restore exactly what was there."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        # An inherited or bound method is not in the owner's own __dict__;
        # restoring deletes the override instead of pinning that method.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_attribute(self, owner, attr: str, make_wrapper) -> None:
        """Wrap ``owner.attr`` (a class or an instance) with ``make_wrapper``."""
        self._set(owner, attr, make_wrapper(getattr(owner, attr)))

    def patch(self, target: str, make_wrapper, module_prefix: str = "repro") -> int:
        """Wrap ``target`` wherever it is looked up; returns the sites patched.

        ``make_wrapper(original)`` builds the replacement.  For a module-level
        function every loaded module under ``module_prefix`` that binds the
        same object is patched with one shared wrapper.
        """
        owner, attr, original = resolve(target)
        if isinstance(owner, type):
            self.patch_attribute(owner, attr, make_wrapper)
            return 1
        wrapper = make_wrapper(original)
        sites = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == module_prefix or name.startswith(module_prefix + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
                    sites += 1
        return sites

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def snapshot(self) -> list[tuple[object, str, object]]:
        """The ``(owner, attr, previous value)`` of every patch, oldest first."""
        return list(self._saved)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def restored(snapshot: list[tuple[object, str, object]]) -> bool:
    """Whether every attribute in a :meth:`Patcher.snapshot` is back to what
    it was before its first patch."""
    first: dict[tuple[int, str], tuple[object, str, object]] = {}
    for owner, attr, value in snapshot:
        first.setdefault((id(owner), attr), (owner, attr, value))
    return all(vars(owner).get(attr, _MISSING) is value for owner, attr, value in first.values())


@dataclass
class SpanTotals:
    """Aggregate of every closed span of one name."""

    calls: int = 0
    self_ns: int = 0
    #: Duration of the outermost spans of this name (nested repeats of the
    #: same name are not counted twice).
    inclusive_ns: int = 0


@dataclass
class Tracer:
    """Nested span timing for the thread that created the tracer."""

    clock: object = time.perf_counter_ns
    totals: dict[str, SpanTotals] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self._thread = threading.get_ident()
        # One frame per open span: [name, child_ns, outermost of its name].
        self._stack: list[list] = []

    # -- recording ----------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str, fold: tuple[str, ...]) -> list | None:
        if threading.get_ident() != self._thread:
            return None
        if fold and any(frame[0] in fold for frame in self._stack):
            return None
        outermost = all(frame[0] != name for frame in self._stack)
        frame = [name, 0, outermost]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: int) -> None:
        self._stack.pop()
        name, child_ns, outermost = frame
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = SpanTotals()
        totals.calls += 1
        totals.self_ns += elapsed - child_ns
        if outermost:
            totals.inclusive_ns += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    # -- wrappers ------------------------------------------------------------------
    def wrap(self, name: str, fold: tuple[str, ...] = (), before=None, after=None):
        """Wrapper factory for :meth:`Patcher.patch`.

        ``fold`` names spans inside which this one is not opened, so its time
        stays with that ancestor.  ``before(args, kwargs)`` and
        ``after(result)`` may count work; they run inside the span.
        """
        clock = self.clock

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                frame = self._open(name, fold)
                if frame is None:
                    return original(*args, **kwargs)
                start = clock()
                try:
                    if before is not None:
                        before(args, kwargs)
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result)
                    return result
                finally:
                    self._close(frame, clock() - start)

            return traced

        return make

    def wrap_generator(self, name: str, fold: tuple[str, ...] = ()):
        """Like :meth:`wrap` for a generator function: one span per ``next``.

        The consumer's work between items is outside every span, so the span
        time is what the consumer waited for the producer.
        """
        clock = self.clock

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        frame = self._open(name, fold)
                        start = clock() if frame is not None else 0
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if frame is not None:
                                self._close(frame, clock() - start)
                        yield item
                finally:
                    inner.close()

            return traced

        return make

    # -- reading -------------------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.self_ns / 1e9 if totals else 0.0

    def inclusive_seconds(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.inclusive_ns / 1e9 if totals else 0.0

    def calls(self, name: str) -> int:
        totals = self.totals.get(name)
        return totals.calls if totals else 0

    def open_spans(self) -> int:
        return len(self._stack)
