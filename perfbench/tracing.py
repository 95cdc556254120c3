"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` wraps functions and methods the program already has;
nothing under ``src/`` records spans itself.  Each span keeps its name,
start, end, parent span and request id.  Spans stay in a list until the
run ends.  A layer's self time is its spans' durations minus the parts
their child spans cover.

Wrappers pass arguments, results and exceptions through untouched.  A
function is patched under every name a loaded ``repro`` module holds it
by (``repro.sort.operator.normalize_keys`` as well as
``repro.keys.normalizer.normalize_keys``), and :meth:`Tracer.restore`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Tracer", "self_times"]

_clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from every thread; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: object = None):
        """Record a span; a non-None ``request`` tags it and its children."""
        stack = self._stack()
        previous = getattr(self._local, "request", None)
        if request is not None:
            self._local.request = request
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = _clock()
        try:
            yield span_id
        finally:
            end = _clock()
            stack.pop()
            self.spans.append(
                Span(
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    getattr(self._local, "request", None),
                )
            )
            self._local.request = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_return: Callable | None = None,
        request_of: Callable | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``on_return(tracer, args, kwargs, result)`` may count work;
        ``request_of(args, kwargs)`` may name the request the call serves.
        A generator function's every resumption is recorded as a span.
        """
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        with tracer.span(name):
                            try:
                                item = next(inner)
                            except StopIteration as stop:
                                return stop.value
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of else None
            with tracer.span(name, request):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------- #

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(
        self,
        module: str,
        attr: str,
        name: str,
        on_return: Callable | None = None,
        request_of: Callable | None = None,
    ) -> bool:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        Returns False, patching nothing, when the module, class or
        function no longer exists -- the layer is then recorded as
        absent rather than failing the run.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if leaf not in getattr(owner, "__dict__", {}):
            return False
        raw = owner.__dict__[leaf]
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self.wrap(raw.__func__, name, on_return, request_of)
                )
            else:
                wrapped = self.wrap(raw, name, on_return, request_of)
            self._set(owner, leaf, wrapped)
            return True
        wrapped = self.wrap(raw, name, on_return, request_of)
        # Every module that imported the function holds its own name
        # for it; patch each so that calls through any of them record.
        for module_name, loaded in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is raw:
                    self._set(loaded, key, wrapped)
        return True

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time, span count)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        inner = _covered(children.get(span.span_id, []), span.start, span.end)
        entry = totals[span.name]
        entry[0] += span.duration - inner
        entry[1] += 1
    return {name: (total, count) for name, (total, count) in totals.items()}
