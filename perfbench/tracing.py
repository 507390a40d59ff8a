"""In-memory span tracer that wraps the program's public functions from outside.

`Tracer.install(targets)` replaces each target function with a timing
wrapper at every name a caller can look it up by: the defining module,
every `mtforge` module that bound it with `from ... import`, and the class
for methods. `uninstall()` puts the originals back. Spans keep their parent
span's id; work submitted to a `ThreadPoolExecutor` gets the submitting span
as its parent, so pool-thread spans nest under the call that fanned out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    busy: float  # end - start for calls; time inside the body for generators
    generator: bool
    extra: Any = None  # value from the target's `measure` hook


@dataclass(frozen=True)
class Target:
    """A function to trace: `module:qualname`, the span name, and an optional
    `measure(args, kwargs, result)` hook whose value is kept on the span."""

    ref: str
    name: str
    measure: Callable[[tuple, dict, Any], Any] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrappers ------------------------------------------------------------------

    def _wrap_call(self, target: Target, fn: Callable) -> Callable:
        tracer, name, measure = self, target.name, target.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            returned, result = False, None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result) if returned and measure is not None else None
                tracer.spans.append(Span(span_id, parent, name, start, end, end - start, False, extra))

        return traced

    def _wrap_generator(self, target: Target, fn: Callable) -> Callable:
        """Generators are timed only while their body runs, not while the
        consumer works between items."""
        tracer, name = self, target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer.current()
            inner = fn(*args, **kwargs)
            busy = 0.0
            first = last = time.perf_counter()
            try:
                while True:
                    stack = tracer._stack()
                    stack.append(span_id)
                    began = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = time.perf_counter()
                        busy += last - began
                        stack.pop()
                    yield item
            finally:
                inner.close()
                tracer.spans.append(Span(span_id, parent, name, first, last, busy, True))

        return traced

    # -- installation ----------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, qualname = target.ref.split(":")
            owner: object = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(target, original)
            else:
                wrapped = self._wrap_call(target, original)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            bindings = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if mod_name == "mtforge" or mod_name.startswith("mtforge.")
                for key, value in list(vars(module).items())
                if value is original
            ]
            if not bindings:
                raise RuntimeError(f"{target.ref} is bound nowhere in mtforge")
            for module, key in bindings:
                self._set(module, key, wrapped)
        self._install_pool_parenting()

    def _install_pool_parenting(self) -> None:
        tracer = self
        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **kw):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = [parent] if parent is not None else []
                try:
                    return fn(*a, **kw)
                finally:
                    stack[:] = saved

            return original_submit(pool, run, *args, **kwargs)

        self._set(ThreadPoolExecutor, "submit", submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- span statistics -------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span time minus the part its children cover (generator children count
    their busy time, since they run in the caller's thread)."""
    intervals = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if not c.generator and c.end > span.start and c.start < span.end
    ]
    covered = _union_length(intervals) + sum(c.busy for c in children if c.generator)
    return max(0.0, span.busy - covered)


def percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, returned in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return 1000.0 * ordered[int(rank) - 1]


def phase_ratio(spans: list[Span]) -> tuple[float, float]:
    """(summed busy time, wall from first start to last end) of spans."""
    if not spans:
        return 0.0, 0.0
    return sum(s.busy for s in spans), max(s.end for s in spans) - min(s.start for s in spans)
