"""In-memory spans around calls into tentopt, recorded from outside the package.

A ``Tracer`` wraps module-level functions.  Each call opens a span; when it
closes, the span's duration is split into the time covered by its child
spans and its own (self) time.  Per-name aggregates are kept in memory and
written out once, when the benchmark ends.

``Tracer.install`` replaces every binding of a wrapped function in the
loaded ``tentopt`` modules (the defining module and each consumer that
imported the name), so calls made inside the package are seen too.  It
restores every binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Stat:
    """Aggregate of every closed span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(int))

    def merge(self, other: dict) -> None:
        self.calls += other["calls"]
        self.total_s += other["total_s"]
        self.self_s += other["self_s"]
        self.max_s = max(self.max_s, other["max_s"])
        for key, value in other["counters"].items():
            self.counters[key] += value

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "max_s": self.max_s,
                "counters": dict(self.counters)}


class Span:
    __slots__ = ("name", "parent", "start", "child_s", "data")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.data: dict = {}
        self.start = time.perf_counter()

    def ancestor(self, name: str) -> "Span | None":
        span = self.parent
        while span is not None and span.name != name:
            span = span.parent
        return span


class Tracer:
    """Span stack plus per-name aggregates.

    ``hooks`` maps a span name to ``hook(tracer, span, args, kwargs, result,
    error)``, called as the span closes; hooks update ``span.data`` or
    ``tracer.stats[name].counters``.
    """

    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.current: Span | None = None
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # "parent>child" -> time in spans named child directly under parent
        self.edge_s: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> Span:
        span = Span(name, self.current)
        self.current = span
        return span

    def close(self, span: Span, args=(), kwargs=None, result=None,
              error: BaseException | None = None) -> None:
        duration = time.perf_counter() - span.start
        self.current = span.parent
        hook = self.hooks.get(span.name)
        if hook is not None:
            hook(self, span, args, kwargs or {}, result, error)
        stat = self.stats[span.name]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - span.child_s
        stat.max_s = max(stat.max_s, duration)
        if span.parent is not None:
            span.parent.child_s += duration
            self.edge_s[f"{span.parent.name}>{span.name}"] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, args, kwargs, error=exc)
                raise
            self.close(span, args, kwargs, result=result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, layers):
        """Wrap each ``(span name, module, attribute)`` in ``layers`` at every
        binding that loaded ``tentopt`` modules hold; restore them on exit."""
        patched = []
        try:
            for name, module, attr in layers:
                original = getattr(importlib.import_module(module), attr)
                traced = self.wrap(name, original)
                for mod in tentopt_modules():
                    if vars(mod).get(attr) is original:
                        setattr(mod, attr, traced)
                        patched.append((mod, attr, original))
            yield patched
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def tentopt_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tentopt" or name.startswith("tentopt."))]
