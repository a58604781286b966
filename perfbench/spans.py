"""Spans around the program's layer functions, installed from outside.

A :class:`Tracer` wraps a function so that each call records its duration
and the duration of the wrapped calls made inside it; the difference is the
span's self time.  Figures are aggregated per (parent span, span) pair, so
memory stays bounded however many calls a hot leaf such as
``Matroid.is_independent`` makes.

:func:`install` replaces every reference to a wrapped function: the
attribute in its defining module and every ``from .x import y`` copy in the
other modules of the package.  A call through a copy left unwrapped would
escape the trace.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import wraps


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # (parent name or None, name) -> SpanStats
        self.tallies: dict = {}  # (name, key) -> number
        self._stack: list = []  # [name, seconds spent in child spans]

    def wrap(self, name: str, fn, label=None, tally=None):
        """Wrap ``fn`` as span ``name``.

        ``label(args, kwargs)`` may refine the span name per call;
        ``tally(result)`` returns a mapping of counts added to
        ``tallies[(name, key)]``.
        """
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args, kwargs)}"
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            failed = True
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, span)
                stats = self.stats.get(key)
                if stats is None:
                    stats = self.stats[key] = SpanStats()
                stats.calls += 1
                stats.failed += failed
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if tally is not None:
                for k, v in tally(result).items():
                    self.tallies[(span, k)] = self.tallies.get((span, k), 0) + v
            return result

        return traced

    def totals(self, name: str) -> SpanStats:
        """Figures for one span, and its labelled variants, over all parents."""
        out = SpanStats()
        for (_, span), stats in self.stats.items():
            if span == name or span.startswith(name + "."):
                out.calls += stats.calls
                out.failed += stats.failed
                out.total_s += stats.total_s
                out.self_s += stats.self_s
        return out

    def by_parent(self, name: str) -> dict:
        return {p: s for (p, span), s in self.stats.items() if span == name}


def install(tracer: Tracer, package: str, spans) -> None:
    """Wrap each ``(module, attribute, span name, options)`` of ``spans``.

    ``attribute`` is a function name or ``Class.method``.  Functions are
    rebound in every loaded module of ``package`` that holds them.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for module_name, attribute, span, options in spans:
        module = sys.modules[f"{package}.{module_name}"]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method), **options))
            continue
        original = getattr(module, attribute)
        traced = tracer.wrap(span, original, **options)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
