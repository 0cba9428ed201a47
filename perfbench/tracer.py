"""In-memory span tracer that wraps layer functions from outside the package.

A wrapped function is rebound in every ``corpusaudit`` module namespace
that holds it, because modules import functions by name
(``from .corpus import load_audio``) and a call resolves the name where it
is looked up, not where it was defined. Spans stay in memory until the
caller writes them out; nothing is written while a traced run is timed.
"""

import json
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "corpusaudit"


class Span:
    __slots__ = ("name", "parent", "start", "end", "thread", "counters")

    def __init__(self, name, parent, start, thread):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.thread = thread
        self.counters = {}


class Tracer:
    """Records nested spans per thread; wraps functions on ``install``.

    ``targets`` maps ``(module, function)`` to an optional callback
    ``on_result(span, args, kwargs, result)`` that sets span counters from
    the call's arguments and result.
    """

    def __init__(self, targets):
        self.targets = dict(targets)
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._rebound = []  # (namespace, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, time.perf_counter(),
                    threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)  # atomic under the interpreter lock

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, name, fn, on_result):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                try:
                    on_result(span, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError,
                        OSError, ValueError):
                    # the layer changed its signature or result type; keep
                    # the span, drop its counters
                    span.counters = {"counter_errors": 1}
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Rebind every target wherever the package holds it.

        A target the package no longer defines is listed in ``absent``
        instead of failing the run.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.absent = []
        for (module, function), on_result in sorted(self.targets.items()):
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, function, None) if home is not None else None
            if not callable(original):
                self.absent.append(f"{module}.{function}")
                continue
            wrapper = self._wrapper(f"{module}.{function}", original, on_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound = []

    def write(self, path):
        """Write the recorded spans as JSON lines, one span per line."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "start": s.start, "end": s.end, "thread": s.thread,
                    "counters": s.counters}, sort_keys=True) + "\n")


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Children on the span's own thread run one after another, so their
    durations add up to the covered time.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)
    return [(s, (s.end - s.start) - child_time.get(id(s), 0.0)) for s in spans]
