"""Spans around the program's public functions, recorded from outside it.

A ``Tracer`` replaces chosen attributes (module functions or class methods)
with wrappers that read the clock on entry and exit, keep per-name call
counts, busy time and self time, and restores the originals on exit.  Self
time is a span's duration minus the time covered by wrapped spans it called.
Nothing in the program is edited; ``uninstall`` puts back the very objects
``install`` found, so an untraced run executes the original functions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``work(args, kwargs, result)`` returns a number added to the span's work
    counter (flop, bytes); ``capture(args, kwargs, result)`` returns a value
    kept in ``Tracer.captured[name]``.  Both run after a successful call and
    outside the timed interval.
    """

    owner: Any
    attr: str
    name: str
    work: Callable | None = None
    capture: Callable | None = None


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    durations: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)


class Tracer:
    """Install wrappers for ``targets``; use as a context manager."""

    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, SpanStats] = {t.name: SpanStats() for t in targets}
        self.captured: dict[str, list] = {t.name: [] for t in targets}
        self.missing: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._child_time: list[float] = []

    def reset(self):
        """Forget every recorded span; wrappers stay installed."""
        for name in self.stats:
            self.stats[name] = SpanStats()
            self.captured[name] = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for target in self.targets:
            original = getattr(target.owner, target.attr, None)
            if original is None:
                # a later refactor may drop a function; its span reads as zero calls
                self.missing.append(target.name)
                continue
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, target: Target, fn):
        name = target.name
        clock = self.clock
        child_time = self._child_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats = tracer.stats[name]
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - children
                stats.durations.append(duration)
                stats.starts.append(start)
            if target.work is not None:
                tracer.stats[name].work += target.work(args, kwargs, result)
            if target.capture is not None:
                tracer.captured[name].append(target.capture(args, kwargs, result))
            return result

        return wrapper
