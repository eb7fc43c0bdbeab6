"""Measurement helpers for ``bench/run.py``.

Three small pieces, kept free of any simulator import so the unit tests
in ``tests/bench/`` can exercise them directly:

* percentiles, with the rule that a tail percentile is only trusted
  when at least ten samples lie beyond it;
* an in-memory span tracer: each span records a name, start, end,
  parent and request id, and the tracer derives per-layer self time
  (a span's duration minus the part its children cover) and a Chrome
  trace-event export that opens in Perfetto;
* the verdict ``bench/run.py compare`` gives for one workload x metric
  from two sets of runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import statistics
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional, Sequence

# A tail percentile needs this many samples beyond it before it is
# reported as measured (choosing-metrics rule).
MIN_BEYOND = 10


# -- percentiles -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks; raises ValueError on an empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q``-th
    percentile's interpolation point."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least MIN_BEYOND beyond ``q``."""
    return samples_beyond(n, q) >= MIN_BEYOND


def highest_supported(n: int,
                      candidates: Iterable[float] = (99.9, 99, 95, 90, 75,
                                                     50)) -> Optional[float]:
    """The highest candidate percentile that ``n`` samples support."""
    for q in sorted(candidates, reverse=True):
        if tail_supported(n, q):
            return q
    return None


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- spans -------------------------------------------------------------------

class Span:
    """One timed interval. ``child_ns`` accumulates the durations of the
    spans nested directly inside it, which is what self time subtracts."""

    __slots__ = ("name", "start", "end", "parent", "request", "track",
                 "child_ns")

    def __init__(self, name: str, start: int, parent: "Optional[Span]",
                 request, track: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.track = track
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A disabled tracer records nothing: ``span`` yields None and
    ``patch`` leaves the target untouched, so the untraced run executes
    the same benchmark code without the bookkeeping. The current span
    lives in a context variable, so concurrent asyncio clients each
    nest their own spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._current: "contextvars.ContextVar[Optional[Span]]" = \
            contextvars.ContextVar("bench_span", default=None)
        self._patched: list = []
        self._numbers: Dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, request=None, track: "Optional[int]" = None):
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent.request
        if track is None:
            track = parent.track if parent is not None else 0
        span = Span(name, perf_counter_ns(), parent, request, track)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._current.reset(token)
            self._close(span)

    def child(self, parent: "Optional[Span]", name: str,
              seconds: float) -> None:
        """Record a span measured elsewhere (a duration the program
        reports, such as a serve worker's ``wall_us``) as a child of
        ``parent``, ending now."""
        if parent is None:
            return
        end = perf_counter_ns()
        span = Span(name, end - int(seconds * 1e9), parent, parent.request,
                    parent.track)
        span.end = end
        self._close(span)

    def _close(self, span: Span) -> None:
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.spans.append(span)

    def patch(self, owner, attr: str, name: str,
              numbered: bool = False) -> None:
        """Wrap ``owner.attr`` (a module function or a class method) in
        a span named ``name``. ``numbered`` gives each call the next
        request id (the execution index of a fuzz execution)."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)
        span = self.span
        numbers = self._numbers

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request = None
            if numbered:
                request = numbers.get(name, 0)
                numbers[name] = request + 1
            with span(name, request=request):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original, own))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table: Dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration_ns / 1e9
            row["self_s"] += span.self_ns / 1e9
        return table

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0)
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            args = {}
            if span.request is not None:
                args["request"] = span.request
            events.append({"name": span.name, "cat": span.name.split(".")[0],
                           "ph": "X", "pid": 1, "tid": span.track,
                           "ts": (span.start - origin) / 1e3,
                           "dur": span.duration_ns / 1e3, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- compare -----------------------------------------------------------------

# The share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """Judge one workload x metric from two sets of runs.

    ``parent`` and ``change`` are paired by position. The verdict is:

    * ``worse`` — the change's median is worse than the parent's by
      more than ``bound`` (a share of the parent's median);
    * ``better`` — the change wins at least nine tenths of the pairs
      (ties count for neither side) and the medians differ by more than
      the parent's own spread (the distance between its quartiles);
    * ``unresolved`` — either side's spread is wider than ``bound``,
      unless every run of the change reads better than every run of
      the parent;
    * ``unchanged`` — otherwise.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if not parent or not change:
        raise ValueError("verdict needs at least one run on each side")
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(parent)
    b_q1, b_med, b_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    losses = sum(1 for a, b in pairs if (b - a) * sign < 0)
    gain = (b_med - a_med) * sign
    scale = abs(a_med) or 1.0
    a_spread = (a_q3 - a_q1) / scale
    b_spread = (b_q3 - b_q1) / (abs(b_med) or 1.0)
    dominates = min(b * sign for b in change) > max(a * sign for a in parent)
    if -gain / scale > bound:
        outcome = "worse"
    elif wins >= WIN_SHARE * len(pairs) and gain > a_q3 - a_q1:
        outcome = "better"
    elif max(a_spread, b_spread) > bound and not dominates:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {"parent": {"q1": a_q1, "median": a_med, "q3": a_q3,
                       "runs": len(parent)},
            "change": {"q1": b_q1, "median": b_med, "q3": b_q3,
                       "runs": len(change)},
            "pairs": len(pairs), "wins": wins, "losses": losses,
            "verdict": outcome}
