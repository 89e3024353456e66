"""Measurement primitives for the repository benchmark (standard library only).

* :func:`supported_percentile` / :func:`percentile` — the reporting rule
  for timings: a tail percentile is quoted only when at least ten
  samples lie beyond it.
* :class:`Tracer` — spans recorded *from outside* a layer by wrapping
  its public functions; each span keeps its parent and the root of its
  request, so per-layer busy time and self time can be summed later.
* :func:`self_times` — a span's duration minus the union of the
  intervals its child spans cover.
* :func:`closed_loop` — client threads that each wait for a reply
  before sending the next request, counting attempted and failed
  operations.
* ``/proc`` readers for resident memory and CPU time (Linux).
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import threading
import time
import traceback
from dataclasses import dataclass, field

#: Percentiles a tail may be quoted at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a quoted percentile.
MIN_BEYOND = 10


# -- percentiles ----------------------------------------------------------------


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile ``p`` among ``n`` samples."""
    # round() first: 99.9 * 1000 / 100 is 998.9999999999999 in binary floats
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(p: float, n: int) -> int:
    """How many of ``n`` samples rank strictly above percentile ``p``."""
    return n - _rank(p, n) if n else 0


def supported_percentile(n: int, ladder=PERCENTILE_LADDER, min_beyond: int = MIN_BEYOND):
    """The highest percentile in ``ladder`` with ``min_beyond`` samples beyond it.

    Returns ``None`` when even the lowest rung is unsupported.
    """
    for p in sorted(ladder, reverse=True):
        if samples_beyond(p, n) >= min_beyond:
            return p
    return None


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail(sorted_values, wanted: float) -> tuple[float, float]:
    """``(p, value)``: ``wanted`` if the sample supports it, else the highest that is."""
    n = len(sorted_values)
    p = wanted if samples_beyond(wanted, n) >= MIN_BEYOND else supported_percentile(n)
    if p is None:
        p = 50.0
    return p, percentile(sorted_values, p)


# -- spans ----------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.span_id, self.parent, self.root, self.name, self.start, self.end, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans around wrapped functions; keeps them in memory.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` (a module
    function, or a plain/class/static method of a class) by a wrapper
    that records one span per call.  A span opened while another is
    open on the same thread becomes its child and shares its root —
    the root span's id identifies the request.  ``attrs(args, kwargs,
    result)`` may attach counts to a span.  :meth:`restore` puts every
    original back.  Clock: :func:`time.monotonic`, which on Linux is
    system-wide, so spans from a server process and its client line up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        #: while False, wrapped functions run without recording spans
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent, root = (stack[-1] if stack else (None, span_id))
        stack.append((span_id, root))
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        extra = attrs(args, kwargs, result) if attrs is not None else None
        with self._lock:
            self.spans.append(Span(span_id, parent, root, name, start, end, extra))
        return result

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        static = inspect.getattr_static(owner, attr)
        tracer = self
        if isinstance(static, (classmethod, staticmethod)):
            inner = static.__func__

            def wrapper(*args, **kwargs):
                return tracer.call(name, inner, args, kwargs, attrs)

            replacement = type(static)(wrapper)
        else:
            inner = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                return tracer.call(name, inner, args, kwargs, attrs)

            replacement = wrapper
        wrapper.__wrapped__ = inner
        # an inherited method is shadowed on ``owner`` and later removed again
        own = attr in vars(owner)
        self._patched.append((owner, attr, static if own else None))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (calls on several threads) count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.span_id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.span_id] = span.duration - _union_length(covered)
    return out


def in_window(spans, start: float, end: float) -> list[Span]:
    """Spans whose request (root span) started inside ``[start, end]``."""
    roots = {
        s.span_id for s in spans if s.parent is None and start <= s.start <= end
    }
    return [s for s in spans if s.root in roots]


def busy(spans, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def attr_sum(spans, name: str, key: str) -> float:
    return sum((s.attrs or {}).get(key, 0) for s in spans if s.name == name)


def self_busy(spans, name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[s.span_id] for s in spans if s.name == name)


def tracing_overhead(untraced: dict, traced: dict) -> dict:
    """The percentage by which tracing worsened each timed end-to-end metric."""

    def worse(name, higher_is_better=False):
        a, b = untraced[name], traced[name]
        return 100.0 * ((a - b) if higher_is_better else (b - a)) / a

    return {
        "trace.ops_per_s_overhead_pct": worse("ops_per_s", higher_is_better=True),
        "trace.latency_p50_overhead_pct": worse("latency_p50_ms"),
        "trace.latency_tail_overhead_pct": worse("latency_tail_ms"),
    }


# -- operation accounting and the closed loop -----------------------------------


class OpCounter:
    """Thread-safe attempted / failed counts; a failure keeps its first reason."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def record(self, ok: bool, reason: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.first_error is None:
                    self.first_error = reason

    def fail(self, reason: str) -> None:
        """Count a failure found after the fact (a wrong answer) without a new attempt."""
        with self._lock:
            self.failed += 1
            if self.first_error is None:
                self.first_error = reason

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class LoopResult:
    start: float
    end: float
    latencies: list[float]
    completed: list[tuple[int, object]] = field(default_factory=list)
    cpu_seconds: float = 0.0
    #: where a following loop over the same ops continues
    next_index: int = 0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Successful operations per second."""
        return len(self.latencies) / self.wall


def merge_loops(loops) -> LoopResult:
    """Consecutive loops as one: pooled samples, summed CPU, first start to last end."""
    return LoopResult(
        loops[0].start,
        loops[-1].end,
        sorted(x for loop in loops for x in loop.latencies),
        [c for loop in loops for c in loop.completed],
        sum(loop.cpu_seconds for loop in loops),
        loops[-1].next_index,
    )


def process_cpu_seconds() -> float:
    """CPU time of this whole process (all threads), user plus system."""
    times = os.times()
    return times.user + times.system


def closed_loop(
    sessions, ops, seconds: float, call, counter: OpCounter, start: int = 0
) -> LoopResult:
    """One thread per session; each sends its next op only after the last reply.

    Thread ``t`` of ``n`` takes ``ops[start + t], ops[start + t + n],
    ...`` (cycling when the list runs out) until ``seconds`` have passed
    since all threads started.  ``call(session, op)`` returns the
    payload; any ``Exception`` it raises counts as a failed operation.
    Successful operations contribute their latency and ``(op index,
    payload)``.
    """
    n = len(sessions)
    barrier = threading.Barrier(n + 1)
    per_thread = [([], []) for _ in range(n)]
    ends = [0.0] * n
    steps = [0] * n
    box = {}

    def worker(t: int) -> None:
        latencies, completed = per_thread[t]
        barrier.wait()
        deadline = box["deadline"]
        for step in itertools.count():
            steps[t] = step + 1
            index = (start + t + step * n) % len(ops)
            t0 = time.monotonic()
            try:
                payload = call(sessions[t], ops[index])
            except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                counter.record(False, "".join(traceback.format_exception_only(exc)).strip())
                t1 = time.monotonic()
            else:
                t1 = time.monotonic()
                counter.record(True)
                latencies.append(t1 - t0)
                completed.append((index, payload))
            if t1 >= deadline:
                break
        ends[t] = t1

    threads = [threading.Thread(target=worker, args=(t,), name=f"perfbench-client-{t}") for t in range(n)]
    for thread in threads:
        thread.start()
    cpu0 = process_cpu_seconds()
    began = time.monotonic()
    box["deadline"] = began + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    cpu = process_cpu_seconds() - cpu0
    latencies = sorted(x for lat, _ in per_thread for x in lat)
    completed = [c for _, comp in per_thread for c in comp]
    next_index = (start + n * max(steps)) % len(ops)
    return LoopResult(began, max(ends), latencies, completed, cpu, next_index)


# -- /proc readers (Linux) --------------------------------------------------------


def proc_status_mb(pid, key: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{key} not in /proc/{pid}/status")


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS; False if refused."""
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


def proc_cpu_seconds(pid) -> float:
    """User plus system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as stat:
        # the command name may contain spaces; fields resume after its ')'
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def tree_bytes(path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
