"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

import types

import numpy as np

import harness
import served
from harness import Span


def test_percentile_rule_needs_ten_samples_beyond():
    assert harness.supported_percentile(1000) == 99.0
    assert harness.supported_percentile(999) == 95.0
    assert harness.supported_percentile(10_000) == 99.9
    assert harness.supported_percentile(20) == 50.0
    assert harness.supported_percentile(19) is None
    assert harness.samples_beyond(99.9, 10_000) == 10


def test_tail_falls_back_to_the_highest_supported_percentile():
    values = [float(v) for v in range(1, 1001)]
    assert harness.tail(values, 99.0) == (99.0, 990.0)
    assert harness.tail(values[:500], 99.0) == (95.0, 475.0)
    assert harness.percentile(values[:100], 50.0) == 50.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, 1, "root", 0.0, 10.0),
        Span(2, 1, 1, "a", 1.0, 4.0),
        Span(3, 1, 1, "b", 3.0, 6.0),  # overlaps a: counted once
        Span(4, 1, 1, "c", 8.0, 12.0),  # runs past the root: clipped at 10
        Span(5, 2, 1, "grandchild", 1.0, 2.0),  # a's child, not root's
    ]
    selfs = harness.self_times(spans)
    assert selfs[1] == 10.0 - 7.0
    assert selfs[2] == 2.0
    assert selfs[5] == 1.0
    assert harness.self_busy(spans, "root") == 3.0


class _Base:
    def inherited(self, x):
        return x + 1


class _Layer(_Base):
    def outer(self, x):
        return self.inner(x) * 2

    def inner(self, x):
        return x + 1

    @classmethod
    def make(cls):
        return cls()


def test_tracer_nests_spans_and_restores_originals():
    originals = dict(vars(_Layer))
    tracer = harness.Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", lambda args, kwargs, result: {"result": result})
    tracer.wrap(_Layer, "make", "make")
    tracer.wrap(_Layer, "inherited", "inherited")
    layer = _Layer.make()
    assert layer.outer(1) == 4
    assert layer.inherited(1) == 2
    tracer.enabled = False
    layer.inner(5)
    tracer.restore()
    make, outer, inner, inherited = tracer.spans[0], tracer.spans[2], tracer.spans[1], tracer.spans[3]
    assert [s.name for s in (make, outer, inner, inherited)] == ["make", "outer", "inner", "inherited"]
    assert inner.parent == outer.span_id and inner.root == outer.span_id
    assert outer.parent is None and inherited.parent is None
    assert inner.attrs == {"result": 2}
    assert len(tracer.spans) == 4  # nothing recorded while disabled
    assert dict(vars(_Layer)) == originals
    assert "inherited" not in vars(_Layer)


def test_in_window_keeps_whole_requests_that_started_inside():
    spans = [
        Span(1, None, 1, "request", 0.5, 2.0),
        Span(2, 1, 1, "work", 0.6, 1.9),
        Span(3, None, 3, "request", 3.0, 4.0),
        Span(4, 3, 3, "work", 3.1, 3.9),
    ]
    assert [s.span_id for s in harness.in_window(spans, 0.0, 2.5)] == [1, 2]


def test_closed_loop_counts_failures_and_keeps_them_out_of_the_sample():
    def call(session, op):
        if op % 3 == 0:
            raise ConnectionError("refused")
        return op * 10

    counter = harness.OpCounter()
    loop = harness.closed_loop([object(), object()], list(range(30)), 0.05, call, counter)
    assert counter.attempted == len(loop.latencies) + counter.failed
    assert counter.failed >= 1  # op 0 is the first one thread 0 sends
    assert "ConnectionError" in counter.first_error
    assert all(payload == index * 10 and index % 3 for index, payload in loop.completed)
    assert counter.error_rate == counter.failed / counter.attempted


def test_wrong_answers_count_as_failures():
    class Local:
        def execute(self, op):
            return types.SimpleNamespace(payload=[[(op, 1.0)]])

    completed = [(i, [[(i, 1.0 if i % 2 else -1.0)]]) for i in range(10)]
    counter = harness.OpCounter()
    for _ in range(10):
        counter.record(True)
    checked = served.verify(completed, list(range(10)), Local(), counter, seed=0)
    assert checked == 10
    assert counter.failed == 5 and counter.attempted == 10


def test_payload_comparison_is_bitwise():
    a = np.array([0.0, 1.0])
    assert served._canonical([[(1, 0.0)]]) != served._canonical([[(1, -0.0)]])
    assert served._canonical(a) == served._canonical(a.copy())
    assert served._canonical(a) != served._canonical(a.astype(np.float32))
