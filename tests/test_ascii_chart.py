"""Plain-text chart rendering for the benchmark reports."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.util.ascii_chart import bar_chart, line_chart


class TestBarChart:
    def test_scales_to_peak(self):
        out = bar_chart({"a": 100.0, "b": 50.0}, width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_and_values_present(self):
        out = bar_chart({"ours": 262.76, "ivory": 180.4}, unit=" MB/s")
        assert "ours" in out and "262.76 MB/s" in out

    def test_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_zero_values(self):
        out = bar_chart({"a": 0.0, "b": 0.0})
        assert "a" in out  # no division crash


class TestLineChart:
    def test_dimensions(self):
        out = line_chart([1, 2, 3], {"s": [10, 20, 30]}, height=5, width=20)
        lines = out.splitlines()
        assert len(lines) == 5 + 3  # grid + axis + x labels + legend
        assert "s" in lines[-1]

    def test_multiple_series_distinct_glyphs(self):
        out = line_chart([1, 2], {"a": [1, 2], "b": [2, 1]}, height=4, width=10)
        assert "o = a" in out and "x = b" in out

    def test_empty(self):
        assert line_chart([], {}) == "(no data)"

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30),
    )
    def test_never_crashes(self, ys):
        xs = list(range(len(ys)))
        out = line_chart(xs, {"s": ys})
        assert isinstance(out, str) and out


class TestTraceRendererDegenerate:
    """The trace view of ``repro explain`` on pathological-but-legal traces.

    These are real shapes: an aborted build writes an empty trace, a
    serial single-worker build has one lane, and a build of an empty
    collection can produce spans whose durations all round to zero.
    """

    @staticmethod
    def _events(spans):
        """(name, lane_tid, ts_us, dur_us) tuples → Chrome events."""
        tids = {}
        events = []
        for name, lane, ts, dur in spans:
            tid = tids.setdefault(lane, len(tids) + 1)
            events.append({"ph": "X", "name": name, "ts": ts, "dur": dur,
                           "tid": tid, "pid": 1})
        for lane, tid in tids.items():
            events.append({"ph": "M", "name": "thread_name", "tid": tid,
                           "pid": 1, "args": {"name": lane}})
        return events

    def test_empty_trace(self):
        from repro.obs.stats import render_trace_summary, spans_from_chrome

        spans = spans_from_chrome([])
        assert spans == []
        assert render_trace_summary(spans) == "(empty trace)"

    def test_single_lane_trace(self):
        from repro.obs.stats import (
            lane_utilization,
            render_trace_summary,
            spans_from_chrome,
        )

        spans = spans_from_chrome(self._events([
            ("build", "main", 0, 1_000_000),
            ("parse", "main", 0, 400_000),
            ("index", "main", 400_000, 600_000),
        ]))
        util = lane_utilization(spans)
        assert set(util) == {"main"} and util["main"] == 1.0
        out = render_trace_summary(spans)
        assert "coverage 100.0%" in out
        assert "main" in out and "parse" in out

    def test_all_zero_duration_spans(self):
        from repro.obs.stats import (
            lane_utilization,
            render_trace_summary,
            span_coverage,
            spans_from_chrome,
        )

        spans = spans_from_chrome(self._events([
            ("build", "main", 0, 0),
            ("parse", "parser-0", 0, 0),
            ("index", "cpu0", 0, 0),
        ]))
        assert len(spans) == 3
        # A zero-duration root defines no wall time to divide by.
        assert span_coverage(spans) == 0.0
        assert lane_utilization(spans) == {}
        out = render_trace_summary(spans)  # must not divide or crash
        assert "0.000s wall" in out
        assert "stage totals:" in out

    def test_missing_root_span(self):
        from repro.obs.stats import render_trace_summary, spans_from_chrome

        spans = spans_from_chrome(self._events([
            ("parse", "parser-0", 0, 100),
        ]))
        out = render_trace_summary(spans)
        assert "no 'build' root span" in out
