"""Unit tests for the telemetry layer: tracer, metrics, schema, runtime.

The integration-level guarantees (a real build's artifacts, coverage,
determinism) live in tests/test_obs_integration.py; this file pins the
component contracts those guarantees are built on.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import runtime
from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.schema import (
    METRICS_SCHEMA_VERSION,
    build_payload,
    load_metrics,
    validate_metrics,
    write_metrics,
)
from repro.obs.stats import (
    engine_blame,
    interval_union_s,
    render_trace_summary,
    span_coverage,
    spans_from_chrome,
)
from repro.obs.trace import NullTracer, Span, Tracer, load_chrome_trace


class TestTracer:
    def test_nesting_depth_and_parent(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                with t.span("leaf"):
                    pass
        by_name = {s.name: s for s in t.spans}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["inner"].depth == 1 and by_name["inner"].parent == "outer"
        assert by_name["leaf"].depth == 2 and by_name["leaf"].parent == "inner"

    def test_nesting_is_per_lane(self):
        t = Tracer()
        with t.span("a", lane="one"):
            with t.span("b", lane="two"):
                pass
        b = t.find("b")[0]
        assert b.depth == 0 and b.parent is None  # lanes nest independently

    def test_span_yields_mutable_args(self):
        t = Tracer()
        with t.span("work", file=3) as tags:
            tags["bytes"] = 1024
        (span,) = t.find("work")
        assert span.args == {"file": 3, "bytes": 1024}

    def test_span_recorded_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        assert len(t.find("doomed")) == 1

    def test_spans_are_thread_local_stacks(self):
        t = Tracer()

        def worker(i: int) -> None:
            with t.span("w", lane=f"lane-{i}"):
                pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        spans = t.find("w")
        assert len(spans) == 8
        assert all(s.depth == 0 for s in spans)

    def test_chrome_export_roundtrip(self, tmp_path):
        t = Tracer()
        with t.span("build"):
            with t.span("parse", cat="parse", lane="parser-0", file=1):
                pass
        t.instant("marker", lane="engine")
        path = str(tmp_path / "trace.json")
        t.write(path)

        events = load_chrome_trace(path)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"build", "parse", "marker"}
        assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
                   for e in complete)
        assert {e["args"]["name"] for e in meta} == {"engine", "parser-0"}

        spans = spans_from_chrome(events)
        lanes = {s.lane for s in spans}
        assert lanes == {"engine", "parser-0"}

    def test_load_rejects_damaged_trace(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"events": []}, fh)
        with pytest.raises(ValueError, match="traceEvents"):
            load_chrome_trace(path)

    def test_null_tracer_records_nothing(self):
        t = NullTracer()
        with t.span("invisible", file=1) as tags:
            tags["x"] = 1
        t.instant("also-invisible")
        assert t.spans == []
        assert not t.enabled

    def test_null_tracer_shares_one_context_manager_args(self):
        t = NullTracer()
        with t.span("a") as tags_a:
            pass
        with t.span("b") as tags_b:
            pass
        assert tags_a is tags_b  # the single shared no-op dict


class TestHistogram:
    def test_bucketing_upper_bound_inclusive(self):
        h = Histogram("h", buckets=[10, 100, 1000])
        for value in (1, 10, 11, 100, 1000, 1001):
            h.observe(value)
        # <=10 → slot 0: {1, 10}; <=100 → slot 1: {11, 100};
        # <=1000 → slot 2: {1000}; overflow: {1001}
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.total == 1 + 10 + 11 + 100 + 1000 + 1001

    def test_bucket_for_matches_observe(self):
        h = Histogram("h", buckets=list(DEFAULT_BYTE_BUCKETS))
        for value in (0, 1, 4, 5, 4**15, 4**15 + 1):
            idx = h.bucket_for(value)
            before = list(h.counts)
            h.observe(value)
            assert h.counts[idx] == before[idx] + 1

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[10, 5])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[5, 5])


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        reg.count("c", 3)
        reg.count("c")
        assert reg.counter("c").value == 4
        with pytest.raises(ValueError):
            reg.count("c", -1)

    def test_name_bound_to_one_kind(self):
        reg = MetricsRegistry()
        reg.count("x")
        with pytest.raises(ValueError, match="already a counter"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already a counter"):
            reg.histogram("x")

    def test_snapshot_is_detached(self):
        reg = MetricsRegistry()
        reg.count("c", 1)
        snap = reg.snapshot()
        reg.count("c", 10)
        assert snap["counters"]["c"] == 1

    def test_delta_reports_only_changes(self):
        reg = MetricsRegistry()
        reg.count("stable", 5)
        reg.set_gauge("g", 1)
        before = reg.snapshot()
        reg.count("c", 2)
        reg.set_gauge("g", 7)
        reg.observe("h", 3, buckets=[10])
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["counters"] == {"c": 2}
        assert d["gauges"] == {"g": 7}
        assert d["histograms"]["h"]["counts"] == [1, 0]
        assert d["histograms"]["h"]["sum"] == 3
        replay = MetricsRegistry()
        replay.count("stable", 5)
        replay.set_gauge("g", 1)
        assert replay.snapshot() == before
        replay.absorb(d)
        assert replay.snapshot() == reg.snapshot()

    def test_null_registry_discards_everything(self):
        reg = NullRegistry()
        reg.count("c", 5)
        reg.set_gauge("g", 5)
        reg.observe("h", 5)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not reg.enabled


class TestSchema:
    def _payload(self):
        reg = MetricsRegistry()
        reg.count("build.docs", 7)
        reg.set_gauge("dictionary.terms", 3)
        reg.observe("run.bytes", 100)
        return build_payload(
            reg.snapshot(), {"wall_seconds": 1.5}, meta={"collection": "t"}
        )

    def test_valid_payload_roundtrip(self, tmp_path):
        payload = self._payload()
        assert validate_metrics(payload) == []
        path = write_metrics(str(tmp_path / "run.metrics.json"), payload)
        assert load_metrics(path) == payload

    def test_schema_version_pinned(self):
        payload = self._payload()
        assert payload["schema"] == METRICS_SCHEMA_VERSION

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.pop("counters"), "missing required section"),
            (lambda p: p.update(schema="other/1"), "not a"),
            (lambda p: p.update(extra={}), "unknown section"),
            (lambda p: p["counters"].update(bad="nan"), "not a number"),
            (lambda p: p["counters"].update(bad=-1), "negative counter"),
            (
                lambda p: p["histograms"]["run.bytes"].pop("sum"),
                "missing key",
            ),
            (
                lambda p: p["histograms"]["run.bytes"].update(count=99),
                "sum of bucket counts",
            ),
        ],
    )
    def test_invalid_payloads_rejected(self, mutate, fragment):
        payload = self._payload()
        mutate(payload)
        problems = validate_metrics(payload)
        assert problems and fragment in "; ".join(problems)

    def test_write_refuses_invalid(self, tmp_path):
        payload = self._payload()
        del payload["timings"]
        with pytest.raises(ValueError, match="refusing to write"):
            write_metrics(str(tmp_path / "x.json"), payload)


class TestRuntime:
    def test_session_installs_and_restores(self):
        assert runtime.current() is None
        tel = runtime.Telemetry.create()
        with runtime.session(tel):
            assert runtime.current() is tel
            assert runtime.tracer() is tel.tracer
            assert runtime.metrics() is tel.metrics
            runtime.count("c", 2)
            runtime.observe("h", 5)
        assert runtime.current() is None
        assert tel.metrics.counter("c").value == 2
        assert tel.metrics.histogram("h").count == 1

    def test_sessions_nest(self):
        outer, inner = runtime.Telemetry.create(), runtime.Telemetry.create()
        with runtime.session(outer):
            with runtime.session(inner):
                assert runtime.current() is inner
            assert runtime.current() is outer
        assert runtime.current() is None

    def test_uninstalled_helpers_are_null_noops(self):
        assert runtime.current() is None
        runtime.count("nobody-home")  # must not raise
        with runtime.tracer().span("nobody-home"):
            pass
        assert not runtime.tracer().enabled
        assert not runtime.metrics().enabled

    def test_disabled_bundle(self):
        tel = runtime.Telemetry.create(enabled=False)
        assert not tel.enabled
        with runtime.session(tel):
            runtime.count("c", 99)
            with runtime.tracer().span("s"):
                pass
        assert tel.metrics.snapshot()["counters"] == {}
        assert tel.tracer.spans == []


class TestStatsHelpers:
    def test_interval_union_merges_overlaps(self):
        assert interval_union_s([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
        assert interval_union_s([(2, 2), (3, 1)]) == 0.0  # degenerate dropped

    def test_span_coverage_clips_to_root(self):
        t = Tracer(clock=lambda: 0.0)
        # Hand-build spans with controlled times via the dataclass.
        spans = [
            Span("build", "build", "engine", 0.0, 10.0, 0, None),
            Span("a", "x", "w", 1.0, 4.0, 0, None),
            Span("b", "x", "w", 3.0, 6.0, 0, None),  # overlaps a
            Span("c", "x", "w", 9.0, 12.0, 0, None),  # clipped at 10
        ]
        # union inside root: [1,6] + [9,10] = 6s of 10s
        assert span_coverage(spans, "build") == pytest.approx(0.6)
        assert span_coverage(spans, "missing-root") == 0.0


def S(name, lane, start, end, **args):
    return Span(name=name, cat="x", lane=lane, start_s=float(start),
                end_s=float(end), depth=0, parent=None, args=dict(args))


def _mp_spans():
    """A hand-built multiprocess build: wall 10s, every second accounted.

    The engine lane waits on the parse worker (``parse.wait``) and
    indexes each file itself; the worker's ``parse_file`` spans sit on
    the ``parser-0`` lane.  File 0's wait (0-4) starts with a supervisor
    restart (0-1) while the worker is parsing (0-2), then waits 2s with
    no compute; file 1's wait (5-6) overlaps its parse by 0.5s.  Then
    write_run 7-8 + checkpoint 8-8.5, dict.write 8.5-9.5 and a 0.5s
    epilogue.
    """
    return [
        S("build", "engine", 0, 10),
        S("run_loop", "engine", 0, 10, backend="multiprocess"),
        S("parse.wait", "engine", 0, 4, file=0),
        S("supervisor.recover", "engine", 0, 1, kind="worker_crash"),
        S("index", "engine", 4, 5, file=0),
        S("parse.wait", "engine", 5, 6, file=1),
        S("index", "engine", 6, 7, file=1),
        S("write_run", "engine", 7, 8, run=0),
        S("checkpoint", "engine", 8, 8.5, run=0),
        S("dict.write", "engine", 8.5, 9.5),
        S("parse_file", "parser-0", 0, 2, file=0),
        S("parse_file", "parser-0", 4, 5.5, file=1),
    ]


class TestEngineBlame:
    """Where the engine lane's wall went (``repro explain``)."""

    def test_blame_decomposition_on_a_multiprocess_build(self):
        blame = engine_blame(_mp_spans())
        assert blame["supervisor"] == pytest.approx(1.0)  # outranks parse 0-1
        assert blame["parse"] == pytest.approx(1.5)       # 1-2 and 5-5.5
        # 2s of file 0's wait + 0.5s of file 1's with no compute running.
        assert blame["transport"] == pytest.approx(2.5)
        assert blame["index"] == pytest.approx(2.0)
        assert blame["flush"] == pytest.approx(1.5)
        assert blame["merge"] == pytest.approx(1.0)
        assert blame["engine"] == pytest.approx(0.5)
        assert next(iter(blame)) == "transport"  # heaviest first
        assert sum(blame.values()) == pytest.approx(10.0)  # the whole wall

    def test_supervisor_recovery_outranks_compute_overlap(self):
        spans = [
            S("build", "engine", 0, 4),
            S("run_loop", "engine", 0, 4, backend="multiprocess"),
            S("parse.wait", "engine", 0, 4, file=2),
            S("supervisor.recover", "engine", 0, 1, action="restart"),
            S("parse_file", "parser-0", 0, 3),
        ]
        blame = engine_blame(spans)
        assert blame["supervisor"] == pytest.approx(1.0)
        assert blame["parse"] == pytest.approx(2.0)
        assert blame["transport"] == pytest.approx(1.0)

    def test_uninstrumented_gaps_fall_to_the_engine(self):
        spans = [
            S("build", "engine", 0, 5),
            S("parse", "engine", 1, 2, file=0),
            S("index", "engine", 3, 4.5, file=0),
        ]
        blame = engine_blame(spans)
        assert blame["engine"] == pytest.approx(2.5)  # 0-1, 2-3, 4.5-5 gaps
        assert blame["parse"] == pytest.approx(1.0)
        assert blame["index"] == pytest.approx(1.5)

    def test_empty_trace_has_no_blame(self):
        assert engine_blame([]) == {}

    def test_trace_summary_states_parse_and_index_shares(self):
        text = render_trace_summary(_mp_spans())
        assert "where the engine's wall went (10.000000s):" in text
        assert "  transport    2.500000s   25.0%" in text
        assert ("the engine spent 40.0% of the build wall on the parse side "
                "(parse + transport) and 20.0% in the indexers (index)") in text


class TestEmptyCollectionBuild:
    """Satellite bugfix pin: a zero-document build must degrade cleanly."""

    def test_zero_wall_throughput_and_summary(self, tmp_path):
        from repro.core.config import PlatformConfig
        from repro.core.engine import IndexingEngine
        from repro.corpus.collection import Collection
        from repro.obs.schema import load_metrics
        from repro.obs.stats import render_metrics_summary

        coll_dir = tmp_path / "empty"
        coll_dir.mkdir()
        coll = Collection(name="empty", directory=str(coll_dir), files=[])
        coll.save_manifest()

        result = IndexingEngine(PlatformConfig(sample_fraction=0.5)).build(
            Collection.load("empty", str(coll_dir)), str(tmp_path / "out")
        )
        assert result.document_count == 0
        assert result.measured_throughput_mbps == 0.0  # never a division error

        assert result.metrics_path is not None
        summary = render_metrics_summary(load_metrics(result.metrics_path))
        assert "derived measured throughput: 0.00 MB/s" in summary
        assert "empty or zero-wall build" in summary

    def test_summary_tolerates_sparse_payload(self):
        from repro.obs.stats import render_metrics_summary

        # Histogram entries missing keys, no timings, no counters.
        out = render_metrics_summary({
            "schema": "repro.run.metrics/1",
            "histograms": {"h": {}},
        })
        assert "n=0" in out
