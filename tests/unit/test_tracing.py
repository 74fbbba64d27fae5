"""Unit tests for the observability layer (``repro.obs``).

Covers the tracer/span lifecycle, the bounded trace store and slow-query log,
the fixed-bucket histograms, the Prometheus
exposition helpers (escaping + a parser-style round trip), the service
counter registry, and the latency-reservoir percentile property.
"""

import json
import random
import re
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_BOUNDS_MS,
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    StageTimings,
    TraceStore,
    Tracer,
    current_execution_span,
    env_tracing_default,
    escape_label_value,
    execution_tracing,
    format_labels,
    format_sample_value,
    render_timeline,
)
from repro.service.metrics import DECLARED_COUNTERS, ServiceMetrics


class TestSpanLifecycle:
    def test_root_end_finalizes_trace_into_store(self):
        tracer = Tracer(TraceStore(capacity=8))
        root = tracer.start_trace("request", request_id="req-1")
        child = root.child("plan")
        child.set("operators", 5)
        child.end()
        root.end()

        trace = tracer.store.get(request_id="req-1")
        assert trace is not None
        assert trace["name"] == "request"
        assert trace["trace_id"] == root.trace_id
        names = [span["name"] for span in trace["spans"]]
        assert names == ["request", "plan"]

    def test_offsets_are_root_relative_and_sorted(self):
        tracer = Tracer(TraceStore())
        base = time.perf_counter()
        root = tracer.start_trace("request", start=base)
        first = root.child("first", start=base + 0.001)
        first.end(base + 0.002)
        second = root.child("second", start=base + 0.003)
        second.end(base + 0.004)
        root.end(base + 0.005)

        trace = tracer.store.traces()[0]
        starts = [span["start_ms"] for span in trace["spans"]]
        assert starts == sorted(starts)
        root_record = trace["spans"][0]
        assert root_record["start_ms"] == 0.0
        assert root_record["parent_id"] is None
        assert trace["duration_ms"] == pytest.approx(5.0, abs=1e-6)
        by_name = {span["name"]: span for span in trace["spans"]}
        assert by_name["first"]["start_ms"] == pytest.approx(1.0, abs=1e-6)
        assert by_name["first"]["duration_ms"] == pytest.approx(1.0, abs=1e-6)
        assert by_name["second"]["parent_id"] == root_record["span_id"]

    def test_end_is_idempotent(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace("request")
        root.end()
        root.end()
        assert len(tracer.store) == 1

    def test_open_span_reports_zero_duration_until_ended(self):
        tracer = Tracer(TraceStore())
        base = time.perf_counter()
        root = tracer.start_trace("request", start=base)
        child = root.child("plan", start=base)
        assert child.duration_ms == 0.0
        child.end(base + 0.002)
        assert child.duration_ms == pytest.approx(2.0, abs=1e-6)
        # Nothing is filed until the root ends.
        assert len(tracer.store) == 0
        root.end(base + 0.003)
        assert len(tracer.store) == 1

    def test_start_attributes_land_on_the_root_record(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace(
            "request", request_id="req-9", attributes={"query_name": "q1"}
        )
        root.set("status", "ok")
        root.end()
        (record,) = tracer.store.get(request_id="req-9")["spans"]
        assert record["attributes"] == {"query_name": "q1", "status": "ok"}

    def test_ids_stay_unique_across_threads(self):
        tracer = Tracer(TraceStore(capacity=0))
        roots = []

        def open_traces():
            for _ in range(200):
                root = tracer.start_trace("request")
                roots.append((root.trace_id, root.span_id))
                root.end()

        threads = [threading.Thread(target=open_traces) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({trace_id for trace_id, _ in roots}) == 800
        assert len({span_id for _, span_id in roots}) == 800

    def test_children_ended_on_other_threads_join_the_trace(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace("request", request_id="req-t")
        children = [root.child(f"part-{index}") for index in range(4)]
        threads = [threading.Thread(target=child.end) for child in children]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        root.end()
        trace = tracer.store.get(request_id="req-t")
        parts = [span for span in trace["spans"] if span["name"].startswith("part-")]
        assert sorted(span["name"] for span in parts) == [f"part-{i}" for i in range(4)]
        assert all(span["parent_id"] == root.span_id for span in parts)

    def test_context_manager_records_error_attribute(self):
        tracer = Tracer(TraceStore())
        with pytest.raises(KeyError):
            with tracer.start_trace("request") as root:
                with root.child("plan"):
                    raise KeyError("boom")
        trace = tracer.store.traces()[0]
        by_name = {span["name"]: span for span in trace["spans"]}
        assert by_name["plan"]["attributes"]["error"] == "KeyError"
        assert by_name["request"]["attributes"]["error"] == "KeyError"

    def test_null_span_is_free_and_self_similar(self):
        assert not NULL_SPAN.recording
        assert NULL_SPAN.child("anything") is NULL_SPAN
        assert NULL_SPAN.end() is NULL_SPAN
        NULL_SPAN.set("key", "value")
        assert NULL_SPAN.attributes == {}
        with NULL_SPAN as span:
            assert span is NULL_SPAN

    def test_null_tracer_hands_out_null_span(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.start_trace("request") is NULL_SPAN


class TestEnvSwitch:
    def test_env_values(self, monkeypatch):
        for value, expected in [
            ("1", True),
            ("true", True),
            ("YES", True),
            ("on", True),
            ("0", False),
            ("", False),
            ("off", False),
        ]:
            monkeypatch.setenv("GALO_TRACE", value)
            assert env_tracing_default() is expected
        monkeypatch.delenv("GALO_TRACE")
        assert env_tracing_default() is False

    def test_service_config_defers_to_env(self, monkeypatch):
        from repro.service.config import ServiceConfig

        monkeypatch.setenv("GALO_TRACE", "1")
        assert ServiceConfig().resolved_tracing_enabled() is True
        assert ServiceConfig(tracing_enabled=False).resolved_tracing_enabled() is False
        monkeypatch.delenv("GALO_TRACE")
        assert ServiceConfig().resolved_tracing_enabled() is False
        assert ServiceConfig(tracing_enabled=True).resolved_tracing_enabled() is True


def _finished_trace(tracer, name="request", request_id="", duration_s=0.0):
    base = time.perf_counter()
    root = tracer.start_trace(name, request_id=request_id, start=base)
    root.end(base + duration_s)
    return root.trace_id


class TestTraceStore:
    def test_capacity_ring(self):
        tracer = Tracer(TraceStore(capacity=3))
        for index in range(5):
            _finished_trace(tracer, request_id=f"req-{index}")
        assert len(tracer.store) == 3
        assert tracer.store.get(request_id="req-0") is None
        assert tracer.store.get(request_id="req-4") is not None
        stats = tracer.store.stats()
        assert stats["traces_recorded"] == 5
        assert stats["traces_stored"] == 3

    def test_pop_removes(self):
        tracer = Tracer(TraceStore())
        trace_id = _finished_trace(tracer, request_id="req-0")
        popped = tracer.store.pop(trace_id)
        assert popped is not None and popped["trace_id"] == trace_id
        assert tracer.store.pop(trace_id) is None
        assert len(tracer.store) == 0

    def test_slow_query_log_routes_only_slow_requests(self):
        store = TraceStore(capacity=16, slow_threshold_ms=100.0, slow_capacity=4)
        tracer = Tracer(store)
        _finished_trace(tracer, request_id="fast", duration_s=0.001)
        _finished_trace(tracer, request_id="slow", duration_s=0.5)
        # Non-request traces never enter the slow log, whatever their length.
        _finished_trace(tracer, name="learn_query", duration_s=2.0)
        slow = store.slow_queries()
        assert [trace["request_id"] for trace in slow] == ["slow"]
        assert store.stats()["slow_queries_recorded"] == 1

    def test_export_json_round_trips(self):
        tracer = Tracer(TraceStore(slow_threshold_ms=0.0))
        _finished_trace(tracer, request_id="req-0", duration_s=0.01)
        everything = json.loads(tracer.store.export_json())
        slow_only = json.loads(tracer.store.export_json(slow_only=True))
        assert len(everything) == 1 and len(slow_only) == 1
        assert everything[0]["request_id"] == "req-0"

    @pytest.mark.parametrize(
        "keyword", ["capacity", "slow_capacity", "slow_threshold_ms"]
    )
    def test_negative_sizes_are_rejected(self, keyword):
        with pytest.raises(ValueError, match=keyword):
            TraceStore(**{keyword: -1})

    def test_zero_capacity_counts_but_keeps_nothing(self):
        store = TraceStore(capacity=0, slow_threshold_ms=0.0, slow_capacity=0)
        tracer = Tracer(store)
        trace_id = _finished_trace(tracer, request_id="req-0", duration_s=0.01)
        assert len(store) == 0 and store.slow_queries() == []
        assert store.get(trace_id=trace_id) is None
        assert store.pop(trace_id) is None
        assert store.stats() == {
            "traces_stored": 0,
            "traces_recorded": 1,
            "slow_queries_stored": 0,
            "slow_queries_recorded": 1,
        }

    def test_slow_ring_outlives_the_main_ring(self):
        store = TraceStore(capacity=2, slow_threshold_ms=100.0, slow_capacity=2)
        tracer = Tracer(store)
        _finished_trace(tracer, request_id="slow", duration_s=0.5)
        for index in range(3):
            _finished_trace(tracer, request_id=f"fast-{index}", duration_s=0.001)
        # Fast traffic rotated the slow request out of the main ring only.
        assert store.get(request_id="slow") is None
        assert [trace["request_id"] for trace in store.slow_queries()] == ["slow"]

    def test_get_returns_the_most_recent_match_and_traces_filter_by_name(self):
        tracer = Tracer(TraceStore())
        _finished_trace(tracer, request_id="req-0")
        newest = _finished_trace(tracer, request_id="req-0")
        _finished_trace(tracer, name="learn_query", request_id="q1")
        assert tracer.store.get(request_id="req-0")["trace_id"] == newest
        assert [t["request_id"] for t in tracer.store.traces("learn_query")] == ["q1"]
        assert len(tracer.store.traces()) == 3


class TestExecutionContext:
    def test_install_and_restore(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace("request")
        assert current_execution_span() is None
        with execution_tracing(root) as installed:
            assert installed is root
            assert current_execution_span() is root
            child = root.child("node")
            with execution_tracing(child):
                assert current_execution_span() is child
            assert current_execution_span() is root
        assert current_execution_span() is None
        root.end()

    def test_non_recording_span_installs_nothing(self):
        with execution_tracing(NULL_SPAN):
            assert current_execution_span() is None
        with execution_tracing(None):
            assert current_execution_span() is None

    def test_execution_span_is_per_thread(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace("request")
        seen = []
        with execution_tracing(root):
            worker = threading.Thread(
                target=lambda: seen.append(current_execution_span())
            )
            worker.start()
            worker.join()
            assert current_execution_span() is root
        root.end()
        assert seen == [None]

    def test_exception_inside_restores_the_outer_span(self):
        tracer = Tracer(TraceStore())
        root = tracer.start_trace("request")
        with execution_tracing(root):
            with pytest.raises(KeyError):
                with execution_tracing(root.child("node")):
                    raise KeyError("boom")
            assert current_execution_span() is root
        assert current_execution_span() is None
        root.end()


class TestTimelineRendering:
    def test_tree_and_attributes(self):
        tracer = Tracer(TraceStore())
        base = time.perf_counter()
        root = tracer.start_trace("request", request_id="req-9", start=base)
        root.set("status", "ok")
        plan = root.child("plan", start=base + 0.001)
        plan.end(base + 0.002)
        execute = root.child("execute", start=base + 0.002)
        scan = execute.child("tbscan", start=base + 0.003)
        scan.set("rows", 123)
        scan.set("table", "SALES")
        scan.end(base + 0.004)
        execute.end(base + 0.005)
        root.end(base + 0.006)

        text = render_timeline(tracer.store.get(request_id="req-9"))
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {root.trace_id} request request_id=req-9")
        assert any("plan" in line for line in lines)
        scan_line = next(line for line in lines if "tbscan" in line)
        assert "rows=123" in scan_line and "table=SALES" in scan_line
        # The executor node is indented two levels below the request root.
        request_indent = next(line for line in lines[1:] if "request" in line)
        assert scan_line.index("tbscan") > request_indent.index("request")


class TestHistogram:
    def test_bucketing_and_cumulative_render(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(556.5)
        lines = histogram.render_prometheus("lat")
        assert lines == [
            'lat_bucket{le="1"} 2',       # 0.5 and the exact bound 1.0
            'lat_bucket{le="10"} 3',
            'lat_bucket{le="100"} 4',
            'lat_bucket{le="+Inf"} 5',
            "lat_sum 556.5",
            "lat_count 5",
        ]

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_empty_histogram_renders_zero_buckets(self):
        lines = Histogram(bounds=(1.0, 2.5)).render_prometheus("lat")
        assert lines == [
            'lat_bucket{le="1"} 0',
            'lat_bucket{le="2.5"} 0',
            'lat_bucket{le="+Inf"} 0',
            "lat_sum 0",
            "lat_count 0",
        ]

    def test_labels_ride_on_every_line_with_le_last(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(3.0)
        lines = histogram.render_prometheus("lat", {"stage": "plan"})
        assert lines == [
            'lat_bucket{stage="plan",le="1"} 0',
            'lat_bucket{stage="plan",le="+Inf"} 1',
            'lat_sum{stage="plan"} 3',
            'lat_count{stage="plan"} 1',
        ]

    def test_stage_timings_list_and_get_stages(self):
        timings = StageTimings(bounds=(1.0, 10.0))
        assert timings.stages() == [] and timings.get("plan") is None
        for stage in ("plan", "execute", "match", "plan"):
            timings.observe(stage, 2.0)
        assert timings.stages() == ["execute", "match", "plan"]
        assert timings.get("plan").count == 2
        assert timings.get("execute").bounds == (1.0, 10.0)
        assert timings.get("queue_wait") is None

    def test_stage_timings_render_stages_in_name_order(self):
        timings = StageTimings(bounds=(1.0,))
        timings.observe("plan", 0.5)
        timings.observe("execute", 4.0)
        lines = timings.render_prometheus("stage_ms")
        counts = [line for line in lines if line.startswith("stage_ms_count")]
        assert counts == [
            'stage_ms_count{stage="execute"} 1',
            'stage_ms_count{stage="plan"} 1',
        ]
        assert 'stage_ms_bucket{stage="plan",le="1"} 1' in lines
        assert 'stage_ms_bucket{stage="execute",le="1"} 0' in lines


class TestPrometheusHelpers:
    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert format_labels({"q": 'say "hi"\n'}) == '{q="say \\"hi\\"\\n"}'
        assert format_labels(None) == ""
        assert format_labels({}) == ""

    def test_label_values_are_stringified_in_insertion_order(self):
        assert format_labels({"stage": "plan", "le": 2.5}) == '{stage="plan",le="2.5"}'
        assert format_labels({"n": 3, "ok": True}) == '{n="3",ok="True"}'

    def test_sample_value_formatting(self):
        assert format_sample_value(3) == "3"
        assert format_sample_value(True) == "1"
        assert format_sample_value(12.5) == "12.5"
        assert format_sample_value(4.0) == "4"
        assert format_sample_value(float("nan")) == "NaN"
        assert format_sample_value(float("inf")) == "+Inf"
        assert format_sample_value(float("-inf")) == "-Inf"


class TestCounterRegistry:
    def test_unregistered_counter_is_rejected(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="unregistered counter"):
            metrics.increment("submited")  # typo'd name must not silently count

    def test_declared_counters_start_at_zero(self):
        metrics = ServiceMetrics()
        for name in DECLARED_COUNTERS:
            assert metrics.count(name) == 0
            metrics.increment(name)
            assert metrics.count(name) == 1

    def test_register_counter_is_idempotent_and_enables_increment(self):
        metrics = ServiceMetrics()
        metrics.register_counter("extension_events")
        metrics.increment("extension_events", 2)
        metrics.register_counter("extension_events")  # must not reset the value
        assert metrics.count("extension_events") == 2

    def test_unknown_counter_reads_zero_without_registering(self):
        metrics = ServiceMetrics()
        assert metrics.count("not_a_counter") == 0
        assert "not_a_counter" not in metrics.snapshot()


# A strict-enough sample-line grammar for the exposition text format: metric
# name, optional label block (escaped values), and a parseable value.
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*",?)*)\})?'
    r" (?P<value>-?(?:[0-9.e+-]+|NaN|\+Inf|-Inf))$"
)


def _parse_exposition(page):
    """Parser-style validation of a /metrics page; returns sample names."""
    assert page.endswith("\n")
    typed_families = set()
    helped_families = set()
    samples = []
    for line in page.rstrip("\n").split("\n"):
        if line.startswith("# HELP "):
            helped_families.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            typed_families.add(family)
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            float(value)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed_families or family in typed_families, (
            f"sample {name!r} has no # TYPE header"
        )
        assert name in helped_families or family in helped_families, (
            f"sample {name!r} has no # HELP header"
        )
        samples.append(name)
    return samples


class TestExpositionParses:
    def test_service_metrics_page(self):
        metrics = ServiceMetrics()
        metrics.increment("submitted", 3)
        metrics.increment("completed", 2)
        metrics.record_latency(12.5)
        metrics.record_latency(3.0)
        page = metrics.render_prometheus({"memo_entries": 7, "kb_bytes": 1.5})
        names = _parse_exposition(page)
        assert "galo_submitted" in names
        assert "galo_memo_entries" in names
        # Diff-stable: samples appear in sorted order.
        assert names == sorted(names)

    def test_counters_are_typed_counter_and_the_rest_gauge(self):
        metrics = ServiceMetrics()
        metrics.register_counter("extension_events")
        metrics.record_latency(2.0)
        page = metrics.render_prometheus({"memo_entries": 3})
        assert "# TYPE galo_submitted counter" in page
        assert "# TYPE galo_extension_events counter" in page
        assert "# TYPE galo_latency_p95_ms gauge" in page
        assert "# TYPE galo_memo_entries gauge" in page
        assert "\ngalo_memo_entries 3\n" in page

    def test_series_without_help_text_gets_a_generic_line(self):
        page = ServiceMetrics().render_prometheus({"kb_bytes": 1.5})
        assert "# HELP galo_kb_bytes GALO service metric kb_bytes.\n" in page
        assert "# HELP galo_submitted Requests admitted for execution.\n" in page
        _parse_exposition(page)

    def test_page_before_any_request_has_no_latency_stats(self):
        page = ServiceMetrics().render_prometheus()
        names = _parse_exposition(page)
        assert "galo_latency_samples" in names
        assert not any(
            name.startswith("galo_latency_") and name != "galo_latency_samples"
            for name in names
        )
        assert set(names) == {
            f"galo_{name}" for name in DECLARED_COUNTERS
        } | {"galo_latency_samples"}

    def test_labelled_series_with_hostile_values_parse(self):
        timings = StageTimings(bounds=(1.0, 10.0))
        timings.observe("execute", 2.0)
        timings.observe('sneaky "name"\nwith newline', 2.0)
        lines = [
            "# HELP galo_stage_latency_ms Stage latency.",
            "# TYPE galo_stage_latency_ms histogram",
        ]
        lines.extend(timings.render_prometheus("galo_stage_latency_ms"))
        escaped = 'stage="sneaky \\"name\\"\\nwith newline"'
        assert f"galo_stage_latency_ms_count{{{escaped}}} 1" in lines
        _parse_exposition("\n".join(lines) + "\n")


class TestLatencyReservoirProperty:
    """Satellite: reservoir percentiles track exact percentiles in quantile
    space even long after the stride/halving downsampling kicks in."""

    #: Tolerance in quantile space: the reservoir's answer must sit within
    #: this many quantile points of the requested percentile in the *full*
    #: stream.  The reservoir keeps >= MAX/2 uniform-ish samples, so 8 points
    #: is a loose bar -- failures mean downsampling bias, not noise.
    QUANTILE_TOLERANCE = 0.08

    def _quantile_error(self, full_stream, answer, percentile):
        ordered = sorted(full_stream)
        import bisect

        low = bisect.bisect_left(ordered, answer) / len(ordered)
        high = bisect.bisect_right(ordered, answer) / len(ordered)
        target = percentile / 100.0
        if low <= target <= high:
            return 0.0
        return min(abs(low - target), abs(high - target))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "pattern", ["uniform", "lognormal_like", "ramp", "bimodal"]
    )
    def test_percentiles_survive_downsampling(self, seed, pattern):
        rng = random.Random(seed)
        size = 5000
        if pattern == "uniform":
            stream = [rng.uniform(0.1, 100.0) for _ in range(size)]
        elif pattern == "lognormal_like":
            stream = [rng.expovariate(1.0) ** 2 * 10.0 + 0.1 for _ in range(size)]
        elif pattern == "ramp":
            # Monotone ramps are the adversarial case for stride sampling;
            # shuffling models real interleaved arrival, and the stride keeps
            # every k-th arrival, so order matters.
            stream = [float(value) for value in range(1, size + 1)]
            rng.shuffle(stream)
        else:
            stream = [
                rng.uniform(1.0, 2.0) if rng.random() < 0.9 else rng.uniform(500, 1000)
                for _ in range(size)
            ]

        metrics = ServiceMetrics()
        metrics.MAX_LATENCY_SAMPLES = 256  # force many halvings over 5k samples
        for value in stream:
            metrics.record_latency(value)

        assert metrics.sample_count < 256
        # Extremes are tracked exactly, outside the reservoir.
        assert metrics.latency_min_ms == min(stream)
        assert metrics.latency_max_ms == max(stream)
        for percentile in (50, 90, 95, 99):
            answer = metrics.latency_percentile(percentile)
            error = self._quantile_error(stream, answer, percentile)
            assert error <= self.QUANTILE_TOLERANCE, (
                f"p{percentile} off by {error:.3f} quantile points "
                f"(pattern={pattern}, seed={seed}, answer={answer})"
            )
