"""Tests for repro.obs.metrics: primitives, registry, session collector."""

import json
import pickle

import pytest

from repro.experiments import SessionConfig, run_session
from repro.obs import EventBus, dumps_jsonl, loads_jsonl
from repro.obs.events import (ChunkDownloaded, ChunkRequested, DeadlineArmed,
                              DeadlineMissed, PacketSent, PathSampled,
                              QualitySwitched, RadioStateChange,
                              SchedulerActivated, SessionClosed, StallEnd,
                              StallStart, TransferCompleted, TransferStarted)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               SessionMetricsCollector, Timeseries,
                               collector_from_trace, exponential_buckets,
                               linear_buckets, metric_from_dict,
                               registry_from_trace)


def short_config(**kwargs):
    defaults = dict(video="big_buck_bunny", abr="festive", mpdash=True,
                    deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
                    video_duration=60.0)
    defaults.update(kwargs)
    return SessionConfig(**defaults)


class TestCounter:
    def test_increments(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_merge_adds(self):
        a, b = Counter("hits"), Counter("hits")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("level")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_merge_is_additive(self):
        a, b = Gauge("residency"), Gauge("residency")
        a.add(10.0)
        b.add(5.0)
        a.merge(b)
        assert a.value == 15.0


class TestBucketBuilders:
    def test_exponential(self):
        assert exponential_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]

    def test_linear(self):
        assert linear_buckets(0.0, 0.5, 3) == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("call", [
        lambda: exponential_buckets(0.0, 2.0, 3),
        lambda: exponential_buckets(1.0, 1.0, 3),
        lambda: exponential_buckets(1.0, 2.0, 0),
        lambda: linear_buckets(0.0, 0.0, 3),
        lambda: linear_buckets(0.0, 1.0, 0),
    ])
    def test_invalid_parameters(self, call):
        with pytest.raises(ValueError):
            call()


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram("lat", [1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 3.0, 99.0):
            histogram.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 99.0
        assert histogram.mean == pytest.approx(21.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", [1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("bad", [2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("bad", [])
        with pytest.raises(ValueError):
            Histogram("bad", [1.0, float("inf")])

    def test_quantile(self):
        histogram = Histogram("lat", linear_buckets(1.0, 1.0, 10))
        for value in range(1, 101):
            histogram.observe(value / 10.0)
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)
        assert histogram.quantile(0.5) == pytest.approx(5.0, abs=1.0)
        assert histogram.quantile(1.0) == histogram.max
        assert Histogram("empty", [1.0]).quantile(0.5) is None
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_quantile_overflow_bucket_reports_max(self):
        histogram = Histogram("lat", [1.0])
        histogram.observe(50.0)
        histogram.observe(70.0)
        assert histogram.quantile(0.99) == 70.0

    def test_merge(self):
        a = Histogram("lat", [1.0, 2.0])
        b = Histogram("lat", [1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.min == 0.5
        assert a.max == 9.0

    def test_merge_rejects_different_bounds(self):
        a = Histogram("lat", [1.0])
        b = Histogram("lat", [2.0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_error_names_both_layouts(self):
        a = Histogram("slack_a", [1.0, 2.0])
        b = Histogram("slack_b", [1.0, 5.0])
        with pytest.raises(ValueError,
                           match="mismatched bucket layouts") as excinfo:
            a.merge(b)
        message = str(excinfo.value)
        assert "slack_a" in message and "[1.0, 2.0]" in message
        assert "slack_b" in message and "[1.0, 5.0]" in message

    def test_merge_rejects_mismatched_bucket_counts(self):
        a = Histogram("lat", [1.0, 2.0])
        b = Histogram("lat", [1.0, 2.0])
        b.counts = [0, 0]  # corrupted payload: one bucket short
        with pytest.raises(ValueError, match="lat"):
            a.merge(b)

    def test_from_dict_rejects_inconsistent_counts(self):
        payload = Histogram("lat", [1.0, 2.0]).to_dict()
        payload["counts"] = [0, 0]  # 2 bounds need 3 buckets
        with pytest.raises(ValueError, match="payload is inconsistent"):
            Histogram.from_dict(payload)

    def test_dict_round_trip(self):
        histogram = Histogram("lat", [1.0, 2.0], {"path": "wifi"})
        histogram.observe(0.5)
        histogram.observe(3.0)
        revived = Histogram.from_dict(histogram.to_dict())
        assert revived.to_dict() == histogram.to_dict()


class TestTimeseries:
    def test_samples_and_last(self):
        series = Timeseries("tput")
        assert series.last is None
        series.sample(0.0, 10.0)
        series.sample(1.0, 20.0)
        assert series.last == 20.0
        assert series.samples == [(0.0, 10.0), (1.0, 20.0)]

    def test_merge_sorts(self):
        a, b = Timeseries("tput"), Timeseries("tput")
        a.sample(2.0, 1.0)
        b.sample(1.0, 2.0)
        a.merge(b)
        assert a.samples == [(1.0, 2.0), (2.0, 1.0)]


class TestMetricsRegistry:
    def test_accessors_create_once(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")
        assert (registry.counter("hits", {"path": "wifi"})
                is not registry.counter("hits"))
        assert len(registry) == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.histogram("h", [1.0])
        with pytest.raises(TypeError):
            registry.counter("h")
        with pytest.raises(TypeError):
            registry.histogram("x", [1.0])

    def test_merge_combines_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(1)
        b.counter("hits").inc(2)
        b.histogram("lat", [1.0]).observe(0.5)
        a.merge(b)
        assert a.counter("hits").value == 3
        assert a.histogram("lat", [1.0]).count == 1
        # The donor registry is untouched.
        assert b.counter("hits").value == 2

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", {"path": "wifi"}).inc(3)
        histogram = registry.histogram("repro_lat_seconds", [1.0, 2.0])
        histogram.observe(0.5)
        histogram.observe(5.0)
        registry.timeseries("repro_tput").sample(1.0, 42.0)
        text = registry.render_prometheus()
        assert '# TYPE repro_hits_total counter' in text
        assert 'repro_hits_total{path="wifi"} 3' in text
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert 'repro_lat_seconds_sum 5.5' in text
        assert 'repro_lat_seconds_count 2' in text
        assert 'repro_tput 42' in text
        assert text.endswith("\n")

    def test_prometheus_label_values_escaped(self):
        registry = MetricsRegistry()
        raw = 'dip "mid\\day"\nrun'
        registry.counter("repro_runs_total", {"note": raw}).inc()
        text = registry.render_prometheus()
        line = next(l for l in text.splitlines()
                    if l.startswith("repro_runs_total{"))
        # Exposition format: backslash, quote, and newline are escaped,
        # so the sample stays a single parseable line.
        assert line == \
            'repro_runs_total{note="dip \\"mid\\\\day\\"\\nrun"} 1'
        # Round-trip: a standard left-to-right unescape restores raw.
        value = line.split('note="', 1)[1].rsplit('"}', 1)[0]
        unescaped, i = [], 0
        while i < len(value):
            if value[i] == "\\" and i + 1 < len(value):
                unescaped.append(
                    {"n": "\n", '"': '"', "\\": "\\"}[value[i + 1]])
                i += 2
            else:
                unescaped.append(value[i])
                i += 1
        assert "".join(unescaped) == raw

    def test_json_dump_is_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        names = [m["name"] for m in registry.to_dict()["metrics"]]
        assert names == ["a", "b"]

    def test_registry_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.histogram("lat", [1.0]).observe(0.4)
        registry.timeseries("tput").sample(0.0, 1.0)
        revived = pickle.loads(pickle.dumps(registry))
        assert revived.to_dict() == registry.to_dict()


class TestSessionMetricsCollector:
    def _chunk(self, time, index, level=1, size=1e6, duration=0.5):
        return ChunkDownloaded(time, index, level, size, duration,
                               time - duration, size / duration, {}, None,
                               10.0)

    def test_counters_from_synthetic_stream(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(ChunkRequested(0.0, 0, 1, 5.0))
        bus.publish(QualitySwitched(0.1, 1, 2))
        bus.publish(DeadlineArmed(0.2, 1e6, 4.0))
        bus.publish(self._chunk(0.5, 0))
        bus.publish(SessionClosed(1.0))
        registry = collector.registry
        assert registry.get("repro_chunks_requested_total").value == 1
        assert registry.get("repro_chunks_downloaded_total").value == 1
        assert registry.get("repro_quality_switches_total").value == 1
        assert registry.get("repro_deadline_armed_total").value == 1
        assert registry.get("repro_session_duration_seconds").value == 1.0
        assert registry.get("repro_chunk_download_seconds").count == 1
        assert registry.get("repro_chunk_level_total",
                            {"level": "1"}).value == 1

    def test_deadline_slack_from_transfer_pairing(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(TransferStarted(1.0, 7, "/c1", 1e6))
        bus.publish(SchedulerActivated(1.0, 7, 1e6, 4.0))
        bus.publish(TransferCompleted(3.0, 7, "/c1", 1e6, 2.0))
        slack = collector.registry.get("repro_deadline_slack_seconds")
        assert slack.count == 1
        # deadline at 5.0, completed at 3.0 -> slack 2.0
        assert slack.sum == pytest.approx(2.0)

    def test_deadline_miss_records_negative_slack(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(TransferStarted(1.0, 7, "/c1", 1e6))
        bus.publish(SchedulerActivated(1.0, 7, 1e6, 2.0))
        bus.publish(DeadlineMissed(3.5, 7))
        registry = collector.registry
        assert registry.get("repro_deadline_misses_total").value == 1
        slack = registry.get("repro_deadline_slack_seconds")
        assert slack.count == 1
        assert slack.sum == pytest.approx(-0.5)
        # Completion after the miss must not double-count the slack.
        bus.publish(TransferCompleted(4.0, 7, "/c1", 1e6, 3.0))
        assert slack.count == 1

    def test_stall_durations_and_open_stall_closed_at_session_end(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(StallStart(1.0))
        bus.publish(StallEnd(2.5))
        bus.publish(StallStart(8.0))
        bus.publish(SessionClosed(10.0))
        stalls = collector.registry.get("repro_stall_seconds")
        assert stalls.count == 2
        assert stalls.sum == pytest.approx(1.5 + 2.0)

    def test_path_sampled_feeds_timeseries(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(PathSampled(1.0, "wifi", 14600.0, 0.05, 5e5))
        bus.publish(PathSampled(2.0, "wifi", 29200.0, 0.05, 6e5))
        registry = collector.registry
        cwnd = registry.get("repro_path_cwnd_bytes", {"path": "wifi"})
        assert [v for _, v in cwnd.samples] == [14600.0, 29200.0]
        rtt = registry.get("repro_path_rtt_seconds", {"path": "wifi"})
        assert rtt.last == 0.05

    def test_packet_sent_builds_bytes_and_throughput(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus, activity_bin=0.1)
        bus.publish(PacketSent(0.0, "wifi", 1000.0))
        bus.publish(PacketSent(0.1, "wifi", 3000.0))
        registry = collector.registry
        assert registry.get("repro_path_bytes_total",
                            {"path": "wifi"}).value == 4000.0
        series = registry.get("repro_path_throughput_bytes_per_second",
                              {"path": "wifi"})
        assert series.samples == [(0.0, 10000.0), (0.1, 30000.0)]

    def test_radio_residency_derived_at_close(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus, activity_bin=0.1,
                                            device="galaxy_note")
        bus.publish(PacketSent(0.0, "cellular", 1000.0))
        bus.publish(SessionClosed(30.0))
        registry = collector.registry
        active = registry.get("repro_radio_residency_seconds",
                              {"path": "cellular", "state": "active"})
        tail = registry.get("repro_radio_residency_seconds",
                            {"path": "cellular", "state": "tail"})
        idle = registry.get("repro_radio_residency_seconds",
                            {"path": "cellular", "state": "idle"})
        assert active is not None and tail is not None and idle is not None
        total = active.value + tail.value + idle.value
        assert total == pytest.approx(30.0)
        # Galaxy Note LTE tail is 11.576s.
        assert tail.value == pytest.approx(11.576)

    def test_explicit_radio_events_preempt_derivation(self):
        bus = EventBus()
        collector = SessionMetricsCollector(bus)
        bus.publish(RadioStateChange(0.0, "cellular", "active"))
        bus.publish(RadioStateChange(5.0, "cellular", "tail"))
        bus.publish(SessionClosed(8.0))
        registry = collector.registry
        active = registry.get("repro_radio_residency_seconds",
                              {"path": "cellular", "state": "active"})
        tail = registry.get("repro_radio_residency_seconds",
                            {"path": "cellular", "state": "tail"})
        assert active.value == 5.0
        assert tail.value == 3.0


class TestLiveSession:
    def test_collector_attached_via_config(self):
        result = run_session(short_config(collect_metrics=True))
        registry = result.metrics_registry
        assert registry is not None
        assert registry.get("repro_chunks_downloaded_total").value > 0
        assert registry.get("repro_deadline_slack_seconds").count > 0
        # The PathSampler gives per-path cwnd/RTT series.
        assert registry.get("repro_path_cwnd_bytes",
                            {"path": "wifi"}).samples
        assert registry.get("repro_path_rtt_seconds",
                            {"path": "cellular"}).samples
        # Residency covers the whole session per path.
        for path in ("wifi", "cellular"):
            total = sum(
                m.value for m in registry
                if m.name == "repro_radio_residency_seconds"
                and dict(m.labels).get("path") == path)
            assert total == pytest.approx(result.session_duration)

    def test_off_by_default(self):
        result = run_session(short_config())
        assert result.metrics_registry is None
        assert result.spans is None

    def test_offline_registry_equals_live(self):
        result = run_session(short_config(collect_metrics=True,
                                          record_trace=True))
        trace = loads_jsonl(dumps_jsonl(result.events, result.trace_meta))
        offline = collector_from_trace(trace).registry
        assert offline.to_dict() == result.metrics_registry.to_dict()
        assert (registry_from_trace(trace).to_dict()
                == result.metrics_registry.to_dict())

    def test_collectors_do_not_change_simulation_outcomes(self):
        bare = run_session(short_config())
        instrumented = run_session(short_config(collect_metrics=True,
                                                collect_spans=True))
        assert (bare.metrics.cellular_bytes
                == instrumented.metrics.cellular_bytes)
        assert bare.session_duration == instrumented.session_duration
        assert ([c.level for c in bare.player.log.chunks]
                == [c.level for c in instrumented.player.log.chunks])


class TestMetricSerialization:
    """to_dict/from_dict round-trips: the fleet shard wire format."""

    def test_counter_round_trip(self):
        counter = Counter("hits", {"path": "wifi"})
        counter.inc(3)
        again = metric_from_dict(counter.to_dict())
        assert isinstance(again, Counter)
        assert again.to_dict() == counter.to_dict()

    def test_gauge_round_trip(self):
        gauge = Gauge("level")
        gauge.set(2.0)
        gauge.add(0.5)
        again = metric_from_dict(gauge.to_dict())
        assert isinstance(again, Gauge)
        assert again.to_dict() == gauge.to_dict()

    def test_histogram_round_trip(self):
        histogram = Histogram("lat", linear_buckets(1.0, 1.0, 4))
        for value in (0.5, 1.5, 3.5, 99.0):
            histogram.observe(value)
        again = metric_from_dict(histogram.to_dict())
        assert isinstance(again, Histogram)
        assert again.to_dict() == histogram.to_dict()
        assert again.quantile(0.5) == histogram.quantile(0.5)

    def test_timeseries_round_trip(self):
        series = Timeseries("buffer")
        series.sample(0.0, 1.0)
        series.sample(1.0, 2.5)
        again = metric_from_dict(series.to_dict())
        assert isinstance(again, Timeseries)
        assert again.to_dict() == series.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            metric_from_dict({"kind": "sketch", "name": "x"})

    def test_registry_round_trip_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("a", {"path": "lte"}).inc()
        registry.gauge("b").add(1.25)
        registry.histogram("c", linear_buckets(1.0, 1.0, 3)).observe(2.0)
        registry.timeseries("d").sample(0.5, 1.0)
        payload = registry.to_dict()
        again = MetricsRegistry.from_dict(payload)
        assert again.to_dict() == payload
        # And the round-trip is stable as canonical JSON (byte identity).
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    def test_round_tripped_registry_merges_like_the_original(self):
        one = MetricsRegistry()
        one.counter("a").inc(2)
        one.histogram("c", linear_buckets(1.0, 1.0, 3)).observe(2.0)
        two = MetricsRegistry()
        two.counter("a").inc(3)
        two.histogram("c", linear_buckets(1.0, 1.0, 3)).observe(0.5)
        direct = MetricsRegistry()
        direct.merge(one)
        direct.merge(two)
        shipped = MetricsRegistry()
        shipped.merge(MetricsRegistry.from_dict(one.to_dict()))
        shipped.merge(MetricsRegistry.from_dict(two.to_dict()))
        assert shipped.to_dict() == direct.to_dict()
