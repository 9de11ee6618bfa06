"""Unit tests for the Prometheus text encoder (repro.service.metrics).

The exposition format has sharp edges a scraper will not forgive:
label escaping, cumulative ``le`` buckets that must be monotone with
``+Inf`` equal to ``_count``, counters that never decrease.  Each is
pinned here, plus a golden-file snapshot of a full registry render so
any formatting drift shows up as a readable diff.
"""

from pathlib import Path

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
    escape_label_value,
    format_sample,
    format_value,
    log_buckets,
)

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.txt"


class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        # Backslash first: escaping an already-escaped quote stays sane.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_help_escapes(self):
        assert escape_help("multi\nline \\ help") == "multi\\nline \\\\ help"

    def test_format_sample_with_labels(self):
        line = format_sample("m", [("stream", 'g"1'), ("le", "+Inf")], 3)
        assert line == 'm{stream="g\\"1",le="+Inf"} 3'

    def test_format_value_spellings(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestCounter:
    def test_monotone_across_flushes(self):
        c = Counter("reqs", "requests", ["code"])
        seen = []
        for _ in range(5):  # five "scrape flushes"
            c.inc(2, code="200")
            seen.append(c.value(code="200"))
        assert seen == sorted(seen)
        assert seen[-1] == 10

    def test_negative_increment_rejected(self):
        c = Counter("reqs", "requests")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labels_must_match_declaration(self):
        c = Counter("reqs", "requests", ["code"])
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(status="200")

    def test_render_sorted_by_label(self):
        c = Counter("reqs", "requests", ["code"])
        c.inc(code="500")
        c.inc(code="200")
        body = [ln for ln in c.render() if not ln.startswith("#")]
        assert body == ['reqs{code="200"} 1', 'reqs{code="500"} 1']

    def test_gauge_goes_both_ways(self):
        g = Gauge("depth", "queue depth")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3


class TestHistogram:
    def test_log_buckets_shape(self):
        b = log_buckets(0.001, 1.0, per_decade=3)
        assert b[0] == 0.001 and b[-1] == 1.0
        assert len(b) == 10
        assert all(x < y for x, y in zip(b, b[1:]))

    def test_log_buckets_rejects_bad_range(self):
        for lo, hi in ((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                log_buckets(lo, hi)

    def test_bucket_cumulativity_and_inf(self):
        h = Histogram("lat", "latency", buckets=[0.01, 0.1, 1.0])
        for v in (0.005, 0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        cum = h.cumulative()
        assert cum == [2, 3, 4, 5]
        assert all(a <= b for a, b in zip(cum, cum[1:]))  # le monotone
        assert cum[-1] == h.count() == 5  # +Inf bucket == _count

    def test_render_buckets_are_cumulative_with_inf_last(self):
        h = Histogram("lat", "latency", buckets=[0.01, 0.1])
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        lines = h.render()
        buckets = [ln for ln in lines if "_bucket" in ln]
        assert buckets == [
            'lat_bucket{le="0.01"} 1',
            'lat_bucket{le="0.1"} 2',
            'lat_bucket{le="+Inf"} 3',
        ]
        assert "lat_sum 0.555" in lines
        assert "lat_count 3" in lines

    def test_observation_on_bound_lands_in_its_bucket(self):
        # le is inclusive: an observation exactly on a bound counts there.
        h = Histogram("lat", "latency", buckets=[0.01, 0.1])
        h.observe(0.01)
        assert h.cumulative() == [1, 1, 1]

    def test_percentile_interpolation(self):
        h = Histogram("lat", "latency", buckets=[1.0, 2.0, 4.0])
        for v in [0.5] * 50 + [1.5] * 50:
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(1.0)
        assert h.percentile(0.75) == pytest.approx(1.5)
        assert h.percentile(1.0) == pytest.approx(2.0)

    def test_percentile_overflow_clamps_to_top_bound(self):
        h = Histogram("lat", "latency", buckets=[1.0])
        h.observe(100.0)
        assert h.percentile(0.99) == 1.0

    def test_percentile_empty_is_nan(self):
        import math

        h = Histogram("lat", "latency")
        assert math.isnan(h.percentile(0.99))
        with pytest.raises(ValueError):
            h.percentile(0.0)

    def test_rejects_non_increasing_buckets(self):
        for bad in ([], [1.0, 1.0], [2.0, 1.0], [1.0, float("inf")]):
            with pytest.raises(ValueError):
                Histogram("lat", "latency", buckets=bad)

    def test_observe_many_equals_observe_per_value(self):
        """One batched call leaves the exact state of one observe per
        value in order: counts, float sums bit for bit, render."""
        values = [0.005, 0.05, 0.5, 5.0, 0.01, 1e-9, 0.1 + 0.2, 0.3]
        streams = ["a", "b", "a", "c", "b", "a", "other", "c"]
        one = Histogram("lat", "latency", ["stream"], buckets=[0.01, 0.1],
                        top_k=2)
        many = Histogram("lat", "latency", ["stream"], buckets=[0.01, 0.1],
                         top_k=2)
        for v, s in zip(values, streams):
            one.observe(v, stream=s)
        many.observe_many(values[:3], stream=streams[:3])
        many.observe_many(values[3:], stream=streams[3:])
        assert many.render() == one.render()
        for s in set(streams):
            assert many.cumulative(stream=s) == one.cumulative(stream=s)
            assert many._series[(s,)].sum == one._series[(s,)].sum

        plain_one = Histogram("lat", "latency")
        plain_many = Histogram("lat", "latency")
        for v in values:
            plain_one.observe(v)
        plain_many.observe_many(values)
        plain_many.observe_many([])
        assert plain_many.render() == plain_one.render()

    def test_observe_many_shared_label_and_validation(self):
        h = Histogram("lat", "latency", ["stream"], buckets=[0.01])
        h.observe_many([0.001, 0.1], stream="gauge")
        assert h.cumulative(stream="gauge") == [1, 2]
        with pytest.raises(ValueError, match="expects labels"):
            h.observe_many([0.1])
        with pytest.raises(ValueError, match="entries"):
            h.observe_many([0.1, 0.2], stream=["gauge"])


class TestHistogramTopK:
    def _capped(self, top_k=2):
        h = Histogram(
            "lat", "latency", ["stream"], buckets=[0.01, 0.1], top_k=top_k
        )
        for _ in range(5):
            h.observe(0.005, stream="busy")
        for _ in range(3):
            h.observe(0.05, stream="mid")
        h.observe(0.5, stream="cold-a")
        h.observe(0.005, stream="cold-b")
        return h

    def test_top_k_keeps_busiest_and_merges_rest(self):
        lines = self._capped().render()
        labelled = {
            ln.split("{")[1].split('"')[1]
            for ln in lines
            if "_bucket" in ln
        }
        assert labelled == {"busy", "mid", "other"}
        # The merge is exact: other = cold-a + cold-b on every axis.
        assert 'lat_count{stream="other"} 2' in lines
        assert 'lat_bucket{stream="other",le="0.01"} 1' in lines
        assert 'lat_bucket{stream="other",le="+Inf"} 2' in lines

    def test_cap_is_a_view_not_a_loss(self):
        h = self._capped()
        h.render()
        # Cold streams' state survives the capped render; enough new
        # traffic promotes one into the top-K with full history.
        for _ in range(10):
            h.observe(0.005, stream="cold-a")
        lines = h.render()
        assert 'lat_count{stream="cold-a"} 11' in lines

    def test_under_cap_renders_all_series(self):
        lines = self._capped(top_k=10).render()
        assert not any('stream="other"' in ln for ln in lines)
        assert 'lat_count{stream="cold-a"} 1' in lines

    def test_real_other_stream_merges_into_aggregate(self):
        h = self._capped()
        h.observe(0.5, stream="other")
        lines = h.render()
        assert 'lat_count{stream="other"} 3' in lines

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError, match="top_k"):
            Histogram("lat", "latency", ["stream"], top_k=0)

    def test_gauge_clear_drops_series(self):
        g = Gauge("cov", "coverage", ["stream"])
        g.set(0.5, stream="a")
        g.clear()
        assert [ln for ln in g.render() if not ln.startswith("#")] == []


class TestRenderMetricsCap:
    def test_gateway_gauges_capped_with_other_aggregate(self):
        """/metrics exposes top-K streams by traffic + one aggregate."""
        import numpy as np

        from repro.core.rule import Rule
        from repro.core.predictor import RuleSystem
        from repro.service import ForecastService, ForecastServer, ServerConfig

        d = 4
        pool = RuleSystem([
            Rule.from_box(np.full(d, -10.0), np.full(d, 10.0), prediction=1.0)
        ])
        service = ForecastService()
        for name in ("busy", "mid", "cold-a", "cold-b"):
            service.bind_system(name, pool, "m")
        # Traffic: busy 3*d, mid 2*d, colds d each (all windows ready).
        for reps, name in ((3, "busy"), (2, "mid"),
                           (1, "cold-a"), (1, "cold-b")):
            for _ in range(reps):
                service.ingest([(name, 0.5)] * d)
        server = ForecastServer(service, ServerConfig(metrics_top_k=2))
        out = server.render_metrics()
        cov = [ln for ln in out.splitlines()
               if ln.startswith("repro_gateway_stream_coverage{")]
        assert cov == [
            'repro_gateway_stream_coverage{stream="busy"} 1',
            'repro_gateway_stream_coverage{stream="mid"} 1',
            'repro_gateway_stream_coverage{stream="other"} 1',
        ]
        # The aggregate sums the tail's predicted steps (1 ready step
        # per cold stream with the always-matching rule).
        assert ('repro_gateway_stream_predicted_steps{stream="other"} 2'
                in out)

    def test_render_is_stable_when_a_stream_leaves_top_k(self):
        """A stream overtaken in traffic moves into the aggregate."""
        import numpy as np

        from repro.core.rule import Rule
        from repro.core.predictor import RuleSystem
        from repro.service import ForecastService, ForecastServer, ServerConfig

        d = 2
        pool = RuleSystem([
            Rule.from_box(np.full(d, -10.0), np.full(d, 10.0), prediction=1.0)
        ])
        service = ForecastService()
        for name in ("a", "b", "c"):
            service.bind_system(name, pool, "m")
        server = ForecastServer(service, ServerConfig(metrics_top_k=1))
        service.ingest([("a", 0.5)] * 3 + [("b", 0.5)] * 2 + [("c", 0.5)])
        first = server.render_metrics()
        assert 'repro_gateway_stream_coverage{stream="a"}' in first
        service.ingest([("b", 0.5)] * 4)
        second = server.render_metrics()
        # "a" must not linger as a stale series after losing the slot.
        assert 'repro_gateway_stream_coverage{stream="a"}' not in second
        assert 'repro_gateway_stream_coverage{stream="b"}' in second


class TestAdaptationMetrics:
    """render_metrics() surfaces eviction + adaptation observability."""

    def _server(self):
        import numpy as np

        from repro.core.rule import Rule
        from repro.core.predictor import RuleSystem
        from repro.service import ForecastService, ForecastServer

        d = 2
        pool = RuleSystem([
            Rule.from_box(np.full(d, -10.0), np.full(d, 10.0), prediction=1.0)
        ])
        service = ForecastService()
        service.bind_system("tide", pool, "m")
        return service, ForecastServer(service)

    def test_evicted_streams_gauge_always_present(self):
        _, server = self._server()
        assert "repro_gateway_evicted_streams_total 0" in server.render_metrics()

    def test_no_adaptation_series_when_detached(self):
        _, server = self._server()
        assert "repro_adaptation_" not in server.render_metrics()

    def test_adaptation_counters_and_shadow_gauges(self):
        class _Hook:
            def on_batch(self, batch, results, ready, stacks):
                pass

            def stats(self):
                return {
                    "drift_events": 3,
                    "retrains": 2,
                    "promotions": 1,
                    "rollbacks": 0,
                    "shadow": {
                        "m": {
                            "champion_error": 0.5,
                            "challenger_error": 0.25,
                        }
                    },
                }

        service, server = self._server()
        service.attach_adaptation(_Hook())
        out = server.render_metrics()
        assert "repro_adaptation_drift_events_total 3" in out
        assert "repro_adaptation_retrains_total 2" in out
        assert "repro_adaptation_promotions_total 1" in out
        assert "repro_adaptation_rollbacks_total 0" in out
        assert ('repro_adaptation_shadow_error'
                '{model="m",role="champion"} 0.5') in out
        assert ('repro_adaptation_shadow_error'
                '{model="m",role="challenger"} 0.25') in out

    def test_resolved_challenge_drops_its_series(self):
        class _Hook:
            def __init__(self):
                self.shadow = {"m": {"champion_error": 1.0,
                                     "challenger_error": 2.0}}

            def on_batch(self, batch, results, ready, stacks):
                pass

            def stats(self):
                return {"drift_events": 0, "retrains": 0, "promotions": 0,
                        "rollbacks": 0, "shadow": self.shadow}

        service, server = self._server()
        hook = _Hook()
        service.attach_adaptation(hook)
        assert 'model="m"' in server.render_metrics()
        hook.shadow = {}
        assert 'model="m"' not in server.render_metrics()


class TestRegistry:
    def test_idempotent_creation(self):
        r = MetricsRegistry()
        a = r.counter("x", "help")
        assert r.counter("x", "help") is a

    def test_type_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x", "help")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x", "help")

    def test_render_ends_with_newline(self):
        r = MetricsRegistry()
        r.gauge("g", "a gauge").set(1.5)
        out = r.render()
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_golden_exposition_snapshot(self):
        """A full registry render, pinned byte for byte.

        Regenerate after an intentional format change with::

            PYTHONPATH=src python tests/unit/test_service_metrics.py
        """
        assert _golden_registry().render() == GOLDEN.read_text()


def _golden_registry() -> MetricsRegistry:
    """A deterministic registry exercising every encoder feature."""
    r = MetricsRegistry()
    events = r.counter("repro_events_total", "Events ingested.", ["stream"])
    events.inc(3, stream="gauge-venice")
    events.inc(stream='weird"stream\\name')
    errors = r.counter(
        "repro_errors_total", "Rejected events,\nby reason.", ["reason"]
    )
    errors.inc(2, reason="malformed")
    depth = r.gauge("repro_queue_depth", "Events queued, not yet scored.")
    depth.set(7)
    lat = r.histogram(
        "repro_ingest_latency_seconds",
        "Enqueue-to-forecast latency.",
        buckets=[0.001, 0.01, 0.1, 1.0],
    )
    for v in (0.0005, 0.004, 0.004, 0.02, 0.3, 2.5):
        lat.observe(v)
    per_stream = r.histogram(
        "repro_stream_ingest_latency_seconds",
        "Per-stream latency (top-2 by traffic + other).",
        ["stream"],
        buckets=[0.01, 0.1],
        top_k=2,
    )
    per_stream.observe(0.004, stream="gauge-venice")
    per_stream.observe(0.04, stream="gauge-venice")
    per_stream.observe(0.004, stream="gauge-chioggia")
    per_stream.observe(0.04, stream="gauge-chioggia")
    per_stream.observe(0.2, stream="gauge-burano")
    per_stream.observe(0.004, stream="gauge-murano")
    evicted = r.gauge(
        "repro_gateway_evicted_streams_total",
        "Streams evicted by the store's TTL/LRU policy.",
    )
    evicted.set(2)
    drift = r.gauge(
        "repro_adaptation_drift_events_total",
        "Drift events the monitor has fired.",
    )
    drift.set(4)
    shadow = r.gauge(
        "repro_adaptation_shadow_error",
        "Mean absolute shadow-comparison error per model, by role.",
        ["model", "role"],
    )
    shadow.set(0.8125, model="tide-lr", role="champion")
    shadow.set(0.5, model="tide-lr", role="challenger")
    policy_eval = r.gauge(
        "repro_policy_evaluated_total",
        "Forecasts the policy engine evaluated.",
    )
    policy_eval.set(24)
    policy_alerts = r.gauge(
        "repro_policy_alerts_total", "Alert decisions emitted."
    )
    policy_alerts.set(3)
    reasons = r.gauge(
        "repro_policy_reasons_total",
        "Decision reason codes emitted, by code.",
        ["reason"],
    )
    reasons.set(3, reason="threshold-above")
    reasons.set(5, reason="not-ready")
    reasons.set(1, reason="rate-limited")
    return r


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(_golden_registry().render())
    print(f"wrote {GOLDEN}")
