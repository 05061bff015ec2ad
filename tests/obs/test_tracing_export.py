"""Tracer spans, the JSON exporter, and the instrumented data path."""

import json

import pytest

from repro.core.config import RdmaConfig
from repro.core.measurement import measure_config
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import SCHEMA, format_table, snapshot, write_json
from repro.sim import Environment, US


class TestTracer:
    def test_span_measures_simulated_time(self):
        env = Environment()
        tracer = Tracer(env)

        def worker(env):
            span = tracer.span("service", op="read")
            yield env.timeout(4 * US)
            span.finish(bytes=64)
            return span

        span = env.run_process(worker(env))
        assert span.duration == pytest.approx(4 * US)
        assert span.attrs == {"op": "read", "bytes": 64}
        assert tracer.spans_named("service") == [span]

    def test_child_spans_link_to_parent(self):
        env = Environment()
        tracer = Tracer(env)
        parent = tracer.span("request")
        child = tracer.span("wire", parent=parent)
        child.finish()
        parent.finish()
        assert child.parent_id == parent.span_id

    def test_ring_buffer_bounds_memory(self):
        env = Environment()
        tracer = Tracer(env, max_spans=10)
        for i in range(25):
            tracer.span(f"s{i}").finish()
        assert len(tracer.spans) == 10
        assert tracer.dropped == 15
        assert tracer.spans[0].name == "s15"

    def test_finish_is_idempotent(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.span("once")
        span.finish()
        end = span.end
        span.finish()
        assert span.end == end
        assert len(tracer.spans) == 1

    def test_context_manager_records_errors(self):
        env = Environment()
        tracer = Tracer(env)
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert "boom" in span.attrs["error"]


class TestExport:
    def test_snapshot_schema(self):
        env = Environment()
        registry = MetricsRegistry().install(env)
        registry.counter("ops").inc(3)
        registry.histogram("lat").observe(5 * US)
        blob = snapshot(registry, name="unit", env=env)
        assert blob["schema"] == SCHEMA
        assert blob["name"] == "unit"
        assert blob["metrics"]["ops"]["value"] == 3
        assert "event_loop" in blob and "sim_now" in blob
        json.dumps(blob)  # must be serializable as-is

    def test_empty_histogram_serializes(self):
        registry = MetricsRegistry()
        registry.histogram("never_observed")
        text = json.dumps(snapshot(registry))
        assert "Infinity" not in text

    def test_write_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        path = write_json(tmp_path / "BENCH_unit.json", registry)
        blob = json.loads(path.read_text())
        assert blob["name"] == "BENCH_unit"
        assert blob["metrics"]["ops"]["value"] == 1

    def test_format_table_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("a.ops").inc(7)
        registry.gauge("b.depth").set(3)
        registry.histogram("c.lat").observe(2 * US)
        table = format_table(snapshot(registry))
        for name in ("a.ops", "b.depth", "c.lat"):
            assert name in table
        assert "p99" in table


class TestInstrumentedDataPath:
    """The metrics-export smoke test: a real measurement run must emit a
    complete blob -- op latency histogram, throughput counter, wire
    metrics, and kernel stats -- through the repro.obs exporter."""

    def test_measure_config_fills_the_registry(self, tmp_path):
        registry = MetricsRegistry()
        result = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                                batches_per_connection=40,
                                warmup_batches=10, metrics=registry)

        latency = registry.get("bench.op_latency")
        assert latency is not None and latency.count > 0
        # Bucketized percentiles agree with the exact-sample percentiles
        # within histogram resolution (one 10^(1/8) bucket is ~33%).
        assert latency.p50 == pytest.approx(result.latency_p50, rel=0.5)
        assert registry.counter("bench.ops").value == result.ops_measured
        assert registry.gauge("bench.throughput_ops").value == (
            pytest.approx(result.throughput))

        # The data path instrumented itself end to end.
        assert registry.histogram("engine.op_latency").count > 0
        assert registry.histogram("qp.wire_latency").count > 0
        assert registry.counter("qp.ops_posted").value > 0
        assert registry.counter("fabric.bytes").value > 0
        assert registry.counter("engine.ops_failed").value == 0

        blob = json.loads(
            write_json(tmp_path / "BENCH_smoke.json", registry,
                       name="smoke").read_text())
        assert blob["schema"] == SCHEMA
        assert blob["metrics"]["bench.op_latency"]["count"] == latency.count
        # Kernel work is not simulated behaviour: the blob holds no
        # event-loop counter, so kernel bookkeeping cannot rewrite it.
        assert [name for name in blob["metrics"]
                if name.startswith("kernel.")] == ["kernel.sim_now"]

    def test_uninstrumented_run_unchanged(self):
        """No registry installed: same numbers, no metrics attribute use."""
        plain = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                               batches_per_connection=40, warmup_batches=10)
        instrumented = measure_config(RdmaConfig(1, 0, 1, 2), 8, seed=3,
                                      batches_per_connection=40,
                                      warmup_batches=10,
                                      metrics=MetricsRegistry())
        assert plain.latency_mean == instrumented.latency_mean
        assert plain.throughput == instrumented.throughput
