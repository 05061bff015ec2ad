"""Standalone remote CAS: client word-compare-and-swap plumbing."""

import struct

import pytest

from repro.core import Slo
from repro.workloads.scenarios import build_cluster

CAPACITY = 1 << 20
WORD = struct.Struct("<Q")


def make_cache(seed=2):
    harness = build_cluster(seed=seed)
    client = harness.redy_client("cas-tests")
    slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=64)
    cache = client.create(CAPACITY, slo, duration_s=3600.0,
                          region_bytes=CAPACITY, file=bytes(CAPACITY))
    return harness.env, cache


class TestClientCas:
    def test_matching_compare_swaps_the_word(self):
        env, cache = make_cache()
        addr = 4096

        def body():
            result = yield cache.cas(addr, WORD.pack(0), WORD.pack(42))
            assert result.ok
            readback = yield cache.read(addr, 8)
            return readback.data

        assert env.run_process(body()) == WORD.pack(42)

    def test_mismatch_reports_the_observed_word(self):
        env, cache = make_cache()
        addr = 4096

        def body():
            assert (yield cache.write(addr, WORD.pack(7))).ok
            result = yield cache.cas(addr, WORD.pack(0), WORD.pack(42))
            assert not result.ok
            assert result.error == "cas mismatch"
            # The completion carries the observed original: callers
            # retry against it without an extra read.
            assert result.data == WORD.pack(7)
            readback = yield cache.read(addr, 8)
            return readback.data

        assert env.run_process(body()) == WORD.pack(7)

    def test_word_sizes_are_enforced(self):
        env, cache = make_cache()
        with pytest.raises(ValueError):
            cache.cas(0, b"\x00" * 4, b"\x01" * 8)
        with pytest.raises(ValueError):
            cache.cas(0, b"\x00" * 8, b"\x01" * 16)

    def test_cas_cannot_span_regions(self):
        harness = build_cluster(seed=2)
        client = harness.redy_client("cas-span")
        slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=64)
        region = CAPACITY // 2
        cache = client.create(CAPACITY, slo, duration_s=3600.0,
                              region_bytes=region)

        def body():
            result = yield cache.cas(region - 4, WORD.pack(0),
                                     WORD.pack(1))
            return result

        result = harness.env.run_process(body())
        assert not result.ok
        assert "spans regions" in result.error

    def test_cas_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        harness = build_cluster(seed=2, metrics=registry)
        client = harness.redy_client("cas-metrics")
        slo = Slo(max_latency=1e-3, min_throughput=1e5, record_size=64)
        cache = client.create(CAPACITY, slo, duration_s=3600.0,
                              region_bytes=CAPACITY, file=bytes(CAPACITY))

        def body():
            yield cache.cas(0, WORD.pack(0), WORD.pack(1))  # hit
            yield cache.cas(0, WORD.pack(0), WORD.pack(2))  # mismatch

        harness.env.run_process(body())
        snapshot = registry.snapshot()
        assert snapshot["engine.cas_ops"]["value"] == 2.0
        assert snapshot["engine.cas_mismatches"]["value"] == 1.0
        # No verb program ran: a standalone mismatch is not a program's
        # CAS-guard abort.
        assert snapshot["qp.program_cas_aborts"]["value"] == 0.0
