"""Run one workload and assemble its metrics.

A run makes its inputs from the seed, sets the program up several times
(``setup_s`` is the median), then drives it untraced for the end-to-end
metrics.  With ``trace`` it then makes a traced pass, which must
reproduce every simulated end-to-end metric exactly, and a profiled
pass over a quarter of the measured window, and derives the per-layer
metrics from them.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from perfbench.harness import (
    HOST_PACKAGES,
    REFERENCE_MS,
    Metric,
    Profiler,
    Speedometer,
    check,
    peak_rss_mb,
    percentile,
    ratio,
)
from perfbench.spans import (
    SELF_TIME_LAYERS,
    SpanRecorder,
    self_times_us,
    write_chrome_trace,
)
from perfbench.workloads import WORKLOADS, Pass, Probe, Workload

#: Every end-to-end metric, in report order, with its unit.  Every
#: workload prints each one, ``n/a`` where it does not apply.
REPORTED = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("host_kops_s", "kops/s"),
    ("sim_mops", "MOPS"), ("sim_read_p50_us", "us"),
    ("sim_read_p99_us", "us"), ("sim_write_p50_us", "us"),
    ("sim_write_p99_us", "us"), ("failed_frac", "frac"),
    ("slo_violation_frac", "frac"), ("search_p50_ms", "ms"),
    ("search_p99_ms", "ms"), ("slo_found_frac", "frac"),
    ("config_cores_mean", "cores"),
)

#: Spans per measured request the tracer must hold (the ring never drops).
SPANS_PER_REQUEST = 8


@dataclass
class Report:
    """Everything one run measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    #: Further readings printed with the report (not part of the final
    #: line): sample counts, lateness, box calibration.
    notes: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Files the traced run wrote.
    files: List[str] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> Report:
    """Run ``workload``; raises :class:`CheckFailed` on a wrong output."""
    speedometer = Speedometer()
    wl = WORKLOADS[workload]
    sizes = wl.sizes(seconds)
    inputs = wl.inputs(seed, sizes)

    setup_raw, setup_scaled, creates, loads = [], [], [], []
    built = None
    for _ in range(wl.setup_repeats):
        built = None  # drop the previous instance before rebuilding
        before = speedometer.slice()
        start = time.process_time()
        built = wl.setup(traced=False)
        took = time.process_time() - start
        speed = (before + speedometer.slice()) / 2 * 1e3 / REFERENCE_MS
        setup_raw.append(took)
        setup_scaled.append(took / speed)
        creates.append(built.create_s)
        loads.append(built.load_s)
    probe = Probe(speedometer, endpoints=built.endpoints)
    untraced = wl.load(built, inputs, sizes, probe)
    untraced.probe = probe
    built = None
    setup_s = statistics.median(setup_scaled)
    calib = untraced.meter.reference_s * 1e3

    e2e = _end_to_end(untraced, setup_s, peak_rss_mb(speedometer))
    report = Report(workload=workload, seed=seed, seconds=seconds,
                    trace=trace, end_to_end=e2e,
                    attempted=untraced.attempted, failed=untraced.failed)
    report.notes["setup_s.raw"] = Metric(statistics.median(setup_raw), "s")
    report.notes["host_kops_s.raw"] = Metric(
        untraced.meter.host_kops_s(scaled=False), "kops/s",
        untraced.meter.measured)
    report.notes["host.calib_ms"] = Metric(calib, "ms")
    for name, metric in untraced.exact.items():
        if name not in e2e:
            report.notes[name] = metric
    if not trace:
        return report

    traced, recorder = _traced_pass(wl, inputs, sizes, speedometer)
    for name, metric in untraced.exact.items():
        other = traced.exact[name]
        check((metric.value, metric.samples) == (other.value, other.samples),
              f"traced pass changed {name}: {metric.value!r} untraced, "
              f"{other.value!r} traced")
    profiler = Profiler()
    short = replace(sizes, measured=max(1, sizes.measured // 4))
    profiled_built = wl.setup(traced=False)
    wl.load(profiled_built, wl.inputs(seed, short), short,
            Probe(None, endpoints=profiled_built.endpoints,
                  profiler=profiler))
    profiled_built = None

    report.per_layer = _per_layer(
        untraced, traced, recorder, profiler.shares(),
        create_s=statistics.median(creates),
        load_s=statistics.median(loads), setup_s=setup_s, calib=calib)
    os.makedirs(out_dir, exist_ok=True)
    if recorder is not None:
        trace_path = os.path.join(out_dir, f"{workload}.trace.json")
        write_chrome_trace(recorder.spans, trace_path)
        report.files.append(trace_path)
    summary_path = os.path.join(out_dir, f"{workload}.layers.json")
    with open(summary_path, "w") as out:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "per_layer": {name: {"value": m.value, "unit": m.unit,
                                        "samples": m.samples}
                                 for name, m in report.per_layer.items()},
                   "spans": _span_counts(recorder)},
                  out, indent=1, sort_keys=True)
    report.files.append(summary_path)
    return report


def _traced_pass(wl: Workload, inputs, sizes, speedometer: Speedometer):
    built = wl.setup(traced=True)
    recorder = None
    if built.env is not None:
        recorder = SpanRecorder(
            built.env, max_spans=SPANS_PER_REQUEST * sizes.measured + 1024)
        wl.instrument(built, recorder)
    probe = Probe(speedometer, registry=built.registry,
                  endpoints=built.endpoints, recorder=recorder)
    traced = wl.load(built, inputs, sizes, probe)
    traced.probe = probe
    return traced, recorder


def _end_to_end(untraced: Pass, setup_s: float,
                peak_rss: float) -> Dict[str, Metric]:
    e2e = {
        "setup_s": Metric(setup_s, "s"),
        "peak_rss_mb": Metric(peak_rss, "MB"),
        "host_kops_s": Metric(untraced.meter.host_kops_s(), "kops/s",
                              untraced.meter.measured),
        "failed_frac": Metric(ratio(untraced.failed, untraced.attempted),
                              "frac", untraced.attempted),
    }
    for name, _unit in REPORTED:
        if name in untraced.exact:
            e2e[name] = untraced.exact[name]
        elif isinstance(untraced.extra.get(name), Metric):
            e2e[name] = untraced.extra[name]
    return e2e


def _span_counts(recorder: Optional[SpanRecorder]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    if recorder is not None:
        for span in recorder.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def _per_layer(untraced: Pass, traced: Pass,
               recorder: Optional[SpanRecorder], shares: Dict[str, float],
               *, create_s: float, load_s: float, setup_s: float,
               calib: float) -> Dict[str, Metric]:
    ops = untraced.meter.measured
    out: Dict[str, Metric] = {}

    def put(name: str, value: float, unit: str,
            samples: Optional[int] = None) -> None:
        out[name] = Metric(float(value), unit, samples)

    # sim: the kernel's own work, from the untraced pass.
    steps = events = 0
    if untraced.probe.start is not None:
        loop0, loop1 = untraced.probe.start.loop, untraced.probe.end.loop
        steps = loop1["steps"] - loop0["steps"]
        events = loop1["events"] - loop0["events"]
    put("sim.steps_per_op", ratio(steps, ops), "count/op", ops)
    put("sim.events_per_op", ratio(events, ops), "count/op", ops)
    put("sim.host_us_per_step",
        ratio(untraced.meter.host_s() * 1e6, steps), "us", steps)

    start, end = traced.probe.start, traced.probe.end
    counters = {}
    histos = {}
    sim_s = 0.0
    busiest = 0.0
    if start is not None and end is not None:
        counters = {name: end.counters.get(name, 0.0)
                    - start.counters.get(name, 0.0) for name in end.counters}
        histos = {name: end.histos[name].since(start.histos[name])
                  for name in end.histos}
        sim_s = end.sim_now - start.sim_now
        busiest = max((b - a for a, b in zip(start.tx_busy, end.tx_busy)),
                      default=0.0)

    def spans(name: str) -> List[float]:
        return recorder.durations_us(name) if recorder is not None else []

    reads, writes = spans("core.read"), spans("core.write")
    completed = counters.get("engine.ops_completed", 0.0)
    failed = counters.get("engine.ops_failed", 0.0)
    credit = histos.get("engine.credit_wait")
    put("core.cache_ops_per_op", ratio(len(reads) + len(writes), ops),
        "count/op", ops)
    put("core.cache_read_p99_us", percentile(reads, 99), "us", len(reads))
    put("core.cache_write_p99_us", percentile(writes, 99), "us",
        len(writes))
    put("core.credit_wait_p99_us",
        credit.percentile(99) * 1e6 if credit else 0.0, "us",
        credit.count if credit else 0)
    put("core.engine_failed_frac", ratio(failed, completed + failed),
        "frac", int(completed + failed))
    put("core.create_s", create_s, "s")

    wire = histos.get("qp.wire_latency")
    posted = counters.get("qp.ops_posted", 0.0)
    put("net.bytes_per_op", ratio(counters.get("fabric.bytes", 0.0), ops),
        "B/op", ops)
    put("net.messages_per_op",
        ratio(counters.get("fabric.messages", 0.0), ops), "count/op", ops)
    put("net.tx_busy_frac", ratio(busiest, sim_s), "frac")
    put("net.wire_p50_us", wire.percentile(50) * 1e6 if wire else 0.0,
        "us", wire.count if wire else 0)
    put("net.qp_error_frac",
        ratio(counters.get("qp.error_completions", 0.0), posted), "frac",
        int(posted))

    device = spans("faster.device_read")
    put("faster.mem_hit_frac", untraced.extra.get("mem_hit_frac", 0.0),
        "frac")
    put("faster.redy_served_frac",
        untraced.extra.get("redy_served_frac", 0.0), "frac")
    put("faster.device_read_p99_us", percentile(device, 99), "us",
        len(device))
    put("faster.device_reads_per_op", ratio(len(device), ops), "count/op",
        ops)
    put("faster.load_s", load_s, "s")

    shard_r, shard_w = spans("shard.read"), spans("shard.write")
    router_reads = counters.get("router.reads", 0.0)
    hedges = counters.get("router.hedges", 0.0)
    put("shard.read_p99_us", percentile(shard_r, 99), "us", len(shard_r))
    put("shard.write_p99_us", percentile(shard_w, 99), "us", len(shard_w))
    put("shard.hedges_per_read", ratio(hedges, router_reads), "count/op",
        int(router_reads))
    put("shard.hedge_win_frac",
        ratio(counters.get("router.hedge_wins", 0.0), hedges), "frac",
        int(hedges))
    put("shard.replica_read_frac",
        ratio(counters.get("hotkeys.replica_reads", 0.0), router_reads),
        "frac", int(router_reads))
    put("shard.failovers", counters.get("router.failovers", 0.0), "count")

    calls = traced.extra.get("host_calls", [])
    sheds = traced.extra.get("host_sheds", [])
    put("tenant.shed_frac", untraced.extra.get("shed_frac", 0.0), "frac")
    put("tenant.delayed_frac", untraced.extra.get("delayed_frac", 0.0),
        "frac")
    put("tenant.shed_host_us", percentile(sheds, 50) * 1e6, "us",
        len(sheds))
    put("tenant.call_host_us", percentile(calls, 50) * 1e6, "us",
        len(calls))

    searches = untraced.extra
    put("search.nodes_per_search", searches.get("nodes_per_search", 0.0),
        "count")
    put("search.leaves_per_search", searches.get("leaves_per_search", 0.0),
        "count")
    put("search.pruned_per_search", searches.get("pruned_per_search", 0.0),
        "count")
    put("modeling.build_s",
        setup_s if "nodes_per_search" in searches else 0.0, "s")

    selfs = self_times_us(recorder.spans) if recorder is not None else {}
    for layer in SELF_TIME_LAYERS:
        values = selfs.get(layer, [])
        put(f"{layer}.self_p50_us", percentile(values, 50), "us",
            len(values))

    for package in HOST_PACKAGES + ("other",):
        put(f"host.share.{package}", shares.get(package, 0.0), "frac")
    put("host.calib_ms", calib, "ms")

    put("trace.overhead_frac",
        ratio(traced.meter.host_s(), untraced.meter.host_s()) - 1.0, "frac")
    put("trace.spans_dropped",
        recorder.tracer.dropped if recorder is not None else 0, "count")
    return out
