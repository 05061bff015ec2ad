"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from perfbench.bench import REPORTED, run
from perfbench.harness import CheckFailed
from perfbench.run import FINAL_END_TO_END, ROOT
from perfbench.workloads import WORKLOADS

#: Seconds of a tiny run: enough for every window and percentile to
#: have samples, small enough for the whole file to run in about a
#: minute.
TINY = {"kv-zipf-spill": 0.1, "router-rw-r2": 0.2, "tenant-noisy": 0.2,
        "slo-search": 0.1}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as blob:
        return json.load(blob)


def _assert_named(metrics: dict, names) -> None:
    for name in names:
        assert name in metrics, name
        metric = metrics[name]
        assert metric.unit, name
        assert math.isfinite(metric.value), (name, metric.value)


@pytest.fixture(scope="module")
def traced_reports(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("perfbench"))
    return {name: run(name, 3, TINY[name], True, out) for name in TINY}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_named_metric_has_a_unit_and_finite_value(workload,
                                                        traced_reports):
    report = traced_reports[workload]
    declared = _benchmark_json()
    _assert_named(report.end_to_end, FINAL_END_TO_END)
    assert [m["name"] for m in declared["end_to_end"]] == list(
        FINAL_END_TO_END)
    applicable = [name for name, _unit in REPORTED
                  if name in report.end_to_end]
    _assert_named(report.end_to_end, applicable)
    assert list(report.per_layer) == [m["name"]
                                      for m in declared["per_layer"]]
    _assert_named(report.per_layer, list(report.per_layer))
    assert report.per_layer["trace.spans_dropped"].value == 0
    assert report.failed == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_identical_simulated_metrics(workload, tmp_path):
    first = run(workload, 5, TINY[workload], False, str(tmp_path))
    second = run(workload, 5, TINY[workload], False, str(tmp_path))
    host = {"setup_s", "peak_rss_mb", "host_kops_s", "search_p50_ms",
            "search_p99_ms"}
    simulated = {name: (m.value, m.samples)
                 for name, m in first.end_to_end.items() if name not in host}
    assert simulated
    assert simulated == {name: (second.end_to_end[name].value,
                                second.end_to_end[name].samples)
                         for name in simulated}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_a_different_seed_changes_the_inputs(workload):
    wl = WORKLOADS[workload]
    sizes = wl.sizes(TINY[workload])

    def flat(inputs):
        if isinstance(inputs, dict):
            return np.concatenate([np.ravel(v).astype(float)
                                   for v in inputs.values()])
        if isinstance(inputs, tuple):
            return np.concatenate([np.ravel(v).astype(float)
                                   for v in inputs])
        return np.ravel(inputs)

    assert np.array_equal(flat(wl.inputs(1, sizes)),
                          flat(wl.inputs(1, sizes)))
    assert not np.array_equal(flat(wl.inputs(1, sizes)),
                              flat(wl.inputs(2, sizes)))


def test_workloads_record_why_loop_data_and_warmth():
    declared = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
    for name, workload in WORKLOADS.items():
        for text in workload.describe().values():
            assert text and "\n" not in text
        if name in declared:
            assert declared[name] == workload.why


@pytest.mark.xfail(strict=True, raises=CheckFailed, reason=(
    "the hybrid log spills 64 KiB pages, which split 24 B records; a "
    "read of a record whose first bytes have spilled and whose last "
    "have not gets the unspilled bytes from the device (zeros) and "
    "copies the torn record back to the tail"))
def test_kv_reads_return_their_own_key(tmp_path):
    # Seed 2 reaches a split record after about 61k operations.
    run("kv-zipf-spill", 2, 3.5, False, str(tmp_path))
