"""The parallel sweep runner: determinism across execution modes."""

import os
import time

import pytest

from repro.core.config import RdmaConfig
from repro.core.measurement import measure_config
from repro.exec import ResultCache, SweepRunner, SweepTask, tasks_for
from repro.obs.metrics import MetricsRegistry

CONFIGS = [RdmaConfig(1, 1, 4, 2), RdmaConfig(2, 2, 8, 4),
           RdmaConfig(2, 1, 4, 4)]


def small_tasks():
    return tasks_for(CONFIGS, record_size=16, base_seed=50,
                     batches_per_connection=10, warmup_batches=3)


def strip_exec(snapshot):
    """Registry contents minus the runner's own bookkeeping (worker
    count and wall time legitimately differ between modes)."""
    return {name: blob for name, blob in snapshot.items()
            if not name.startswith("exec.")}


def test_tasks_for_assigns_deterministic_seeds():
    tasks = tasks_for(CONFIGS, record_size=16, base_seed=100, seed_stride=10)
    assert [t.seed for t in tasks] == [100, 110, 120]
    assert [t.config for t in tasks] == CONFIGS


def test_tasks_for_zero_stride_shares_one_seed():
    tasks = tasks_for(CONFIGS, record_size=16, base_seed=5, seed_stride=0)
    assert {t.seed for t in tasks} == {5}


def test_serial_run_matches_direct_measure_config():
    results = SweepRunner(max_workers=1).run(small_tasks())
    for task, result in zip(small_tasks(), results):
        direct = measure_config(
            task.config, task.record_size, seed=task.seed,
            batches_per_connection=task.batches_per_connection,
            warmup_batches=task.warmup_batches)
        assert result == direct


def test_serial_parallel_and_cached_runs_are_bit_identical(tmp_path):
    tasks = small_tasks()

    serial_metrics = MetricsRegistry()
    serial = SweepRunner(max_workers=1, metrics=serial_metrics)
    serial_results = serial.run(tasks)
    assert serial.last_mode == "serial"

    parallel_metrics = MetricsRegistry()
    parallel = SweepRunner(max_workers=2, metrics=parallel_metrics)
    parallel_results = parallel.run(tasks)

    cache = ResultCache(tmp_path / "cache")
    SweepRunner(max_workers=1, cache=cache).run(tasks)
    cached_metrics = MetricsRegistry()
    cached = SweepRunner(max_workers=1, cache=cache,
                         metrics=cached_metrics)
    cached_results = cached.run(tasks)

    # Bit-identical MeasurementResult values in all three modes ...
    assert serial_results == parallel_results == cached_results
    # ... and identical metrics contents (histograms, counters, kernel
    # stats) once the runner's own wall-clock bookkeeping is set aside.
    assert (strip_exec(serial_metrics.snapshot())
            == strip_exec(parallel_metrics.snapshot())
            == strip_exec(cached_metrics.snapshot()))
    assert cached_metrics.counter("exec.cache_hits").value == len(tasks)


def test_results_come_back_in_task_order():
    tasks = small_tasks()
    results = SweepRunner(max_workers=2).run(tasks)
    by_one = [SweepRunner(max_workers=1).run([task])[0] for task in tasks]
    assert results == by_one


def test_exec_metrics_account_for_every_task(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = small_tasks()
    first = MetricsRegistry()
    SweepRunner(max_workers=1, cache=cache, metrics=first).run(tasks)
    assert first.counter("exec.tasks").value == len(tasks)
    assert first.counter("exec.cache_hits").value == 0
    assert first.counter("exec.cache_misses").value == len(tasks)
    second = MetricsRegistry()
    runner = SweepRunner(max_workers=1, cache=cache, metrics=second)
    runner.run(tasks)
    assert second.counter("exec.cache_hits").value == len(tasks)
    assert second.counter("exec.cache_misses").value == 0
    assert runner.last_wall_seconds >= 0.0
    # Host time stays out of the registry benchmark blobs persist.
    assert not any(name.startswith(("exec.wall", "exec.workers"))
                   for name in second.names())


def test_partial_cache_mixes_hits_and_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = small_tasks()
    warm = SweepRunner(max_workers=1, cache=cache).run(tasks[:1])
    metrics = MetricsRegistry()
    results = SweepRunner(max_workers=1, cache=cache,
                          metrics=metrics).run(tasks)
    assert results[0] == warm[0]
    assert metrics.counter("exec.cache_hits").value == 1
    assert metrics.counter("exec.cache_misses").value == len(tasks) - 1


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError):
        SweepRunner(max_workers=0)


def test_worker_failure_propagates():
    bad = SweepTask(config=RdmaConfig(1, 1, 1, 1), record_size=16,
                    batches_per_connection=1, warmup_batches=0,
                    switch_hops=2)  # invalid switch distance
    with pytest.raises(ValueError):
        SweepRunner(max_workers=1).run([bad])


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup measurement needs >= 4 cores")
def test_fig08_sweep_parallel_speedup_and_cache_hit(tmp_path):
    """Acceptance: the fig08 ladder runs >= 2.5x faster in parallel and
    a second (cache-hit) run finishes in under a second, with identical
    numerics in all three modes."""
    from benchmarks.test_fig07_opt_latency import STAGES

    tasks = tasks_for([config for _label, config in STAGES],
                      record_size=8, base_seed=5, seed_stride=0,
                      read_fraction=0.0, extra_outstanding=2,
                      batches_per_connection=400, warmup_batches=100)

    started = time.perf_counter()
    serial_results = SweepRunner(max_workers=1).run(tasks)
    serial_wall = time.perf_counter() - started

    cache = ResultCache(tmp_path / "cache")
    parallel = SweepRunner(max_workers=len(tasks), cache=cache)
    started = time.perf_counter()
    parallel_results = parallel.run(tasks)
    parallel_wall = time.perf_counter() - started
    assert parallel.last_mode == "parallel"

    started = time.perf_counter()
    cached_results = SweepRunner(max_workers=1, cache=cache).run(tasks)
    cached_wall = time.perf_counter() - started

    assert serial_results == parallel_results == cached_results
    assert serial_wall / parallel_wall >= 2.5
    assert cached_wall < 1.0
