"""Parallel sweep execution over independent measurement tasks.

The grid sweeps behind every figure reproduction are embarrassingly
parallel: each grid point is one :func:`measure_config` call with its
own seed, its own :class:`~repro.sim.kernel.Environment`, and no shared
state.  :class:`SweepRunner` fans those calls across a
``ProcessPoolExecutor``, collects results in task order, and falls back
to in-process serial execution when ``max_workers=1`` or a pool cannot
be created (restricted sandboxes, missing OS semaphores).

Determinism contract: a task's result depends only on the task's own
fields (config, profile, parameters, seed), never on scheduling.  The
runner therefore guarantees that serial, parallel, and cache-hit runs
over the same task list return bit-identical ``MeasurementResult``
values and -- because each task's metrics are captured as a snapshot
and merged in task order -- identical registry contents too.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import RdmaConfig
from repro.core.measurement import MeasurementResult, measure_config
from repro.exec.cache import ResultCache, cache_key
from repro.hardware.profiles import AZURE_HPC, TestbedProfile
from repro.obs.metrics import MetricsRegistry

__all__ = ["SweepRunner", "SweepTask", "tasks_for"]


@dataclass(frozen=True)
class SweepTask:
    """One grid point: the full argument set of a ``measure_config`` call."""

    config: RdmaConfig
    record_size: int
    profile: TestbedProfile = AZURE_HPC
    switch_hops: int = 1
    read_fraction: float = 0.5
    batches_per_connection: int = 120
    warmup_batches: int = 30
    extra_outstanding: int = 0
    seed: int = 0
    #: Pointer-chasing GET workload (index word -> record); the config's
    #: ``use_verb_programs`` picks the transport.  Changes measured
    #: results, so it is part of the cache key.
    dependent_reads: bool = False
    #: Kernel event-list implementation ("calendar"/"heap"); None
    #: inherits the process-wide default.  Scheduler choice never
    #: affects measured results (the equivalence suite pins this), so
    #: it is deliberately *excluded* from the cache key: both
    #: schedulers hit the same cached blob.
    scheduler: Optional[str] = None
    #: Cosmetic display label for reports/progress output.  Never
    #: affects the measurement, so -- like ``scheduler`` -- it is
    #: excluded from the cache key: relabelled sweeps still hit.
    label: str = ""

    def cache_key(self) -> str:
        return cache_key(
            config=self.config,
            profile=self.profile,
            switch_hops=self.switch_hops,
            record_size=self.record_size,
            read_fraction=self.read_fraction,
            batches_per_connection=self.batches_per_connection,
            warmup_batches=self.warmup_batches,
            extra_outstanding=self.extra_outstanding,
            seed=self.seed,
            dependent_reads=self.dependent_reads,
        )


def tasks_for(configs: Iterable[RdmaConfig], *, record_size: int,
              base_seed: int = 0, seed_stride: int = 1,
              **params) -> List[SweepTask]:
    """Tasks for a config list with deterministic per-task seeds.

    Task ``i`` gets ``base_seed + i * seed_stride``; a ``seed_stride``
    of 0 reuses one seed across the grid (the fig07/08 ladder does
    this, keeping the noise draw identical between stages).
    """
    return [SweepTask(config=config, record_size=record_size,
                      seed=base_seed + index * seed_stride, **params)
            for index, config in enumerate(configs)]


def _execute_task(task: SweepTask) -> Tuple[MeasurementResult, Dict]:
    """Worker body: run one task with a private metrics registry.

    Module-level (not a closure) so it pickles into pool workers.  The
    registry is always attached: instrumentation only observes -- it
    never perturbs simulated timing or RNG draws -- and capturing the
    snapshot unconditionally means every cache blob can replay the full
    observability surface later.
    """
    registry = MetricsRegistry()
    result = measure_config(
        task.config, task.record_size,
        profile=task.profile,
        switch_hops=task.switch_hops,
        read_fraction=task.read_fraction,
        batches_per_connection=task.batches_per_connection,
        warmup_batches=task.warmup_batches,
        extra_outstanding=task.extra_outstanding,
        seed=task.seed,
        metrics=registry,
        scheduler=task.scheduler,
        dependent_reads=task.dependent_reads,
    )
    return result, registry.snapshot()


class SweepRunner:
    """Runs a batch of :class:`SweepTask` with caching and parallelism.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` means ``os.cpu_count()``.  ``1`` forces the
        serial path (no pool is created at all).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    metrics:
        Optional parent :class:`MetricsRegistry`.  Per-task snapshots
        are merged into it in task order, and the runner publishes its
        own counters under ``exec.*`` (``tasks``, ``cache_hits``,
        ``cache_misses``).  Host wall time stays out of the registry --
        benchmark blobs persist it, and they must repeat byte for byte
        -- and is kept on :attr:`last_wall_seconds` instead.
    """

    def __init__(self, *, max_workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.cache = cache
        self.metrics = metrics
        #: Mode of the last run() -- "parallel" or "serial"; tests and
        #: the CLI report it.
        self.last_mode: Optional[str] = None
        #: Host wall-clock seconds the last run() took (cache lookups
        #: included); the sweep CLI reports it.
        self.last_wall_seconds: Optional[float] = None

    def run(self, tasks: Sequence[SweepTask]) -> List[MeasurementResult]:
        """Execute ``tasks``; results are returned in task order."""
        tasks = list(tasks)
        started = time.perf_counter()  # repro-lint: disable=D001 -- wall time of the executor itself; feeds last_wall_seconds, never sim state
        outcomes: List[Optional[Tuple[MeasurementResult, Dict]]] = (
            [None] * len(tasks))
        keys: List[Optional[str]] = [None] * len(tasks)

        pending: List[int] = []
        for index, task in enumerate(tasks):
            if self.cache is not None:
                keys[index] = task.cache_key()
                blob = self.cache.get(keys[index])
                if blob is not None:
                    outcomes[index] = (MeasurementResult(**blob["result"]),
                                       blob["snapshot"])
                    continue
            pending.append(index)

        cache_hits = len(tasks) - len(pending)
        self._execute(tasks, pending, outcomes)

        if self.cache is not None:
            for index in pending:
                result, snapshot = outcomes[index]
                self.cache.put(keys[index], {
                    "task": dataclasses.asdict(tasks[index]),
                    "result": dataclasses.asdict(result),
                    "snapshot": snapshot,
                })

        if self.metrics is not None:
            for outcome in outcomes:
                self.metrics.merge_snapshot(outcome[1])
            self.metrics.counter("exec.tasks").inc(len(tasks))
            self.metrics.counter("exec.cache_hits").inc(cache_hits)
            self.metrics.counter("exec.cache_misses").inc(len(pending))
        self.last_wall_seconds = time.perf_counter() - started  # repro-lint: disable=D001 -- executor wall time, kept out of the metrics registry
        return [outcome[0] for outcome in outcomes]

    def _worker_budget(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        import os
        return os.cpu_count() or 1

    def _execute(self, tasks: Sequence[SweepTask], pending: Sequence[int],
                 outcomes: List) -> None:
        if len(pending) > 1 and self._worker_budget() > 1:
            try:
                workers = min(self._worker_budget(), len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [(index, pool.submit(_execute_task,
                                                   tasks[index]))
                               for index in pending]
                    for index, future in futures:
                        outcomes[index] = future.result()
                self.last_mode = "parallel"
                return
            except (OSError, ImportError, NotImplementedError,
                    PermissionError):
                # No usable pool in this environment (sandboxed /dev/shm,
                # missing multiprocessing semaphores): degrade to serial.
                pass
        for index in pending:
            outcomes[index] = _execute_task(tasks[index])
        self.last_mode = "serial"
