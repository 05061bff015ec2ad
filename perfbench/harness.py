"""Measurement plumbing shared by the workloads.

Host time is process CPU time (``time.process_time``): the benchmark is
one process on one thread, and CPU time leaves out the time the box
spends running other work.  What it does not leave out is the box
running slower for a while; :class:`Speedometer` readings taken during
a phase state its host time at a fixed reference speed.  Simulated time
is ``env.now``.
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, split_labeled_name

#: Host-time windows per measured phase: each is scaled by the box's
#: speed while it ran.
HOST_WINDOWS = 10

#: Host CPU s of work between two speedometer slices.
REFERENCE_EVERY_S = 0.05

#: Speedometer-slice time the scaled host metrics are expressed at: a
#: scaled figure is what a box running a slice in this time would show.
REFERENCE_MS = 4.0

#: repro packages the host-time shares are reported for.
HOST_PACKAGES = ("sim", "core", "net", "faster", "shard", "tenant", "obs")


class CheckFailed(Exception):
    """A workload output failed a correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Metric:
    """One reported number."""

    value: float
    unit: str
    #: Samples behind a percentile or ratio (None for plain values).
    samples: Optional[int] = None


def percentile(samples, q: float) -> float:
    """The q-th percentile (linear interpolation); 0.0 with no samples."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_metric(samples, q: float, unit: str, scale: float = 1.0) -> Metric:
    return Metric(percentile(samples, q) * scale, unit, len(samples))


def describe_samples(name: str, samples: Optional[int]) -> str:
    """Sample count of a metric, and how many lie beyond a p99."""
    if samples is None:
        return ""
    if "_p99_" in name:
        return f"n={samples}, {int(samples * 0.01)} beyond p99"
    return f"n={samples}"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speedometer:
    """Reads the box's current speed from a fixed pure-Python loop.

    The loop does random lookups and small-object churn over about 300k
    objects (calls, dicts, allocation: the kind of work the simulator
    does, in none of its code), so it slows down both when the CPU is
    shared and when its caches are.  Host-time metrics are scaled by it
    to a box that runs one slice in :data:`REFERENCE_MS`.
    """

    def __init__(self):
        before = _max_rss_mb()
        self._objs = [_Pair(i, i) for i in range(_SPEEDOMETER_OBJECTS)]
        self._table = {i * 7919: i for i in range(_SPEEDOMETER_OBJECTS)}
        self._pos = 0
        #: Resident memory the working set added to the peak (left out of
        #: peak RSS); exact when it is built first, while the process has
        #: freed nothing.
        self.rss_mb = _max_rss_mb() - before

    def slice(self) -> float:
        """Host CPU seconds of one fixed slice of the loop."""
        start = time.process_time()
        objs, table = self._objs, self._table
        pos = self._pos
        acc = 0
        for _ in range(3_000):
            pos = (pos * 1103515245 + 12345) & 0x7FFFFFFF
            index = pos % _SPEEDOMETER_OBJECTS
            obj = objs[index]
            acc += obj.a + table.get(index * 7919, 0)
            objs[index] = _Pair(obj.b, acc & 1023)
        self._pos = pos
        return time.process_time() - start


_SPEEDOMETER_OBJECTS = 300_000


def peak_rss_mb(speedometer: Speedometer) -> float:
    """Peak resident memory of the run, the speedometer's left out."""
    return _max_rss_mb() - speedometer.rss_mb


class Meter:
    """Counts a phase's requests and measures the host time they take.

    The first ``warmup`` ticks are the warmup; ``on_warm`` runs at the
    boundary.  The measured ticks are split into :data:`HOST_WINDOWS`
    windows.  Every :data:`REFERENCE_EVERY_S` of host CPU time a
    :meth:`Speedometer.slice` runs between two requests (unless the
    speedometer is None, as under the profiler); its time is left out of
    the phase's time and gives the box's speed in each window.
    """

    def __init__(self, warmup: int, measured: int,
                 speedometer: Optional[Speedometer],
                 on_warm: Optional[Callable[[], None]] = None):
        if measured < 1:
            raise ValueError("measured phase needs at least one request")
        self.speedometer = speedometer
        self.warmup = warmup
        self.measured = measured
        self.ticks = 0
        self._on_warm = on_warm
        step = max(1, measured // HOST_WINDOWS)
        self._bounds = [warmup + step * i for i in range(1, HOST_WINDOWS)]
        self._bounds.append(warmup + measured)
        self._next = 0
        #: Host CPU s spent in speedometer slices so far, and their times.
        self._excluded = 0.0
        self._slices: List[float] = []
        self._due = time.process_time() + REFERENCE_EVERY_S
        #: (ticks, workload CPU s) at each window edge, and how many
        #: speedometer slices had been taken by then.
        self.stamps: List[tuple] = []
        self._marks: List[int] = []
        if warmup == 0:
            self._warm()

    @property
    def warm(self) -> bool:
        return self.ticks >= self.warmup

    def _stamp(self) -> None:
        self.stamps.append((self.ticks, time.process_time() - self._excluded))
        self._marks.append(len(self._slices))

    def _warm(self) -> None:
        if self._on_warm is not None:
            self._on_warm()
        self._stamp()

    def tick(self) -> None:
        self.ticks += 1
        now = time.process_time()
        if now >= self._due and self.speedometer is not None:
            self._slices.append(self.speedometer.slice())
            self._excluded += time.process_time() - now
            self._due = time.process_time() + REFERENCE_EVERY_S
        if self.ticks == self.warmup:
            self._warm()
        elif (self._next < len(self._bounds)
              and self.ticks == self._bounds[self._next]):
            self._next += 1
            self._stamp()

    @property
    def reference_s(self) -> float:
        """Median speedometer-slice time over the whole phase."""
        if not self._slices:
            self._slices.append(self.speedometer.slice())
        return statistics.median(self._slices)

    def host_s(self, scaled: bool = True) -> float:
        """Host CPU s of the measured window, speedometer slices left out.

        ``scaled`` states each window's time at the reference speed:
        times :data:`REFERENCE_MS` over the median speedometer slice
        taken inside it, so a box running slower for a while reads the
        same.
        """
        total = 0.0
        for k in range(len(self.stamps) - 1):
            took = self.stamps[k + 1][1] - self.stamps[k][1]
            if scaled:
                inside = self._slices[self._marks[k]:self._marks[k + 1]]
                took *= REFERENCE_MS / (
                    statistics.median(inside or [self.reference_s]) * 1e3)
            total += took
        return total

    def host_kops_s(self, scaled: bool = True) -> float:
        """Measured requests per host CPU ms."""
        return ratio(self.stamps[-1][0] - self.stamps[0][0],
                     self.host_s(scaled)) / 1e3


class Profiler:
    """cProfile over a window, summed by ``repro.<package>``."""

    def __init__(self):
        self._profile = cProfile.Profile()

    def start(self) -> None:
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()

    def shares(self) -> Dict[str, float]:
        stats = pstats.Stats(self._profile)
        totals = {name: 0.0 for name in HOST_PACKAGES + ("other",)}
        for (filename, _line, _func), row in stats.stats.items():
            package = _package_of(filename)
            totals[package] += row[2]  # tottime: self time
        whole = sum(totals.values())
        return {name: ratio(value, whole) for name, value in totals.items()}


def _package_of(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2):
        if parts[index] == "src" and parts[index + 1] == "repro":
            package = parts[index + 2]
            return package if package in HOST_PACKAGES else "other"
    return "other"


@dataclass
class Histo:
    """Bucket counts of one registry histogram, from a snapshot.

    Only histograms on the registry's default latency buckets are read;
    ``counts[i]`` is bucket ``i``'s count, the last entry the overflow.
    """

    counts: List[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1))

    @classmethod
    def of(cls, snapshot: dict, name: str) -> "Histo":
        histo = cls()
        blob = snapshot.get(name) or {}
        for key, count in blob.get("buckets", {}).items():
            histo.counts[_BUCKET_INDEX[key]] += count
        return histo

    def since(self, before: "Histo") -> "Histo":
        return Histo([a - b for a, b in zip(self.counts, before.counts)])

    @property
    def count(self) -> int:
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Linear interpolation inside the bucket holding rank q, as
        :meth:`repro.obs.metrics.Histogram.percentile` does."""
        total = self.count
        if not total:
            return 0.0
        rank = q / 100.0 * total
        seen = 0
        lower = 0.0
        for upper, count in zip(DEFAULT_LATENCY_BUCKETS, self.counts):
            if count:
                seen += count
                if seen >= rank:
                    return lower + (1.0 - (seen - rank) / count) * (
                        upper - lower)
            lower = upper
        return lower


_BUCKET_INDEX = {f"{upper:.3e}": index
                 for index, upper in enumerate(DEFAULT_LATENCY_BUCKETS)}
_BUCKET_INDEX["+inf"] = len(DEFAULT_LATENCY_BUCKETS)


def counter_value(snapshot: dict, name: str) -> float:
    """A counter's total, labeled children included; 0 when absent."""
    return sum(blob["value"] for key, blob in snapshot.items()
               if split_labeled_name(key) == name
               and blob["type"] == "counter")


@dataclass
class Window:
    """Registry and kernel readings at one instant."""

    counters: Dict[str, float] = field(default_factory=dict)
    histos: Dict[str, Histo] = field(default_factory=dict)
    loop: Dict[str, int] = field(default_factory=dict)
    sim_now: float = 0.0
    #: Seconds each endpoint's tx link has spent serializing.
    tx_busy: List[float] = field(default_factory=list)


COUNTERS = ("fabric.bytes", "fabric.messages", "qp.ops_posted",
            "qp.error_completions", "engine.ops_completed",
            "engine.ops_failed", "router.reads", "router.hedges",
            "router.hedge_wins", "router.failovers",
            "hotkeys.replica_reads")
HISTOGRAMS = ("engine.credit_wait", "qp.wire_latency")


def reading(env, registry, endpoints=()) -> Window:
    """Snapshot what the per-layer metrics difference over the window."""
    window = Window(loop=dict(env.event_loop_stats()), sim_now=env.now,
                    tx_busy=[endpoint.tx_busy_seconds
                             for endpoint in endpoints])
    if registry is not None:
        snapshot = registry.snapshot()
        for name in COUNTERS:
            window.counters[name] = counter_value(snapshot, name)
        for name in HISTOGRAMS:
            window.histos[name] = Histo.of(snapshot, name)
    return window
