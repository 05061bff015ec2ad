"""The four benchmark workloads.

Each workload is built from public entry points only.  ``--seed`` feeds
only the generated inputs (key, op and SLO streams); the program under
test is always built with :data:`PROGRAM_SEED`, so two seeds differ in
what is asked of the program, not in the program.

A workload runs in passes.  Every pass builds the program afresh and
drives it with the same inputs: the untraced pass gives the end-to-end
numbers, the traced pass the spans and registry readings, and the
profiled pass the host-time shares.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench.harness import (
    Meter,
    Metric,
    Profiler,
    Speedometer,
    Window,
    check,
    ratio,
    reading,
    tail_metric,
)
from perfbench.spans import SpanRecorder

#: Seed of the program under test (cluster placement, device jitter).
PROGRAM_SEED = 7
REGION = 1 << 20
#: Record size of the router and tenant workloads.
RECORD = 64


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does."""

    #: Requests before the measured window (closed and open loops count
    #: completions and arrivals respectively).
    warmup: int
    #: Requests in the measured window.
    measured: int


@dataclass
class Probe:
    """What a pass measures with, and attaches at the start of its
    measured window."""

    #: None leaves the phase unscaled (the profiled pass).
    speedometer: Optional[Speedometer]
    registry: object = None
    endpoints: list = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None
    profiler: Optional[Profiler] = None
    start: Optional[Window] = None
    end: Optional[Window] = None

    def warm(self, env) -> None:
        if env is not None:
            self.start = reading(env, self.registry, self.endpoints)
        if self.recorder is not None:
            self.recorder.start()
        if self.profiler is not None:
            self.profiler.start()

    def finish(self, env) -> None:
        if self.profiler is not None:
            self.profiler.stop()
        if env is not None:
            self.end = reading(env, self.registry, self.endpoints)


@dataclass
class Pass:
    """One pass's outcome."""

    meter: Meter
    #: Simulated (or otherwise deterministic) end-to-end metrics: a
    #: traced pass must reproduce them exactly.
    exact: Dict[str, Metric]
    attempted: int
    failed: int
    #: Workload-specific readings for the per-layer metrics.
    extra: Dict[str, object] = field(default_factory=dict)
    #: The probe the pass ran with (its window readings).
    probe: Optional[Probe] = None


class Workload:
    """A named workload: its inputs, set-up and load phase."""

    name = ""
    why = ""
    loop = ""
    data = ""
    warm = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5

    def sizes(self, seconds: float) -> Sizes:
        raise NotImplementedError

    def inputs(self, seed: int, sizes: Sizes):
        raise NotImplementedError

    def setup(self, traced: bool):
        """Build the program; ``traced`` installs a metrics registry."""
        raise NotImplementedError

    def instrument(self, built, recorder: SpanRecorder) -> None:
        """Wrap the public methods of ``built`` with span recorders."""

    def load(self, built, inputs, sizes: Sizes, probe: Probe) -> Pass:
        raise NotImplementedError

    def describe(self) -> Dict[str, str]:
        return {"why": self.why, "loop": self.loop, "data": self.data,
                "warm": self.warm}


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


@dataclass
class Built:
    """A program instance built for one pass."""

    env: object
    registry: object
    endpoints: list
    #: Host s spent in ``RedyClient.create`` during this set-up.
    create_s: float = 0.0
    #: Host s of the FASTER store construction and bulk load.
    load_s: float = 0.0
    store: object = None
    router: object = None
    tier: object = None
    model: object = None
    caches: dict = field(default_factory=dict)
    #: Host s of each traced TenantTier call, and of those that shed.
    host_calls: List[float] = field(default_factory=list)
    host_sheds: List[float] = field(default_factory=list)


def _time_creates(client, built: Built):
    """Make ``client.create`` add its host time to ``built.create_s``."""
    create = client.create

    def timed_create(*args, **kwargs):
        start = time.process_time()
        try:
            return create(*args, **kwargs)
        finally:
            built.create_s += time.process_time() - start

    client.create = timed_create
    return client


def _endpoints(client, caches) -> list:
    seen = {client.endpoint.name: client.endpoint}
    for cache in caches:
        for server in cache.allocation.servers:
            seen.setdefault(server.endpoint.name, server.endpoint)
    return [seen[name] for name in sorted(seen)]


def _cluster(traced: bool):
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.scenarios import build_cluster

    registry = MetricsRegistry() if traced else None
    return build_cluster(seed=PROGRAM_SEED, metrics=registry), registry


def record_bytes(addr: int, seq: int) -> bytes:
    """A 64 B record that names its address and the write that made it
    (seq 0 is the loaded image), so a read can tell where its bytes
    came from and that none are torn."""
    filler = ((addr * 0x9E3779B97F4A7C15) ^ seq) & 0xFFFFFFFFFFFFFFFF
    return struct.pack("<QQ", addr, seq) + struct.pack("<Q", filler) * 6


def record_image(base: int, size: int) -> bytes:
    """The loaded image of ``[base, base + size)``: ``record_bytes(a, 0)``
    for every record address ``a``."""
    addrs = np.arange(base, base + size, RECORD, dtype=np.uint64)
    words = np.empty((len(addrs), RECORD // 8), dtype=np.uint64)
    words[:, 0] = addrs
    words[:, 1] = 0
    with np.errstate(over="ignore"):
        filler = addrs * np.uint64(0x9E3779B97F4A7C15)
    words[:, 2:] = filler[:, None]
    return words.astype("<u8").tobytes()


def _sim_window(latencies_r, latencies_w) -> Dict[str, Metric]:
    return {
        "sim_read_p50_us": tail_metric(latencies_r, 50, "us", 1e6),
        "sim_read_p99_us": tail_metric(latencies_r, 99, "us", 1e6),
        "sim_write_p50_us": tail_metric(latencies_w, 50, "us", 1e6),
        "sim_write_p99_us": tail_metric(latencies_w, 99, "us", 1e6),
    }


def _closed_loop(env, sizes: Sizes, probe: Probe, clients: int, issue,
                 on_done) -> tuple:
    """Run ``clients`` closed-loop slots over requests ``0..n-1``.

    A shared cursor hands out the requests.  ``issue(index, client)`` is
    a generator performing one request and returning its outcome;
    ``on_done(index, latency, outcome)`` runs for each request that
    completes inside the measured window.  Returns the meter and the
    window's simulated duration.
    """
    total = sizes.warmup + sizes.measured
    cursor = [0]
    window = {"t0": env.now, "t1": env.now}

    def warm():
        probe.warm(env)
        window["t0"] = env.now

    meter = Meter(sizes.warmup, sizes.measured, probe.speedometer,
                  on_warm=warm)

    def slot(client: int):
        while cursor[0] < total:
            index = cursor[0]
            cursor[0] += 1
            started = env.now
            outcome = yield from issue(index, client)
            measured = meter.warm
            meter.tick()
            window["t1"] = env.now
            if measured:
                on_done(index, env.now - started, outcome)

    for client in range(clients):
        env.process(slot(client), name=f"perfbench-client-{client}")
    env.run()
    probe.finish(env)
    return meter, window["t1"] - window["t0"]


# ----------------------------------------------------------------------
# kv-zipf-spill
# ----------------------------------------------------------------------


class KvZipfSpill(Workload):
    name = "kv-zipf-spill"
    why = ("faster (hash index, hybrid log, device tiers) and the "
           "single-cache core engine path do most of the work, shard and "
           "tenant do none; the data is larger than the local cache")
    loop = "closed loop: 2 FASTER threads x 8 outstanding ops"
    data = ("100k records of 8 B values; local memory is 1/6 of the log, "
            "the Redy cache 8/6 of it, so misses spill to Redy")
    warm = ("cold local memory; a warmup of up to 100k ops runs first, "
            "after which the windowed memory-hit ratio has levelled off")
    n_records = 100_000
    threads = 2
    outstanding = 8

    def sizes(self, seconds: float) -> Sizes:
        measured = max(1, round(20_000 * seconds))
        return Sizes(warmup=min(100_000, measured // 2), measured=measured)

    def inputs(self, seed: int, sizes: Sizes):
        from repro.workloads.ycsb import YcsbWorkload

        workload = YcsbWorkload(
            self.name, n_records=self.n_records, value_bytes=8,
            read_proportion=0.95, update_proportion=0.05,
            distribution="zipfian", theta=0.99)
        return workload.sample_ops(sizes.warmup + sizes.measured,
                                   np.random.default_rng(seed))

    def setup(self, traced: bool) -> Built:
        from repro.workloads.scenarios import build_faster_store

        harness, registry = _cluster(traced)
        built = Built(env=harness.env, registry=registry, endpoints=[])
        clients = []
        make_client = harness.redy_client

        def redy_client(name: str = "redy-app"):
            clients.append(_time_creates(make_client(name), built))
            return clients[-1]

        harness.redy_client = redy_client
        start = time.process_time()
        scenario = build_faster_store(
            "redy", n_records=self.n_records, value_bytes=8,
            seed=PROGRAM_SEED, harness=harness)
        built.load_s = time.process_time() - start - built.create_s
        built.store = scenario.store
        built.caches = {"redy": scenario.cache}
        built.endpoints = _endpoints(clients[0], [scenario.cache])
        return built

    def instrument(self, built: Built, recorder: SpanRecorder) -> None:
        store = built.store
        recorder.wrap_generator_call(store, "read", "faster.read")
        recorder.wrap_generator_call(store, "upsert", "faster.upsert")
        recorder.wrap_event_call(store.device, "read", "faster.device_read")
        for cache in built.caches.values():
            recorder.wrap_event_call(cache, "read", "core.read")
            recorder.wrap_event_call(cache, "write", "core.write")

    def load(self, built: Built, inputs, sizes: Sizes, probe: Probe) -> Pass:
        from repro.sim.resources import Resource

        keys, is_read = inputs
        env, store = built.env, built.store
        cpus = [Resource(env, slots=1) for _ in range(self.threads)]
        lat_r: List[float] = []
        lat_w: List[float] = []
        served: Dict[str, int] = {}

        def issue(index: int, client: int):
            # Slot k runs on FASTER thread k // outstanding.
            cpu = cpus[client // self.outstanding]
            key = int(keys[index])
            value = key.to_bytes(8, "little")
            if not is_read[index]:
                ok = yield from store.upsert(key, value, cpu)
                check(ok, f"kv upsert of key {key} failed")
                return None
            outcome = yield from store.read(key, cpu)
            check(outcome.found and outcome.value == value,
                  f"kv read of key {key} returned {outcome.value!r} "
                  f"({outcome.error or 'no error'})")
            return outcome.served_by

        def on_done(index: int, latency: float, source) -> None:
            if source is None:
                lat_w.append(latency)
                return
            lat_r.append(latency)
            served[source] = served.get(source, 0) + 1

        meter, duration = _closed_loop(
            env, sizes, probe, self.threads * self.outstanding, issue,
            on_done)
        device_reads = len(lat_r) - served.get("memory", 0)
        exact = {"sim_mops": Metric(ratio(sizes.measured, duration) / 1e6,
                                    "MOPS", sizes.measured)}
        exact.update(_sim_window(lat_r, lat_w))
        return Pass(
            meter=meter, exact=exact,
            attempted=sizes.warmup + sizes.measured, failed=0,
            extra={"mem_hit_frac": ratio(served.get("memory", 0),
                                         len(lat_r)),
                   "redy_served_frac": ratio(served.get("redy", 0),
                                             device_reads)})


# ----------------------------------------------------------------------
# router-rw-r2
# ----------------------------------------------------------------------


def _member_slo():
    from repro.core import Slo

    return Slo(max_latency=1e-3, min_throughput=1e5, record_size=RECORD)


class RouterRwR2(Workload):
    name = "router-rw-r2"
    why = ("writes fan out to both replicas next to reads, so shard, net "
           "bytes and engine credit wait dominate and faster does nothing; "
           "a gain for reads that costs writes shows up here")
    loop = "closed loop: 32 clients"
    data = ("2 MiB of 64 B records on a 4-member router, replication=2; "
            "the working set fits in Redy and the app has no local cache")
    warm = ("data preloaded into every replica; hot-key detection starts "
            "cold and a warmup of up to 5k ops runs first")
    members = 4
    clients = 32
    capacity = 2 * REGION

    def sizes(self, seconds: float) -> Sizes:
        measured = max(1, round(5_000 * seconds))
        return Sizes(warmup=min(5_000, measured // 10), measured=measured)

    def inputs(self, seed: int, sizes: Sizes):
        from repro.workloads.ycsb import YcsbWorkload

        workload = YcsbWorkload(
            self.name, n_records=self.capacity // RECORD,
            value_bytes=RECORD, read_proportion=0.5, update_proportion=0.5,
            distribution="zipfian", theta=0.99)
        return workload.sample_ops(sizes.warmup + sizes.measured,
                                   np.random.default_rng(seed))

    def setup(self, traced: bool) -> Built:
        from repro.shard import HotKeyPolicy, ShardRouter

        harness, registry = _cluster(traced)
        built = Built(env=harness.env, registry=registry, endpoints=[])
        client = _time_creates(harness.redy_client("perfbench-router"),
                               built)
        members = {f"s{i}": client.create(self.capacity, _member_slo(),
                                          region_bytes=REGION)
                   for i in range(self.members)}
        built.router = ShardRouter(
            harness.env, members, slot_bytes=1 << 14, replication=2,
            hedge_after_s=200e-6, hotkeys=HotKeyPolicy())
        built.router.load(0, record_image(0, self.capacity))
        built.caches = members
        built.endpoints = _endpoints(client, members.values())
        return built

    def instrument(self, built: Built, recorder: SpanRecorder) -> None:
        recorder.wrap_event_call(built.router, "read", "shard.read")
        recorder.wrap_event_call(built.router, "write", "shard.write")
        for cache in built.caches.values():
            recorder.wrap_event_call(cache, "read", "core.read")
            recorder.wrap_event_call(cache, "write", "core.write")

    def load(self, built: Built, inputs, sizes: Sizes, probe: Probe) -> Pass:
        keys, is_read = inputs
        env, router = built.env, built.router
        #: write_addr[seq - 1]: the address write ``seq`` targeted.
        write_addr: List[int] = []
        lat_r: List[float] = []
        lat_w: List[float] = []

        def issue(index: int, client: int):
            addr = int(keys[index]) * RECORD
            if is_read[index]:
                result = yield router.read(addr, RECORD)
                check(result.ok, f"router read at {addr} failed: "
                                 f"{result.error}")
                self._check_read(addr, result.data, write_addr)
                return True
            write_addr.append(addr)
            result = yield router.write(addr, record_bytes(
                addr, len(write_addr)))
            check(result.ok, f"router write at {addr} failed: "
                             f"{result.error}")
            return False

        def on_done(index: int, latency: float, was_read: bool) -> None:
            (lat_r if was_read else lat_w).append(latency)

        meter, duration = _closed_loop(env, sizes, probe, self.clients,
                                       issue, on_done)
        exact = {"sim_mops": Metric(ratio(sizes.measured, duration) / 1e6,
                                    "MOPS", sizes.measured)}
        exact.update(_sim_window(lat_r, lat_w))
        return Pass(meter=meter, exact=exact,
                    attempted=sizes.warmup + sizes.measured, failed=0)

    @staticmethod
    def _check_read(addr: int, data: bytes, write_addr: List[int]) -> None:
        """The bytes must be the loaded record or a write issued to
        ``addr``, whole."""
        seq = struct.unpack_from("<Q", data, 8)[0] if len(data) == RECORD \
            else -1
        issued = seq == 0 or (0 < seq <= len(write_addr)
                              and write_addr[seq - 1] == addr)
        check(issued and data == record_bytes(addr, seq),
              f"router read at {addr} returned bytes of no write issued "
              f"there: {data[:16].hex()}...")


# ----------------------------------------------------------------------
# tenant-noisy
# ----------------------------------------------------------------------


class TenantNoisy(Workload):
    name = "tenant-noisy"
    why = ("about 90% of arrivals are shed inside TenantTier.write, so "
           "tenant admission and the kernel's per-arrival cost dominate "
           "host time; quiet-tenant p99 shows whether isolation holds")
    loop = ("open loop: quiet (premium) at 20k/s, 90% reads; abusive "
            "(scavenger) writes offered at 200k/s, 10x its 20k/s "
            "admitted rate")
    data = ("128 KiB namespace per tenant on a 3-member router, "
            "replication=1; fits in Redy, no local cache; no faults")
    warm = ("namespaces preloaded, admission buckets full; the first "
            "1/20 of the arrivals (at most 50 ms of simulated time) are "
            "warmup")
    members = 3
    capacity = 2 * REGION
    namespace = 128 * 1024
    quiet_rate = 20_000.0
    abusive_admitted = 20_000.0
    #: Simulated seconds of arrivals per second of run.
    sim_per_second = 0.1

    @property
    def abusive_offered(self) -> float:
        return 10.0 * self.abusive_admitted

    def sizes(self, seconds: float) -> Sizes:
        span = self.sim_per_second * seconds
        warmup = min(0.05, span / 20)
        per_s = self.quiet_rate + self.abusive_offered
        return Sizes(warmup=round(warmup * per_s),
                     measured=max(1, round(span * per_s)))

    def _counts(self, sizes: Sizes) -> tuple:
        """(quiet, abusive) arrival counts of the whole pass."""
        total = sizes.warmup + sizes.measured
        per_s = self.quiet_rate + self.abusive_offered
        quiet = round(total * self.quiet_rate / per_s)
        return quiet, total - quiet

    def inputs(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng(seed)
        quiet, abusive = self._counts(sizes)
        records = self.namespace // RECORD
        return {"quiet_addr": rng.integers(0, records, quiet) * RECORD,
                "quiet_read": rng.random(quiet) < 0.9,
                "abusive_addr": rng.integers(0, records, abusive) * RECORD}

    def setup(self, traced: bool) -> Built:
        from repro.shard import ShardRouter
        from repro.tenant import TenantSpec, TenantTier

        harness, registry = _cluster(traced)
        built = Built(env=harness.env, registry=registry, endpoints=[])
        client = _time_creates(harness.redy_client("perfbench-tenants"),
                               built)
        members = {f"s{i}": client.create(self.capacity, _member_slo(),
                                          region_bytes=REGION)
                   for i in range(self.members)}
        router = ShardRouter(harness.env, members, slot_bytes=1 << 14,
                             replication=1)
        tier = TenantTier(harness.env, router)
        tier.register(TenantSpec(
            name="quiet", namespace_bytes=self.namespace,
            slo_class="premium", rate_per_s=200_000.0, burst=64.0))
        tier.register(TenantSpec(
            name="abusive", namespace_bytes=self.namespace,
            slo_class="scavenger", rate_per_s=self.abusive_admitted,
            burst=16.0, max_queue=32))
        image = record_image(0, self.namespace)
        tier.load("quiet", 0, image)
        tier.load("abusive", 0, image)
        built.router, built.tier, built.caches = router, tier, members
        built.endpoints = _endpoints(client, members.values())
        return built

    def instrument(self, built: Built, recorder: SpanRecorder) -> None:
        tier = built.tier
        calls, sheds = built.host_calls, built.host_sheds
        for method in ("read", "write"):
            original = getattr(tier, method)

            def host_timed(*args, _original=original, **kwargs):
                start = time.perf_counter()
                event = _original(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if recorder.active:
                    calls.append(elapsed)
                    if (event.triggered
                            and event.value.error == "admission shed"):
                        sheds.append(elapsed)
                return event

            setattr(tier, method, host_timed)
            recorder.wrap_event_call(tier, method, f"tenant.{method}")
        recorder.wrap_event_call(built.router, "read", "shard.read")
        recorder.wrap_event_call(built.router, "write", "shard.write")
        for cache in built.caches.values():
            recorder.wrap_event_call(cache, "read", "core.read")
            recorder.wrap_event_call(cache, "write", "core.write")

    def load(self, built: Built, inputs, sizes: Sizes, probe: Probe) -> Pass:
        env, tier = built.env, built.tier
        quiet_n, abusive_n = self._counts(sizes)
        start = env.now
        warm_at = start + sizes.warmup / (self.quiet_rate
                                          + self.abusive_offered)
        window = {"t0": start}

        def warm():
            probe.warm(env)
            window["t0"] = env.now

        meter = Meter(sizes.warmup, sizes.measured, probe.speedometer,
                  on_warm=warm)
        plan = tier.tenant("quiet").plan.slo.max_latency
        quiet = {"lat_r": [], "lat_w": [], "attempted": 0, "failed": 0,
                 "over": 0}
        abusive = {"shed": 0, "failed": 0}
        lateness = [0.0]

        def quiet_done(due: float, addr: int, is_read: bool, result):
            measured = due >= warm_at
            if measured:
                quiet["attempted"] += 1
            if not result.ok or result.served_by != "cache":
                # Failed, or shed and served from the tenant's mirror:
                # counted as failed and as a violation.
                quiet["failed"] += 1
                if measured:
                    quiet["over"] += 1
                return
            if is_read:
                check(result.data == record_bytes(addr, 0),
                      f"quiet read at {addr} returned bytes other than "
                      f"its seeded record")
            if not measured:
                return
            latency = env.now - due
            (quiet["lat_r"] if is_read else quiet["lat_w"]).append(latency)
            if latency > plan:
                quiet["over"] += 1

        def abusive_done(addr: int, result) -> None:
            if result.ok:
                return
            if result.error == "admission shed":
                abusive["shed"] += 1
            else:
                abusive["failed"] += 1

        def when_done(event, callback) -> None:
            if event.processed or event.triggered:
                callback(event.value)
            else:
                event._add_callback(lambda done: callback(done.value))

        def quiet_source():
            interval = 1.0 / self.quiet_rate
            due = start
            for index in range(quiet_n):
                if env.now != due:
                    lateness[0] = max(lateness[0], env.now - due)
                addr = int(inputs["quiet_addr"][index])
                is_read = bool(inputs["quiet_read"][index])
                seeded = record_bytes(addr, 0)
                event = (tier.read("quiet", addr, RECORD) if is_read
                         else tier.write("quiet", addr, seeded))
                meter.tick()
                when_done(event, lambda result, due=due, addr=addr,
                          is_read=is_read: quiet_done(due, addr, is_read,
                                                      result))
                due += interval
                yield env.timeout(interval)

        def abusive_source():
            interval = 1.0 / self.abusive_offered
            due = start
            for index in range(abusive_n):
                if env.now != due:
                    lateness[0] = max(lateness[0], env.now - due)
                addr = int(inputs["abusive_addr"][index])
                event = tier.write("abusive", addr,
                                   record_bytes(addr, index + 1))
                meter.tick()
                when_done(event, lambda result, addr=addr:
                          abusive_done(addr, result))
                due += interval
                yield env.timeout(interval)

        env.process(quiet_source(), name="perfbench-quiet")
        env.process(abusive_source(), name="perfbench-abusive")
        env.run()
        probe.finish(env)
        check(lateness[0] == 0.0,
              f"open-loop generators ran {lateness[0] * 1e6:.3f} us late")
        stats = {name: tier.stats(name) for name in ("quiet", "abusive")}
        arrivals = quiet_n + abusive_n
        exact = _sim_window(quiet["lat_r"], quiet["lat_w"])
        exact["slo_violation_frac"] = Metric(
            ratio(quiet["over"], quiet["attempted"]), "frac",
            quiet["attempted"])
        exact["generator_lateness_us"] = Metric(lateness[0] * 1e6, "us")
        return Pass(
            meter=meter, exact=exact, attempted=arrivals,
            failed=quiet["failed"] + abusive["failed"],
            extra={"shed_frac": ratio(sum(s["shed"] for s in stats.values()),
                                      arrivals),
                   "delayed_frac": ratio(
                       sum(s["delayed"] for s in stats.values()), arrivals),
                   "host_calls": built.host_calls,
                   "host_sheds": built.host_sheds})


# ----------------------------------------------------------------------
# slo-search
# ----------------------------------------------------------------------


class SloSearch(Workload):
    name = "slo-search"
    why = ("core.search and core.modeling would otherwise go unmeasured; "
           "the one workload that bypasses the sim kernel, so kernel and "
           "data-path changes should show no change here")
    loop = "closed loop: 1 caller, one search after another"
    data = ("8 B-record model of the 3.1M-configuration space (C=30, "
            "Q=16, one switch hop); SLOs drawn between its bounds")
    warm = ("model built in set-up; its memo caches are warmed by "
            "searches for a fixed 20 x 20 grid of SLOs before timing, as "
            "a long-lived cache manager's would be")
    #: Side of the warmup grid.
    warm_side = 20

    def sizes(self, seconds: float) -> Sizes:
        return Sizes(warmup=self.warm_side ** 2,
                     measured=max(1, round(130 * seconds)))

    def inputs(self, seed: int, sizes: Sizes):
        """SLOs as fractions of the way from the model's worst to its
        best corner, in (latency, throughput).

        The warmup is the centre of each cell of a fixed grid.  The
        measured SLOs lie on a jittered grid: one random point in each
        cell of a k x k grid, the few left over drawn anywhere, all in
        random order.  Every seed then covers the SLO space evenly, so
        the mix of cheap and costly searches -- and a run's search time
        -- varies little between seeds."""
        rng = np.random.default_rng(seed)
        warm = (self._grid(self.warm_side) + 0.5) / self.warm_side
        n = sizes.measured
        side = int(np.sqrt(n))
        measured = np.concatenate([
            (self._grid(side) + rng.random((side * side, 2))) / side,
            rng.random((n - side * side, 2))])
        return np.concatenate([warm, measured[rng.permutation(n)]])

    @staticmethod
    def _grid(side: int) -> np.ndarray:
        return np.stack(np.divmod(np.arange(side * side), side), axis=1)

    def setup(self, traced: bool) -> Built:
        from repro.core.modeling import (
            OfflineModeler,
            make_analytic_measurer,
        )
        from repro.core.space import ConfigSpace

        space = ConfigSpace(max_client_threads=30, record_size=8,
                            max_queue_depth=16)
        measurer = make_analytic_measurer(record_size=8, switch_hops=1,
                                          noise=0.03, seed=17)
        model, _stats = OfflineModeler(space, measurer,
                                       switch_hops=1).build()
        return Built(env=None, registry=None, endpoints=[], model=model)

    def load(self, built: Built, inputs, sizes: Sizes,
             probe: Probe) -> Pass:
        from repro.core.config import Slo
        from repro.core.search import SloSearcher

        model = built.model
        best, worst = model.bounds()
        searcher = SloSearcher.for_model(model)
        meter = Meter(sizes.warmup, sizes.measured, probe.speedometer,
                      on_warm=lambda: probe.warm(None))
        times: List[float] = []
        found = cores = 0
        work = {"nodes": 0, "leaves": 0, "pruned": 0}
        for lat_frac, tput_frac in inputs:
            slo = Slo(
                max_latency=worst.latency
                + lat_frac * (best.latency - worst.latency),
                min_throughput=worst.throughput
                + tput_frac * (best.throughput - worst.throughput),
                record_size=8)
            measured = meter.warm
            start = time.process_time()
            config = searcher.search(slo)
            took = time.process_time() - start
            meter.tick()
            if config is not None:
                point = model.predict(config)
                check(point.latency <= slo.max_latency
                      and point.throughput >= slo.min_throughput,
                      f"search returned {config} for {slo}, but the model "
                      f"predicts {point}")
            if not measured:
                continue
            times.append(took)
            stats = searcher.stats
            work["nodes"] += stats.nodes_visited
            work["leaves"] += stats.leaves_evaluated
            work["pruned"] += stats.subtrees_pruned
            if config is not None:
                found += 1
                cores += config.client_threads + config.server_threads
        probe.finish(None)
        n = sizes.measured
        exact = {"slo_found_frac": Metric(ratio(found, n), "frac", n),
                 "config_cores_mean": Metric(ratio(cores, found), "cores",
                                             found)}
        return Pass(
            meter=meter, exact=exact, attempted=sizes.warmup + n, failed=0,
            extra={"search_p50_ms": tail_metric(times, 50, "ms", 1e3),
                   "search_p99_ms": tail_metric(times, 99, "ms", 1e3),
                   "nodes_per_search": ratio(work["nodes"], n),
                   "leaves_per_search": ratio(work["leaves"], n),
                   "pruned_per_search": ratio(work["pruned"], n)})


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (KvZipfSpill(), RouterRwR2(), TenantNoisy(), SloSearch())
}
