"""Pre-wired experiment scenarios.

Benchmarks and examples share these builders: a small simulated cluster
with a cache manager, and FASTER stores configured exactly like §8.3's
three competitors -- a Redy-fronted tiered device, an SMB Direct remote
file server, and a local SSD.

Scale: the paper's database is 250 M records (~6 GB at 8-byte values;
~260 GB at 1 KB).  We run the same code paths at a configurable scale,
keeping the *ratios* that drive the results -- local memory : database
size, and Redy cache : database size -- identical to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from repro.cluster import PhysicalServer, VmAllocator
from repro.core import Slo
from repro.core.client import RedyCache, RedyClient
from repro.core.manager import CacheManager
from repro.faster import (
    FasterKv,
    RedyDevice,
    SmbDirectDevice,
    SsdDevice,
    TieredDevice,
)
from repro.faster.address import record_bytes
from repro.hardware.profiles import AZURE_HPC, TestbedProfile
from repro.net.fabric import Fabric
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.ycsb import YcsbWorkload, paper_read_only

__all__ = ["ClusterHarness", "FasterScenario", "ReadBackProbe",
           "build_cluster", "build_faster_store", "count_lost",
           "fail_member", "floor_p99", "member_kill", "open_loop_writes"]

#: Throughput-oriented SLO for the FASTER cache, as in §8.3: "Throughput
#: is the critical metric for this benchmark, so we configure the Redy
#: cache for high throughput."
FASTER_CACHE_SLO = Slo(max_latency=1e-3, min_throughput=2e7, record_size=24)


@dataclass
class ClusterHarness:
    """A small simulated data center with Redy's control plane."""

    env: Environment
    rngs: RngRegistry
    fabric: Fabric
    allocator: VmAllocator
    manager: CacheManager

    def redy_client(self, name: str = "redy-app") -> RedyClient:
        return RedyClient(self.env, self.manager.profile, self.fabric,
                          self.manager, self.rngs, name=name)


def build_cluster(seed: int = 0, n_servers: int = 8,
                  profile: TestbedProfile = AZURE_HPC,
                  provisioning_delay_s: float = 0.0,
                  metrics=None) -> ClusterHarness:
    """A fresh environment + cluster + cache manager.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) is installed on
    the environment *before* any component is built, so everything the
    harness constructs instruments itself.
    """
    env = Environment()
    if metrics is not None:
        metrics.install(env)
    rngs = RngRegistry(seed)
    fabric = Fabric(env, profile)
    servers = [
        PhysicalServer(server_id=i, cluster=i // 4, rack=(i // 2) % 2,
                       cores=48, memory_gb=384.0)
        for i in range(n_servers)
    ]
    allocator = VmAllocator(env, servers)
    manager = CacheManager(env, profile, fabric, allocator, rngs,
                           provisioning_delay_s=provisioning_delay_s)
    return ClusterHarness(env=env, rngs=rngs, fabric=fabric,
                          allocator=allocator, manager=manager)


def fail_member(harness: ClusterHarness, cache: RedyCache) -> None:
    """Hard-kill every live VM backing ``cache``: a whole-member loss."""
    for vm in list(cache.allocation.vms):
        if vm.alive:
            harness.allocator.fail(vm)


def member_kill(cache: RedyCache, at: float):
    """A fault schedule that kills every VM of ``cache`` at ``at``."""
    from repro.faults.spec import FaultSchedule, VmKill  # imports us

    return FaultSchedule([VmKill(at=at, vm_index=i)
                          for i in range(len(cache.allocation.vms))])


def count_lost(read: Callable, acked: Iterable[Tuple[int, bytes]]):
    """Generator: read back each acked ``(addr, payload)`` in order via
    ``read(addr, nbytes)``; return how many failed or came back wrong."""
    lost = 0
    for addr, payload in acked:
        result = yield read(addr, len(payload))
        if not (result.ok and result.data == payload):
            lost += 1
    return lost


class ReadBackProbe:
    """Write-then-read-back probes that count lost acknowledged writes.

    Each call writes a fresh payload, reads it back, and returns an
    event that fires with the probe's outcome and end-to-end latency.
    ``write(index, payload)`` is a generator returning the write's
    result; a write that is never acked is an unavailable probe, not a
    lost write.  ``read(index, nbytes)`` returns the read-back event.
    """

    def __init__(self, env: Environment, name: str, record_bytes: int,
                 write: Callable, read: Callable):
        self.env = env
        self.name = name
        self.record_bytes = record_bytes
        self._write = write
        self._read = read
        self.issued = 0
        self.acked = 0
        self.verified = 0
        self.lost = 0

    def __call__(self):
        done = self.env.event()
        index = self.issued
        self.issued += 1
        self.env.process(self._body(index, done),
                         name=f"{self.name}-{index}")
        return done

    def _body(self, index: int, done):
        started = self.env.now
        payload = bytes([(index + j) % 251
                         for j in range(self.record_bytes)])
        result = yield from self._write(index, payload)
        ok, error = result.ok, result.error
        if ok:
            self.acked += 1
            result = yield self._read(index, self.record_bytes)
            ok = result.ok and result.data == payload
            if ok:
                self.verified += 1
            else:
                self.lost += 1
                error = result.error or "acked write read back wrong"
        done.succeed(type(result)(ok=ok, error=error,
                                  latency=self.env.now - started))


def open_loop_writes(env: Environment, tier, tenant: str, rng, *,
                     rate_per_s: float, namespace_bytes: int,
                     record_bytes: int, running: Callable[[], bool]):
    """Generator: an open-loop write flood at ``rate_per_s``.

    Nothing awaits the results, so the tier's admission shedding is all
    that keeps the queue bounded.  Runs while ``running()`` holds.
    """
    interval = 1.0 / rate_per_s
    while running():
        addr = int(rng.integers(0, namespace_bytes // record_bytes))
        tier.write(tenant, addr * record_bytes, b"\xab" * record_bytes)
        yield env.timeout(interval)


def floor_p99(values: Iterable[float]) -> float:
    """``sorted(values)[floor(0.99 * (n - 1))]``, or 0.0 if empty."""
    ordered = sorted(values)
    return ordered[int(0.99 * (len(ordered) - 1))] if ordered else 0.0


def strand_servers(harness: ClusterHarness, count: int,
                   keep_memory_gb: float = 64.0) -> list:
    """Manufacture stranded memory: fill every core of ``count`` idle
    servers with synthetic tenant VMs, leaving ``keep_memory_gb``
    unallocated on each.  Returns the stranded servers."""
    stranded = []
    for server in harness.allocator.servers:
        if len(stranded) >= count:
            break
        if server.allocated_cores == 0:
            server.place(-(1000 + server.server_id), server.cores,
                         server.memory_gb - keep_memory_gb)
            stranded.append(server)
    if len(stranded) < count:
        raise ValueError(f"only {len(stranded)} idle servers available")
    return stranded


@dataclass
class FasterScenario:
    """One ready-to-run FASTER store plus its workload definition."""

    harness: ClusterHarness
    store: FasterKv
    workload: YcsbWorkload
    cache: Optional[RedyCache]

    @property
    def env(self) -> Environment:
        return self.harness.env


def build_faster_store(device_kind: str, *,
                       n_records: int = 150_000,
                       value_bytes: int = 8,
                       distribution: str = "uniform",
                       local_memory_fraction: float = 1.0 / 6.0,
                       redy_cache_fraction: float = 8.0 / 6.0,
                       local_memory_bytes: Optional[int] = None,
                       redy_cache_bytes: Optional[int] = None,
                       region_bytes: int = 1 << 20,
                       seed: int = 1,
                       harness: Optional[ClusterHarness] = None
                       ) -> FasterScenario:
    """Build and load one FASTER store against one of the §8.3 devices.

    ``device_kind`` is ``"redy"`` (tiered Redy + SSD, Figure 17),
    ``"smb"`` (SMB Direct), ``"ssd"``, or ``"memory"`` (no device --
    everything in local memory, Figure 19's left edge).  The fractions
    default to the paper's 1 GB local / 8 GB Redy / ~6 GB database.
    """
    if harness is None:
        harness = build_cluster(seed=seed)
    env, rngs = harness.env, harness.rngs
    workload = paper_read_only(n_records, value_bytes, distribution)
    log_bytes = workload.database_bytes

    if local_memory_bytes is None:
        local_memory_bytes = int(log_bytes * local_memory_fraction)
    local_memory_bytes = max(local_memory_bytes,
                             4 * record_bytes(value_bytes))
    ssd_capacity = max(log_bytes * 4, 1 << 20)
    device_rng = rngs.stream(f"device-{device_kind}")

    cache: Optional[RedyCache] = None
    if device_kind == "memory":
        device = None
        local_memory_bytes = max(local_memory_bytes, log_bytes * 2)
    elif device_kind == "ssd":
        device = SsdDevice(env, ssd_capacity, device_rng)
    elif device_kind == "smb":
        device = SmbDirectDevice(env, ssd_capacity, device_rng)
    elif device_kind == "redy":
        if redy_cache_bytes is None:
            redy_cache_bytes = int(log_bytes * redy_cache_fraction)
        redy_cache_bytes = max(redy_cache_bytes, region_bytes)
        client = harness.redy_client(f"faster-app-{seed}")
        redy_cache = client.create(redy_cache_bytes + region_bytes,
                                   FASTER_CACHE_SLO,
                                   region_bytes=region_bytes)
        cache = redy_cache
        device = TieredDevice(env, [
            RedyDevice(redy_cache),
            SsdDevice(env, ssd_capacity, device_rng),
        ])
    else:
        raise ValueError(f"unknown device kind {device_kind!r}")

    store = FasterKv(env, device, local_memory_bytes, value_bytes)
    store.load(n_records)
    return FasterScenario(harness=harness, store=store, workload=workload,
                          cache=cache)
