"""Named chaos scenarios: whole-system runs under injected faults.

Each scenario builds a fresh cluster from a seed, arms a
:class:`~repro.faults.injector.FaultInjector` with a schedule, drives a
probe workload through the cache while the faults land, and returns a
:class:`ChaosReport` -- the fault log, a metrics snapshot, and a small
summary.  Scenarios are pure functions of the seed: `python -m repro
chaos <name>` and the determinism tests both go through
:func:`run_scenario`.

The scenarios cover the §6 robustness matrix:

* ``spot-churn``   -- Poisson evictions + hard kills against a backed
  cache with retries and auto-recovery (migrate / re-populate path);
* ``spot-evict-programs`` -- notice-based evictions while dependent
  GETs run as one-RTT verb programs: live migration vs the CAS-guarded
  chase (zero lost acked writes, clean abort/fallback accounting);
* ``evict-primary`` -- hard-kill the primary of a 2-way
  :class:`~repro.core.replication.ReplicatedCache` (failover path);
* ``link-flap``    -- transient QP error storms the retry policy must
  ride out;
* ``slow-node``    -- a throttled server plus a fabric latency spike
  (degradation, not failure);
* ``conn-storm-rebalance`` -- a connection storm lands while a member
  kill forces an emergency rebalance: pooled sessions against the
  corpse must reclaim fast, the storm against survivors must complete,
  and no acknowledged write may be lost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import Slo
from repro.core.client import RetryPolicy
from repro.core.replication import ReplicatedCache
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultLog
from repro.faults.spec import FaultSchedule, LatencySpike, LinkDown, SlowNode
from repro.obs.metrics import MetricsRegistry
from repro.workloads.scenarios import (
    ReadBackProbe,
    build_cluster,
    count_lost,
    fail_member,
    floor_p99,
    member_kill,
    open_loop_writes,
)

__all__ = ["SCENARIOS", "ChaosReport", "churn_run", "run_scenario",
           "shard_run", "tenants_run", "verbs_run"]

REGION = 1 << 20
CAPACITY = 4 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
PROBE_BYTES = 64


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    scenario: str
    seed: int
    log: FaultLog
    metrics: Dict[str, dict]
    summary: Dict[str, float]
    sim_now: float


class _Run:
    """What every chaos scenario shares: a metered cluster, one fault
    injector, and one probe stream with its availability bookkeeping.

    An *unavailability window* opens at the first failed probe after a
    success and closes at the next success -- the client-visible outage,
    which is what §6.2's migrate-vs-replicate trade is about.
    """

    def __init__(self, seed: int, **cluster):
        self.seed = seed
        self.registry = MetricsRegistry()
        self.harness = build_cluster(seed=seed, metrics=self.registry,
                                     **cluster)
        self.env = self.harness.env
        self.injector: Optional[FaultInjector] = None
        self.probes = self.failures = self.violations = 0
        self.latencies: List[float] = []
        self.windows: List[float] = []
        self._down_since: Optional[float] = None

    def inject(self, schedule: FaultSchedule, cache=None) -> FaultSchedule:
        """Arm ``schedule`` through the interfaces organic faults use."""
        self.injector = FaultInjector(self.env,
                                      allocator=self.harness.allocator,
                                      fabric=self.harness.fabric)
        self.injector.install_failure_hook()
        self.injector.arm(schedule, cache=cache)
        return schedule

    def probe(self, read_fn: Callable, *, interval_s: float,
              until: float) -> None:
        """Issue ``read_fn()`` every ``interval_s`` until ``until``."""
        env = self.env

        def loop():
            while env.now < until:
                result = yield read_fn()
                self._record(env.now, result)
                yield env.timeout(interval_s)
            if self._down_since is not None:
                self.windows.append(env.now - self._down_since)

        env.process(loop(), name="chaos-probe")

    def _record(self, now: float, result) -> None:
        self.probes += 1
        if result.ok:
            self.latencies.append(result.latency)
            if result.latency > SLO.max_latency:
                self.violations += 1
            if self._down_since is not None:
                self.windows.append(now - self._down_since)
                self._down_since = None
        else:
            self.failures += 1
            self.violations += 1
            if self._down_since is None:
                self._down_since = now

    def finish(self, name: str,
               extra_summary: Dict[str, float] = None) -> ChaosReport:
        summary = {
            "probes": self.probes,
            "failed_probes": self.failures,
            "slo_violations": self.violations,
            "slo_violation_rate": (self.violations / self.probes
                                   if self.probes else 0.0),
            "unavailability_windows": len(self.windows),
            "unavailable_s": sum(self.windows),
            "max_unavailable_s": max(self.windows, default=0.0),
            "read_p99_s": floor_p99(self.latencies),
            **(extra_summary or {}),
            "faults_injected": float(len(self.injector.log)),
        }
        return ChaosReport(scenario=name, seed=self.seed,
                           log=self.injector.log,
                           metrics=self.registry.snapshot(),
                           summary=summary, sim_now=self.env.now)


def _counter(registry: MetricsRegistry, name: str) -> float:
    value = registry.get(name)
    return float(value.value) if value is not None else 0.0


def _backing(capacity: int) -> bytes:
    return bytes(range(256)) * (capacity // 256)


def _spot_cache(client, **kwargs):
    """A backed spot cache with retries and auto-recovery (§6.1-6.2)."""
    return client.create(
        CAPACITY, SLO, duration_s=3600.0,  # finite => spot VMs (§6.1)
        region_bytes=REGION, file=_backing(CAPACITY),
        retry_policy=RetryPolicy(max_attempts=4, attempt_timeout_s=50e-3),
        auto_recover=True, **kwargs)


def _poisson(run: _Run, **kwargs) -> FaultSchedule:
    """Poisson evictions from the ``faults`` stream, starting at 0.5 s.

    A Poisson window can come up empty; redraw from the same stream --
    still a pure function of the seed -- so a chaos run always injects
    something.
    """
    rng = run.harness.rngs.stream("faults")
    while True:
        schedule = FaultSchedule.poisson_evictions(rng=rng, start_at=0.5,
                                                   **kwargs)
        if len(schedule):
            return schedule


def _members(client, n: int, *, region: int = REGION,
             name: str = "s{}") -> Dict[str, object]:
    """``n`` spot member caches of two regions each, named ``s0``..."""
    return {name.format(i): client.create(2 * region, SLO,
                                          duration_s=3600.0,
                                          region_bytes=region)
            for i in range(n)}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def churn_run(seed: int, *, rate_per_s: float = 1.0,
              duration_s: float = 6.0, kill_fraction: float = 0.25,
              notice_s: float = 0.5, provisioning_delay_s: float = 0.25,
              probe_interval_s: float = 5e-3) -> ChaosReport:
    """Poisson spot churn against one backed cache (§6.2 repopulate).

    The parametric core of the ``spot-churn`` scenario: the availability
    ablation sweeps ``rate_per_s`` through it to trace SLO-violation
    rate and unavailability against fault intensity.
    """
    run = _Run(seed, provisioning_delay_s=provisioning_delay_s)
    cache = _spot_cache(run.harness.redy_client("chaos-app"))
    schedule = run.inject(_poisson(
        run, rate_per_s=rate_per_s, duration_s=duration_s,
        notice_s=notice_s, kill_fraction=kill_fraction), cache)
    horizon = max(duration_s + 2.0, schedule.horizon + 2.0)
    run.probe(lambda: cache.read(4096, PROBE_BYTES),
              interval_s=probe_interval_s, until=horizon)
    run.env.run(until=horizon + 1.0)
    return run.finish("spot-churn", {
        "churn_rate_per_s": rate_per_s,
        "migrations": float(len(cache.migrations)),
        "migration_failures": float(cache.migration_failures)})


def _spot_evict_programs(seed: int) -> ChaosReport:
    """Spot evictions under one-RTT verb programs (migration safety).

    Notice-based evictions only (no hard kills), so every region
    migrates with its data intact, against a cache running dependent
    GETs as remote-side verb programs.  Each probe writes a uniquely
    tagged record, swings a pointer word at it, then dependent-reads it
    back and verifies the payload byte for byte: a CAS-abort or revoked
    region mid-program must fall back to the classic two-hop path (or a
    client retry) transparently, and no acknowledged write may come
    back wrong or lost.  The report carries program/abort/fallback
    accounting plus the ``lost_acked_writes`` count the scenario's gate
    pins to zero.
    """
    import struct

    run = _Run(seed, provisioning_delay_s=0.25)
    env = run.env
    cache = _spot_cache(run.harness.redy_client("chaos-programs-app"),
                        use_verb_programs=True)
    duration_s = 6.0
    schedule = run.inject(_poisson(run, rate_per_s=1.0,
                                   duration_s=duration_s, notice_s=0.5,
                                   kill_fraction=0.0), cache)
    n_regions = CAPACITY // REGION

    def write(index: int, payload: bytes):
        # Write the record, then swing the pointer word at it: the word
        # holds the record's *region-local* offset (what the remote
        # chase dereferences).
        base = (index % n_regions) * REGION
        wrote = yield cache.write(base + 4096, payload)
        if wrote.ok:
            swung = yield cache.write(base + 64, struct.pack("<Q", 4096))
            wrote = swung if not swung.ok else wrote
        return wrote

    probe = ReadBackProbe(
        env, "chaos-programs-probe", 256, write,
        lambda index, nbytes: cache.dependent_read(
            (index % n_regions) * REGION + 64, nbytes))
    horizon = max(duration_s + 2.0, schedule.horizon + 2.0)
    run.probe(probe, interval_s=5e-3, until=horizon)
    env.run(until=horizon + 1.0)
    return run.finish("spot-evict-programs", {
        "migrations": float(len(cache.migrations)),
        "migration_failures": float(cache.migration_failures),
        "acked_writes": float(probe.acked),
        "verified_reads": float(probe.verified),
        "lost_acked_writes": float(probe.lost),
        **{name: _counter(run.registry, f"engine.{name}")
           for name in ("programs", "program_cas_aborts",
                        "program_fallbacks", "two_hop_reads")}})


def _evict_primary(seed: int) -> ChaosReport:
    """Kill the primary of a replicated cache; reads must fail over."""
    run = _Run(seed, provisioning_delay_s=2.0)
    env = run.env
    group = ReplicatedCache.create(run.harness.redy_client("chaos-repl-app"),
                                   CAPACITY, SLO, n_replicas=2,
                                   region_bytes=REGION)

    def seed_then_probe():
        yield group.write(4096, b"\xa5" * PROBE_BYTES)

    env.run_process(seed_then_probe())
    run.inject(member_kill(group.primary, at=env.now + 1.0), group.primary)
    horizon = env.now + 3.0
    run.probe(lambda: group.read(4096, PROBE_BYTES), interval_s=5e-3,
              until=horizon)
    env.run(until=horizon + 1.0)
    failover = run.registry.get("replication.failover_latency")
    return run.finish("evict-primary", {
        "failovers": float(group.failovers),
        "failover_p50_s": failover.p50 if failover is not None else 0.0})


def _link_flap(seed: int) -> ChaosReport:
    """Three transient link faults the retry policy rides out."""
    run = _Run(seed)
    cache = run.harness.redy_client("chaos-link-app").create(
        CAPACITY, SLO, region_bytes=REGION, file=_backing(CAPACITY),
        retry_policy=RetryPolicy(max_attempts=6, base_backoff_s=200e-6,
                                 max_backoff_s=2e-3))
    target = cache.allocation.servers[0].endpoint.name
    run.inject(FaultSchedule([LinkDown(at=t, endpoint=target,
                                       duration_s=2e-3)
                              for t in (1.0, 2.0, 3.0)]))
    run.probe(lambda: cache.read(4096, PROBE_BYTES), interval_s=2e-3,
              until=4.0)
    run.env.run(until=5.0)
    return run.finish("link-flap", {
        "retries": _counter(run.registry, "client.retries")})


def _slow_node(seed: int) -> ChaosReport:
    """A throttled server plus a fabric-wide latency spike."""
    run = _Run(seed)
    cache = run.harness.redy_client("chaos-slow-app").create(
        CAPACITY, SLO, region_bytes=REGION, file=_backing(CAPACITY))
    target = cache.allocation.servers[0].endpoint.name
    run.inject(FaultSchedule([
        SlowNode(at=1.0, endpoint=target, duration_s=1.0, factor=16.0),
        LatencySpike(at=1.5, duration_s=0.5, extra_s=100e-6),
    ]))
    run.probe(lambda: cache.read(4096, PROBE_BYTES), interval_s=2e-3,
              until=3.0)
    run.env.run(until=4.0)
    return run.finish("slow-node")


def _shard_churn(seed: int) -> ChaosReport:
    """Hard-kill one member of a replicated shard fleet mid-traffic.

    A 4-shard :class:`~repro.shard.router.ShardRouter` (replication=2)
    serves rotating probes while every VM of one member dies at t=1 s.
    The fault wiring must turn the kill into an emergency ring
    departure whose rebalance streams the lost ranges off surviving
    replicas -- the report carries the rebalance stats and the probe
    availability through the event.
    """
    from repro.shard import ShardRouter

    run = _Run(seed)
    members = _members(run.harness.redy_client("chaos-shard-app"), 4)
    router = ShardRouter(run.env, members, slot_bytes=1 << 14,
                         replication=2)
    router.load(0, _backing(2 * REGION))
    run.inject(member_kill(members["s1"], at=1.0), members["s1"])
    addrs = itertools.cycle([slot * (1 << 14) + 4096 for slot in range(8)])
    run.probe(lambda: router.read(next(addrs), PROBE_BYTES),
              interval_s=2e-3, until=3.0)
    run.env.run(until=4.0)
    rebalance = router.reports[-1] if router.reports else None
    return run.finish("shard-churn", {
        "members_after": float(len(router.members)),
        "rebalances": float(len(router.reports)),
        "rebalance_duration_s": rebalance.duration if rebalance else 0.0,
        "rebalance_bytes": (float(rebalance.bytes_moved) if rebalance
                            else 0.0),
        "lost_slots": float(rebalance.lost_slots) if rebalance else 0.0})


def _noisy_neighbor(seed: int) -> ChaosReport:
    """An abusive tenant floods the serving tier; a region dies mid-run.

    A 3-member replication=1 fleet serves two tenants through a
    :class:`~repro.tenant.tier.TenantTier`: a quiet ``premium`` tenant
    probed continuously, and a ``scavenger`` tenant offering 10x its
    admitted rate in an open loop.  At t=1 s every VM of one member is
    hard-killed.  The tier must (a) shed the abusive tenant's excess
    deterministically instead of queueing it, (b) keep the premium
    probes answered throughout -- failing open to the backing mirror
    while regions are lost -- and (c) re-promote degraded tenants once
    the ring settles.  The summary carries the probe availability, the
    shed counts, and the degradation round-trips.
    """
    from repro.shard import ShardRouter
    from repro.tenant import TenantSpec, TenantTier

    run = _Run(seed)
    env = run.env
    members = _members(run.harness.redy_client("chaos-tenant-app"), 3)
    router = ShardRouter(env, members, slot_bytes=1 << 14, replication=1)
    tier = TenantTier(env, router)
    namespace = 128 * 1024
    quiet = tier.register(TenantSpec(
        name="quiet", namespace_bytes=namespace, slo_class="premium",
        rate_per_s=200_000.0, burst=64.0, probe_interval_s=5e-3))
    abusive_rate = 20_000.0
    tier.register(TenantSpec(
        name="abusive", namespace_bytes=namespace, slo_class="scavenger",
        rate_per_s=abusive_rate, burst=16.0, max_queue=32,
        probe_interval_s=5e-3))
    tier.load("quiet", 0, _backing(namespace))
    tier.load("abusive", 0, _backing(namespace))
    run.inject(member_kill(members["s1"], at=1.0), members["s1"])

    env.process(open_loop_writes(
        env, tier, "abusive", run.harness.rngs.stream("chaos-abusive"),
        rate_per_s=10.0 * abusive_rate, namespace_bytes=namespace,
        record_bytes=64, running=lambda: env.now < 3.0),
        name="chaos-abusive-load")
    addrs = itertools.cycle([slot * 4096 for slot in range(16)])
    run.probe(lambda: tier.read("quiet", next(addrs), PROBE_BYTES),
              interval_s=2e-3, until=3.0)
    env.run(until=4.0)
    quiet_stats = tier.stats("quiet")
    abusive_stats = tier.stats("abusive")
    return run.finish("noisy-neighbor", {
        "members_after": float(len(router.members)),
        "abusive_admitted": float(abusive_stats["admitted"]),
        "abusive_shed": float(abusive_stats["shed"]),
        "quiet_shed": float(quiet_stats["shed"]),
        "quiet_fail_open_reads": float(quiet_stats["fail_open_reads"]),
        "degradations": float(quiet_stats["degradations"]
                              + abusive_stats["degradations"]),
        "repromotions": float(quiet_stats["repromotions"]
                              + abusive_stats["repromotions"]),
        "quiet_still_degraded": float(quiet.degraded)})


def _conn_storm_rebalance(seed: int) -> ChaosReport:
    """A connection storm lands while a shard rebalance is in flight.

    A 4-member replication=2 :class:`~repro.shard.router.ShardRouter`
    serves write-then-verify probes with the control-plane cost model
    switched on (deferred QPs, timed registration, NIC context caches).
    At t=1 s every VM of one member is hard-killed, forcing an
    emergency rebalance -- and right across that window a burst of
    pooled client sessions opens against every member, the corpse
    included.  The :class:`~repro.cplane.plane.ControlPlane` is bound
    to the router, so the rebalance must fast-reclaim every QP pooled
    against the dead endpoint instead of letting sessions rot; storm
    reads against the corpse may fail (counted), but no session may
    hang and **no acknowledged router write may be lost** -- the
    ``lost_acked_writes == 0`` invariant the scenario's gate pins.
    """
    from repro.cplane import ControlPlane, PoolPolicy
    from repro.net.memory import MemoryRegion
    from repro.shard import ShardRouter

    run = _Run(seed)
    env, harness = run.env, run.harness
    # The plane flips the fabric into control-plane modeling *before*
    # the caches attach, so the engine's own QPs take the deferred path
    # too -- the storm and the serving traffic share one cost model.
    plane = ControlPlane(env, harness.fabric,
                         policy=PoolPolicy(strategy="pooled-lazy",
                                           sessions_per_qp=16,
                                           idle_timeout_s=0.2))
    members = _members(harness.redy_client("chaos-storm-app"), 4)
    router = ShardRouter(env, members, slot_bytes=1 << 14, replication=2,
                         control_plane=plane)
    router.load(0, _backing(2 * REGION))
    plane.start_harvester()

    # Storm targets: one scratch region per member server endpoint (the
    # victim's dies with it -- those reads must error, not hang).
    server_eps = [members[f"s{i}"].allocation.servers[0].endpoint
                  for i in range(4)]
    scratch = [ep.register(MemoryRegion(1 << 16, backing=False))
               for ep in server_eps]
    host_eps = [harness.fabric.add_endpoint(f"storm-host{j}")
                for j in range(4)]
    run.inject(member_kill(members["s1"], at=1.0), members["s1"])

    # Storm arrivals: drawn up front from one seeded stream, spread
    # across [0.9 s, 1.4 s) so the burst brackets the kill and overlaps
    # the rebalance.
    storm_clients = 400
    rng = harness.rngs.stream("chaos-storm")
    arrivals = sorted(0.9 + float(rng.uniform(0.0, 0.5))
                      for _ in range(storm_clients))
    storm = {"completed": 0, "read_failures": 0}

    def storm_proc(index: int, at: float):
        host = host_eps[index % len(host_eps)]
        target = index % len(server_eps)
        yield env.timeout(at)
        session = yield from plane.open_session(host, server_eps[target])
        pool = plane.pool(host, server_eps[target])
        for _ in range(2):
            if not session.open:
                break  # pool reclaimed under us (remote died)
            completion = yield pool.session_read(
                session, scratch[target].token, 0, PROBE_BYTES)
            if not completion.ok:
                storm["read_failures"] += 1
            yield env.timeout(1e-3)
        plane.close_session(session)
        storm["completed"] += 1

    for index, at in enumerate(arrivals):
        env.process(storm_proc(index, at), name=f"chaos-storm:{index}")

    # Write-then-verify probes through the router: a write acked by the
    # replication layer must read back intact through the kill and the
    # rebalance -- a survivor always holds the slot.
    def slot_addr(index: int) -> int:
        return (index % 8) * (1 << 14) + 4096

    def write(index: int, payload: bytes):
        return (yield router.write(slot_addr(index), payload))

    probe = ReadBackProbe(
        env, "chaos-storm-probe", 128, write,
        lambda index, nbytes: router.read(slot_addr(index), nbytes))
    run.probe(probe, interval_s=2e-3, until=3.0)
    env.run(until=4.0)

    rebalance = router.reports[-1] if router.reports else None
    pool_stats = [plane.pools[key].stats() for key in sorted(plane.pools)]
    return run.finish("conn-storm-rebalance", {
        "members_after": float(len(router.members)),
        "rebalances": float(len(router.reports)),
        "lost_slots": float(rebalance.lost_slots) if rebalance else 0.0,
        "acked_writes": float(probe.acked),
        "verified_reads": float(probe.verified),
        "lost_acked_writes": float(probe.lost),
        "storm_sessions": float(storm_clients),
        "storm_completed": float(storm["completed"]),
        "storm_read_failures": float(storm["read_failures"]),
        **{key: float(sum(s[stat] for s in pool_stats))
           for key, stat in (("sessions_opened", "opened"),
                             ("qps_created", "qps_created"),
                             ("qps_reclaimed", "qps_reclaimed"),
                             ("demux_misroutes", "demux_misroutes"))},
        "cplane_log_events": float(len(plane.log))})


SCENARIOS: Dict[str, Callable[[int], ChaosReport]] = {
    "spot-churn": churn_run,
    "spot-evict-programs": _spot_evict_programs,
    "evict-primary": _evict_primary,
    "link-flap": _link_flap,
    "noisy-neighbor": _noisy_neighbor,
    "shard-churn": _shard_churn,
    "slow-node": _slow_node,
    "conn-storm-rebalance": _conn_storm_rebalance,
}


def run_scenario(name: str, seed: int = 0) -> ChaosReport:
    """Run one named scenario; deterministic in (name, seed)."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; "
            f"available: {', '.join(sorted(SCENARIOS))}") from None
    return scenario(seed)


# ----------------------------------------------------------------------
# Fleet runs behind the CLI views and the gates (repro.faults.gates)
# ----------------------------------------------------------------------

def shard_run(seed: int, shards: int, ops: int, replication: int,
              hot: bool, kill: bool) -> dict:
    """Zipfian YCSB traffic across a shard fleet; pure in (args).

    ``kill`` then acks a write per sampled slot, hard-kills one member
    and checks every ack survives the emergency rebalance.
    """
    from repro.shard import HotKeyPolicy, ShardRouter
    from repro.workloads.runner import run_router_workload
    from repro.workloads.ycsb import YcsbWorkload

    capacity = 2 * REGION
    record_bytes = 64
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    members = _members(harness.redy_client("shard-cli"), shards,
                       name="s{:02d}")
    router = ShardRouter(
        harness.env, members, slot_bytes=1 << 14,
        replication=replication, hedge_after_s=200e-6,
        hotkeys=HotKeyPolicy() if hot else None)
    router.load(0, _backing(capacity))

    workload = YcsbWorkload(
        "cli-zipfian", n_records=capacity // record_bytes,
        value_bytes=record_bytes, read_proportion=0.95,
        update_proportion=0.05, distribution="zipfian", theta=0.99)
    keys, is_read = workload.sample_ops(ops, harness.rngs.stream("ycsb"))
    result = run_router_workload(
        harness.env, router, keys=keys, is_read=is_read,
        record_bytes=record_bytes, concurrency=8 * shards)

    kill_stats = None
    if kill:
        victim_name = sorted(members)[1]
        acked = {}

        def kill_and_verify():
            for slot in range(0, router.n_slots, 4):
                addr = slot * router.slot_bytes
                data = bytes([slot % 251]) * record_bytes
                res = yield router.write(addr, data)
                assert res.ok
                acked[addr] = data
            fail_member(harness, members[victim_name])
            yield from router.settle()
            return (yield from count_lost(router.read, acked.items()))

        lost = harness.env.run_process(kill_and_verify())
        kill_stats = {
            "victim": victim_name,
            "acked_writes_checked": len(acked),
            "acked_writes_lost": lost,
            "rebalance": router.reports[-1].to_dict(),
            "members_after": router.members,
        }

    return {
        "schema": "repro.shard/v1",
        "seed": seed,
        "shards": shards,
        "replication": replication,
        "hotkeys": hot,
        "ops": ops,
        "throughput_ops_s": result.throughput,
        "latency_mean_s": result.latency_mean,
        "latency_p99_s": result.latency_p99,
        "reads": result.reads,
        "writes": result.writes,
        "failed": result.failed,
        "hot_slots": {str(slot): list(extras)
                      for slot, extras in sorted(router.hot_slots().items())},
        "kill": kill_stats,
        "metrics": registry.snapshot(),
    }


def tenants_run(seed: int, ops: int, abusive: bool, kill: bool) -> dict:
    """Mixed-SLO tenants on a shared fleet; pure in (args).

    Three tenants (premium / standard / scavenger) share a 3-member
    replication=1 fleet through a :class:`~repro.tenant.TenantTier`.
    ``abusive`` adds an open-loop scavenger flood at 10x its admitted
    rate; ``kill`` hard-kills one member mid-run and then verifies that
    every acknowledged write is still readable after recovery.
    """
    from functools import partial

    from repro.shard import ShardRouter
    from repro.tenant import TenantSpec, TenantTier

    record = 64
    namespace = 64 * 1024
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    env = harness.env
    members = _members(harness.redy_client("tenant-cli"), 3,
                       region=1 << 18, name="s{:02d}")
    router = ShardRouter(env, members, slot_bytes=1 << 12, replication=1)
    tier = TenantTier(env, router)
    tier.register(TenantSpec(name="prem", namespace_bytes=namespace,
                             rate_per_s=400_000.0, burst=64.0,
                             slo_class="premium", probe_interval_s=2e-3))
    tier.register(TenantSpec(name="std", namespace_bytes=namespace,
                             rate_per_s=200_000.0, burst=32.0,
                             slo_class="standard", probe_interval_s=2e-3))
    scav_rate = 20_000.0
    tier.register(TenantSpec(name="scav", namespace_bytes=namespace,
                             rate_per_s=scav_rate, burst=16.0,
                             max_queue=32, slo_class="scavenger",
                             probe_interval_s=2e-3))
    for name in ("prem", "std", "scav"):
        tier.load(name, 0, _backing(namespace))

    workers_per_tenant = 4
    latencies = {"prem": [], "std": []}
    acked = {"prem": {}, "std": {}}
    progress = {"done": 0, "killed": False, "live_workers": 0}
    kill_after = ops  # half of the two tracked tenants' combined ops

    def worker(tenant: str, index: int, rng, n_ops: int):
        progress["live_workers"] += 1
        records = namespace // record
        for op in range(n_ops):
            rec = int(rng.integers(0, records))
            # Disjoint per-worker address sets: last-acked is unique.
            rec = (rec - rec % workers_per_tenant + index) % records
            addr = rec * record
            if op % 4 == 0:
                payload = bytes([(index * 37 + op) % 251]) * record
                result = yield tier.write(tenant, addr, payload)
                if result.ok:
                    acked[tenant][addr] = payload
            else:
                result = yield tier.read(tenant, addr, record)
                if result.ok:
                    latencies[tenant].append(result.latency)
            progress["done"] += 1
            if (kill and not progress["killed"]
                    and progress["done"] >= kill_after):
                progress["killed"] = True
                fail_member(harness, members["s01"])
        progress["live_workers"] -= 1

    per_worker = max(1, ops // workers_per_tenant)
    for tenant in ("prem", "std"):
        for index in range(workers_per_tenant):
            env.process(
                worker(tenant, index,
                       harness.rngs.stream(f"tenant-cli:{tenant}:{index}"),
                       per_worker),
                name=f"tenant-cli:{tenant}:{index}")
    if abusive:
        env.process(open_loop_writes(
            env, tier, "scav", harness.rngs.stream("tenant-cli-abusive"),
            rate_per_s=10.0 * scav_rate, namespace_bytes=namespace,
            record_bytes=record,
            running=lambda: progress["live_workers"] > 0),
            name="tenant-cli-abusive")
    env.run()

    def settle_and_verify():
        yield from router.settle()
        while any(tier.tenant(n).degraded for n in tier.tenants):
            yield env.timeout(1e-3)
        lost = 0
        for tenant in ("prem", "std"):
            lost += yield from count_lost(partial(tier.read, tenant),
                                          sorted(acked[tenant].items()))
        return lost

    lost = env.run_process(settle_and_verify())
    blob = {
        "schema": "repro.tenants/v1",
        "seed": seed,
        "ops": ops,
        "abusive": abusive,
        "kill": kill,
        "premium_read_p99_s": floor_p99(latencies["prem"]),
        "standard_read_p99_s": floor_p99(latencies["std"]),
        "acked_writes_checked": sum(len(a) for a in acked.values()),
        "acked_writes_lost": lost,
        "members_after": router.members,
        "tenants": {name: tier.stats(name) for name in tier.tenants},
        "metrics": registry.snapshot(),
    }
    if kill and router.reports:
        blob["rebalance"] = router.reports[-1].to_dict()
    return blob


def verbs_run(seed: int, ops: int, programs: bool) -> dict:
    """One dependent-GET pass on a fresh testbed; pure in (args).

    Each op writes a record, swings a pointer word at it and
    dependent-reads it back, over verb programs or the two-hop path.
    """
    import hashlib
    import struct

    region = 1 << 20
    capacity = 4 * region
    record_bytes = 256
    registry = MetricsRegistry()
    harness = build_cluster(seed=seed, metrics=registry)
    client = harness.redy_client("verbs-smoke")
    cache = client.create(
        capacity, Slo(max_latency=1e-3, min_throughput=1e5,
                      record_size=record_bytes),
        duration_s=3600.0, region_bytes=region,
        use_verb_programs=programs)

    digest = hashlib.sha256()
    stats = {"ok": 0, "failed": 0, "latency_s": 0.0}
    n_regions = capacity // region

    def body():
        for index in range(ops):
            reg = index % n_regions
            pointer_addr = reg * region + 64
            # Region-local record offset; vary it so the chase actually
            # has to dereference the pointer word, not a fixed address.
            local = 4096 + (index % 7) * 512
            payload = bytes((index + j) % 251 for j in range(record_bytes))
            wrote = yield cache.write(reg * region + local, payload)
            swung = yield cache.write(pointer_addr,
                                      struct.pack("<Q", local))
            read = yield cache.dependent_read(pointer_addr, record_bytes)
            if wrote.ok and swung.ok and read.ok and read.data == payload:
                stats["ok"] += 1
                stats["latency_s"] += read.latency
                digest.update(read.data)
            else:
                stats["failed"] += 1

    harness.env.run_process(body(), name="verbs-workload")
    mean_us = (stats["latency_s"] / stats["ok"] * 1e6
               if stats["ok"] else 0.0)
    return {
        "transport": "program" if programs else "two-hop",
        "seed": seed,
        "ops": ops,
        "ok": stats["ok"],
        "failed": stats["failed"],
        "digest": digest.hexdigest(),
        "read_latency_mean_us": mean_us,
        **{name: int(_counter(registry, f"engine.{name}"))
           for name in ("programs", "two_hop_reads", "program_fallbacks",
                        "program_cas_aborts")},
    }
