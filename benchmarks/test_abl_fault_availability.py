"""Ablation: availability under injected faults (§6.2).

Drives the ``repro.faults`` injector against the two §6.2 recovery
strategies and sweeps fault intensity:

* a churn sweep (Poisson evictions + hard kills at increasing rates)
  against a backed cache with retries + auto-recovery, tracing
  SLO-violation rate and client-visible unavailability windows;
* the head-to-head trade: losing a VM costs a seconds-long
  re-provision + re-populate window on the backed cache, versus a
  failover within one I/O (~10 us) on a 2-way replicated cache -- which
  also must lose **zero acknowledged writes** across the failure.
"""

from repro.core import Slo
from repro.core.client import RetryPolicy
from repro.core.replication import ReplicatedCache
from repro.faults import FaultInjector, FaultSchedule, VmKill, churn_run
from repro.sim.clock import US
from repro.workloads.scenarios import build_cluster, count_lost, member_kill

REGION = 1 << 20
CAPACITY = 4 * REGION
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=512)
#: On-demand VM provisioning time for the re-populate path (real
#: clouds: tens of seconds; kept small so the bench stays fast).
PROVISIONING_S = 2.0
#: Eviction/kill rates swept by the churn experiment, per second.
CHURN_RATES = (0.5, 1.0, 2.0)
WRITE_BYTES = 64


def _backing(capacity: int) -> bytes:
    return bytes(range(256)) * (capacity // 256)


def _churn_sweep(bench_metrics):
    rows = []
    for rate in CHURN_RATES:
        report = churn_run(seed=11, rate_per_s=rate)
        bench_metrics.merge_snapshot(report.metrics)
        rows.append(report.summary)
    return rows


def _measure_repopulate():
    """Outage after a hard kill on the backed, auto-recovering cache."""
    harness = build_cluster(seed=21, provisioning_delay_s=PROVISIONING_S)
    env = harness.env
    client = harness.redy_client("repop-app")
    cache = client.create(
        CAPACITY, SLO, duration_s=3600.0, region_bytes=REGION,
        file=_backing(CAPACITY), auto_recover=True)
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    injector.arm(FaultSchedule([VmKill(at=1.0)]), cache=cache)

    def scenario(env):
        result = yield cache.read(100, WRITE_BYTES)
        assert result.ok
        yield env.timeout(1.0 + 1e-3)  # the kill has landed
        # Auto-recovery paused the lost regions at kill time, so the
        # next read stalls behind the re-provision + re-populate window
        # -- the outage is the read's latency.
        outage_start = env.now
        result = yield cache.read(100, WRITE_BYTES)
        assert result.ok
        assert result.data == _backing(CAPACITY)[100:100 + WRITE_BYTES]
        return env.now - outage_start

    return env.run_process(scenario(env)), len(injector.log)


def _measure_replicated(bench_metrics):
    """Failover window and write durability on a 2-way replica group."""
    harness = build_cluster(seed=22, provisioning_delay_s=PROVISIONING_S,
                            metrics=bench_metrics)
    env = harness.env
    client = harness.redy_client("repl-app")
    group = ReplicatedCache.create(client, CAPACITY, SLO, n_replicas=2,
                                   region_bytes=REGION)
    injector = FaultInjector(env, allocator=harness.allocator,
                             fabric=harness.fabric)
    injector.install_failure_hook()
    injector.arm(member_kill(group.primary, at=0.05), cache=group.primary)
    acked = []

    def scenario(env):
        # Acknowledged writes before the failure ...
        for i in range(20):
            payload = bytes([i % 256]) * WRITE_BYTES
            result = yield group.write(i * WRITE_BYTES, payload)
            if result.ok:
                acked.append((i * WRITE_BYTES, payload))
            yield env.timeout(5e-4)
        yield env.timeout(0.1)  # primary dies with no I/O in flight
        # ... the next read discovers the death and fails over ...
        failover_start = env.now
        result = yield group.read(0, WRITE_BYTES)
        assert result.ok
        failover_window = env.now - failover_start
        # ... and writes keep flowing to the survivor.
        for i in range(20, 40):
            payload = bytes([i % 256]) * WRITE_BYTES
            result = yield group.write(i * WRITE_BYTES, payload)
            if result.ok:
                acked.append((i * WRITE_BYTES, payload))
        # Every acknowledged write must read back intact.
        lost = yield from count_lost(group.read, acked)
        return failover_window, len(acked), lost

    failover_window, n_acked, lost = env.run_process(scenario(env))
    lost_counter = bench_metrics.get("replication.lost_writes")
    return failover_window, n_acked, lost, (
        lost_counter.value if lost_counter is not None else 0.0)


def run_experiment(bench_metrics):
    churn_rows = _churn_sweep(bench_metrics)
    repop_outage, repop_faults = _measure_repopulate()
    failover_window, n_acked, lost, lost_metric = \
        _measure_replicated(bench_metrics)
    return churn_rows, (repop_outage, repop_faults), (
        failover_window, n_acked, lost, lost_metric)


def test_abl_fault_availability(benchmark, report, bench_metrics):
    churn_rows, (repop_outage, repop_faults), \
        (failover_window, n_acked, lost, lost_metric) = benchmark.pedantic(
            run_experiment, args=(bench_metrics,), rounds=1, iterations=1)

    lines = [
        f"{'churn rate':>11} {'faults':>7} {'probes':>7} {'SLO-viol%':>10} "
        f"{'windows':>8} {'unavail':>9}",
    ]
    for rate, row in zip(CHURN_RATES, churn_rows):
        lines.append(
            f"{rate:>9.1f}/s {row['faults_injected']:>7.0f} "
            f"{row['probes']:>7.0f} "
            f"{row['slo_violation_rate'] * 100:>9.2f}% "
            f"{row['unavailability_windows']:>8.0f} "
            f"{row['unavailable_s'] * 1e3:>7.1f}ms")
    lines += [
        f"hard-kill recovery (provisioning {PROVISIONING_S:.0f}s):",
        f"{'re-populate (backup)':>22} {repop_outage * 1e3:>10.1f}ms outage",
        f"{'2-way replication':>22} {failover_window * 1e6:>10.1f}us "
        f"failover",
        f"replication cuts unavailability "
        f"{repop_outage / failover_window:.0f}x "
        f"({n_acked} acked writes, {lost} lost)",
    ]
    report("abl_fault_availability",
           "Ablation: availability under injected faults", lines)

    # The §6.2 trade: failover within a few I/O round trips, versus a
    # seconds-long re-provision + re-populate window.
    assert failover_window < 200 * US
    assert repop_outage > PROVISIONING_S / 2
    assert repop_outage > 1000 * failover_window
    # Write-all/read-primary never loses an acknowledged write.
    assert n_acked == 40
    assert lost == 0
    assert lost_metric == 0
    # The injector did drive the kill in the repopulate run.
    assert repop_faults >= 1
    # Churn pressure grows with the injected fault rate, and the cache
    # rides it out: most probes stay inside the SLO at every intensity.
    assert churn_rows[-1]["faults_injected"] > churn_rows[0][
        "faults_injected"]
    for row in churn_rows:
        assert row["probes"] > 0
        assert row["slo_violation_rate"] < 0.5
