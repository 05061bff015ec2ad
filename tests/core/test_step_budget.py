"""Kernel-step budgets for one op on an idle cluster.

The one-sided data path runs as callback chains: an op pays one kernel
entry per timed stage and almost no zero-delay hops.  These budgets pin
that (``Environment.event_loop_stats()`` counts every dispatched entry,
so the guard is exact and independent of host speed); a change that
quietly puts process bootstraps, resource grants or combinator hops
back on the path fails here.  The process-per-layer version took 27/26
steps per cache read/write, 34 per hedged router op and 37 per admitted
tenant op.
"""

import pytest

from repro.core import Slo
from repro.shard import ShardRouter
from repro.tenant import TenantSpec, TenantTier
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=64)
RECORD = b"r" * 64

CACHE_BUDGET = 13
ROUTER_BUDGET = 17
TENANT_BUDGET = 20


def idle_stack():
    harness = build_cluster(seed=1, n_servers=8)
    client = harness.redy_client("budget-app")
    members = {f"s{i}": client.create(2 * REGION, SLO, region_bytes=REGION)
               for i in range(2)}
    router = ShardRouter(harness.env, members, slot_bytes=1 << 14,
                         replication=1, hedge_after_s=200e-6)
    tier = TenantTier(harness.env, router)
    tier.register(TenantSpec(name="t", namespace_bytes=1 << 16,
                             rate_per_s=100_000.0, burst=32.0,
                             slo_class="standard"))
    return harness.env, members["s0"], router, tier


def steps_for(env, call):
    """Kernel steps from issuing ``call()`` until the cluster is idle
    again (hedge timers included)."""
    env.run()
    before = env.event_loop_stats()["steps"]
    done = call()
    env.run()
    assert done.processed and done.value.ok, done.value
    return env.event_loop_stats()["steps"] - before


@pytest.mark.parametrize("kind", ["read", "write"])
def test_cache_op_budget(kind):
    env, cache, _router, _tier = idle_stack()
    call = ((lambda: cache.read(0, 64)) if kind == "read"
            else (lambda: cache.write(0, RECORD)))
    assert steps_for(env, call) <= CACHE_BUDGET


@pytest.mark.parametrize("kind", ["read", "write"])
def test_hedged_router_op_budget(kind):
    env, _cache, router, _tier = idle_stack()
    call = ((lambda: router.read(64, 64)) if kind == "read"
            else (lambda: router.write(64, RECORD)))
    assert steps_for(env, call) <= ROUTER_BUDGET


@pytest.mark.parametrize("kind", ["read", "write"])
def test_admitted_tenant_op_budget(kind):
    env, _cache, _router, tier = idle_stack()
    call = ((lambda: tier.read("t", 64, 64)) if kind == "read"
            else (lambda: tier.write("t", 64, RECORD)))
    steps = steps_for(env, call)
    assert tier.stats("t")["admitted"] == 1
    assert steps <= TENANT_BUDGET
