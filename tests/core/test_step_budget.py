"""Kernel-step and event budgets for one op on an idle cluster.

The one-sided data path runs as callback chains: an op pays one kernel
entry per timed stage and almost no zero-delay hops, and those entries
are ``call_at`` calls and callback grants, not Events.  These budgets
pin both counts exactly (``Environment.event_loop_stats()`` counts
every dispatched entry and every Event dispatch, so the guard is exact
and independent of host speed): a change that puts process bootstraps,
resource grants or combinator hops back on the path fails the step
budget, and one that turns a hop back into a Timeout or Event fails the
event budget.  The process-per-layer version took 27/26 steps per cache
read/write, 34 per hedged router op and 37 per admitted tenant op.

The events left are the completion events the layers hand each other
(a cache op's ``done``; the router's join plus the member cache's; the
tenant tier adds its own ``done`` and its request process).

Off-ring ops (a dependent GET, a standalone CAS) are still one process
in the client and one in the engine, so each of their waits is an
Event; their budgets pin that one shared path.
"""

import struct

import pytest

from repro.core import Slo
from repro.shard import ShardRouter
from repro.tenant import TenantSpec, TenantTier
from repro.workloads.scenarios import build_cluster

REGION = 1 << 20
SLO = Slo(max_latency=1e-3, min_throughput=1e5, record_size=64)
RECORD = b"r" * 64
WORD = struct.Struct("<Q")

#: ``(steps, events)`` per idle op.
CACHE_BUDGET = {"read": (10, 1), "write": (10, 1)}
ROUTER_BUDGET = {"read": (12, 2), "write": (11, 2)}
TENANT_BUDGET = {"read": (15, 4), "write": (14, 4)}
OFF_RING_BUDGET = {"two-hop": (24, 14), "program": (17, 11), "cas": (17, 11)}


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


def off_ring_cache(use_verb_programs=None):
    """A cache holding a record at 4096 and a pointer word to it at 64."""
    harness = build_cluster(seed=1, n_servers=8)
    client = harness.redy_client("budget-app")
    cache = client.create(2 * REGION, SLO, region_bytes=REGION,
                          use_verb_programs=use_verb_programs)
    cache.load(4096, RECORD)
    cache.load(64, WORD.pack(4096))
    return harness.env, cache


def steps_for(env, call, ok=True):
    """Kernel ``(steps, events)`` from issuing ``call()`` until the
    cluster is idle again (hedge timers included)."""
    env.run()
    before = env.event_loop_stats()
    done = call()
    env.run()
    assert done.processed and done.value.ok is ok, done.value
    after = env.event_loop_stats()
    return (after["steps"] - before["steps"],
            after["events"] - before["events"])


@pytest.mark.parametrize("kind", ["read", "write"])
def test_cache_op_budget(kind):
    env, cache, _router, _tier = idle_stack()
    call = ((lambda: cache.read(0, 64)) if kind == "read"
            else (lambda: cache.write(0, RECORD)))
    assert steps_for(env, call) == CACHE_BUDGET[kind]


@pytest.mark.parametrize("kind", ["read", "write"])
def test_hedged_router_op_budget(kind):
    env, _cache, router, _tier = idle_stack()
    call = ((lambda: router.read(64, 64)) if kind == "read"
            else (lambda: router.write(64, RECORD)))
    assert steps_for(env, call) == ROUTER_BUDGET[kind]


@pytest.mark.parametrize("kind", ["read", "write"])
def test_admitted_tenant_op_budget(kind):
    env, _cache, _router, tier = idle_stack()
    call = ((lambda: tier.read("t", 64, 64)) if kind == "read"
            else (lambda: tier.write("t", 64, RECORD)))
    counts = steps_for(env, call)
    assert tier.stats("t")["admitted"] == 1
    assert counts == TENANT_BUDGET[kind]


@pytest.mark.parametrize("transport", ["two-hop", "program"])
def test_dependent_get_budget(transport):
    env, cache = off_ring_cache(use_verb_programs=transport == "program")
    counts = steps_for(env, lambda: cache.dependent_read(64, 64))
    assert counts == OFF_RING_BUDGET[transport]


@pytest.mark.parametrize("compare, ok", [(4096, True), (1, False)],
                         ids=["hit", "mismatch"])
def test_cas_budget(compare, ok):
    env, cache = off_ring_cache()
    counts = steps_for(env, lambda: cache.cas(
        64, WORD.pack(compare), WORD.pack(8192)), ok=ok)
    assert counts == OFF_RING_BUDGET["cas"]
