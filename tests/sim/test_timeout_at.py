"""``Environment.timeout_at``: timeouts on absolute simulated times.

Callback chains fuse consecutive stages into one kernel entry with it,
so it must land on exactly the float a chain of relative timeouts
reaches, and order against same-instant work exactly like ``timeout``.
Every test runs under both schedulers.
"""

import numpy as np
import pytest

from repro.sim import Environment, SimulationError, US

SCHEDULERS = ("heap", "calendar")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_past_timestamp_rejected(scheduler):
    env = Environment(scheduler=scheduler)
    env.run(until=2 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(1 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(env.now - 1e-18)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_fires_at_exactly_when(scheduler):
    env = Environment(scheduler=scheduler)
    seen = []

    def proc(env):
        yield env.timeout(0.3 * US)
        value = yield env.timeout_at(1.7 * US, "v")
        seen.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert seen == [(1.7 * US, "v")]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_now_is_fifo_behind_work_already_due(scheduler):
    env = Environment(scheduler=scheduler)
    order = []

    def proc(env):
        yield env.timeout(1 * US)
        env.timeout(0)._add_callback(lambda _e: order.append("relative"))
        env.timeout_at(env.now)._add_callback(
            lambda _e: order.append("absolute"))
        env.timeout(0)._add_callback(lambda _e: order.append("after"))

    env.process(proc(env))
    env.run()
    assert order == ["relative", "absolute", "after"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_future_instant_is_fifo_behind_earlier_entries(scheduler):
    """Entries scheduled earlier for the same instant fire first."""
    env = Environment(scheduler=scheduler)
    order = []
    env.timeout(2 * US)._add_callback(lambda _e: order.append("early"))

    def late(env):
        yield env.timeout(0.5 * US)
        env.timeout_at(2 * US)._add_callback(lambda _e: order.append("late"))
        env.timeout(1.5 * US)._add_callback(
            lambda _e: order.append("relative"))

    env.process(late(env))
    env.run()
    assert env.now == 2 * US
    assert order == ["early", "late", "relative"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_fused_stages_match_chained_timeouts(scheduler):
    """``timeout(a); timeout(b)`` and ``timeout_at((now + a) + b)`` land
    on the same float, for awkward starting clocks and delays."""
    rng = np.random.default_rng(7)
    env = Environment(scheduler=scheduler)
    chained, fused = {}, {}
    pairs = [(float(rng.random()) * 3 * US, float(rng.random()) * 3 * US)
             for _ in range(300)]

    def chain(env, index, start, a, b):
        yield env.timeout(start)
        yield env.timeout(a)
        yield env.timeout(b)
        chained[index] = env.now

    def fuse(env, index, start, a, b):
        yield env.timeout(start)
        yield env.timeout_at((env.now + a) + b)
        fused[index] = env.now

    for index, (a, b) in enumerate(pairs):
        start = index * 0.37 * US + 1e-3
        env.process(chain(env, index, start, a, b))
        env.process(fuse(env, index, start, a, b))
    env.run()
    assert len(fused) == len(pairs)
    assert fused == chained
