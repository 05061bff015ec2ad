"""``Environment.timeout_at``: timeouts on absolute simulated times.

Callback chains fuse consecutive stages into one kernel entry with it,
so it must land on exactly the float a chain of relative timeouts
reaches, and order against same-instant work exactly like ``timeout``.
Every test except the NaN one runs on two event-list shapes: ``heap``,
where the test's own entries are all that is queued, and ``calendar``,
where they sit among a dense calendar of background timers sharing
their instants, so each push and pop sifts through a deep heap.
"""

import numpy as np
import pytest

from repro.sim import Environment, SimulationError, US


@pytest.fixture(params=("heap", "calendar"))
def env(request):
    env = Environment()
    if request.param == "calendar":
        # Callback-free timers on a 0.05 us grid over [0, 2 us]: they
        # share the instants the tests use, and end no later than the
        # last instant a test asserts the clock at.
        rng = np.random.default_rng(11)
        for step in rng.integers(0, 41, size=2000):
            env.timeout(int(step) * 0.05 * US)
    return env


def test_past_timestamp_rejected(env):
    env.run(until=2 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(1 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(env.now - 1e-18)


def test_nan_timestamp_rejected():
    # NaN compares false against everything, so a `when < now` guard
    # would let it through and it would land on the heap out of order.
    env = Environment()
    env.run(until=2 * US)
    with pytest.raises(SimulationError):
        env.timeout_at(float("nan"))
    assert env.event_loop_stats()["pending"] == 0


def test_fires_at_exactly_when(env):
    seen = []

    def proc(env):
        yield env.timeout(0.3 * US)
        value = yield env.timeout_at(1.7 * US, "v")
        seen.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert seen == [(1.7 * US, "v")]


def test_now_is_fifo_behind_work_already_due(env):
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


def test_future_instant_is_fifo_behind_earlier_entries(env):
    """Entries scheduled earlier for the same instant fire first."""
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


def test_fused_stages_match_chained_timeouts(env):
    """``timeout(a); timeout(b)`` and ``timeout_at((now + a) + b)`` land
    on the same float, for awkward starting clocks and delays."""
    rng = np.random.default_rng(7)
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
