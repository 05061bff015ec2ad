"""``Environment.call_at`` and the callback grants keep event slots.

``call_at(when, fn, arg)`` must take exactly the dispatch slot that
``timeout_at(when)`` with ``fn`` as its only callback takes, and
``Store.get_then`` / ``Resource.acquire_then`` exactly the slot of the
event ``get()`` / ``acquire()`` returns -- that is what lets callback
chains drop their Events without moving a kernel entry.  The mixes
below run once written with Timeouts and Events and once with the
event-free calls, and must log the same ``(callback, now)`` trace.
"""

import math

import numpy as np
import pytest

from repro.analysis.hb import KernelMonitor
from repro.sim import Environment, Interrupt, Resource, SimulationError, Store
from repro.sim import US


class _Scheduler:
    """One mix's scheduling primitives, event-based or event-free."""

    def __init__(self, env, store, resource, event_free):
        self.env = env
        self.store = store
        self.resource = resource
        self.event_free = event_free

    def at(self, when, fn, arg=None):
        if self.event_free:
            self.env.call_at(when, fn, arg)
        else:
            self.env.timeout_at(when)._add_callback(lambda _e: fn(arg))

    def get(self, fn):
        if self.event_free:
            self.store.get_then(fn)
        else:
            self.store.get()._add_callback(lambda event: fn(event.value))

    def acquire(self, fn):
        if self.event_free:
            self.resource.acquire_then(fn)
        else:
            self.resource.acquire()._add_callback(lambda _e: fn(None))


def _mix(env, rng, log, event_free):
    """A randomized tangle of chains and processes sharing one store,
    one resource and the clock.  Every delay is drawn while running,
    so any reordering would also change later draws."""
    store = Store(env)
    resource = Resource(env, slots=2)
    sched = _Scheduler(env, store, resource, event_free)

    def delay():
        # Whole tenths of a us, zero included: many entries share
        # instants, so same-instant FIFO order is exercised.
        return float(rng.integers(0, 8)) * 0.1 * US

    def ticker(tag, rounds):
        def tick(index):
            log.append(("tick", tag, index, env.now))
            if index + 1 < rounds:
                sched.at(env.now + delay(), tick, index + 1)
        sched.at(env.now + delay(), tick, 0)

    def chain_consumer(tag, rounds):
        taken = 0

        def got(item):
            nonlocal taken
            log.append(("chain-got", tag, item, env.now))
            taken += 1
            if taken < rounds:
                sched.at(env.now + delay(), lambda _arg: sched.get(got))
        sched.get(got)

    def chain_worker(tag):
        def granted(_arg):
            log.append(("chain-granted", tag, env.now))
            sched.at(env.now + delay() + 0.1 * US, done)

        def done(_arg):
            resource.release()
            log.append(("chain-released", tag, env.now))
        sched.acquire(granted)

    def producer(tag, rounds):
        for index in range(rounds):
            yield env.timeout(delay())
            if rng.random() < 0.5:
                yield store.put((tag, index))
            else:
                store.try_put((tag, index))

    def consumer(tag, rounds):
        for _ in range(rounds):
            item = yield store.get()
            log.append(("proc-got", tag, item, env.now))

    def worker(tag):
        yield resource.acquire()
        try:
            yield env.timeout(delay() + 0.1 * US)
            log.append(("proc-worked", tag, env.now))
        finally:
            resource.release()

    def victim(tag):
        try:
            yield env.timeout(100 * US)
        except Interrupt as exc:
            log.append(("interrupted", tag, exc.cause, env.now))

    def interrupter(target):
        yield env.timeout(delay())
        target.interrupt("poke")
        log.append(("interrupting", env.now))

    producers = int(rng.integers(1, 4))
    for index in range(producers):
        env.process(producer(f"p{index}", 4))
    for index in range(int(rng.integers(1, 4))):
        ticker(f"t{index}", int(rng.integers(2, 6)))
    # Consumers take at most what the producers make, so every chain
    # and process finishes.
    takers = 4 * producers
    for index in range(int(rng.integers(1, 3))):
        rounds = min(2, takers)
        takers -= rounds
        if rounds:
            chain_consumer(f"cc{index}", rounds)
        if takers >= 1:
            env.process(consumer(f"pc{index}", 1))
            takers -= 1
    for index in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            chain_worker(f"cw{index}")
        else:
            env.process(worker(f"pw{index}"))
    for index in range(int(rng.integers(1, 3))):
        env.process(interrupter(env.process(victim(f"v{index}"))))


def _run(seed, event_free, until=None):
    env = Environment()
    log = []
    _mix(env, np.random.default_rng(seed), log, event_free)
    env.run(until=until)
    return log, env.now, env.event_loop_stats()


@pytest.mark.parametrize("seed", range(16))
def test_event_free_mix_dispatches_like_events(seed):
    with_events, now_a, stats_a = _run(seed, event_free=False)
    event_free, now_b, stats_b = _run(seed, event_free=True)
    assert len(with_events) > 10
    assert event_free == with_events
    assert now_b == now_a
    # Every entry kept its slot; only the Event dispatches went away.
    assert stats_b["steps"] == stats_a["steps"]
    assert stats_b["events"] < stats_a["events"]


@pytest.mark.parametrize("seed", range(4))
def test_event_free_mix_stops_at_the_same_boundary(seed):
    until = 1.3 * US
    with_events, now_a, stats_a = _run(seed, False, until=until)
    event_free, now_b, stats_b = _run(seed, True, until=until)
    assert now_a == now_b == until
    assert event_free == with_events
    assert stats_b["steps"] == stats_a["steps"]
    assert stats_b["pending"] == stats_a["pending"]


def test_same_instant_calls_are_fifo_with_events():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1 * US)
        env.call_at(env.now, order.append, "call-1")
        env.timeout(0)._add_callback(lambda _e: order.append("timeout"))
        env.call_at(env.now, order.append, "call-2")
        env.event().succeed()._add_callback(lambda _e: order.append("event"))
        env.call_at(env.now, order.append, "call-3")

    env.process(proc(env))
    env.run()
    assert order == ["call-1", "timeout", "call-2", "event", "call-3"]


def test_future_instant_calls_keep_sequence_order():
    env = Environment()
    order = []
    env.call_at(2 * US, order.append, "a")
    env.timeout_at(2 * US)._add_callback(lambda _e: order.append("b"))
    env.call_at(2 * US, order.append, "c")
    env.call_at(1 * US, order.append, "first")
    env.run()
    assert order == ["first", "a", "b", "c"]
    assert env.now == 2 * US


def test_run_until_boundary():
    env = Environment()
    fired = []
    env.call_at(1 * US, fired.append, "at-until")
    env.call_at(1 * US + 1e-12, fired.append, "after")
    env.run(until=1 * US)
    assert fired == ["at-until"]
    assert env.now == 1 * US
    assert env.event_loop_stats()["pending"] == 1
    env.run()
    assert fired == ["at-until", "after"]


def test_past_or_nan_when_raises():
    env = Environment()
    env.run(until=2 * US)
    for when in (1 * US, env.now - 1e-18, math.nan):
        with pytest.raises(SimulationError):
            env.call_at(when, print)
    assert env.event_loop_stats()["pending"] == 0


class _CallCounter(KernelMonitor):
    def __init__(self):
        self.calls = []

    def on_call(self, env, fn):
        self.calls.append((fn, env.now))


def test_on_call_fires_once_per_armed_entry():
    env = Environment()
    monitor = _CallCounter()
    env.monitor = monitor
    fired = []
    store = Store(env)
    resource = Resource(env, slots=1)

    def chain(index):
        fired.append(index)
        if index < 3:
            env.call_at(env.now + 1 * US, chain, index + 1)

    env.call_at(0.0, chain, 0)
    # Grants are not call_at entries: they report nothing.
    store.get_then(fired.append)
    store.try_put("item")
    resource.acquire_then(fired.append)
    env.run()
    assert fired == [0, "item", None, 1, 2, 3]
    assert monitor.calls == [(chain, 0.0), (chain, 0.0), (chain, 1 * US),
                             (chain, 2 * US)]
