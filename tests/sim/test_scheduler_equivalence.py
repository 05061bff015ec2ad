"""Dispatch-order corpus: the kernel against recorded digests.

The kernel dispatches in the ``(when, priority, sequence)`` total order
(DESIGN.md §5h), and every simulated number in the repository rests on
that order.  These tests pin it the strong way: randomized workloads
exercising every kernel primitive run under a full trace recorder, and
the SHA-256 of ``(trace, log, now, event_loop_stats)`` must equal the
digest recorded in ``dispatch_digests.json``.

The corpus was recorded from two independent event-list
implementations -- a single binary heap and a calendar queue -- that
agreed on every case, so it pins the order itself rather than one
implementation of it.  A kernel change that moves a digest changes the
dispatch order: re-record (each entry is ``digest(_<kind>(seed))``)
only when that is intended, and say why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sanitize import TraceRecorder
from repro.sim import Environment, Interrupt, Resource, Store, US

DIGESTS = json.loads(
    Path(__file__).with_name("dispatch_digests.json").read_text())


def _mixed_workload(env, rng, log):
    """Spawn a randomized tangle of every kernel primitive.

    All randomness is drawn from ``rng`` (seeded by the caller), partly
    at build time and partly inside running processes; if the kernel
    ever dispatched in a different order, the in-process draws would
    diverge too and the log (and so the digest) would change loudly.
    """
    store = Store(env)
    resource = Resource(env, slots=2)
    gate = env.event()

    def sleeper(tag, rounds):
        for index in range(rounds):
            yield env.timeout(float(rng.integers(0, 50)) * 0.1 * US)
            log.append(("sleep", tag, index, env.now))

    def producer(tag, rounds):
        for index in range(rounds):
            yield env.timeout(float(rng.integers(0, 30)) * 0.1 * US)
            yield store.put((tag, index))

    def consumer(tag, rounds):
        for _ in range(rounds):
            item = yield store.get()
            log.append(("got", tag, item, env.now))
            yield env.timeout(float(rng.integers(0, 10)) * 0.1 * US)

    def worker(tag):
        yield resource.acquire()
        try:
            yield env.timeout(float(rng.integers(1, 20)) * 0.1 * US)
            log.append(("worked", tag, env.now))
        finally:
            resource.release()

    def racer(tag):
        hedge = float(rng.integers(0, 100)) * 0.1 * US
        winner = yield env.any_of(
            [env.timeout(5 * US, "slow"), env.timeout(hedge, "hedge")])
        log.append(("race", tag, winner, env.now))

    def gatherer(tag):
        values = yield env.all_of(
            [env.timeout(1 * US, "a"), env.timeout(1 * US, "b"),
             env.timeout(float(rng.integers(0, 40)) * 0.1 * US, "c")])
        log.append(("gather", tag, tuple(values), env.now))

    def opener():
        yield env.timeout(2 * US)
        gate.succeed("open")

    def gate_waiter(tag):
        value = yield gate
        log.append(("gate", tag, value, env.now))

    def zero_chain(tag, depth):
        # Same-instant cascades: the deque fast path must still respect
        # global FIFO order against everything else queued at `now`.
        for index in range(depth):
            yield env.timeout(0.0)
            log.append(("zero", tag, index, env.now))

    def absolute(tag, rounds):
        # Fused stages on absolute timestamps (the callback data path's
        # idiom), plus a callback chained straight off each timeout.
        for index in range(rounds):
            first = float(rng.integers(0, 20)) * 0.1 * US
            second = float(rng.integers(0, 20)) * 0.1 * US
            stage = env.timeout_at((env.now + first) + second)
            stage._add_callback(
                lambda ev, index=index: log.append(
                    ("at-cb", tag, index, ev.env.now)))
            yield stage
            log.append(("at", tag, index, env.now))

    def victim(tag):
        try:
            yield env.timeout(1000 * US)
            log.append(("undisturbed", tag, env.now))
        except Interrupt as exc:
            log.append(("interrupted", tag, str(exc.cause), env.now))

    def interrupter(target, delay):
        yield env.timeout(delay)
        target.interrupt("poke")

    def joiner(tag, target):
        value = yield target
        log.append(("joined", tag, value, env.now))

    for index in range(int(rng.integers(2, 5))):
        env.process(sleeper(f"s{index}", int(rng.integers(2, 6))),
                    name=f"sleeper{index}")
    pairs = int(rng.integers(1, 4))
    for index in range(pairs):
        env.process(producer(f"p{index}", 3), name=f"producer{index}")
        env.process(consumer(f"c{index}", 3), name=f"consumer{index}")
    for index in range(int(rng.integers(2, 6))):
        env.process(worker(f"w{index}"), name=f"worker{index}")
    for index in range(int(rng.integers(1, 4))):
        env.process(racer(f"r{index}"), name=f"racer{index}")
    env.process(gatherer("g0"), name="gatherer")
    env.process(opener(), name="opener")
    for index in range(int(rng.integers(1, 4))):
        env.process(gate_waiter(f"gw{index}"), name=f"gatewaiter{index}")
    env.process(zero_chain("z0", int(rng.integers(2, 8))), name="zerochain")
    for index in range(int(rng.integers(1, 4))):
        env.process(absolute(f"a{index}", int(rng.integers(2, 6))),
                    name=f"absolute{index}")
    prey = env.process(victim("v0"), name="victim")
    env.process(interrupter(prey, 1.5 * US), name="interrupter")
    env.process(joiner("j0", env.process(sleeper("js", 3), name="joinee")),
                name="joiner")


def _traced(build, until=None):
    """Run ``build(env, log)`` under a trace recorder, then ``run(until)``."""
    env = Environment()
    recorder = TraceRecorder()
    env.monitor = recorder
    log = []
    build(env, log)
    env.run(until=until)
    # Detach before the env is dropped: when a run stops at `until`
    # with processes still suspended, gc later closes their generators
    # (GeneratorExit -> `finally: release()` -> succeed()), and those
    # teardown triggers would land in the trace at gc-determined times.
    env.monitor = None
    return list(recorder.entries), log, env.now, env.event_loop_stats()


def _random(seed):
    return _traced(lambda env, log: _mixed_workload(
        env, np.random.default_rng(seed), log))


def _until(seed):
    # Stopping mid-run at an arbitrary boundary: the clock and the
    # pending population at the stop are part of the digest.
    return _traced(lambda env, log: _mixed_workload(
        env, np.random.default_rng(seed), log), until=1.7 * US)


def _reentrant(seed):
    # run(until), spawn more work, run() again: the event list carried
    # over between runs must resume in the same order.
    env = Environment()
    recorder = TraceRecorder()
    env.monitor = recorder
    log = []
    rng = np.random.default_rng(seed)
    _mixed_workload(env, rng, log)
    env.run(until=2 * US)
    _mixed_workload(env, rng, log)  # second wave, mid-flight
    env.run()
    env.monitor = None  # see _traced: keep gc teardown out
    return list(recorder.entries), log, env.now, env.event_loop_stats()


def _untraced(build):
    """Like :func:`_traced` but without a recorder: its process table
    would pin every spent Process and keep it off the freelist."""
    env = Environment()
    log = []
    build(env, log)
    env.run()
    return [], log, env.now, env.event_loop_stats()


def _spread(seed):
    # Log-uniform delays over 12 decades, all in one event list.
    def build(env, fired):
        def waiter(tag, delay):
            yield env.timeout(delay)
            fired.append((tag, env.now))

        delays = 10.0 ** np.random.default_rng(seed).uniform(
            -9.0, 3.0, size=600)
        for tag, delay in enumerate(delays):
            env.process(waiter(tag, float(delay)), name=f"w{tag}")

    return _untraced(build)


def _tie():
    # 500 entries on five timestamps: the tie-break is the scheduling
    # sequence number, so any instability shows up as a permutation.
    def build(env, fired):
        def waiter(tag, delay):
            yield env.timeout(delay)
            fired.append(tag)

        for tag in range(500):
            env.process(waiter(tag, (tag % 5) * US), name=f"b{tag}")

    return _untraced(build)


def digest(result):
    """SHA-256 of a case's ``(trace, log, now, event_loop_stats)``."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(12))
def test_random_workloads_dispatch_identically(seed):
    result = _random(seed)
    assert result[3]["events"] > 50  # the workload actually did something
    assert digest(result) == DIGESTS[f"random/{seed}"]


@pytest.mark.parametrize("seed", range(4))
def test_run_until_boundary_identical(seed):
    result = _until(seed)
    assert result[2] == pytest.approx(1.7 * US)
    assert digest(result) == DIGESTS[f"until/{seed}"]


@pytest.mark.parametrize("seed", range(4))
def test_reentrant_run_identical(seed):
    assert digest(_reentrant(seed)) == DIGESTS[f"reentrant/{seed}"]


@pytest.mark.parametrize("seed", range(3))
def test_wide_delay_spread_identical(seed):
    result = _spread(seed)
    times = [now for _tag, now in result[1]]
    assert len(times) == 600 and times == sorted(times)
    assert digest(result) == DIGESTS[f"spread/{seed}"]


def test_equal_timestamps_keep_creation_order():
    result = _tie()
    assert sorted(result[1]) == list(range(500))
    assert digest(result) == DIGESTS["tie"]


def test_freelist_reuse_preserves_event_payloads():
    # The run loop recycles processed Event/Timeout shells through
    # freelists.  Reuse must be invisible: every wait gets the value
    # that was armed for it, never a stale slot from a previous
    # occupant.
    env = Environment()
    received = []

    def looper():
        for index in range(2000):
            value = yield env.timeout(0.1 * US, ("payload", index))
            received.append(value)
            event = env.event()
            event.succeed(index * 3)
            got = yield event
            received.append(got)

    env.run_process(looper())
    expected = []
    for index in range(2000):
        expected.append(("payload", index))
        expected.append(index * 3)
    assert received == expected
