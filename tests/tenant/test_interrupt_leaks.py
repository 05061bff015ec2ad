"""Interrupt-path leak regressions in the serving tier.

Nothing outside these tests interrupts a tenant request process, but
the kernel's ``Process.interrupt`` can throw into any of its waits, and
each wait must then give back what it holds.  These tests interrupt the
processes by hand and pin the fixes for three leaks the lifecycle
analyzer (L004/L005) found: an interrupted delay-sleep kept its
admission reservation, an interrupted router I/O kept its WRR
in-flight slot, and an interrupted degraded access kept the backing
device slot.  Each leak permanently shrank the corresponding capacity.
"""

from repro.sim import US
from repro.sim.kernel import Interrupt
from repro.tenant.admission import ADMIT
from repro.tenant.backing import FailOpenStore

from .test_tier import make_tier, spec


def _drive(env, gen):
    """Run a request generator inside an Interrupt-absorbing wrapper so
    the test can interrupt it without failing the process."""
    def wrapper(env):
        try:
            yield from gen
        except Interrupt:
            pass
    return env.process(wrapper(env))


def _interrupt_at(env, proc, delay):
    def canceller(env):
        yield env.timeout(delay)
        proc.interrupt("fault injection")
    env.process(canceller(env))


class TestAdmissionReservation:
    def test_interrupted_delay_sleep_releases_the_reservation(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t", rate_per_s=10.0, burst=1.0))

        verdict, wait = tenant.admission.admit()
        assert verdict == ADMIT
        verdict, wait = tenant.admission.admit()
        assert verdict != ADMIT and wait > 0.0
        assert tenant.admission.queued == 1

        done = env.event()
        proc = _drive(env, tier._request(tenant, True, 0, 64, None, done,
                                         verdict, wait))
        # Interrupt mid-sleep: well before the token matures.
        _interrupt_at(env, proc, wait / 2)
        env.run()

        # Pre-fix the reservation leaked and the queue slot was gone
        # forever; the bounded queue must drain back to empty.
        assert tenant.admission.queued == 0

    def test_uninterrupted_delay_still_releases_exactly_once(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t", rate_per_s=10.0, burst=1.0))
        tenant.admission.admit()
        verdict, wait = tenant.admission.admit()
        done = env.event()
        _drive(env, tier._request(tenant, True, 0, 64, None, done,
                                  verdict, wait))
        env.run()
        assert tenant.admission.queued == 0


class TestInflightSlot:
    def test_interrupted_router_io_releases_the_wrr_slot(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t"))

        done = env.event()
        proc = _drive(env, tier._request(tenant, True, 0, 64, None, done,
                                         ADMIT, 0.0))
        # A tier read takes a handful of microseconds; interrupt while
        # the router I/O is in flight.
        _interrupt_at(env, proc, 2 * US)
        env.run()

        assert not proc.is_alive
        # The interrupt landed mid-I/O: the request never completed.
        assert not done.triggered
        # Pre-fix the slot leaked: _inflight stayed 1 and the tenant's
        # max_inflight budget shrank by one forever.
        assert tier._inflight == 0
        assert tenant.inflight == 0

    def test_completed_request_frees_the_slot_too(self):
        harness, _, _, tier = make_tier()
        env = harness.env
        tenant = tier.register(spec("t"))
        tier.load("t", 0, b"\x07" * 64)
        done = tier.read("t", 0, 64)
        result = env.run_process(_await(env, done))
        assert result.ok
        assert tier._inflight == 0
        assert tenant.inflight == 0


def _await(env, event):
    def proc(env):
        result = yield event
        return result
    return proc(env)


class TestBackingDevice:
    def test_interrupted_degraded_read_releases_the_device(self):
        harness, _, _, _tier = make_tier()
        env = harness.env
        backing = FailOpenStore(env, capacity=4096)

        proc = _drive(env, backing.read(0, 64))
        # The device access takes ~120 us; interrupt in the middle.
        _interrupt_at(env, proc, 10 * US)
        env.run()

        # Pre-fix the single device slot stayed held forever, so every
        # later degraded access queued behind a phantom user.
        assert backing.queue_length == 0
        follow_up = env.run_process(backing.read(0, 64))
        assert follow_up == bytes(64)

    def test_interrupted_degraded_write_releases_the_device(self):
        harness, _, _, _tier = make_tier()
        env = harness.env
        backing = FailOpenStore(env, capacity=4096)

        proc = _drive(env, backing.write(0, b"\x01" * 64))
        _interrupt_at(env, proc, 10 * US)
        env.run()

        assert backing.queue_length == 0
        assert env.run_process(backing.write(0, b"\x02" * 64)) is True
