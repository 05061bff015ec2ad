"""Token-bucket admission: verdicts, reservation math, edge cases."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.tenant import ADMIT, AdmissionController, DELAY, SHED, TokenBucket


class _Clock:
    """Stand-in env: admission only reads ``now``."""

    def __init__(self):
        self.now = 0.0


class TestTokenBucket:
    def test_starts_full_and_refills_to_burst(self):
        clock = _Clock()
        bucket = TokenBucket(clock, rate_per_s=10.0, burst=4.0)
        assert bucket.level(0.0) == 4.0
        for _ in range(4):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.level(100.0) == 4.0  # capped at burst, not 1000

    def test_refill_is_continuous(self):
        clock = _Clock()
        bucket = TokenBucket(clock, rate_per_s=10.0, burst=4.0)
        for _ in range(4):
            bucket.try_take(0.0)
        assert bucket.level(0.05) == pytest.approx(0.5)
        assert not bucket.try_take(0.05)  # half a token is not a token
        assert bucket.try_take(0.1)

    def test_reserve_returns_exact_maturity_waits(self):
        clock = _Clock()
        bucket = TokenBucket(clock, rate_per_s=10.0, burst=1.0)
        assert bucket.try_take(0.0)
        # Each reservation pushes the level one deeper: waits are
        # 1/rate, 2/rate, 3/rate -- FIFO by construction.
        assert bucket.reserve(0.0) == pytest.approx(0.1)
        assert bucket.reserve(0.0) == pytest.approx(0.2)
        assert bucket.reserve(0.0) == pytest.approx(0.3)

    def test_zero_rate_bucket_is_not_viable(self):
        bucket = TokenBucket(_Clock(), rate_per_s=0.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.viable
        assert bucket.maturity_wait(0.0) == math.inf
        assert bucket.reserve(0.0) == math.inf

    def test_sub_token_burst_is_not_viable(self):
        bucket = TokenBucket(_Clock(), rate_per_s=100.0, burst=0.5)
        assert not bucket.viable
        assert not bucket.try_take(0.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(_Clock(), rate_per_s=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(_Clock(), rate_per_s=1.0, burst=-1.0)


class TestAdmissionController:
    def test_zero_capacity_bucket_sheds_everything(self):
        # rate=0, burst=0: no token ever exists.  Every arrival sheds
        # immediately with an infinite retry hint -- never queued.
        controller = AdmissionController(_Clock(), rate_per_s=0.0,
                                         burst=0.0, max_queue=16)
        for _ in range(5):
            verdict, retry_after = controller.admit()
            assert verdict == SHED
            assert retry_after == math.inf
        assert controller.queued == 0
        assert controller.shed == 5

    def test_burst_exactly_at_limit(self):
        # burst=8: exactly 8 immediate admits, the 9th is the first
        # reservation and its wait is exactly one token period.
        controller = AdmissionController(_Clock(), rate_per_s=1000.0,
                                         burst=8.0, max_queue=4)
        verdicts = [controller.admit() for _ in range(9)]
        assert [v for v, _ in verdicts[:8]] == [ADMIT] * 8
        assert all(wait == 0.0 for _, wait in verdicts[:8])
        assert verdicts[8][0] == DELAY
        assert verdicts[8][1] == pytest.approx(1.0 / 1000.0)

    def test_queue_overflow_sheds_newest_with_monotone_waits(self):
        # One token then a 3-deep queue: arrivals 2-4 reserve with
        # strictly increasing waits (FIFO), arrival 5 is the victim.
        controller = AdmissionController(_Clock(), rate_per_s=100.0,
                                         burst=1.0, max_queue=3)
        assert controller.admit() == (ADMIT, 0.0)
        waits = []
        for _ in range(3):
            verdict, wait = controller.admit()
            assert verdict == DELAY
            waits.append(wait)
        assert waits == sorted(waits)
        assert waits[0] == pytest.approx(0.01)
        assert waits[2] == pytest.approx(0.03)
        verdict, retry_after = controller.admit()
        assert verdict == SHED
        # The shed hint quotes when the *next* token matures behind the
        # existing queue: deeper than every accepted reservation.
        assert retry_after > waits[2]
        assert controller.queued == 3
        # Earlier reservations were never revoked.
        assert controller.delayed == 3 and controller.shed == 1

    def test_release_drains_the_queue(self):
        controller = AdmissionController(_Clock(), rate_per_s=100.0,
                                         burst=1.0, max_queue=1)
        controller.admit()
        assert controller.admit()[0] == DELAY
        assert controller.admit()[0] == SHED
        controller.release()
        assert controller.queued == 0
        with pytest.raises(RuntimeError):
            controller.release()

    def test_two_tenant_contention_replays_bit_identically(self):
        # Two controllers fed the same seeded arrival process must
        # produce the same verdict trace, twice over.
        def one_run():
            env = Environment()
            rngs = RngRegistry(9)
            fast = AdmissionController(env, rate_per_s=2000.0, burst=8.0,
                                       max_queue=4)
            slow = AdmissionController(env, rate_per_s=200.0, burst=2.0,
                                       max_queue=2)
            trace = []

            def matured(controller, wait):
                yield env.timeout(wait)
                controller.release()

            def arrivals(name, controller, stream):
                # Open loop: delayed requests mature in their own
                # processes, so the queue can actually fill and shed.
                rng = rngs.stream(stream)
                for index in range(200):
                    verdict, wait = controller.admit()
                    trace.append((name, index, verdict, wait))
                    if verdict == DELAY:
                        env.process(matured(controller, wait),
                                    name=f"{name}-release:{index}")
                    yield env.timeout(float(rng.random()) * 1e-3)

            env.process(arrivals("fast", fast, "fast"), name="fast")
            env.process(arrivals("slow", slow, "slow"), name="slow")
            env.run()
            return trace, (fast.admitted, fast.delayed, fast.shed,
                           slow.admitted, slow.delayed, slow.shed)

        first_trace, first_stats = one_run()
        second_trace, second_stats = one_run()
        assert first_trace == second_trace
        assert first_stats == second_stats
        # The run exercised all three verdicts.
        seen = {verdict for _, _, verdict, _ in first_trace}
        assert seen >= {ADMIT, DELAY, SHED}


def _three_call_admit(controller):
    """The admission decision as three bucket calls (try_take, then
    maturity_wait and viable, then reserve) -- the reference the
    single-pass :meth:`AdmissionController.admit` must match."""
    now = controller.env.now
    if controller.bucket.try_take(now):
        controller.admitted += 1
        return ADMIT, 0.0
    retry_after = controller.bucket.maturity_wait(now)
    if (not controller.bucket.viable
            or controller.queued >= controller.max_queue):
        controller.shed += 1
        return SHED, retry_after
    wait = controller.bucket.reserve(now)
    controller.queued += 1
    controller.delayed += 1
    return DELAY, wait


@settings(max_examples=200, deadline=None)
@given(
    rate=st.sampled_from([0.0, 0.5, 10.0, 1234.5, 1e6]),
    burst=st.sampled_from([0.0, 0.5, 1.0, 2.5, 32.0]),
    max_queue=st.integers(0, 4),
    steps=st.lists(st.tuples(
        st.sampled_from(["arrive", "arrive", "release"]),
        st.floats(0.0, 0.01, allow_nan=False)), max_size=120))
def test_single_pass_admit_matches_three_call_decision(rate, burst,
                                                       max_queue, steps):
    clock = _Clock()
    fast = AdmissionController(clock, rate, burst, max_queue=max_queue)
    reference = AdmissionController(clock, rate, burst, max_queue=max_queue)
    for action, advance in steps:
        clock.now += advance
        if action == "release":
            if fast.queued:
                fast.release()
                reference.release()
            continue
        assert fast.admit() == _three_call_admit(reference)
        assert fast.bucket._level == reference.bucket._level
    assert ((fast.admitted, fast.delayed, fast.shed, fast.queued)
            == (reference.admitted, reference.delayed, reference.shed,
                reference.queued))
