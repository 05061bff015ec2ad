"""Token-bucket admission control with bounded, deterministic queueing.

Every request a tenant offers either

* **admits** immediately (a whole token was available),
* **delays** for a computed, deterministic interval (the bucket is in
  deficit but the per-tenant queue has room -- the request's token is
  *reserved* and matures at a known simulation time), or
* **sheds** with a ``retry_after`` hint (the queue is full, or the
  bucket can never produce another token).

The bucket uses continuous lazy refill on simulation time and allows a
bounded deficit: each queued request decrements the level below zero,
reserving the token that the refill stream will mint for it.  The wait
until that token matures is a pure function of the deficit and the
rate, so arrival order fixes service order (FIFO per tenant) and the
whole admission schedule is bit-reproducible from the seed.

Shedding is reject-newest: an arrival that finds ``max_queue`` tokens
already reserved is refused on the spot.  Requests that have been
promised a token are never revoked -- the paper's "never unbounded
queueing" discipline with a deterministic victim choice.
"""

from __future__ import annotations

import math

__all__ = ["ADMIT", "AdmissionController", "DELAY", "SHED", "TokenBucket"]

#: Admission verdicts.
ADMIT = "admit"
DELAY = "delay"
SHED = "shed"


class TokenBucket:
    """A continuous-refill token bucket on simulation time.

    ``rate_per_s`` tokens are minted per simulated second, capped at
    ``burst`` stored tokens.  The level may go negative through
    :meth:`reserve` -- that deficit is the queue of promised tokens.
    """

    __slots__ = ("rate_per_s", "burst", "_level", "_last")

    def __init__(self, env, rate_per_s: float, burst: float):
        if rate_per_s < 0:
            raise ValueError("rate_per_s must be >= 0")
        if burst < 0:
            raise ValueError("burst must be >= 0")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._level = float(burst)
        self._last = env.now

    def refill(self, now: float) -> None:
        if now > self._last:
            if self.rate_per_s > 0.0:
                self._level = min(
                    self.burst,
                    self._level + (now - self._last) * self.rate_per_s)
            self._last = now

    def level(self, now: float) -> float:
        """Current token level (negative = reserved deficit)."""
        self.refill(now)
        return self._level

    @property
    def viable(self) -> bool:
        """Can this bucket *ever* mint a whole token after depletion?

        ``burst < 1`` can never store one; ``rate == 0`` can never
        replace one.  Non-viable buckets shed with ``retry_after=inf``
        once empty instead of promising a token that never matures.
        """
        return self.rate_per_s > 0.0 and self.burst >= 1.0

    def try_take(self, now: float) -> bool:
        """Take one whole token if available right now."""
        self.refill(now)
        if self._level >= 1.0:
            self._level -= 1.0
            return True
        return False

    def reserve(self, now: float) -> float:
        """Take one token on credit; return seconds until it matures.

        The returned wait is exact: after sleeping it, the refill stream
        has minted this reservation's token (all earlier reservations
        included, since each one pushed the level further down).
        """
        self.refill(now)
        self._level -= 1.0
        if self._level >= 0.0:
            return 0.0
        if not self.viable:
            return math.inf
        return -self._level / self.rate_per_s

    def maturity_wait(self, now: float) -> float:
        """Seconds until the *next* reservation's token would mature,
        without reserving it (the shed path's ``retry_after`` hint)."""
        self.refill(now)
        if self._level >= 1.0:
            return 0.0
        if not self.viable:
            return math.inf
        return (1.0 - self._level) / self.rate_per_s


class AdmissionController:
    """Per-tenant admission: one bucket plus a bounded reservation queue."""

    __slots__ = ("env", "bucket", "max_queue", "queued",
                 "admitted", "delayed", "shed")

    def __init__(self, env, rate_per_s: float, burst: float,
                 max_queue: int = 16):
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.env = env
        self.bucket = TokenBucket(env, rate_per_s, burst)
        self.max_queue = max_queue
        #: Reservations currently waiting for their token to mature.
        self.queued = 0
        #: Lifetime verdict counts.
        self.admitted = 0
        self.delayed = 0
        self.shed = 0

    def admit(self) -> tuple[str, float]:
        """Decide one arrival: ``(verdict, seconds)``.

        ``(ADMIT, 0.0)`` -- proceed immediately.
        ``(DELAY, wait)`` -- a token was reserved; the caller must sleep
        ``wait`` seconds, then call :meth:`release` and proceed.
        ``(SHED, retry_after)`` -- rejected; ``retry_after`` is when a
        retry could find queue room (``inf`` for a dead bucket).
        """
        # One pass over the bucket: the same floats as try_take, then
        # maturity_wait (shed) or reserve (delay), for one refill.
        bucket = self.bucket
        bucket.refill(self.env.now)
        level = bucket._level
        if level >= 1.0:
            bucket._level = level - 1.0
            self.admitted += 1
            return ADMIT, 0.0
        viable = bucket.viable
        if not viable or self.queued >= self.max_queue:
            self.shed += 1
            return SHED, ((1.0 - level) / bucket.rate_per_s if viable
                          else math.inf)
        level -= 1.0
        bucket._level = level
        self.queued += 1
        self.delayed += 1
        return DELAY, (-level / bucket.rate_per_s if level < 0.0 else 0.0)

    def release(self) -> None:
        """A delayed request's token matured; it leaves the queue."""
        if self.queued <= 0:
            raise RuntimeError("release() without a queued reservation")
        self.queued -= 1
