"""Shared resources for simulation processes.

Two primitives cover the reproduction's needs:

* :class:`Store` -- an unbounded-or-bounded FIFO of items; the simulated
  analogue of the lock-free ring buffers in Redy's data path and of device
  request queues in the FASTER substrate.
* :class:`Resource` -- counted slots with FIFO admission; used for NIC DMA
  engines and SSD internal parallelism.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Union

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Store:
    """A FIFO channel between producer and consumer processes.

    ``put`` blocks while the store is full (when ``capacity`` is bounded);
    ``get`` blocks while it is empty.  Waiters are served in FIFO order,
    which mirrors the in-order guarantee Redy gets from reliable RDMA
    connections.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        #: Waiting consumers: events from :meth:`get`, callbacks from
        #: :meth:`get_then`.
        self._getters: Deque[Union[Event, Callable[[Any], None]]] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is accepted."""
        event = self.env.event()
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            self._hand(self._getters.popleft(), item)
            event.succeed()
        elif not self.is_full:
            self._items.append(item)
            event.succeed()
        else:
            event.on_abandon = self._cancel_put
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._hand(self._getters.popleft(), item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item.

        A consumer that abandons the wait (it was interrupted) is pulled
        back out of the queue -- and if an item was already handed to it
        in the same instant, the item is returned to the store -- so no
        item is ever lost to an orphaned waiter.
        """
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            event.on_abandon = self._cancel_get
            self._getters.append(event)
        return event

    def get_then(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(item)`` with the next item.

        The callback form of :meth:`get`: ``fn`` runs through
        ``env._call_soon`` in the slot the returned event's dispatch
        would take -- at once when an item is stored, else when the
        put that serves this waiter arrives -- without an Event.
        """
        if self._items:
            self.env._call_soon(fn, self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(fn)

    def _hand(self, getter: Union[Event, Callable[[Any], None]],
              item: Any) -> None:
        if isinstance(getter, Event):
            getter.succeed(item)
        else:
            self.env._call_soon(getter, item)

    def _cancel_get(self, event: Event) -> None:
        try:
            self._getters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered and event.ok:
            # A put() handed its item over in the same instant the
            # consumer was interrupted; reclaim it for the next consumer.
            self._restock(event.value)

    def _cancel_put(self, event: Event) -> None:
        for index, (pending, _item) in enumerate(self._putters):
            if pending is event:
                del self._putters[index]
                return

    def _restock(self, item: Any) -> None:
        if self._getters:
            self._hand(self._getters.popleft(), item)
        else:
            # Front of the queue: the item was logically next in FIFO
            # order.  May transiently exceed a bounded capacity; that is
            # the correct accounting -- the item was already admitted.
            self._items.appendleft(item)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_putter()
        return True, item

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()


class Resource:
    """``slots`` interchangeable units acquired and released by processes.

    Usage::

        yield resource.acquire()
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, slots: int = 1):
        if slots < 1:
            raise SimulationError(f"Resource needs >= 1 slot, got {slots}")
        self.env = env
        self.slots = slots
        self._in_use = 0
        #: Waiting acquirers: events from :meth:`acquire`, callbacks
        #: from :meth:`acquire_then`.
        self._waiters: Deque[Union[Event, Callable[[Any], None]]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held.

        A waiter that abandons the wait (it was interrupted) is removed
        from the queue -- and if a slot was already handed to it in the
        same instant, the slot is released again -- so ``in_use`` credits
        can never leak to processes that will never run.
        """
        event = self.env.event()
        if self._in_use < self.slots:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        event.on_abandon = self._cancel_acquire
        return event

    def acquire_then(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(None)`` once a slot is held.

        The callback form of :meth:`acquire`: the grant runs through
        ``env._call_soon`` in the slot the returned event's dispatch
        would take -- at once when a slot is free, else when the
        release that hands this waiter its slot arrives.
        """
        if self._in_use < self.slots:
            self._in_use += 1
            self.env._call_soon(fn, None)
        else:
            self._waiters.append(fn)

    def try_acquire(self) -> bool:
        """Non-blocking acquire: take a free slot now, or return False.

        Callback chains use it to take an uncontended slot without a
        kernel round trip; a False answer means queue with
        :meth:`acquire` as usual.
        """
        if self._in_use < self.slots:
            self._in_use += 1
            return True
        return False

    def _cancel_acquire(self, event: Event) -> None:
        try:
            self._waiters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered and event.ok:
            # The slot was granted (at acquire time or via a release
            # handoff) but its owner was interrupted before resuming;
            # pass it on so the credit is not permanently leaked.
            self.release()

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            # Hand the slot directly to the oldest waiter.
            waiter = self._waiters.popleft()
            if isinstance(waiter, Event):
                waiter.succeed()
            else:
                self.env._call_soon(waiter, None)
        else:
            self._in_use -= 1
