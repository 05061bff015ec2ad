"""A bounded FIFO ring buffer with occupancy counters.

Nothing in the simulator uses it: the cache engine models Figure 6's
batch ring and message ring as simulation ``Store`` queues
(:mod:`repro.core.engine`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator

__all__ = ["RingBuffer", "RingFull"]


class RingFull(Exception):
    """push() on a full ring."""


class RingBuffer:
    """A bounded FIFO ring with explicit full/empty states.

    The message-ring size doubles as the connection's queue depth: Redy
    controls the number of in-flight RDMA operations "by the message ring
    size" (§4.3, *Fully-loaded Queue Pairs*).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: Deque[Any] = deque()
        #: Lifetime counters, exposed for occupancy statistics.
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._slots)

    @property
    def is_empty(self) -> bool:
        return not self._slots

    @property
    def is_full(self) -> bool:
        return len(self._slots) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._slots)

    def push(self, item: Any) -> None:
        """Append ``item``; raises :class:`RingFull` when at capacity."""
        if self.is_full:
            raise RingFull(f"ring at capacity {self.capacity}")
        self._slots.append(item)
        self.total_pushed += 1

    def try_push(self, item: Any) -> bool:
        """Append if space is available; returns success."""
        if self.is_full:
            return False
        self.push(item)
        return True

    def pop(self) -> Any:
        """Remove and return the oldest item; raises IndexError when empty."""
        item = self._slots.popleft()
        self.total_popped += 1
        return item

    def try_pop(self) -> tuple[bool, Any]:
        """(ok, item) without raising."""
        if self.is_empty:
            return False, None
        return True, self.pop()

    def peek(self) -> Any:
        """Return the oldest item without removing it."""
        return self._slots[0]

    def drain(self) -> list[Any]:
        """Remove and return everything, oldest first."""
        items = list(self._slots)
        self.total_popped += len(items)
        self._slots.clear()
        return items
