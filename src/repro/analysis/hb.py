"""Happens-before race detection for the simulation kernel.

The kernel executes strictly sequentially, so "race" here means a
*logical* one: two sim processes touch the same shared object with no
happens-before path between the accesses, which means an unrelated
schedule perturbation (a new timeout, an extra RNG draw, a different
heap tie-break) can legally reorder them and change the result.  These
are exactly the bugs PR 1 fixed by hand; the detector finds them
mechanically.

Vector clocks are built from the kernel's own synchronization edges,
delivered through the :class:`KernelMonitor` hook protocol the kernel
calls when ``Environment.monitor`` is set:

* **spawn** -- ``env.process(...)`` orders the child after its creator;
* **trigger -> resume** -- ``Event.succeed()/fail()`` stamps the
  triggering process's clock on the event, and every process resuming
  from that event joins it.  Joins (``yield other_process``), Store
  put/get hand-offs, and Resource acquire/release hand-offs are all
  event deliveries, so this one edge covers them.  Timeouts are
  triggered *at creation* (``env.timeout(d)`` is born succeeded, like
  SimPy's), so their ``on_trigger`` edge carries the clock of the
  process that *scheduled* the delay, ordering the waiter after the
  scheduler -- the kernel stamps this for every timeout, including the
  ones its combinators (AllOf/AnyOf) and hedge paths create;
* **interrupt** -- ``Process.interrupt()`` orders the throw after the
  interrupter.

Shared state is registered through the lightweight :meth:`RaceDetector.
track` shim, which wraps an object so reads and writes are recorded
with the accessing process's clock.  An access pair on the same field,
from different processes, with at least one write and neither clock
dominating the other, is reported as a :class:`RaceFinding`.

Usage::

    env = Environment()
    detector = RaceDetector(env)          # sets env.monitor
    slots = detector.track("free_slots", {})
    ... build and run the workload ...
    assert not detector.races
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.report import Finding

__all__ = ["KernelMonitor", "RaceDetector", "RaceFinding", "Tracked"]


def _leq(earlier: Dict[int, int], later: Dict[int, int]) -> bool:
    """Vector-clock ordering: does ``earlier`` happen-before ``later``?"""
    for pid, tick in earlier.items():
        if tick > later.get(pid, 0):
            return False
    return True


def _join(into: Dict[int, int], other: Dict[int, int]) -> None:
    for pid, tick in other.items():
        if tick > into.get(pid, 0):
            into[pid] = tick


class KernelMonitor:
    """Hook protocol the kernel drives when ``Environment.monitor`` is set.

    The base class is a no-op so subclasses implement only the edges
    they care about; both :class:`RaceDetector` and the replay
    sanitizer's trace recorder derive from it.
    """

    def on_spawn(self, process: Any) -> None:
        """A Process was created (the creator is the current context)."""

    def on_resume(self, process: Any, event: Any) -> None:
        """``process`` is about to resume with ``event``'s outcome."""

    def on_step(self, process: Any) -> None:
        """``process`` is about to run without an event delivery
        (bootstrap, interrupt throw, or failure propagation)."""

    def on_trigger(self, event: Any) -> None:
        """The current context triggered ``event`` (succeed or fail)."""

    def on_interrupt(self, process: Any) -> None:
        """The current context called ``process.interrupt()``."""

    def on_call(self, env: Any, fn: Any) -> None:
        """The current context armed ``fn`` with ``env.call_at``."""


class _Context:
    """Clock state for one sim process (or the top-level root driver)."""

    __slots__ = ("pid", "name", "clock")

    def __init__(self, pid: int, name: str, clock: Dict[int, int]):
        self.pid = pid
        self.name = name
        self.clock = clock


@dataclass(frozen=True)
class _Access:
    """One read or write of a tracked field."""

    pid: int
    process: str
    kind: str  # "read" | "write"
    clock: Tuple[Tuple[int, int], ...]
    site: str  # "file:line"
    time: float

    def to_dict(self) -> Dict[str, Any]:
        return {"pid": self.pid, "process": self.process, "kind": self.kind,
                "site": self.site, "time": self.time}


@dataclass(frozen=True)
class RaceFinding:
    """Two concurrent (happens-before-unordered) accesses, one a write."""

    name: str
    field: str
    first: _Access
    second: _Access

    @property
    def message(self) -> str:
        where = self.name if not self.field else f"{self.name}[{self.field}]"
        return (f"unsynchronized {self.first.kind} ({self.first.process} at "
                f"{self.first.site}) and {self.second.kind} "
                f"({self.second.process} at {self.second.site}) on {where}")

    def to_finding(self) -> Finding:
        path, _, line = self.second.site.rpartition(":")
        return Finding(
            rule="RACE", severity="error", path=path or self.second.site,
            line=int(line) if line.isdigit() else 0, col=0,
            message=self.message,
            hint="order the accesses through a kernel primitive (Event, "
                 "Store hand-off, or Resource held across the section)",
            detail={"object": self.name, "field": self.field,
                    "first": self.first.to_dict(),
                    "second": self.second.to_dict()})


class _Cell:
    """Per-field access history: the last write plus reads since it."""

    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: Optional[_Access] = None
        self.reads: List[_Access] = []


class Tracked:
    """A shared object whose reads/writes the detector observes.

    Scalar protocol: ``value = shared.read(); shared.write(value + 1)``.
    Mapping protocol (fields tracked independently): ``shared[k]``,
    ``shared[k] = v``, ``del shared[k]``, ``k in shared``, ``len``,
    ``shared.get(k)``.  Iteration is deliberately unsupported -- iterate
    a ``sorted()`` copy taken via :meth:`read`.
    """

    __slots__ = ("_detector", "_name", "_obj")

    def __init__(self, detector: "RaceDetector", name: str, obj: Any):
        self._detector = detector
        self._name = name
        self._obj = obj

    # -- scalar protocol ---------------------------------------------------

    def read(self, field: str = "") -> Any:
        self._detector._record(self._name, field, "read")
        return self._obj

    def write(self, value: Any, field: str = "") -> Any:
        self._detector._record(self._name, field, "write")
        self._obj = value
        return value

    # -- mapping protocol --------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        self._detector._record(self._name, str(key), "read")
        return self._obj[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._detector._record(self._name, str(key), "write")
        self._obj[key] = value

    def __delitem__(self, key: Any) -> None:
        self._detector._record(self._name, str(key), "write")
        del self._obj[key]

    def get(self, key: Any, default: Any = None) -> Any:
        self._detector._record(self._name, str(key), "read")
        return self._obj.get(key, default)

    def __contains__(self, key: Any) -> bool:
        self._detector._record(self._name, str(key), "read")
        return key in self._obj

    def __len__(self) -> int:
        self._detector._record(self._name, "", "read")
        return len(self._obj)

    def __repr__(self) -> str:
        return f"<Tracked {self._name!r} {self._obj!r}>"


class RaceDetector(KernelMonitor):
    """Vector-clock happens-before race detector over one Environment."""

    def __init__(self, env: Any = None):
        self.races: List[RaceFinding] = []
        self._env = None
        self._root = _Context(0, "<root>", {0: 1})
        self._current = self._root
        self._contexts: Dict[Any, _Context] = {}
        self._next_pid = 1
        self._pending_interrupts: Dict[Any, Dict[int, int]] = {}
        self._cells: Dict[Tuple[str, str], _Cell] = {}
        self._seen: set = set()
        if env is not None:
            self.attach(env)

    def attach(self, env: Any) -> "RaceDetector":
        """Install as ``env.monitor``; do this before building the
        workload so every process spawn is observed."""
        env.monitor = self
        self._env = env
        return self

    def track(self, name: str, obj: Any) -> Tracked:
        """Register ``obj`` as shared state; returns the tracking shim."""
        return Tracked(self, name, obj)

    def findings(self) -> List[Finding]:
        return [race.to_finding() for race in self.races]

    # -- kernel hooks ------------------------------------------------------

    def _context(self, process: Any) -> _Context:
        ctx = self._contexts.get(process)
        if ctx is None:
            # Unseen process (spawned before attach): conservatively
            # inherit the current clock, which can only mask races, not
            # invent them.
            ctx = _Context(self._next_pid, getattr(process, "name", "?"),
                           dict(self._current.clock))
            ctx.clock[ctx.pid] = 1
            self._next_pid += 1
            self._contexts[process] = ctx
        return ctx

    def on_spawn(self, process: Any) -> None:
        parent = self._current
        parent.clock[parent.pid] = parent.clock.get(parent.pid, 0) + 1
        self._context(process)  # inherits the (just-incremented) clock

    def on_trigger(self, event: Any) -> None:
        cur = self._current
        cur.clock[cur.pid] = cur.clock.get(cur.pid, 0) + 1
        stamp = dict(cur.clock)
        previous = getattr(event, "_hb", None)
        if previous:
            _join(stamp, previous)
        event._hb = stamp

    def on_resume(self, process: Any, event: Any) -> None:
        ctx = self._context(process)
        stamp = getattr(event, "_hb", None)
        if stamp:
            _join(ctx.clock, stamp)
        ctx.clock[ctx.pid] += 1
        self._current = ctx

    def on_step(self, process: Any) -> None:
        ctx = self._context(process)
        pending = self._pending_interrupts.pop(process, None)
        if pending:
            _join(ctx.clock, pending)
        ctx.clock[ctx.pid] += 1
        self._current = ctx

    def on_interrupt(self, process: Any) -> None:
        cur = self._current
        cur.clock[cur.pid] = cur.clock.get(cur.pid, 0) + 1
        stamp = self._pending_interrupts.get(process)
        if stamp is None:
            self._pending_interrupts[process] = dict(cur.clock)
        else:
            _join(stamp, cur.clock)

    # -- access recording --------------------------------------------------

    def _record(self, name: str, field: str, kind: str) -> None:
        cur = self._current
        access = _Access(
            pid=cur.pid, process=cur.name, kind=kind,
            clock=tuple(sorted(cur.clock.items())),
            site=_caller_site(),
            time=self._env.now if self._env is not None else 0.0)
        cell = self._cells.setdefault((name, field), _Cell())
        if kind == "write":
            self._check(name, field, cell.last_write, access)
            for read in cell.reads:
                self._check(name, field, read, access)
            cell.last_write = access
            cell.reads = []
        else:
            self._check(name, field, cell.last_write, access)
            cell.reads.append(access)

    def _check(self, name: str, field: str,
               earlier: Optional[_Access], later: _Access) -> None:
        if earlier is None or earlier.pid == later.pid:
            return
        if _leq(dict(earlier.clock), dict(later.clock)):
            return
        key = (name, field, earlier.site, later.site,
               earlier.kind, later.kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(RaceFinding(name=name, field=field,
                                      first=earlier, second=later))


def _caller_site() -> str:
    """``file:line`` of the first frame outside this module."""
    frame: Optional[FrameType] = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"
