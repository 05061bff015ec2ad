"""Layer spans recorded from outside the program.

The benchmark wraps public methods on instances it built (a cache, a
router, a tenant tier, a FASTER store and its device) and records one
span per call, in simulated time, into a :class:`repro.obs.Tracer`.
Nothing inside ``src/`` opens a span.

Parent links come from the kernel monitor hooks: a process spawned
while a wrapped call runs works for that call's span, and so does every
process it spawns in turn.  A wrapped call made from such a process is
that span's child.  Wrappers only read the clock, attach an event
callback or ``yield from`` the wrapped generator; they never spawn a
process, so a traced run is the same simulation as an untraced one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.analysis.hb import KernelMonitor
from repro.obs.tracing import Span, Tracer

#: Layer entry spans the self-time metrics are reported for.
SELF_TIME_LAYERS = ("tenant", "shard", "core", "faster")


class SpanRecorder(KernelMonitor):
    """Kernel monitor plus method wrappers that record layer spans.

    Recording starts with :meth:`start` (the end of the warmup), so
    only the measured window is kept; ``max_spans`` must hold all of it.
    """

    def __init__(self, env, max_spans: int):
        self.env = env
        self.tracer = Tracer(env, max_spans=max_spans)
        self.active = False
        #: id(process) -> span the process works for (None: no span).
        self._ctx: Dict[int, Optional[Span]] = {}
        self._current: Optional[int] = None
        #: Span of the wrapped call now running synchronously, if any.
        self._calling: Optional[Span] = None
        env.monitor = self

    def start(self) -> None:
        self.active = True

    # -- kernel monitor hooks ------------------------------------------

    def on_spawn(self, process) -> None:
        self._ctx[id(process)] = self._parent()

    def on_resume(self, process, event) -> None:
        self._current = id(process)

    def on_step(self, process) -> None:
        self._current = id(process)

    # -- wrappers ------------------------------------------------------

    def _parent(self) -> Optional[Span]:
        if self._calling is not None:
            return self._calling
        return self._ctx.get(self._current)

    def wrap_event_call(self, obj, method: str, span_name: str) -> None:
        """Replace ``obj.method`` (which returns an Event) with a
        version that records a span from the call to the event."""
        original = getattr(obj, method)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            span = recorder.tracer.span(span_name, recorder._parent())
            outer, recorder._calling = recorder._calling, span
            try:
                event = original(*args, **kwargs)
            finally:
                recorder._calling = outer
            if event.triggered:
                # Completed inside the call (e.g. an admission shed).
                span.finish()
            else:
                event._add_callback(lambda _event: span.finish())
            return event

        setattr(obj, method, traced)

    def wrap_generator_call(self, obj, method: str, span_name: str) -> None:
        """Replace ``obj.method`` (a generator run with ``yield from``)
        with a version that records a span around it."""
        original = getattr(obj, method)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return (yield from original(*args, **kwargs))
            process = recorder._current
            span = recorder.tracer.span(span_name, recorder._parent())
            outer = recorder._ctx.get(process)
            recorder._ctx[process] = span
            try:
                return (yield from original(*args, **kwargs))
            finally:
                recorder._ctx[process] = outer
                span.finish()

        setattr(obj, method, traced)

    # -- results -------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return self.tracer.spans

    def durations_us(self, name: str) -> List[float]:
        return [span.duration * 1e6 for span in self.tracer.spans
                if span.name == name]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times_us(spans: List[Span]) -> Dict[str, List[float]]:
    """Self time of each layer entry span, grouped by layer.

    A layer entry is a span whose parent belongs to another layer (or
    that has none).  Its self time is its duration minus the part of it
    covered by the entries of other layers nested under it; spans of
    the same layer nested under it (a device read under a FASTER read)
    count as its own time.
    """
    by_id = {span.span_id: span for span in spans}
    entry_of: Dict[int, Span] = {}
    covered: Dict[int, List[tuple]] = {}

    def entry(span: Span) -> Span:
        found = entry_of.get(span.span_id)
        if found is None:
            parent = by_id.get(span.parent_id)
            if parent is not None and layer_of(parent.name) == layer_of(
                    span.name):
                found = entry(parent)
            else:
                found = span
            entry_of[span.span_id] = found
        return found

    for span in spans:
        mine = entry(span)
        parent = by_id.get(span.parent_id)
        if mine is span and parent is not None:
            covered.setdefault(entry(parent).span_id, []).append(
                (span.start, span.end))

    out: Dict[str, List[float]] = {layer: [] for layer in SELF_TIME_LAYERS}
    for span in spans:
        layer = layer_of(span.name)
        if entry(span) is not span or layer not in out:
            continue
        busy = 0.0
        reach = span.start
        for lo, hi in sorted(covered.get(span.span_id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                busy += hi - lo
                reach = hi
        out[layer].append((span.end - span.start - busy) * 1e6)
    return out


def write_chrome_trace(spans: List[Span], path: str) -> None:
    """Chrome trace-event JSON, timestamps in simulated microseconds.

    Spans of one request share a ``tid`` (the id of the request's root
    span), so a trace viewer shows each request on its own row.
    """
    by_id = {span.span_id: span for span in spans}
    roots: Dict[int, int] = {}

    def root(span: Span) -> int:
        found = roots.get(span.span_id)
        if found is None:
            parent = by_id.get(span.parent_id)
            found = span.span_id if parent is None else root(parent)
            roots[span.span_id] = found
        return found

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as out:
        out.write('{"displayTimeUnit": "ns", "traceEvents": [\n')
        for index, span in enumerate(spans):
            event = {"name": span.name, "cat": layer_of(span.name),
                     "ph": "X", "ts": span.start * 1e6,
                     "dur": (span.end - span.start) * 1e6,
                     "pid": 1, "tid": root(span),
                     "args": {"id": span.span_id,
                              "parent": span.parent_id}}
            out.write(("," if index else "") + json.dumps(event) + "\n")
        out.write("]}\n")
