"""Queue pairs: reliable connected RDMA with bounded in-flight operations.

A :class:`QueuePair` executes one-sided work requests against its remote
endpoint.  It enforces the NIC's queue-depth bound (``max_depth``
in-flight operations -- the ``q`` variable of Table 2), delivers
completions in post order, and turns remote failures (revoked regions,
dead endpoints) into error completions rather than exceptions, matching
how RDMA surfaces transport errors through the completion queue.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.net.fabric import Endpoint
from repro.net.memory import AccessToken, MemoryRegion, RdmaAccessError
from repro.net.programs import (
    CAS_WORD_BYTES,
    StepOp,
    StepResult,
    VerbProgram,
    resolve_offset,
)
from repro.net.verbs import Completion, RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event

__all__ = ["QueuePair", "QueuePairError"]

#: Wire bytes of a READ request / WRITE acknowledgement (header-only).
CONTROL_MESSAGE_BYTES = 0

#: Where a work request's completion goes: the event :meth:`QueuePair.
#: post` returned, or the callback given to :meth:`QueuePair.post_then`.
_Sink = Union[Event, Callable[[Completion], None]]


class QueuePairError(Exception):
    """Raised for QP misuse (e.g. posting on a disconnected QP)."""


class QueuePair:
    """A reliable connection between two endpoints.

    By default a QP is born established -- the historical model, where
    connection setup is free and amortized away (long-lived clients).
    ``deferred=True`` creates the QP *unconnected*: it must go through
    :meth:`establish` (QP create + state transitions + out-of-band
    handshake RTTs, all charged in simulated time) before the first
    verb launches.  A post on an unestablished QP queues in the backlog
    and triggers establishment lazily -- first use connects, which is
    what ``repro.cplane``'s pooled-lazy strategy builds on.
    """

    def __init__(self, env: Environment, local: Endpoint, remote: Endpoint,
                 max_depth: int, deferred: bool = False):
        if max_depth < 1:
            raise QueuePairError(f"max_depth must be >= 1, got {max_depth}")
        nic_limit = local.fabric.profile.nic.max_queue_depth
        if max_depth > nic_limit:
            raise QueuePairError(
                f"max_depth {max_depth} exceeds NIC limit {nic_limit}")
        self.env = env
        self.local = local
        self.remote = remote
        self.max_depth = max_depth
        #: Per-run id: the key NIC context caches and the cplane event
        #: log identify this QP by.
        self.qp_id = local.fabric.issue_qp_id()
        self._in_flight = 0
        self._wr_seq = 0
        self._backlog: Deque[tuple[WorkRequest, _Sink]] = deque()
        #: Completions pending in-order delivery, keyed by arrival.
        self._connected = True
        #: Whether the connection handshake has completed.  Established
        #: immediately unless ``deferred``.
        self._established = not deferred
        self._establishing: Optional[Event] = None
        #: Simulated instant establishment completed (None = never).
        self.established_at: Optional[float] = env.now if not deferred else None
        #: Fast-teardown flag: a reclaimed QP is gone from its
        #: endpoints' registries and can never be re-established.
        self.reclaimed = False
        #: Transient error state (RDMA "QP in error"): posts flush with
        #: error completions instead of raising, until :meth:`reconnect`.
        self._error_state: Optional[str] = None
        # Register on both endpoints so a link fault on either side can
        # find and flush every QP touching it (see repro.faults).
        local.qps.append(self)
        remote.qps.append(self)
        metrics = registry_of(env)
        if metrics is not None:
            self._wire_latency = metrics.histogram("qp.wire_latency")
            self._ops_posted = metrics.counter("qp.ops_posted")
            self._error_completions = metrics.counter("qp.error_completions")
            self._backlog_depth = metrics.gauge("qp.backlog_depth")
            self._programs_posted = metrics.counter("qp.programs_posted")
            self._program_steps = metrics.counter("qp.program_steps")
            self._program_cas_aborts = metrics.counter(
                "qp.program_cas_aborts")
            self._context_misses = metrics.counter("qp.context_misses")
            self._establishments = metrics.counter("qp.establishments")
            self._establish_latency = metrics.histogram(
                "qp.establish_latency")
        else:
            self._wire_latency = None
            self._ops_posted = None
            self._error_completions = None
            self._backlog_depth = None
            self._programs_posted = None
            self._program_steps = None
            self._program_cas_aborts = None
            self._context_misses = None
            self._establishments = None
            self._establish_latency = None

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def backlog_length(self) -> int:
        return len(self._backlog)

    @property
    def established(self) -> bool:
        return self._established

    def establish(self, batched: bool = False) -> Event:
        """Connect a deferred QP; returns an event firing with True on
        success (False when the handshake failed).

        Charges the full control-plane bill: QP create + the RESET->
        INIT->RTR->RTS transitions through the NIC command interface,
        then ``connect_handshake_rtts`` out-of-band round trips across
        the fabric.  ``batched=True`` applies the shared command-queue
        doorbell discount to the create/modify portion (Swift-style
        batched connect); the handshake RTTs are per-connection either
        way.  Idempotent: an established QP answers immediately, a
        mid-handshake QP returns the in-progress event.
        """
        if self.reclaimed:
            raise QueuePairError("establish() on a reclaimed queue pair")
        env = self.env
        if self._established:
            done = env.event()
            done.succeed(True)
            return done
        if self._establishing is not None:
            return self._establishing
        self._establishing = env.event()
        env.process(
            self._establish_process(batched),
            name=f"qp-establish:{self.local.name}->{self.remote.name}"
                 f":{self.qp_id}")
        return self._establishing

    def _establish_process(self, batched: bool):
        local, remote = self.local, self.remote
        fabric = local.fabric
        nic = fabric.profile.nic
        env = self.env
        started = env.now
        # CREATE_QP + MODIFY_QP transitions through the command queue.
        yield env.timeout(nic.qp_setup_cpu_latency(batched))
        ok = local.alive
        # Out-of-band CM handshake: REQ/REP (+RTU) round trips.
        for _ in range(nic.connect_handshake_rtts):
            if not (local.alive and remote.alive):
                ok = False
                break
            yield from fabric.transmit(local, remote,
                                       nic.connect_message_bytes)
            if not remote.alive:
                ok = False
                break
            yield from fabric.transmit(remote, local,
                                       nic.connect_message_bytes)
        self._established = True
        event, self._establishing = self._establishing, None
        if ok:
            self.established_at = env.now
            # The fresh contexts are resident on both NICs.
            if local.qp_context_cache is not None:
                local.qp_context_cache.touch(self.qp_id)
            if remote.qp_context_cache is not None:
                remote.qp_context_cache.touch(self.qp_id)
            if self._establishments is not None:
                self._establishments.inc()
                self._establish_latency.observe(env.now - started)
            self._drain_backlog()
        else:
            # Handshake failed: the QP lands in the error state, like a
            # REQ that times out; queued posts flush with errors.
            self.inject_error("connect failed: endpoint down")
        if event is not None:
            event.succeed(ok)

    def reclaim(self) -> None:
        """Fast teardown: destroy the QP and release its NIC state.

        Queued-but-unsent requests flush with error completions (as in
        :meth:`inject_error` -- late posters get completion-with-error,
        never an exception, because pooled callers may race a harvest);
        the QP is removed from both endpoints' registries and its
        context evicted from the NIC caches.  This is the reclaim path
        idle harvesting and storm teardown drive, and the fix for the
        historical leak where every QP ever created stayed registered
        on both endpoints forever.
        """
        if self.reclaimed:
            return
        self.reclaimed = True
        self._error_state = "queue pair reclaimed"
        self._flush_backlog(self._error_state)
        self.local.drop_qp(self)
        self.remote.drop_qp(self)

    def disconnect(self) -> None:
        """Tear the QP down; queued-but-unsent requests fail immediately.

        Operations already launched keep running (their wire traffic is
        committed) and deliver their completions normally; only the
        unsent backlog is failed here.
        """
        self._connected = False
        self._flush_backlog("queue pair disconnected")

    def _flush_backlog(self, reason: str) -> None:
        while self._backlog:
            wr, sink = self._backlog.popleft()
            completion = self._error_completion(wr, reason)
            if self._error_completions is not None:
                self._error_completions.inc()
            self._settle_later(sink, completion)
        if self._backlog_depth is not None:
            self._backlog_depth.set(0)

    @property
    def in_error(self) -> bool:
        return self._error_state is not None

    def inject_error(self, reason: str = "queue pair in error state") -> None:
        """Put the QP into the RDMA *error* state (link fault, remote
        QP teardown).

        The unsent backlog flushes with error completions now, and every
        later :meth:`post` completes-with-error immediately -- how real
        RC QPs surface a broken connection through the completion queue
        -- until :meth:`reconnect` re-establishes the connection.
        Operations already on the wire keep running; if the fault also
        killed the remote endpoint they error there.
        """
        self._error_state = reason
        self._flush_backlog(reason)

    def reconnect(self) -> None:
        """Leave the error state (connection re-established).

        Mirrors the QP recycle a host does after a transport error:
        both endpoints must still be alive, and the QP must not have
        been deliberately torn down with :meth:`disconnect`.
        """
        if not self._connected:
            raise QueuePairError("reconnect() on a disconnected queue pair")
        if not (self.local.alive and self.remote.alive):
            raise QueuePairError("reconnect() with a dead endpoint")
        self._error_state = None

    def post(self, wr: WorkRequest) -> Event:
        """Post a work request; returns an event that fires with its
        :class:`Completion`.

        If ``max_depth`` operations are already in flight the request
        waits in the send queue (FIFO), exactly the behaviour the
        fully-loaded-QP optimization (§4.3) tunes around.
        """
        completion_event = self.env.event()
        self._submit(wr, completion_event)
        return completion_event

    def post_then(self, wr: WorkRequest,
                  then: Callable[[Completion], None]) -> None:
        """Post a work request and call ``then`` with its completion.

        The callback form of :meth:`post`: a verb that completes on the
        wire calls ``then`` inside its landing's kernel entry, saving
        the event hop.  A completion produced at post or flush time (an
        errored, disconnected or reclaimed QP) is still delivered on a
        later kernel step, in the order :meth:`post`'s event would fire.
        """
        self._submit(wr, then)

    def _submit(self, wr: WorkRequest, sink: _Sink) -> None:
        if not self._connected:
            raise QueuePairError("post() on a disconnected queue pair")
        env = self.env
        wr.posted_at = env.now
        self._wr_seq += 1
        wr.wr_id = self._wr_seq
        if self._ops_posted is not None:
            self._ops_posted.inc()
        if self._error_state is not None:
            # Completion-with-error flush: the post is accepted (callers
            # keep their completion-driven control flow) but fails on the
            # next kernel step, like a work request hitting an errored QP.
            if self._error_completions is not None:
                self._error_completions.inc()
            self._settle_later(
                sink, self._error_completion(wr, self._error_state))
        elif not self._established:
            # Lazy connect: the first use of a deferred QP triggers
            # establishment; the request waits in the send queue until
            # the handshake completes.
            self._backlog.append((wr, sink))
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))
            self.establish()
        elif self._in_flight < self.max_depth:
            self._launch(wr, sink)
        else:
            self._backlog.append((wr, sink))
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))

    def _settle_later(self, sink: _Sink, completion: Completion) -> None:
        """Deliver a completion produced outside the wire pipeline on the
        next kernel step (an event's own dispatch, or a queued call)."""
        if isinstance(sink, Event):
            sink.succeed(completion)
        else:
            self.env._call_soon(sink, completion)

    def _drain_backlog(self) -> None:
        """Launch queued requests up to the depth bound (post-establish)."""
        while (self._backlog and self._connected
               and self._error_state is None
               and self._in_flight < self.max_depth):
            wr, sink = self._backlog.popleft()
            self._launch(wr, sink)
        if self._backlog_depth is not None:
            self._backlog_depth.set(len(self._backlog))

    def post_program(self, program: VerbProgram, token: AccessToken,
                     context: object = None,
                     payload_object: object = None) -> Event:
        """Post a chained verb program as one work request.

        The whole chain travels in one descriptor message, executes at
        the remote NIC, and answers with one completion -- partial if a
        step faulted or a CAS guard aborted the chain (see
        :mod:`repro.net.programs`).  ``payload_object`` is delivered to
        the target region's mailbox if the program lands any WRITE step
        (batch correlation for ring-style submissions).
        """
        wr = WorkRequest(
            RdmaOp.PROGRAM, token, 0, program.request_wire_bytes,
            context=context, payload_object=payload_object, program=program)
        return self.post(wr)

    def post_many(self, wrs: Sequence[WorkRequest]) -> List[Event]:
        """Doorbell-batched submission of several work requests.

        One MMIO doorbell and one WQE-ring fetch cover the batch: the
        first request pays the full per-message processing charge, every
        follower the discounted one (``NicSpec.doorbell_batch_discount``).
        Completions stay per-request, in post order, each carrying its
        own ``context`` -- batch correlation survives the shared
        doorbell.
        """
        events: List[Event] = []
        for index, wr in enumerate(wrs):
            if index:
                wr.doorbell_batched = True
            events.append(self.post(wr))
        return events

    def _context_penalty(self, endpoint: Endpoint) -> float:
        """Touch ``endpoint``'s NIC QP-context cache for this QP.

        Returns the extra service time (0.0 on a hit or when the
        endpoint does not model context pressure).  With control-plane
        modeling on, every verb pays this on both NICs -- the per-QP
        state pressure that makes huge naive QP counts slow even after
        all connections are established.
        """
        cache = endpoint.qp_context_cache
        if cache is None or cache.touch(self.qp_id):
            return 0.0
        if self._context_misses is not None:
            self._context_misses.inc()
        return endpoint.fabric.profile.nic.qp_context_miss_penalty

    def _launch(self, wr: WorkRequest, sink: _Sink) -> None:
        self._in_flight += 1
        _Verb(self, wr, sink)

    def _finish(self, wr: WorkRequest, sink: _Sink,
                completion: Completion) -> None:
        self._in_flight -= 1
        if self._backlog and self._connected:
            next_wr, next_sink = self._backlog.popleft()
            if self._backlog_depth is not None:
                self._backlog_depth.set(len(self._backlog))
            self._launch(next_wr, next_sink)
        completion.completed_at = self.env.now
        if self._wire_latency is not None:
            self._wire_latency.observe(self.env.now - wr.posted_at)
            if not completion.ok:
                self._error_completions.inc()
        if isinstance(sink, Event):
            sink.succeed(completion)
        else:
            sink(completion)

    def _error_completion(self, wr: WorkRequest, error: str) -> Completion:
        return Completion(wr_id=wr.wr_id, op=wr.op, ok=False, error=error,
                          context=wr.context, completed_at=self.env.now)


class _Verb:
    """One work request's life on the wire (DESIGN.md §4 budget, §5m).

    Every verb kind runs through the same callback pipeline, one kernel
    entry per timed stage:

    1. *post* -- requester NIC processing (plus the DMA fetch of a
       non-inline WRITE payload or program operands);
    2. *request* -- reserve the requester's tx link; the request lands
       at the responder in one entry (:meth:`Fabric.send`);
    3. *arrive* -- responder checks (endpoint alive, region found,
       program support), then the responder's service time;
    4. *serve* -- memory effects, then reserve the responder's tx link;
       the response lands (plus the requester's receive DMA) in one
       entry;
    5. *land* -- complete the work request.

    READ and WRITE take one extra entry between 3 and 4 when the
    responder's QP context missed its NIC cache.  Every stage fires at
    the float that one relative timeout per cost term, chained, reaches.
    """

    __slots__ = ("qp", "wr", "sink", "region", "data", "completion")

    def __init__(self, qp: QueuePair, wr: WorkRequest, sink: _Sink):
        self.qp = qp
        self.wr = wr
        self.sink = sink
        self.region: Optional[MemoryRegion] = None
        self.data: Optional[bytes] = None
        self.completion: Optional[Completion] = None
        env = qp.env
        local = qp.local
        if not local.alive:
            # A dead requester posts nothing: its NIC is gone.  The
            # error completes on a later step, in post order.
            env.timeout_at(env.now).callbacks = [self._local_down]
            return
        nic = local.fabric.profile.nic
        # NIC work-request processing on the requester.  Followers of a
        # doorbell batch amortize the MMIO + WQE-ring fetch.
        per_message = nic.per_message_processing
        if wr.doorbell_batched:
            per_message *= nic.doorbell_batch_discount
        penalty = qp._context_penalty(local)
        if penalty:
            per_message += penalty
        when = env.now + per_message
        # Payload acquisition: inline rides in the WQE; otherwise the
        # NIC fetches it from host memory over PCIe.  This asymmetry is
        # why small writes beat small reads in Figure 11.
        if wr.op is RdmaOp.WRITE:
            if not nic.can_inline(wr.payload_bytes):
                when = when + nic.dma_fetch(wr.payload_bytes)
        elif wr.op is RdmaOp.PROGRAM:
            if qp._programs_posted is not None:
                qp._programs_posted.inc()
            write_bytes = wr.program.write_payload_bytes
            if write_bytes and not nic.can_inline(write_bytes):
                when = when + nic.dma_fetch(write_bytes)
        env.timeout_at(when).callbacks = [self._request]

    def _fail(self, error: str) -> None:
        qp = self.qp
        qp._finish(self.wr, self.sink, qp._error_completion(self.wr, error))

    def _local_down(self, _event: Event) -> None:
        self._fail("local endpoint down")

    def _request(self, _event: Event) -> None:
        qp = self.qp
        wr = self.wr
        op = wr.op
        if op is RdmaOp.READ:
            request_bytes = CONTROL_MESSAGE_BYTES
        elif op is RdmaOp.WRITE:
            request_bytes = wr.payload_bytes
        elif op is RdmaOp.CAS:
            # Both operands ride inline in the work request.
            request_bytes = 2 * CAS_WORD_BYTES
        else:
            # Descriptor amortization: when the responder already has
            # this program *shape* installed (any earlier connection
            # posted it), the request carries a compact shape reference
            # plus operands instead of the full per-step descriptors.
            program = wr.program
            request_bytes = program.request_wire_bytes
            shapes = qp.remote.program_shapes
            if shapes is not None and shapes.install(program.shape_key):
                request_bytes = program.cached_request_wire_bytes
        qp.local.fabric.send(qp.local, qp.remote, request_bytes, self._arrive)

    def _arrive(self, _event: Event) -> None:
        qp = self.qp
        wr = self.wr
        remote = qp.remote
        if not remote.alive:
            self._fail("remote endpoint down")
            return
        op = wr.op
        if op is RdmaOp.PROGRAM:
            if not remote.supports_programs:
                self._fail(f"{remote.name} does not support verb programs")
                return
            self._run_program()
            return
        if op is RdmaOp.CAS:
            if self._find_region() is not None:
                nic = remote.fabric.profile.nic
                qp.env.timeout(
                    nic.program_step_latency + nic.dma_fetch(CAS_WORD_BYTES)
                    + qp._context_penalty(remote)).callbacks = [
                        self._serve_cas]
            return
        # Responder NIC looks up this QP's connection context too.
        penalty = qp._context_penalty(remote)
        if penalty:
            qp.env.timeout(penalty).callbacks = [self._respond]
        else:
            self._respond(None)

    def _find_region(self) -> Optional[MemoryRegion]:
        region_id = self.wr.token.region_id
        region = self.qp.remote.find_region(region_id)
        if region is None:
            self._fail(f"no region {region_id} at {self.qp.remote.name}")
        self.region = region
        return region

    def _respond(self, _event: Optional[Event]) -> None:
        if self._find_region() is None:
            return
        wr = self.wr
        nic = self.qp.remote.fabric.profile.nic
        # WRITE: the payload lands in host memory; READ: the responder
        # NIC pulls the payload from host memory.
        service = (nic.rx_dma if wr.op is RdmaOp.WRITE
                   else nic.dma_fetch(wr.payload_bytes))
        self.qp.env.timeout(service).callbacks = [self._serve]

    def _serve(self, _event: Event) -> None:
        qp = self.qp
        wr = self.wr
        region = self.region
        try:
            if wr.op is RdmaOp.WRITE:
                region.write(wr.token, wr.remote_offset, wr.data,
                             length=wr.payload_bytes)
                region.deliver(wr.payload_object)
                response_bytes = CONTROL_MESSAGE_BYTES
                tail = 0.0
            else:
                self.data = region.read(wr.token, wr.remote_offset,
                                        wr.payload_bytes)
                response_bytes = wr.payload_bytes
                # The payload is delivered into the requester's memory.
                tail = qp.local.fabric.profile.nic.rx_dma
        except RdmaAccessError as exc:
            self._fail(str(exc))
            return
        self.completion = Completion(wr_id=wr.wr_id, op=wr.op, ok=True,
                                     data=self.data, context=wr.context)
        qp.remote.fabric.send(qp.remote, qp.local, response_bytes,
                              self._land, tail)

    def _serve_cas(self, _event: Event) -> None:
        """Standalone single-word compare-and-swap (e.g. remote-side
        eviction marking).  ``wr.data`` is the swap value, ``wr.compare``
        the expected word; the completion's ``data`` is the observed
        original, with ``cas_aborted`` set on mismatch."""
        qp = self.qp
        wr = self.wr
        try:
            current = self.region.read(wr.token, wr.remote_offset,
                                       CAS_WORD_BYTES)
            matched = (current is None or wr.compare is None
                       or current == wr.compare)
            if matched and wr.data is not None:
                self.region.write(wr.token, wr.remote_offset, wr.data)
        except RdmaAccessError as exc:
            self._fail(str(exc))
            return
        if qp._program_cas_aborts is not None and not matched:
            qp._program_cas_aborts.inc()
        self.completion = Completion(
            wr_id=wr.wr_id, op=RdmaOp.CAS, ok=matched, data=current,
            error=None if matched else "cas mismatch", context=wr.context,
            cas_aborted=not matched)
        qp.remote.fabric.send(qp.remote, qp.local, CAS_WORD_BYTES,
                              self._land, qp.local.fabric.profile.nic.rx_dma)

    def _run_program(self) -> None:
        """Execute a chained verb program: one wire round trip plus
        per-step remote-NIC service time.

        The descriptor (plus inline WRITE operands) crossed the fabric
        once; the remote NIC walks the chain charging
        ``program_step_latency`` per step plus each step's DMA cost, all
        folded into a *single* service timeout (one kernel entry per
        program -- the happens-before detector and the replay sanitizer
        see program execution as one atomic remote event, not a
        per-step flurry); one response returns the produced payloads.

        Memory sampling: non-guard steps read/write at descriptor
        arrival; CAS guards (``compare_from``) re-sample *after* the
        service window, so a write that lands while the chain executes
        is visible to them -- that is the self-verifying read that makes
        dependent GETs safe against concurrent migration.  A fault or
        guard mismatch aborts the chain and surfaces a partial
        completion.
        """
        region = self._find_region()
        if region is None:
            return
        qp = self.qp
        wr = self.wr
        nic = qp.remote.fabric.profile.nic
        steps = wr.program.steps
        produced: List[Optional[bytes]] = [None] * len(steps)
        results: Dict[int, StepResult] = {}
        guards: List[tuple[int, object, int]] = []
        service = qp._context_penalty(qp.remote)
        error: Optional[str] = None
        cas_aborted = False
        wrote = False

        for index, step in enumerate(steps):
            service += nic.program_step_latency
            offset = resolve_offset(step, tuple(produced))
            if step.op is StepOp.CAS and step.compare_from is not None:
                # Self-verifying guard: evaluated after the service
                # window, against then-current memory.
                service += nic.dma_fetch(step.length)
                guards.append((index, step, offset))
                continue
            try:
                if step.op is StepOp.READ:
                    if step.length:
                        service += nic.dma_fetch(step.length)
                    data = region.read(wr.token, offset, step.length)
                    produced[index] = data
                    results[index] = StepResult(index, step.op, True,
                                                offset, data)
                elif step.op is StepOp.WRITE:
                    service += nic.rx_dma
                    region.write(wr.token, offset, step.data,
                                 length=step.length)
                    wrote = True
                    results[index] = StepResult(index, step.op, True, offset)
                else:  # CAS against a static expected value
                    service += nic.dma_fetch(step.length)
                    current = region.read(wr.token, offset, step.length)
                    matched = (current is None or step.compare is None
                               or current == step.compare)
                    produced[index] = current
                    results[index] = StepResult(
                        index, step.op, matched, offset, current,
                        None if matched else "cas mismatch")
                    if matched and step.data is not None:
                        region.write(wr.token, offset, step.data)
                    if not matched:
                        cas_aborted = True
                        error = f"program aborted by CAS at step {index}"
                        break
            except RdmaAccessError as exc:
                error = str(exc)
                results[index] = StepResult(index, step.op, False, offset,
                                            None, error)
                break

        # The whole remote-side chain is one service interval.
        qp.env.timeout(service).callbacks = [
            lambda _e: self._serve_program(produced, results, guards, error,
                                           cas_aborted, wrote)]

    def _serve_program(self, produced: List[Optional[bytes]],
                       results: Dict[int, StepResult],
                       guards: List[tuple[int, object, int]],
                       error: Optional[str], cas_aborted: bool,
                       wrote: bool) -> None:
        qp = self.qp
        wr = self.wr
        region = self.region
        program = wr.program
        if error is None and not cas_aborted:
            try:
                # The region may have been revoked while the chain ran
                # (migration finalized, VM reclaimed mid-program): the
                # chain aborts and nothing is acked.
                region.check_access(wr.token, 0, 0)
                for index, step, offset in guards:
                    current = region.read(wr.token, offset, step.length)
                    expected = produced[step.compare_from]
                    matched = (current is None or expected is None
                               or current == expected)
                    results[index] = StepResult(
                        index, StepOp.CAS, matched, offset, current,
                        None if matched else
                        "cas guard: word changed mid-program")
                    if matched and step.data is not None:
                        region.write(wr.token, offset, step.data)
                    if not matched:
                        cas_aborted = True
                        error = (f"program aborted by CAS guard at "
                                 f"step {index}")
                        break
            except RdmaAccessError as exc:
                error = str(exc)

        step_results = tuple(results[i] for i in sorted(results))
        executed = sum(1 for r in step_results if r.ok)
        if qp._program_steps is not None:
            qp._program_steps.inc(len(step_results))
            if cas_aborted:
                qp._program_cas_aborts.inc()
        ok = error is None and not cas_aborted

        data: Optional[bytes] = None
        delivered_read = False
        for result in step_results:
            if result.op is StepOp.READ and result.ok:
                data = result.data
                delivered_read = True
        if not (ok and wrote):
            # Only a program that landed a WRITE step delivers its
            # payload object, after the response arrives.
            self.region = None
        self.completion = Completion(
            wr_id=wr.wr_id, op=RdmaOp.PROGRAM, ok=ok,
            data=data if ok else None, error=error, context=wr.context,
            steps_completed=executed, step_results=step_results,
            cas_aborted=cas_aborted)
        response_bytes = (program.response_wire_bytes if ok
                          else program.response_bytes_through(executed))
        tail = qp.local.fabric.profile.nic.rx_dma if delivered_read else 0.0
        qp.remote.fabric.send(qp.remote, qp.local, response_bytes,
                              self._land_program, tail)

    def _land_program(self, _event: Event) -> None:
        if self.region is not None:
            self.region.deliver(self.wr.payload_object)
        self._land(_event)

    def _land(self, _event: Event) -> None:
        self.qp._finish(self.wr, self.sink, self.completion)
