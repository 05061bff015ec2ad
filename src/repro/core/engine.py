"""Client-side data path: the executable version of Figure 6.

:class:`CacheDataPath` owns the client threads of one Redy cache.  Each
client thread runs one RDMA connection per attached cache server, with:

* a *batch ring* buffering application requests (backpressure included),
* an issuer loop that gathers up to ``b`` requests, takes a queue-depth
  credit, and either posts a one-sided verb (single-op batches on the
  fast path, §4.3) or writes a request batch into the server's message
  ring, and
* a completion loop that reaps response batches from the client's
  response ring, runs callbacks, and returns credits.

All CPU charges go through one per-thread ``Resource`` so that the
issuer and completion sides cannot overlap in time -- they are the same
hardware thread.  The issuer and completion loops (which model
batching) are processes; a one-sided op's completion side is a callback
chain run from its verb's landing, one kernel entry per timed stage,
that takes an uncontended CPU slot without a kernel round trip.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import RdmaConfig
from repro.core.protocol import (
    ConnectRequest,
    EngineOp,
    OpResult,
    RequestBatch,
)
from repro.core.server import CacheServer, RING_SLOT_BYTES
from repro.hardware.profiles import TestbedProfile
from repro.net.fabric import Endpoint
from repro.net.memory import MemoryRegion
from repro.net.programs import VerbProgram
from repro.net.qp import QueuePair
from repro.net.verbs import Completion, RdmaOp, WorkRequest
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource, Store

#: Batch-weight histogram buckets: powers of two up to the largest batch
#: size the config space explores.
_BATCH_WEIGHT_BUCKETS = tuple(float(1 << i) for i in range(11))

__all__ = ["CacheDataPath", "EngineError"]


class EngineError(Exception):
    """Data-path misuse (no route for an op, engine not attached, ...)."""


def _lognormal_sigma(median: float, p99: float) -> float:
    if p99 <= median or median <= 0:
        return 0.0
    return math.log(p99 / median) / 2.326


class _Connection:
    """One client thread's connection to one cache server."""

    def __init__(self, env: Environment, connection_id: int,
                 server: CacheServer, qp: QueuePair,
                 request_ring_token, response_ring: MemoryRegion,
                 queue_depth: int):
        self.connection_id = connection_id
        self.server = server
        self.qp = qp
        self.request_ring_token = request_ring_token
        self.response_ring = response_ring
        #: Queue-depth credits: one per allowed in-flight operation.
        self.credits = Store(env, capacity=queue_depth)
        for _ in range(queue_depth):
            self.credits.try_put(object())
        #: The batch ring feeding this connection.
        self.batch_ring: Store = Store(env)
        #: In-flight request batches awaiting a response, by batch id.
        self.outstanding: Dict[int, RequestBatch] = {}
        self.closed = False


class _ClientThread:
    """One client thread: CPU resource + its connections."""

    def __init__(self, env: Environment, index: int):
        self.index = index
        self.cpu = Resource(env, slots=1)
        self.connections: Dict[str, _Connection] = {}
        self.response_store: Store = Store(env)
        #: region_id -> connection, for routing functional ops.
        self.routes: Dict[int, _Connection] = {}


class CacheDataPath:
    """The client half of one Redy cache's data path."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 config: RdmaConfig, client_endpoint: Endpoint,
                 rng: np.random.Generator, op_timeout: float = 0.05):
        self.env = env
        self.profile = profile
        self.config = config
        self.endpoint = client_endpoint
        self.rng = rng
        #: Response deadline for two-sided batches.  A server that dies
        #: after acknowledging a request never responds; the client
        #: fails those ops instead of hanging (real RDMA surfaces this
        #: as a QP timeout).
        self.op_timeout = op_timeout
        self.threads = [
            _ClientThread(env, i) for i in range(config.client_threads)]
        self._round_robin = 0
        self._connection_counter = 0
        #: Lifetime statistics.
        self.ops_completed = 0
        self.ops_failed = 0
        self._completed_weight = 0
        self._jitter_sigma = _lognormal_sigma(
            profile.cpu.numa_penalty_mean, profile.cpu.numa_penalty_p99)
        self._lock_sigma = _lognormal_sigma(
            profile.cpu.lock_contention_mean, profile.cpu.lock_contention_p99)
        metrics = registry_of(env)
        if metrics is not None:
            self._op_latency = metrics.histogram("engine.op_latency")
            self._credit_wait = metrics.histogram("engine.credit_wait")
            self._batch_weight = metrics.histogram(
                "engine.batch_weight", bounds=_BATCH_WEIGHT_BUCKETS)
            self._completed_counter = metrics.counter("engine.ops_completed")
            self._failed_counter = metrics.counter("engine.ops_failed")
            self._timeout_counter = metrics.counter("engine.timeouts")
            self._programs_counter = metrics.counter("engine.programs")
            self._two_hop_counter = metrics.counter("engine.two_hop_reads")
            self._fallback_counter = metrics.counter(
                "engine.program_fallbacks")
            self._cas_abort_counter = metrics.counter(
                "engine.program_cas_aborts")
            self._cas_ops_counter = metrics.counter("engine.cas_ops")
            self._cas_mismatch_counter = metrics.counter(
                "engine.cas_mismatches")
            self._tenant_ops_family = metrics.counter("engine.tenant_ops")
        else:
            self._op_latency = None
            self._credit_wait = None
            self._batch_weight = None
            self._completed_counter = None
            self._failed_counter = None
            self._timeout_counter = None
            self._programs_counter = None
            self._two_hop_counter = None
            self._fallback_counter = None
            self._cas_abort_counter = None
            self._cas_ops_counter = None
            self._cas_mismatch_counter = None
            self._tenant_ops_family = None
        for thread in self.threads:
            env.process(self._completion_loop(thread),
                        name=f"redy-client:{client_endpoint.name}:"
                             f"t{thread.index}:completions")

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def attach_server(self, server: CacheServer, n_regions: int,
                      region_size: int, backed: bool = True) -> List:
        """Run the *Connect* handshake against ``server``.

        Builds one connection per client thread, registers response rings,
        and returns the data-region tokens the server allocated.
        """
        config = self.config
        response_rings = []
        for _ in self.threads:
            ring = self.endpoint.register(MemoryRegion(
                max(1, config.queue_depth) * RING_SLOT_BYTES, backing=False))
            response_rings.append(ring)
        request = ConnectRequest(
            client_name=self.endpoint.name,
            n_regions=n_regions,
            region_size=region_size,
            server_threads=config.server_threads,
            queue_depth=config.queue_depth,
            connections=len(self.threads),
            response_ring_tokens=[ring.token for ring in response_rings],
            backed=backed,
        )
        reply = server.connect(request, self.endpoint)

        # With control-plane modeling on, per-thread QPs are created
        # deferred: the connect handshake is charged lazily on first
        # use instead of being free (see repro.cplane).
        deferred = (config.model_control_plane
                    or self.endpoint.fabric.model_control_plane)
        for thread, ring, ring_token in zip(
                self.threads, response_rings, reply.request_ring_tokens):
            qp = QueuePair(self.env, self.endpoint, server.endpoint,
                           max_depth=config.queue_depth, deferred=deferred)
            connection = _Connection(
                self.env, self._connection_counter, server, qp,
                ring_token, ring, config.queue_depth)
            self._connection_counter += 1
            ring.attach_mailbox(
                lambda response, store=thread.response_store:
                    store.try_put(response))
            thread.connections[server.endpoint.name] = connection
            for token in reply.region_tokens:
                thread.routes[token.region_id] = connection
            self.env.process(
                self._issuer_loop(thread, connection),
                name=f"redy-client:{self.endpoint.name}:t{thread.index}:"
                     f"issue->{server.endpoint.name}")
        return reply.region_tokens

    def detach_server(self, server_name: str) -> None:
        """Drop all connections to one server (it failed or was reclaimed).

        Releases the client-side control-plane state too -- response
        rings are deregistered and the per-thread QPs reclaimed -- and
        tells a still-alive server to drop its half (request rings,
        response QPs).  Before this fix, every attach/detach cycle
        leaked one region and two QP registrations per client thread
        on each side.
        """
        server: Optional[CacheServer] = None
        for thread in self.threads:
            connection = thread.connections.pop(server_name, None)
            if connection is not None:
                connection.closed = True
                server = connection.server
                stale = [rid for rid, conn in thread.routes.items()
                         if conn is connection]
                for rid in stale:
                    del thread.routes[rid]
                self.endpoint.deregister(connection.response_ring.region_id)
                connection.qp.reclaim()
        if server is not None and server.alive:
            server.disconnect_client(self.endpoint)

    def add_route(self, region_id: int, server_name: str) -> None:
        """Point a region at an (already attached) server on every thread."""
        for thread in self.threads:
            if server_name not in thread.connections:
                raise EngineError(f"no connection to {server_name}")
            thread.routes[region_id] = thread.connections[server_name]

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def submission_overhead(self) -> float:
        """Sampled app-thread cost to hand one op to a client thread.

        Lock-free ring handoff by default; the ablation baseline pays the
        mutex cost plus a fat contention tail.  Non-affinitized threads
        add cross-NUMA jitter.
        """
        cpu = self.profile.cpu
        if self.config.lock_free:
            cost = cpu.handoff_lockfree
        else:
            cost = cpu.handoff_locked + cpu.lock_contention_mean * math.exp(
                self.rng.normal(0.0, self._lock_sigma)
                - self._lock_sigma**2 / 2)
        if not self.config.numa_affinity:
            cost += cpu.numa_penalty_mean * math.exp(
                self.rng.normal(0.0, self._jitter_sigma)
                - self._jitter_sigma**2 / 2)
        return cost

    def submit(self, op: EngineOp, thread_index: Optional[int] = None) -> None:
        """Queue one op on a client thread.  The batch ring is unbounded,
        so the op is accepted at once; its ``completion`` event fires
        with its :class:`OpResult` when the I/O finishes.
        """
        if op.completion is None and op.on_done is None:
            op.completion = self.env.event()
        op.enqueued_at = self.env.now
        if thread_index is None:
            thread_index = self._round_robin % len(self.threads)
            self._round_robin += 1
        thread = self.threads[thread_index % len(self.threads)]
        connection = self._route(thread, op)
        if op.is_dependent:
            # Dependent GETs never enter the message-ring batching
            # protocol: they are posted on their own doorbell (as a verb
            # program, or as the classic two-hop READ sequence), so they
            # cannot be folded into a two-sided batch that would lose
            # the pointer-chase semantics.
            if op.token is None:
                raise EngineError("dependent reads need a region token")
            if op.weight != 1:
                raise EngineError("dependent reads are weight-1 ops")
            self.env.process(
                self._dependent_read(thread, connection, op),
                name=f"redy-client:{self.endpoint.name}:"
                     f"t{thread.index}:dependent-read")
            return
        if op.cas:
            # Standalone CAS: like dependent reads, atomics never enter
            # the message-ring batching protocol -- the NIC executes the
            # compare-and-swap as a single verb on its own doorbell.
            if op.token is None:
                raise EngineError("CAS ops need a region token")
            self.env.process(
                self._cas_op(thread, connection, op),
                name=f"redy-client:{self.endpoint.name}:"
                     f"t{thread.index}:cas")
            return
        connection.batch_ring.try_put(op)

    def _route(self, thread: _ClientThread, op: EngineOp) -> _Connection:
        if op.token is not None:
            connection = thread.routes.get(op.token.region_id)
            if connection is None:
                raise EngineError(
                    f"no route for region {op.token.region_id}")
            return connection
        if not thread.connections:
            raise EngineError("no attached cache server")
        return next(iter(thread.connections.values()))

    def _noise(self) -> float:
        sigma = self.profile.measurement_noise
        return math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0

    def _issuer_loop(self, thread: _ClientThread, connection: _Connection):
        # Hot loop (once per batch): the profile and config are frozen
        # for the engine's lifetime, so every per-iteration cost below
        # is hoisted.  `base_work + weight * per_op` preserves the exact
        # float association of the original expression.
        cpu, nic = self.profile.cpu, self.profile.nic
        config = self.config
        env = self.env
        ring_get = connection.batch_ring.get
        ring_try_get = connection.batch_ring.try_get
        credits_get = connection.credits.get
        credits_try_get = connection.credits.try_get
        cpu_acquire = thread.cpu.acquire
        cpu_release = thread.cpu.release
        batch_size = config.batch_size
        base_work = cpu.batch_prepare + nic.doorbell
        per_op = cpu.client_per_op
        numa_affinity = config.numa_affinity
        lock_free = config.lock_free
        uses_one_sided = config.uses_one_sided
        batch_weight = self._batch_weight
        credit_wait = self._credit_wait
        sigma = self.profile.measurement_noise
        while not connection.closed:
            first = yield ring_get()
            batch_ops = [first]
            weight = first.weight
            while weight < batch_size:
                ok, op = ring_try_get()
                if not ok:
                    break
                batch_ops.append(op)
                weight += op.weight
            if batch_weight is not None:
                batch_weight.observe(weight)
            credit_wait_started = env.now
            if not credits_try_get()[0]:
                yield credits_get()
            if credit_wait is not None:
                credit_wait.observe(env.now - credit_wait_started)

            # The CPU grant stays a kernel round trip: the noise draw
            # below must follow whatever else this instant settles
            # first (a credit returned together with a completion wakes
            # this loop ahead of the op's submitter).
            yield cpu_acquire()
            work = base_work + weight * per_op
            if not numa_affinity:
                work += weight * cpu.numa_cpu_per_op
            if not lock_free:
                # The consumer side of the mutex-protected queue pays the
                # same lock acquisition + contention as the producer.
                work += weight * (cpu.handoff_locked
                                  + cpu.lock_contention_mean * math.exp(
                                      self.rng.normal(0.0, self._lock_sigma)
                                      - self._lock_sigma**2 / 2))
            # Inlined self._noise(): same single RNG draw.
            noise = math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0
            yield env.timeout(work * noise)
            cpu_release()

            one_sided = (len(batch_ops) == 1 and first.weight == 1
                         and uses_one_sided and first.token is not None)
            if one_sided:
                self._post_one_sided(thread, connection, first)
            else:
                batch = RequestBatch(ops=batch_ops,
                                     connection_id=connection.connection_id,
                                     created_at=env.now)
                connection.outstanding[batch.batch_id] = batch
                wr = WorkRequest(
                    RdmaOp.WRITE, connection.request_ring_token, 0,
                    batch.wire_bytes, payload_object=batch)
                ack = connection.qp.post(wr)
                # Both watchers are deliberately detached: they exist to
                # observe the batch (ack bookkeeping, response timeout)
                # and settle its per-op events themselves.
                env.process(  # repro-lint: disable=L006 -- detached watchdog; settles batch op events itself
                    self._watch_request_ack(connection, batch, ack),
                    name="redy-client:request-ack")
                env.process(  # repro-lint: disable=L006 -- detached watchdog; settles batch op events itself
                    self._watch_response_timeout(connection, batch),
                    name="redy-client:response-timeout")

    def _post_one_sided(self, thread: _ClientThread, connection: _Connection,
                        op: EngineOp) -> None:
        verb = RdmaOp.READ if op.is_read else RdmaOp.WRITE
        connection.qp.post_then(
            WorkRequest(verb, op.token, op.offset, op.size, data=op.data),
            _OneSidedReap(self, thread, connection, op).reap)

    def _dependent_read(self, thread: _ClientThread, connection: _Connection,
                        op: EngineOp):
        """One pointer-chasing GET: index word first, then the record.

        With ``use_verb_programs`` on (and a supporting remote NIC) the
        whole chain is one posted program -- one round trip.  Otherwise,
        or when a program completes in error (CAS guard abort, region
        revoked mid-chain, downlevel endpoint), the classic two-hop READ
        sequence runs as the fallback; an op only fails if the fallback
        fails too, so no acked read is lost to the optimization.
        """
        env = self.env
        cpu, nic = self.profile.cpu, self.profile.nic
        credit_wait_started = env.now
        yield connection.credits.get()
        if self._credit_wait is not None:
            self._credit_wait.observe(env.now - credit_wait_started)

        yield thread.cpu.acquire()
        try:
            work = cpu.batch_prepare + nic.doorbell + cpu.client_per_op
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()

        supports = connection.server.endpoint.supports_programs
        use_programs = self.config.use_verb_programs and supports
        completion: Optional[Completion] = None
        if self.config.use_verb_programs and not supports:
            # Graceful degradation: remote NIC cannot run chains.
            if self._fallback_counter is not None:
                self._fallback_counter.inc()
        if use_programs:
            program = VerbProgram.dependent_read(
                pointer_offset=op.lookup_offset,
                pointer_bytes=op.lookup_size,
                fallback_offset=op.offset,
                read_bytes=op.size,
                verify=op.verify,
                label="get:bucket->record")
            if self._programs_counter is not None:
                self._programs_counter.inc()
            completion = yield connection.qp.post_program(program, op.token)
            if completion.cas_aborted and self._cas_abort_counter is not None:
                self._cas_abort_counter.inc()
            if not completion.ok:
                # Abort fallback: re-run the access as the classic
                # two-hop sequence (it re-samples the pointer, so a
                # guard abort resolves to the post-move location).
                if self._fallback_counter is not None:
                    self._fallback_counter.inc()
                completion = None
        if completion is None:
            if self._two_hop_counter is not None:
                self._two_hop_counter.inc()
            completion = yield from self._two_hop_read(thread, connection, op)

        yield thread.cpu.acquire()
        try:
            work = nic.completion_poll + cpu.callback
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        if not self.config.numa_affinity:
            yield env.timeout(cpu.numa_penalty_mean * math.exp(
                self.rng.normal(0.0, self._jitter_sigma)
                - self._jitter_sigma**2 / 2))
        connection.credits.try_put(object())
        self._finish(op, OpResult(
            ok=completion.ok, data=completion.data, error=completion.error,
            latency=env.now - op.enqueued_at))

    def _cas_op(self, thread: _ClientThread, connection: _Connection,
                op: EngineOp):
        """One standalone compare-and-swap (server-side eviction marking).

        The QP executes the verb remotely and atomically; a mismatch is
        not a transport failure -- it completes with ``ok=False``,
        ``error="cas mismatch"`` and the observed original word in
        ``data``, which is exactly what optimistic callers need to
        re-read and retry.
        """
        env = self.env
        cpu, nic = self.profile.cpu, self.profile.nic
        credit_wait_started = env.now
        yield connection.credits.get()
        if self._credit_wait is not None:
            self._credit_wait.observe(env.now - credit_wait_started)

        yield thread.cpu.acquire()
        try:
            work = cpu.batch_prepare + nic.doorbell + cpu.client_per_op
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()

        if self._cas_ops_counter is not None:
            self._cas_ops_counter.inc()
        completion = yield connection.qp.post(WorkRequest(
            RdmaOp.CAS, op.token, op.offset, op.size, data=op.data,
            compare=op.compare))
        if completion.cas_aborted and self._cas_mismatch_counter is not None:
            self._cas_mismatch_counter.inc()

        yield thread.cpu.acquire()
        try:
            work = nic.completion_poll + cpu.callback
            yield env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        connection.credits.try_put(object())
        self._finish(op, OpResult(
            ok=completion.ok, data=completion.data, error=completion.error,
            latency=env.now - op.enqueued_at))

    def _two_hop_read(self, thread: _ClientThread, connection: _Connection,
                      op: EngineOp):
        """The classic dependent GET: READ the pointer word, reap it,
        parse, then READ the record -- two full round trips plus a
        client-CPU turnaround between them."""
        cpu, nic = self.profile.cpu, self.profile.nic
        first = yield connection.qp.post(WorkRequest(
            RdmaOp.READ, op.token, op.lookup_offset, op.lookup_size))
        if not first.ok:
            return first
        # Turnaround: poll the completion, parse the pointer, build and
        # ring the doorbell for the second READ.
        yield thread.cpu.acquire()
        try:
            work = nic.completion_poll + cpu.callback + nic.doorbell
            yield self.env.timeout(work * self._noise())
        finally:
            thread.cpu.release()
        if first.data is not None and len(first.data) >= 1:
            target = int.from_bytes(first.data[:8], "little")
        else:
            # Size-only region: no bytes came back; chase the static
            # fallback offset (same wire timing either way).
            target = op.offset
        second = yield connection.qp.post(WorkRequest(
            RdmaOp.READ, op.token, target, op.size))
        return second

    def _watch_request_ack(self, connection: _Connection, batch: RequestBatch,
                           ack_event: Event):
        """Surface transport errors on the request write (server died)."""
        completion = yield ack_event
        if not completion.ok:
            self._abort_batch(connection, batch, completion.error)

    def _watch_response_timeout(self, connection: _Connection,
                                batch: RequestBatch):
        """Fail a batch whose response never arrives (§6.2 failures)."""
        yield self.env.timeout(self.op_timeout)
        timed_out = self._abort_batch(
            connection, batch,
            f"no response from {connection.server.endpoint.name} within "
            f"{self.op_timeout}s")
        if timed_out and self._timeout_counter is not None:
            self._timeout_counter.inc()

    def _abort_batch(self, connection: _Connection, batch: RequestBatch,
                     error: str) -> bool:
        """Fail every op of an in-flight batch exactly once."""
        if connection.outstanding.pop(batch.batch_id, None) is None:
            return False  # already answered or already aborted
        connection.credits.try_put(object())
        for op in batch.ops:
            self._finish(op, OpResult(
                ok=False, error=error,
                latency=self.env.now - op.enqueued_at))
        return True

    def _completion_loop(self, thread: _ClientThread):
        # Hot loop (once per response batch); hoisted like _issuer_loop.
        cpu, nic = self.profile.cpu, self.profile.nic
        env = self.env
        store_get = thread.response_store.get
        cpu_acquire = thread.cpu.acquire
        cpu_release = thread.cpu.release
        poll = nic.completion_poll
        per_op = cpu.client_per_op + cpu.callback
        numa_affinity = self.config.numa_affinity
        sigma = self.profile.measurement_noise
        finish = self._finish
        while True:
            response = yield store_get()
            yield cpu_acquire()
            weight = sum(op.weight for op in response.ops)
            work = poll + weight * per_op
            # Inlined self._noise(): same single RNG draw.
            noise = math.exp(self.rng.normal(0.0, sigma)) if sigma else 1.0
            yield env.timeout(work * noise)
            cpu_release()
            if not numa_affinity:
                yield env.timeout(cpu.numa_penalty_mean * math.exp(
                    self.rng.normal(0.0, self._jitter_sigma)
                    - self._jitter_sigma**2 / 2))
            connection = self._connection_by_id(thread,
                                                response.connection_id)
            if connection is not None:
                if connection.outstanding.pop(response.batch_id,
                                              None) is None:
                    continue  # batch already timed out and was failed
                connection.credits.try_put(object())
            now = env.now
            for op, result in zip(response.ops, response.results):
                result.latency = now - op.enqueued_at
                finish(op, result)

    def _connection_by_id(self, thread: _ClientThread,
                          connection_id: int) -> Optional[_Connection]:
        for connection in thread.connections.values():
            if connection.connection_id == connection_id:
                return connection
        return None

    def _finish(self, op: EngineOp, result: OpResult) -> None:
        if result.ok:
            self.ops_completed += 1
            self._completed_weight += op.weight
            if self._completed_counter is not None:
                self._completed_counter.inc(op.weight)
        else:
            self.ops_failed += 1
            if self._failed_counter is not None:
                self._failed_counter.inc(op.weight)
        if self._op_latency is not None:
            self._op_latency.observe(result.latency)
        if op.tenant is not None and self._tenant_ops_family is not None:
            # The family caches its children, so steady-state accounting
            # is one dict hit plus an attribute add per op.
            self._tenant_ops_family.labels(tenant=op.tenant).inc(op.weight)
        if op.on_done is not None:
            on_done, op.on_done = op.on_done, None
            on_done(result)
        elif op.completion is not None and not op.completion.triggered:
            op.completion.succeed(result)

    @property
    def completed_weight(self) -> int:
        """Total logical requests completed (weights summed)."""
        return self._completed_weight


class _OneSidedReap:
    """Completion side of one one-sided op, as a callback chain: poll
    the CQ and run the callback on the client thread's CPU, return the
    credit, settle the op."""

    __slots__ = ("path", "thread", "connection", "op", "completion")

    def __init__(self, path: CacheDataPath, thread: _ClientThread,
                 connection: _Connection, op: EngineOp):
        self.path = path
        self.thread = thread
        self.connection = connection
        self.op = op

    def reap(self, completion: Completion) -> None:
        self.completion = completion
        cpu = self.thread.cpu
        if cpu.try_acquire():
            self._poll(None)
        else:
            cpu.acquire().callbacks = [self._poll]

    def _poll(self, _event: Optional[Event]) -> None:
        path = self.path
        work = path.profile.nic.completion_poll + path.profile.cpu.callback
        path.env.timeout(work * path._noise()).callbacks = [self._polled]

    def _polled(self, _event: Event) -> None:
        self.thread.cpu.release()
        path = self.path
        if path.config.numa_affinity:
            self._settle(None)
            return
        sigma = path._jitter_sigma
        path.env.timeout(path.profile.cpu.numa_penalty_mean * math.exp(
            path.rng.normal(0.0, sigma) - sigma**2 / 2)).callbacks = [
                self._settle]

    def _settle(self, _event: Optional[Event]) -> None:
        path = self.path
        op = self.op
        completion = self.completion
        self.connection.credits.try_put(object())
        path._finish(op, OpResult(
            ok=completion.ok, data=completion.data, error=completion.error,
            latency=path.env.now - op.enqueued_at))
