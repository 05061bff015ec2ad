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
batching) and a one-sided op's completion side are callback chains, one
kernel entry per timed stage or grant; a one-sided reap takes an
uncontended CPU slot without a kernel round trip.
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
            _Completer(self, thread)

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
            _Issuer(self, thread, connection)
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
            cost = cpu.handoff_locked + self._lognormal(
                cpu.lock_contention_mean, self._lock_sigma)
        if not self.config.numa_affinity:
            cost += self._numa_jitter()
        return cost

    def submit(self, op: EngineOp, thread_index: Optional[int] = None) -> None:
        """Queue one op on a client thread.  The batch ring is unbounded,
        so the op is accepted at once; its ``on_done`` is called with its
        :class:`OpResult` when the I/O finishes.
        """
        op.enqueued_at = self.env.now
        if thread_index is None:
            thread_index = self._round_robin % len(self.threads)
            self._round_robin += 1
        thread = self.threads[thread_index % len(self.threads)]
        connection = self._route(thread, op)
        if op.cas or op.is_dependent:
            # Off-ring ops never enter the message-ring batching
            # protocol: a dependent GET folded into a two-sided batch
            # would lose its pointer-chase semantics, and a CAS is
            # atomic because the NIC executes it as one verb.
            if op.token is None:
                raise EngineError("dependent reads and CAS ops need a "
                                  "region token")
            kind = "cas" if op.cas else "dependent-read"
            self.env.process(
                self._off_ring(thread, connection, op),
                name=f"redy-client:{self.endpoint.name}:"
                     f"t{thread.index}:{kind}")
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

    # Noise draws scale a standard normal: ``sigma * standard_normal()``
    # is bit-identical to ``normal(0.0, sigma)`` and skips its argument
    # handling.

    def _noise(self) -> float:
        sigma = self.profile.measurement_noise
        return math.exp(sigma * self.rng.standard_normal()) if sigma else 1.0

    def _lognormal(self, mean: float, sigma: float) -> float:
        """A mean-``mean`` lognormal draw (the lock and NUMA tails)."""
        return mean * math.exp(
            sigma * self.rng.standard_normal() - sigma**2 / 2)

    def _numa_jitter(self) -> float:
        """Cross-NUMA delay of a non-affinitized thread."""
        return self._lognormal(self.profile.cpu.numa_penalty_mean,
                               self._jitter_sigma)

    def _post_batch(self, connection: _Connection,
                    ops: List[EngineOp]) -> None:
        """Write one request batch into the server's message ring."""
        env = self.env
        batch = RequestBatch(ops=ops, connection_id=connection.connection_id,
                             created_at=env.now)
        connection.outstanding[batch.batch_id] = batch
        wr = WorkRequest(
            RdmaOp.WRITE, connection.request_ring_token, 0,
            batch.wire_bytes, payload_object=batch)
        ack = connection.qp.post(wr)
        # Both watchers are deliberately detached: they exist to
        # observe the batch (ack bookkeeping, response timeout) and
        # settle its per-op events themselves.
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
            WorkRequest(verb, op.token, op.offset, op.size, op.data),
            _OneSidedReap(self, thread, connection, op).reap)

    def _off_ring(self, thread: _ClientThread, connection: _Connection,
                  op: EngineOp):
        """One op on its own doorbell: a standalone CAS or a dependent GET.

        Both take a credit, charge the doorbell on the thread's CPU,
        post their verb, then poll the completion, pay the cross-NUMA
        jitter of a non-affinitized thread and return the credit.

        A CAS executes remotely and atomically; a mismatch is not a
        transport failure -- it completes with ``ok=False``,
        ``error="cas mismatch"`` and the observed original word in
        ``data``, which is exactly what optimistic callers need to
        re-read and retry.

        A dependent GET reads the index word first, then the record.
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

        completion: Optional[Completion] = None
        if op.cas:
            if self._cas_ops_counter is not None:
                self._cas_ops_counter.inc()
            completion = yield connection.qp.post(WorkRequest(
                RdmaOp.CAS, op.token, op.offset, op.size, data=op.data,
                compare=op.compare))
            if (completion.cas_aborted
                    and self._cas_mismatch_counter is not None):
                self._cas_mismatch_counter.inc()
        elif (self.config.use_verb_programs
              and not connection.server.endpoint.supports_programs):
            # Graceful degradation: remote NIC cannot run chains.
            if self._fallback_counter is not None:
                self._fallback_counter.inc()
        elif self.config.use_verb_programs:
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
            yield env.timeout(self._numa_jitter())
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

    @property
    def completed_weight(self) -> int:
        """Total logical requests completed (weights summed)."""
        return self._completed_weight


class _Issuer:
    """One connection's issuer loop, as a callback chain.

    Gathers up to ``b`` queued ops, takes a queue-depth credit and the
    thread's CPU, charges the batch's client work, then posts it:
    one-sided for a lone weight-1 op (fast path, §4.3), otherwise as a
    request batch written into the server's message ring.  Every wait
    is a callback grant or ``call_at`` entry in the slot the process
    version's event took, so the chain dispatches exactly like it.
    """

    __slots__ = ("path", "thread", "connection", "base_work", "ops",
                 "weight", "credit_wait_started")

    def __init__(self, path: CacheDataPath, thread: _ClientThread,
                 connection: _Connection):
        self.path = path
        self.thread = thread
        self.connection = connection
        self.base_work = (path.profile.cpu.batch_prepare
                          + path.profile.nic.doorbell)
        self.ops: List[EngineOp] = []
        # First turn in the slot a process bootstrap takes.
        path.env._call_soon(self._next, None)

    def _next(self, _arg: object = None) -> None:
        if not self.connection.closed:
            self.connection.batch_ring.get_then(self._gather)

    def _gather(self, first: EngineOp) -> None:
        path = self.path
        connection = self.connection
        try_get = connection.batch_ring.try_get
        batch_size = path.config.batch_size
        ops = [first]
        weight = first.weight
        while weight < batch_size:
            ok, op = try_get()
            if not ok:
                break
            ops.append(op)
            weight += op.weight
        if path._batch_weight is not None:
            path._batch_weight.observe(weight)
        self.ops = ops
        self.weight = weight
        self.credit_wait_started = path.env.now
        if connection.credits.try_get()[0]:
            self._credited(None)
        else:
            connection.credits.get_then(self._credited)

    def _credited(self, _credit: object) -> None:
        path = self.path
        if path._credit_wait is not None:
            path._credit_wait.observe(
                path.env.now - self.credit_wait_started)
        # The CPU grant stays a kernel hop: the noise draw below must
        # follow whatever else this instant settles first (a credit
        # returned together with a completion wakes this chain ahead
        # of the op's submitter).
        self.thread.cpu.acquire_then(self._work)

    def _work(self, _arg: None) -> None:
        path = self.path
        cpu = path.profile.cpu
        config = path.config
        weight = self.weight
        work = self.base_work + weight * cpu.client_per_op
        if not config.numa_affinity:
            work += weight * cpu.numa_cpu_per_op
        if not config.lock_free:
            # The consumer side of the mutex-protected queue pays the
            # same lock acquisition + contention as the producer.
            work += weight * (cpu.handoff_locked + path._lognormal(
                cpu.lock_contention_mean, path._lock_sigma))
        env = path.env
        env.call_at(env.now + work * path._noise(), self._worked)

    def _worked(self, _arg: None) -> None:
        self.thread.cpu.release()
        path = self.path
        ops = self.ops
        first = ops[0]
        if (len(ops) == 1 and first.weight == 1
                and path.config.uses_one_sided and first.token is not None):
            path._post_one_sided(self.thread, self.connection, first)
        else:
            path._post_batch(self.connection, ops)
        self._next()


class _Completer:
    """One client thread's completion loop, as a callback chain: reap a
    response batch, poll and run its callbacks on the thread's CPU,
    return the credit, settle its ops."""

    __slots__ = ("path", "thread", "response")

    def __init__(self, path: CacheDataPath, thread: _ClientThread):
        self.path = path
        self.thread = thread
        self.response = None
        # First turn in the slot a process bootstrap takes.
        path.env._call_soon(self._next, None)

    def _next(self, _arg: object = None) -> None:
        self.thread.response_store.get_then(self._got)

    def _got(self, response) -> None:
        self.response = response
        self.thread.cpu.acquire_then(self._poll)

    def _poll(self, _arg: None) -> None:
        path = self.path
        cpu = path.profile.cpu
        weight = sum(op.weight for op in self.response.ops)
        work = path.profile.nic.completion_poll + weight * (
            cpu.client_per_op + cpu.callback)
        env = path.env
        env.call_at(env.now + work * path._noise(), self._polled)

    def _polled(self, _arg: None) -> None:
        self.thread.cpu.release()
        path = self.path
        if path.config.numa_affinity:
            self._settle(None)
        else:
            env = path.env
            env.call_at(env.now + path._numa_jitter(), self._settle)

    def _settle(self, _arg: None) -> None:
        path = self.path
        response, self.response = self.response, None
        connection = path._connection_by_id(self.thread,
                                            response.connection_id)
        if connection is not None:
            if connection.outstanding.pop(response.batch_id, None) is None:
                self._next()  # batch already timed out and was failed
                return
            connection.credits.try_put(object())
        now = path.env.now
        finish = path._finish
        for op, result in zip(response.ops, response.results):
            result.latency = now - op.enqueued_at
            finish(op, result)
        self._next()


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
            cpu.acquire_then(self._poll)

    def _poll(self, _arg: None) -> None:
        path = self.path
        work = path.profile.nic.completion_poll + path.profile.cpu.callback
        env = path.env
        env.call_at(env.now + work * path._noise(), self._polled)

    def _polled(self, _arg: None) -> None:
        self.thread.cpu.release()
        path = self.path
        if path.config.numa_affinity:
            self._settle(None)
            return
        env = path.env
        env.call_at(env.now + path._numa_jitter(), self._settle)

    def _settle(self, _arg: None) -> None:
        path = self.path
        op = self.op
        completion = self.completion
        self.connection.credits.try_put(object())
        path._finish(op, OpResult(completion.ok, completion.data,
                                  completion.error,
                                  path.env.now - op.enqueued_at))
