"""Wire-protocol objects exchanged between Redy clients and cache servers.

These are the in-simulation counterparts of Figure 6's message payloads:
request batches travelling client -> server and response batches coming
back, plus the *Connect* handshake of §4.2 that sets up rings, queue
pairs, and access tokens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.latency import OP_HEADER_BYTES, RESP_HEADER_BYTES
from repro.net.memory import AccessToken
from repro.sim.kernel import Event

__all__ = [
    "ConnectReply",
    "ConnectRequest",
    "EngineOp",
    "OpResult",
    "RequestBatch",
    "ResponseBatch",
]

_BATCH_IDS = itertools.count(1)


@dataclass
class EngineOp:
    """One application I/O as seen by the data path.

    ``weight`` is the number of logical application requests this op
    stands for.  Functional traffic always uses weight 1; the measurement
    harness issues pre-filled batches as single ops of weight ``b`` so
    that simulating a 205 MOPS configuration stays tractable (documented
    in DESIGN.md).
    """

    is_read: bool
    size: int
    token: Optional[AccessToken] = None
    offset: int = 0
    data: Optional[bytes] = None
    weight: int = 1
    #: Fires with the op's :class:`OpResult`; created by
    #: :meth:`CacheDataPath.submit` when neither it nor ``on_done`` is
    #: given.
    completion: Optional[Event] = None
    #: Called with the op's :class:`OpResult` in place of ``completion``
    #: (callback chains skip the event's kernel hop).
    on_done: Optional[Callable[["OpResult"], None]] = None
    enqueued_at: float = 0.0
    #: Dependent read: offset of the pointer word to chase first.  The
    #: record is then read at the little-endian u64 the word holds (with
    #: ``offset`` as the fallback on size-only regions).  ``None`` = a
    #: plain direct read/write.
    lookup_offset: Optional[int] = None
    #: Width of the pointer word a dependent read chases.
    lookup_size: int = 8
    #: Dependent read: append a self-verifying CAS guard that re-checks
    #: the pointer at the end of the chain (migration safety).
    verify: bool = False
    #: Standalone single-word compare-and-swap: ``data`` is the swap
    #: value, ``compare`` the expected current word.  CAS ops bypass the
    #: batching protocol (like dependent reads) -- atomicity is a
    #: property of the NIC executing one verb, not of a message batch.
    cas: bool = False
    compare: Optional[bytes] = None
    #: Serving-tier identity: which registered tenant issued this op.
    #: ``None`` (the default) is the classic anonymous single-user path;
    #: the engine only adds per-tenant accounting when it is set.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("op size must be >= 0")
        if self.weight < 1:
            raise ValueError("op weight must be >= 1")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"data length {len(self.data)} != size {self.size}")
        if self.lookup_offset is not None:
            if not self.is_read:
                raise ValueError("dependent lookups are read-only")
            if self.lookup_offset < 0 or self.lookup_size < 1:
                raise ValueError(
                    "dependent lookup needs lookup_offset >= 0 and "
                    "lookup_size >= 1")
        if self.cas:
            if self.is_read or self.lookup_offset is not None:
                raise ValueError("CAS ops are standalone writes")
            if self.data is None or len(self.data) != 8:
                raise ValueError("CAS swap value must be exactly 8 bytes")
            if self.compare is not None and len(self.compare) != 8:
                raise ValueError("CAS compare word must be exactly 8 bytes")
            if self.weight != 1:
                raise ValueError("CAS ops are weight-1 ops")
        elif self.compare is not None:
            raise ValueError("compare is only meaningful on CAS ops")

    @property
    def is_dependent(self) -> bool:
        """A pointer-chasing GET (index hop + log hop)."""
        return self.lookup_offset is not None

    @property
    def request_wire_bytes(self) -> int:
        """Bytes this op adds to a request batch."""
        payload = self.size if not self.is_read else 0
        return self.weight * (OP_HEADER_BYTES + payload)

    @property
    def response_wire_bytes(self) -> int:
        """Bytes this op adds to a response batch."""
        payload = self.size if self.is_read else 0
        return self.weight * (RESP_HEADER_BYTES + payload)


@dataclass
class OpResult:
    """Outcome of one :class:`EngineOp`, delivered via its completion event."""

    ok: bool
    data: Optional[bytes] = None
    error: Optional[str] = None
    latency: float = 0.0


@dataclass
class RequestBatch:
    """A batch of requests sent to a cache server in one RDMA write."""

    ops: List[EngineOp]
    connection_id: int
    created_at: float
    batch_id: int = field(default_factory=lambda: next(_BATCH_IDS))

    @property
    def total_ops(self) -> int:
        return sum(op.weight for op in self.ops)

    @property
    def wire_bytes(self) -> int:
        return sum(op.request_wire_bytes for op in self.ops)

    @property
    def response_bytes(self) -> int:
        return sum(op.response_wire_bytes for op in self.ops)


@dataclass
class ResponseBatch:
    """Results for one request batch, written back into the client's ring."""

    ops: List[EngineOp]
    results: List[OpResult]
    connection_id: int
    #: The request batch this answers (for outstanding-batch tracking).
    batch_id: int = 0

    def __post_init__(self) -> None:
        if len(self.ops) != len(self.results):
            raise ValueError("ops/results length mismatch")


@dataclass
class ConnectRequest:
    """Client -> server *Connect* message (§4.2).

    Carries "the number of physical regions the cache uses on the VM and
    the RDMA configuration": how many data regions to allocate, their
    size, whether communication is one-sided or two-sided, and -- if
    two-sided -- how many server cores the cache may use.  The client
    also passes the tokens of its response rings so the server can write
    results back.
    """

    client_name: str
    n_regions: int
    region_size: int
    server_threads: int
    queue_depth: int
    connections: int
    response_ring_tokens: Sequence[AccessToken]
    backed: bool = True

    def __post_init__(self) -> None:
        if self.n_regions < 0:
            raise ValueError("n_regions must be >= 0")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if len(self.response_ring_tokens) != self.connections:
            raise ValueError(
                "need exactly one response-ring token per connection")


@dataclass
class ConnectReply:
    """Server -> client reply: access tokens, one per region (§4.2)."""

    region_tokens: List[AccessToken]
    request_ring_tokens: List[AccessToken]
