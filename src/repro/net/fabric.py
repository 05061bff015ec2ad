"""Network fabric: endpoints, placement, and message delivery.

The fabric owns the physical-layer costs: transmit serialization at line
rate (shared by everything an endpoint sends -- this is how migration
traffic contends with foreground traffic in the Figure 15/16 experiments)
and per-switch-hop propagation latency.

An endpoint's transmit link is a closed-form FIFO reservation: a message
that reaches the link at ``t`` serializes over ``[max(t, tx_free_at),
+ wire)`` and pushes ``tx_free_at`` to its end, so a whole request or
response leg costs one kernel entry, a timeout at its landing time.
Every timestamp equals the one a FIFO-held link reaches.

Topology follows the paper's three network distances (§5.2): endpoints in
the same rack are one switch apart, same cluster three, different
clusters five.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.hardware.nic import QpContextCache
from repro.hardware.profiles import (
    SWITCH_HOPS_INTER_CLUSTER,
    SWITCH_HOPS_INTRA_CLUSTER,
    SWITCH_HOPS_INTRA_RACK,
    TestbedProfile,
)
from repro.net.memory import MemoryRegion
from repro.obs.metrics import registry_of
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource

__all__ = ["Endpoint", "Fabric", "Placement"]


@dataclass(frozen=True)
class Placement:
    """Where an endpoint lives in the data-center topology."""

    cluster: int = 0
    rack: int = 0

    def switch_hops_to(self, other: "Placement") -> int:
        if self.cluster != other.cluster:
            return SWITCH_HOPS_INTER_CLUSTER
        if self.rack != other.rack:
            return SWITCH_HOPS_INTRA_CLUSTER
        return SWITCH_HOPS_INTRA_RACK


class Endpoint:
    """One RDMA NIC port with its registered memory regions.

    Endpoints are created through :meth:`Fabric.add_endpoint`.
    """

    def __init__(self, fabric: "Fabric", name: str, placement: Placement):
        self.fabric = fabric
        self.name = name
        self.placement = placement
        #: When the transmit link finishes serializing everything reserved
        #: on it so far.  Shared by every QP on this endpoint, so bulk
        #: transfers and foreground traffic contend (see Fabric.send).
        self.tx_free_at = 0.0
        #: Serialization seconds reserved on this endpoint's tx link
        #: (drives the fabric's link-utilization metric).
        self.tx_busy_seconds = 0.0
        self.regions: Dict[int, MemoryRegion] = {}
        self.alive = True
        #: Every queue pair touching this endpoint (either side), so a
        #: link fault can flush all of them (see ``repro.faults``).
        self.qps: list = []
        #: Serialization slowdown factor (>= 1).  ``repro.faults`` sets
        #: it above 1 to model a throttled/overheating node; every
        #: message that reserves the link while it is raised stretches
        #: its wire time by this factor.
        self.throttle = 1.0
        #: Whether this NIC can execute chained verb programs as the
        #: responder (see ``repro.net.programs``).  Heterogeneous fleets
        #: have older NICs without chained-WQE support; posting a PROGRAM
        #: at one completes in error and the data path falls back to the
        #: classic two-hop sequence.
        self.supports_programs = True
        #: On-NIC QP-context (ICM) cache.  ``None`` -- the historical
        #: default -- models an always-resident context (no per-QP NIC
        #: state pressure); control-plane modeling installs an LRU of
        #: ``NicSpec.qp_context_cache_entries`` and every verb through
        #: this NIC then touches it (see ``repro.net.qp``).
        self.qp_context_cache: Optional[QpContextCache] = None
        #: Installed verb-program descriptor shapes (see
        #: ``repro.net.programs.ProgramShapeCache``).  ``None`` until
        #: control-plane modeling is enabled; then program descriptors
        #: whose shape is already installed at this responder ride a
        #: compact wire reference instead of the full descriptor.
        self.program_shapes = None
        if fabric.model_control_plane:
            self.enable_control_plane_model()

    def enable_control_plane_model(self) -> None:
        """Install the per-NIC control-plane state (QP-context cache +
        program-shape cache) on this endpoint.  Idempotent."""
        if self.qp_context_cache is None:
            self.qp_context_cache = QpContextCache(
                self.fabric.profile.nic.qp_context_cache_entries)
        if self.program_shapes is None:
            from repro.net.programs import ProgramShapeCache

            self.program_shapes = ProgramShapeCache()

    def register(self, region: MemoryRegion) -> MemoryRegion:
        """Register a memory region with this NIC.

        First registration re-issues the region's id and token key from
        the fabric's per-run counters, keeping ids bit-identical across
        same-seed runs in one interpreter (region ids reach routing
        tables and replay traces, so leaking a module-global counter
        across runs shows up as schedule divergence).
        """
        region.rebind_identity(*self.fabric.issue_region_identity())
        self.regions[region.region_id] = region
        return region

    def register_timed(self, region: MemoryRegion
                       ) -> Generator[Event, None, MemoryRegion]:
        """Process: register ``region``, charging the NIC's registration
        latency first (base + size-proportional pinning cost).

        The synchronous :meth:`register` keeps the historical free
        path; control-plane-aware callers (``repro.cplane``, the
        connect storm) go through this one so registration cost lands
        on the session-establishment critical path, where Swift
        measures it.
        """
        nic = self.fabric.profile.nic
        yield self.fabric.env.timeout(nic.mr_register_latency(region.size))
        self.fabric.note_mr_registration(region.size)
        return self.register(region)

    def deregister(self, region_id: int) -> None:
        region = self.regions.pop(region_id, None)
        if region is not None:
            region.revoke()

    def drop_qp(self, qp) -> None:
        """Forget one queue pair (QP reclaim path).  Without this, the
        ``qps`` registry grows forever across client churn -- the
        region/QP token leak the control-plane PR fixes."""
        try:
            self.qps.remove(qp)
        except ValueError:
            pass
        if self.qp_context_cache is not None:
            self.qp_context_cache.evict(qp.qp_id)

    def find_region(self, region_id: int) -> Optional[MemoryRegion]:
        return self.regions.get(region_id)

    def fail(self) -> None:
        """Kill the endpoint (VM failure / reclamation finalized).

        All registered regions are revoked; in-flight and future verbs
        targeting it complete in error.
        """
        self.alive = False
        for region in self.regions.values():
            region.revoke()
        self.regions.clear()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Endpoint {self.name} {self.placement} {state}>"


class Fabric:
    """The data-center network connecting all endpoints."""

    def __init__(self, env: Environment, profile: TestbedProfile,
                 model_control_plane: bool = False):
        self.env = env
        self.profile = profile
        #: Charge RDMA control-plane costs (QP create/connect handshake,
        #: registration latency, QP-context cache pressure).  Off by
        #: default: the paper's long-lived-client experiments assume an
        #: amortized control plane, and their calibration must not move.
        #: ``repro.cplane.ControlPlane`` flips it (and retrofits already
        #: -created endpoints) when it attaches to a fabric.
        self.model_control_plane = model_control_plane
        self._endpoints: Dict[str, Endpoint] = {}
        #: Shared rack-uplink serializers, created lazily per rack when
        #: the profile declares finite uplink bandwidth.
        self._uplinks: Dict[tuple[int, int], Resource] = {}
        #: Fabric-wide extra one-way propagation delay, seconds.  The
        #: fault injector raises it for the duration of a transient
        #: latency spike (congestion, PFC storm) and lowers it back; a
        #: message pays the value in force when it reserves its link.
        self.extra_latency_s = 0.0
        #: Per-run region-id / token-key sources (see Endpoint.register).
        self._region_ids = itertools.count(1)
        self._token_keys = itertools.count(0x1000)
        #: Per-run QP-id source: context-cache keys and the cplane event
        #: log carry QP ids, so like region ids they must be scoped to
        #: the fabric (not a module global) to replay bit-identically.
        self._qp_ids = itertools.count(1)
        #: Lifetime control-plane accounting (registration work done
        #: through the timed path).
        self.mr_registrations = 0
        self.mr_registered_bytes = 0
        # Memoized pure-profile costs, keyed by hop count / payload size.
        # The profile is immutable, so the cached floats are the exact
        # values the methods return; transmit() runs once per simulated
        # message and these two lookups replace method calls on it.
        self._one_way_cache: Dict[int, float] = {}
        self._wire_time_cache: Dict[int, float] = {}
        metrics = registry_of(env)
        if metrics is not None:
            self._bytes_moved = metrics.counter("fabric.bytes")
            self._messages = metrics.counter("fabric.messages")
            #: Aggregate serialization seconds across all tx links; the
            #: exporter divides by (endpoints x sim time) for utilization.
            self._tx_busy = metrics.counter("fabric.tx_busy_seconds")
        else:
            self._bytes_moved = None
            self._messages = None
            self._tx_busy = None
        #: Reserved serializations not yet added to ``fabric.tx_busy_
        #: seconds``: ``(end, seq, wire_time)``.  They are added once
        #: their end has passed, in end order, so the float sum is the
        #: one a per-message add at serialization end produces.
        self._unsettled: List[Tuple[float, int, float]] = []
        self._unsettled_seq = 0

    def issue_region_identity(self) -> tuple[int, int]:
        """Next (region_id, token_key) pair for a region registration."""
        return next(self._region_ids), next(self._token_keys)

    def issue_qp_id(self) -> int:
        """Next queue-pair id (per-run counter; see ``_qp_ids``)."""
        return next(self._qp_ids)

    def note_mr_registration(self, region_bytes: int) -> None:
        """Account one timed memory registration."""
        self.mr_registrations += 1
        self.mr_registered_bytes += region_bytes

    def enable_control_plane_model(self) -> None:
        """Turn on control-plane cost modeling, retrofitting endpoints
        created before the switch was flipped.  Idempotent."""
        self.model_control_plane = True
        for endpoint in self._endpoints.values():
            endpoint.enable_control_plane_model()

    def link_utilization(self, endpoint_name: str) -> float:
        """Fraction of simulated time ``endpoint_name``'s tx link spent
        serializing, from per-endpoint busy-seconds accounting (a
        message counts from the moment it reserves the link)."""
        endpoint = self._endpoints[endpoint_name]
        return endpoint.tx_busy_seconds / self.env.now if self.env.now else 0.0

    def _rack_uplink(self, placement: Placement) -> Optional[Resource]:
        if self.profile.fabric.rack_uplink_gbps is None:
            return None
        key = (placement.cluster, placement.rack)
        uplink = self._uplinks.get(key)
        if uplink is None:
            uplink = Resource(self.env, slots=1)
            self._uplinks[key] = uplink
        return uplink

    def add_endpoint(self, name: str,
                     placement: Placement = Placement()) -> Endpoint:
        if name in self._endpoints:
            raise ValueError(f"endpoint name {name!r} already in use")
        endpoint = Endpoint(self, name, placement)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    def switch_hops(self, src: Endpoint, dst: Endpoint) -> int:
        return src.placement.switch_hops_to(dst.placement)

    def _reserve(self, src: Endpoint, dst: Endpoint, wire_payload_bytes: int
                 ) -> Tuple[float, float, Optional[Resource]]:
        """Reserve ``src``'s tx link for one message posted now.

        Returns ``(end, flight, uplink)``: when serialization ends, the
        one-way propagation still ahead of the message, and the rack
        uplink it must cross first (``None`` when it crosses none).
        The throttle and the fabric's extra latency are the values in
        force now, at reservation.
        """
        wire_time = self._wire_time_cache.get(wire_payload_bytes)
        if wire_time is None:
            wire_time = self.profile.nic.wire_time(wire_payload_bytes)
            self._wire_time_cache[wire_payload_bytes] = wire_time
        wire_time = wire_time * src.throttle
        start = self.env._now
        if src.tx_free_at > start:
            start = src.tx_free_at
        end = start + wire_time
        src.tx_free_at = end
        src.tx_busy_seconds += wire_time
        if self._tx_busy is not None:
            self._unsettled_seq += 1
            heappush(self._unsettled, (end, self._unsettled_seq, wire_time))
            self._bytes_moved.inc(wire_payload_bytes)
            self._messages.inc()
        hops = src.placement.switch_hops_to(dst.placement)
        base = self._one_way_cache.get(hops)
        if base is None:
            base = self.profile.fabric.one_way_base(hops)
            self._one_way_cache[hops] = base
        uplink = None
        if hops > SWITCH_HOPS_INTRA_RACK:
            # Cross-rack traffic squeezes through the rack's shared
            # uplink when the fabric is oversubscribed.
            uplink = self._rack_uplink(src.placement)
        return end, base + self.extra_latency_s, uplink

    def _settle(self, _event: Event) -> None:
        """Add every reserved serialization that has ended by now to
        ``fabric.tx_busy_seconds``, in end order."""
        unsettled = self._unsettled
        now = self.env._now
        tx_busy = self._tx_busy
        while unsettled and unsettled[0][0] <= now:
            tx_busy.inc(heappop(unsettled)[2])

    def send(self, src: Endpoint, dst: Endpoint, wire_payload_bytes: int,
             then: Callable[[Event], None], tail: float = 0.0) -> None:
        """Move one message from ``src`` to ``dst``; call ``then`` (with
        the firing timeout) once it has landed and ``tail`` more
        seconds have passed.

        ``tail`` fuses the receiver's next fixed stage (a DMA into host
        memory) into the landing entry: it fires at exactly
        ``(landing + tail)``, the float a separate ``timeout(tail)``
        after landing reaches.  Without a rack uplink on the path the
        whole leg is one kernel entry; crossing an uplink adds a stage
        at serialization end, where the message queues for it.
        """
        end, flight, uplink = self._reserve(src, dst, wire_payload_bytes)
        callbacks = ([then] if self._tx_busy is None
                     else [self._settle, then])
        if uplink is None:
            self.env.timeout_at((end + flight) + tail).callbacks = callbacks
        else:
            self.env.timeout_at(end).callbacks = [
                lambda _e: self._cross_uplink(uplink, wire_payload_bytes,
                                              flight, tail, callbacks)]

    def _cross_uplink(self, uplink: Resource, wire_payload_bytes: int,
                      flight: float, tail: float, callbacks: list) -> None:
        """Uplink stage of :meth:`send`: queue FIFO for the rack uplink,
        serialize through it, then fly the rest of the way."""
        env = self.env

        def crossed(_event: Event) -> None:
            uplink.release()
            env.timeout_at((env.now + flight) + tail).callbacks = callbacks

        def granted(_event: Optional[Event] = None) -> None:
            env.timeout(wire_payload_bytes * 8 / (
                self.profile.fabric.rack_uplink_gbps * 1e9)).callbacks = [
                    crossed]

        if uplink.try_acquire():
            granted()
        else:
            uplink.acquire().callbacks = [granted]

    def transmit(self, src: Endpoint, dst: Endpoint,
                 wire_payload_bytes: int) -> Generator[Event, None, None]:
        """Process: move one message from ``src`` to ``dst``.

        The generator form of :meth:`send`, for control-plane paths
        that run as processes (connection handshakes, the RPC
        baseline).  Propagation does not hold the link: back-to-back
        messages pipeline, which is what makes queue depth effective.
        """
        landed = self.env.event()
        self.send(src, dst, wire_payload_bytes, landed.succeed)
        yield landed
