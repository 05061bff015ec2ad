"""The transmit link as a closed-form FIFO reservation.

A message that reaches its endpoint's link at ``t`` serializes over
``[max(t, tx_free_at), + wire)``; a leg without a rack uplink lands in
one kernel entry at ``end + flight``.  These tests pin the queueing the
held-link model produced: post order, back-to-back spacing, the uplink
queueing behind the tx serialization, and when a throttle applies.
"""

import pytest

from repro.faults import FaultInjector, FaultSchedule, SlowNode
from repro.hardware import AZURE_HPC
from repro.net import (
    Fabric,
    MemoryRegion,
    Placement,
    QueuePair,
    RdmaOp,
    WorkRequest,
)
from repro.net.programs import CAS_WORD_BYTES, VerbProgram
from repro.sim import Environment, US


def make_link(profile=AZURE_HPC, dst_placement=Placement(0, 0)):
    env = Environment()
    fabric = Fabric(env, profile)
    src = fabric.add_endpoint("src", Placement(0, 0))
    dst = fabric.add_endpoint("dst", dst_placement)
    return env, fabric, src, dst


def send_all(env, fabric, src, dst, sizes, at=0.0):
    """Post one message per size at ``at``; return their landing times
    in landing order as (index, time)."""
    landed = []

    def post():
        for index, size in enumerate(sizes):
            fabric.send(src, dst, size,
                        lambda _e, index=index: landed.append(
                            (index, env.now)))

    env.timeout_at(at).callbacks = [lambda _e: post()]
    env.run()
    return landed


def test_same_instant_sends_land_in_post_order_one_wire_time_apart():
    env, fabric, src, dst = make_link()
    size = 64 << 10
    wire = AZURE_HPC.nic.wire_time(size)
    flight = AZURE_HPC.fabric.one_way_base(
        src.placement.switch_hops_to(dst.placement))
    start = 1.3 * US
    landed = send_all(env, fabric, src, dst, [size] * 6, at=start)
    assert [index for index, _ in landed] == list(range(6))
    end = start
    for _index, when in landed:
        end = end + wire
        assert when == end + flight
    gaps = [b - a for (_i, a), (_j, b) in zip(landed, landed[1:])]
    assert gaps == pytest.approx([wire] * 5, rel=1e-9)
    assert src.tx_free_at == end
    assert src.tx_busy_seconds == pytest.approx(6 * wire)


def test_idle_link_starts_serializing_at_once():
    env, fabric, src, dst = make_link()
    size = 4096
    wire = AZURE_HPC.nic.wire_time(size)
    first = send_all(env, fabric, src, dst, [size], at=0.0)
    # Long after the link went idle, a new message does not queue.
    later = send_all(env, fabric, src, dst, [size], at=1e-3)
    assert later[0][1] - 1e-3 == pytest.approx(first[0][1], rel=1e-9)
    assert src.tx_free_at == 1e-3 + wire


def test_rack_uplink_queues_behind_the_tx_reservation():
    """Cross-rack messages enter the uplink only once their own tx
    serialization ends, even when the uplink itself is idle."""
    uplink_gbps = 400.0  # faster than the NIC: the tx link is the queue
    profile = AZURE_HPC.with_overrides(
        fabric=AZURE_HPC.fabric.__class__(rack_uplink_gbps=uplink_gbps))
    env, fabric, src, dst = make_link(profile, Placement(0, 1))
    size = 256 << 10
    wire = profile.nic.wire_time(size)
    uplink = size * 8 / (uplink_gbps * 1e9)
    assert uplink < wire
    flight = profile.fabric.one_way_base(
        src.placement.switch_hops_to(dst.placement))
    landed = send_all(env, fabric, src, dst, [size] * 3)
    end = 0.0
    for expected_index, (index, when) in enumerate(landed):
        end = end + wire
        assert index == expected_index
        assert when == (end + uplink) + flight


def test_rack_uplink_serializes_flows_from_one_rack():
    """A slow uplink is the bottleneck: the second message waits for
    the first to clear it."""
    uplink_gbps = 10.0
    profile = AZURE_HPC.with_overrides(
        fabric=AZURE_HPC.fabric.__class__(rack_uplink_gbps=uplink_gbps))
    env, fabric, src, dst = make_link(profile, Placement(0, 1))
    size = 256 << 10
    wire = profile.nic.wire_time(size)
    uplink = size * 8 / (uplink_gbps * 1e9)
    assert uplink > wire
    flight = profile.fabric.one_way_base(
        src.placement.switch_hops_to(dst.placement))
    (_, first), (_, second) = send_all(env, fabric, src, dst, [size] * 2)
    assert first == (wire + uplink) + flight
    assert second == ((wire + uplink) + uplink) + flight


def test_slow_node_throttle_applies_from_the_next_reservation():
    """A throttle change leaves messages already on the link alone and
    stretches every message that reserves it while the throttle holds."""
    env, fabric, src, dst = make_link()
    injector = FaultInjector(env, fabric=fabric)
    factor = 8.0
    injector.arm(FaultSchedule([
        SlowNode(at=1 * US, endpoint="src", duration_s=10 * US,
                 factor=factor)]))
    size = 64 << 10
    wire = AZURE_HPC.nic.wire_time(size)
    assert 1 * US < wire  # the throttle lands while A serializes
    flight = AZURE_HPC.fabric.one_way_base(
        src.placement.switch_hops_to(dst.placement))
    landed = {}

    def post(tag):
        fabric.send(src, dst, size,
                    lambda _e: landed.setdefault(tag, env.now))

    env.timeout_at(0.0).callbacks = [lambda _e: post("a")]
    env.timeout_at(2 * US).callbacks = [lambda _e: post("b")]
    env.timeout_at(20 * US).callbacks = [lambda _e: post("c")]
    env.run()
    a_end = 0.0 + wire
    b_end = a_end + wire * factor
    # The throttle cleared at 11 us, while B was still serializing.
    assert 11 * US < b_end
    c_end = b_end + wire
    assert landed == {"a": a_end + flight, "b": b_end + flight,
                      "c": c_end + flight}
    assert src.throttle == 1.0


def test_transmit_generator_matches_send():
    """The process form lands on the same float as the callback form."""
    size = 8192
    times = []
    for use_process in (False, True):
        env, fabric, src, dst = make_link()
        if use_process:
            def proc(env):
                yield env.timeout(0.7 * US)
                yield from fabric.transmit(src, dst, size)
                return env.now
            times.append(env.run_process(proc(env)))
        else:
            times.append(send_all(env, fabric, src, dst, [size],
                                  at=0.7 * US)[0][1])
    assert times[0] == times[1]


def _stages(start, *delays):
    """``start`` advanced by each delay in turn: the float a chain of
    relative timeouts reaches."""
    when = start
    for delay in delays:
        when = when + delay
    return when


@pytest.mark.parametrize("kind", ["read", "write-inline", "write-dma",
                                  "cas", "program"])
def test_verb_timeline_matches_chained_stage_sums(kind):
    """Each verb kind completes on exactly the float the per-stage
    timeouts of the §4 budget add up to, from a clock where float
    association matters."""
    env, _fabric, client, server = make_link()
    nic = AZURE_HPC.nic
    region = server.register(MemoryRegion(1 << 16, backing=True))
    qp = QueuePair(env, client, server, max_depth=4)
    flight = AZURE_HPC.fabric.one_way_base(
        client.placement.switch_hops_to(server.placement))
    start = 0.37 * US
    pm = nic.per_message_processing
    if kind == "read":
        size = 100
        wr = WorkRequest(RdmaOp.READ, region.token, 0, size)
        expected = _stages(start, pm, nic.wire_time(0), flight,
                           nic.dma_fetch(size), nic.wire_time(size), flight,
                           nic.rx_dma)
    elif kind.startswith("write"):
        size = 64 if kind == "write-inline" else 4096
        wr = WorkRequest(RdmaOp.WRITE, region.token, 0, size,
                         data=b"w" * size)
        gather = () if nic.can_inline(size) else (nic.dma_fetch(size),)
        expected = _stages(start, pm, *gather, nic.wire_time(size), flight,
                           nic.rx_dma, nic.wire_time(0), flight)
    elif kind == "cas":
        wr = WorkRequest(RdmaOp.CAS, region.token, 0, CAS_WORD_BYTES,
                         data=b"\x01" * 8)
        expected = _stages(
            start, pm, nic.wire_time(2 * CAS_WORD_BYTES), flight,
            # Service plus a context-cache penalty (0: no cache model).
            nic.program_step_latency + nic.dma_fetch(CAS_WORD_BYTES) + 0.0,
            nic.wire_time(CAS_WORD_BYTES), flight, nic.rx_dma)
    else:
        program = VerbProgram.dependent_read(pointer_offset=64,
                                             read_bytes=32)
        wr = WorkRequest(RdmaOp.PROGRAM, region.token, 0,
                         program.request_wire_bytes, program=program)
        service = 0.0
        for step in program.steps:
            service += nic.program_step_latency
            if step.length:
                service += nic.dma_fetch(step.length)
        expected = _stages(start, pm,
                           nic.wire_time(program.request_wire_bytes), flight,
                           service,
                           nic.wire_time(program.response_wire_bytes),
                           flight, nic.rx_dma)

    def proc(env):
        yield env.timeout(start)
        completion = yield qp.post(wr)
        return completion, env.now

    completion, now = env.run_process(proc(env))
    assert completion.ok, completion.error
    assert now == expected
