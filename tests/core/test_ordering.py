"""The §4.2 ordering guarantee.

"Redy guarantees that all asynchronous requests are executed in order:
requests from an application thread are batched in program order,
batches are delivered in order with reliable RDMA connections, and they
are processed in order by server threads."
"""

import numpy as np
import pytest

from repro.core import RdmaConfig
from repro.core.engine import CacheDataPath
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment
from repro.sim.rng import RngRegistry


def make_stack(config, seed=0):
    rngs = RngRegistry(seed)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client_ep = fabric.add_endpoint("client", Placement())
    server_ep = fabric.add_endpoint("server", Placement())
    server = CacheServer(env, AZURE_HPC, server_ep, rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, config, client_ep,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=1, region_size=1 << 16)
    return env, path, tokens[0]


@pytest.mark.parametrize("config", [
    RdmaConfig(1, 0, 1, 8),                              # one-sided, deep
    RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False),   # batched
])
def test_same_thread_writes_execute_in_program_order(config):
    """Burst N overlapping writes to ONE address from one thread: the
    final content must be the LAST write's payload, at any queue depth."""
    env, path, token = make_stack(config)

    def scenario(env):
        done = []
        for value in range(16):
            done.append(env.event())
            op = EngineOp(is_read=False, size=8, token=token, offset=0,
                          data=value.to_bytes(8, "little"),
                          on_done=done[-1].succeed)
            path.submit(op, thread_index=0)
        yield env.all_of(done)
        read_done = env.event()
        read = EngineOp(is_read=True, size=8, token=token, offset=0,
                        on_done=read_done.succeed)
        path.submit(read, thread_index=0)
        result = yield read_done
        return result.data

    data = env.run_process(scenario(env))
    assert data == (15).to_bytes(8, "little")


@pytest.mark.parametrize("config", [
    RdmaConfig(1, 0, 1, 8),
    RdmaConfig(1, 1, 8, 4, one_sided_fast_path=False),
])
def test_completions_arrive_in_submission_order(config):
    env, path, token = make_stack(config)
    completed = []

    def scenario(env):
        done = []
        for index in range(24):
            done.append(env.event())
            op = EngineOp(is_read=False, size=8, token=token,
                          offset=(index % 8) * 8,
                          data=index.to_bytes(8, "little"),
                          on_done=done[-1].succeed)
            done[-1]._add_callback(
                lambda ev, index=index: completed.append(index))
            path.submit(op, thread_index=0)
        yield env.all_of(done)

    env.run_process(scenario(env))
    assert completed == sorted(completed)


def test_read_after_write_same_thread_sees_the_write():
    """Program-order read-after-write dependency on one connection."""
    env, path, token = make_stack(RdmaConfig(1, 1, 4, 4,
                                             one_sided_fast_path=False))

    def scenario(env):
        rng = np.random.default_rng(3)
        for round_index in range(20):
            payload = bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
            write = EngineOp(is_read=False, size=8, token=token, offset=32,
                             data=payload)
            read_done = env.event()
            read = EngineOp(is_read=True, size=8, token=token, offset=32,
                            on_done=read_done.succeed)
            # Submit both back to back WITHOUT waiting for the write.
            path.submit(write, thread_index=0)
            path.submit(read, thread_index=0)
            result = yield read_done
            assert result.ok
            assert result.data == payload, round_index

    env.run_process(scenario(env))
