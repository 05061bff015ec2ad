"""Integration tests: the executable data path (engine + cache server)."""

import pytest

from repro.core import RdmaConfig
from repro.core.engine import CacheDataPath, EngineError
from repro.core.protocol import EngineOp
from repro.core.server import CacheServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment
from repro.sim.rng import RngRegistry


def make_stack(config, *, backed=True, region_size=1 << 20, n_regions=1,
               seed=0):
    rngs = RngRegistry(seed)
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client_ep = fabric.add_endpoint("client", Placement())
    server_ep = fabric.add_endpoint("server", Placement())
    server = CacheServer(env, AZURE_HPC, server_ep, rngs.stream("server"))
    path = CacheDataPath(env, AZURE_HPC, config, client_ep,
                         rngs.stream("client"))
    tokens = path.attach_server(server, n_regions=n_regions,
                                region_size=region_size, backed=backed)
    return env, server, path, tokens


def run_op(env, path, op):
    def proc(env):
        yield env.timeout(path.submission_overhead())
        path.submit(op)
        result = yield op.completion
        return result

    return env.run_process(proc(env))


class TestFunctionalDataPath:
    def test_one_sided_write_then_read_round_trip(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4))
        token = tokens[0]
        write = EngineOp(is_read=False, size=11, token=token, offset=64,
                         data=b"hello redy!", completion=env.event())
        assert run_op(env, path, write).ok
        read = EngineOp(is_read=True, size=11, token=token, offset=64,
                        completion=env.event())
        result = run_op(env, path, read)
        assert result.ok
        assert result.data == b"hello redy!"

    def test_two_sided_write_then_read_round_trip(self):
        config = RdmaConfig(2, 2, 4, 4, one_sided_fast_path=False)
        env, _, path, tokens = make_stack(config)
        token = tokens[0]
        write = EngineOp(is_read=False, size=5, token=token, offset=100,
                         data=b"batch", completion=env.event())
        assert run_op(env, path, write).ok
        read = EngineOp(is_read=True, size=5, token=token, offset=100,
                        completion=env.event())
        result = run_op(env, path, read)
        assert result.ok
        assert result.data == b"batch"

    def test_ops_batch_when_queued_together(self):
        config = RdmaConfig(1, 1, 8, 4)
        env, server, path, tokens = make_stack(config)
        token = tokens[0]

        def proc(env):
            ops = []
            for i in range(8):
                op = EngineOp(is_read=False, size=4, token=token,
                              offset=i * 4, data=b"abcd",
                              completion=env.event())
                path.submit(op, thread_index=0)
                ops.append(op)
            yield env.all_of([op.completion for op in ops])

        env.run_process(proc(env))
        # Eight ops submitted back-to-back on one thread with b=8 should
        # travel in very few batches (first may depart alone).
        assert server.batches_processed <= 2
        assert server.ops_processed == 8

    def test_out_of_bounds_op_fails_cleanly(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 1, 4, 4,
                                                     one_sided_fast_path=False),
                                          region_size=128)
        op = EngineOp(is_read=True, size=64, token=tokens[0], offset=100,
                      completion=env.event())
        result = run_op(env, path, op)
        assert not result.ok
        assert "out of bounds" in result.error or "outside" in result.error

    def test_multi_region_routing(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4),
                                          n_regions=3, region_size=4096)
        for i, token in enumerate(tokens):
            payload = bytes([i]) * 8
            write = EngineOp(is_read=False, size=8, token=token, offset=0,
                             data=payload, completion=env.event())
            assert run_op(env, path, write).ok
        for i, token in enumerate(tokens):
            read = EngineOp(is_read=True, size=8, token=token, offset=0,
                            completion=env.event())
            assert run_op(env, path, read).data == bytes([i]) * 8

    def test_unknown_region_rejected(self):
        env, _, path, _ = make_stack(RdmaConfig(1, 0, 1, 4))
        from repro.net.memory import AccessToken
        bogus = AccessToken(region_id=999999, key=1, size=64)
        op = EngineOp(is_read=True, size=8, token=bogus,
                      completion=env.event())
        with pytest.raises(EngineError):
            path.submit(op)


class TestFailureVisibility:
    def test_server_failure_fails_one_sided_ops(self):
        env, server, path, tokens = make_stack(RdmaConfig(1, 0, 1, 4))
        server.fail()
        op = EngineOp(is_read=True, size=8, token=tokens[0],
                      completion=env.event())
        result = run_op(env, path, op)
        assert not result.ok

    def test_server_failure_fails_two_sided_ops(self):
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        server.fail()
        op = EngineOp(is_read=True, size=8, token=tokens[0],
                      completion=env.event())
        result = run_op(env, path, op)
        assert not result.ok
        assert path.ops_failed == 1


class TestStatistics:
    def test_completed_weight_counts_logical_ops(self):
        env, _, path, tokens = make_stack(RdmaConfig(1, 1, 8, 4))
        op = EngineOp(is_read=False, size=8, token=tokens[0], weight=8,
                      completion=env.event())
        run_op(env, path, op)
        assert path.ops_completed == 1
        assert path.completed_weight == 8


class TestResponseTimeout:
    def test_server_death_after_ack_fails_ops_instead_of_hanging(self):
        """The §6.2 hang window: the server receives the request batch
        (the RDMA write is acknowledged) and dies before responding.
        The client's response timeout must fail the ops."""
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        path.op_timeout = 0.001  # keep the test fast

        def scenario(env):
            op = EngineOp(is_read=True, size=8, token=tokens[0],
                          completion=env.event())
            path.submit(op, thread_index=0)
            # Let the request land (delivery ~2.4us), then kill the VM
            # mid-processing, before any response can be posted (~3.3us).
            yield env.timeout(2.6e-6)
            server.fail()
            result = yield op.completion
            return result, env.now

        result, when = env.run_process(scenario(env))
        assert not result.ok
        assert "no response" in result.error
        assert when <= 0.002

    def test_timeout_does_not_fire_for_healthy_batches(self):
        config = RdmaConfig(1, 1, 4, 4, one_sided_fast_path=False)
        env, server, path, tokens = make_stack(config)
        path.op_timeout = 0.001

        def scenario(env):
            results = []
            for i in range(10):
                op = EngineOp(is_read=False, size=8, token=tokens[0],
                              offset=i * 8, data=bytes([i]) * 8,
                              completion=env.event())
                path.submit(op, thread_index=0)
                results.append((yield op.completion))
            # Run past every watchdog deadline: nothing double-fires.
            yield env.timeout(0.01)
            return results

        results = env.run_process(scenario(env))
        assert all(r.ok for r in results)
        assert path.ops_failed == 0
