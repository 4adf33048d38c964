import socket
import struct
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from helmfft.errors import ExchangeError
from helmfft.grid import Domain, make_grid
from helmfft.solver import (Partitioned, SolverConfig, exchange_forward,
                            exchange_inverse, make_exchange_plan)
from helmfft.transport import (REAL_TAG, STAGE_FORWARD, STAGE_INVERSE, InProcessMesh,
                               SocketTransport, decode_frame, encode_frame,
                               socket_mesh)


class TestFrameFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        frame = encode_frame(1, 2, STAGE_FORWARD, block)
        (length,) = struct.unpack_from("<I", frame)
        assert length == len(frame) - 4
        out = decode_frame(frame[4:])
        assert out[:3] == (1, 2, STAGE_FORWARD)
        assert np.array_equal(out[3], block)

    def test_wire_layout_is_little_endian_x_fastest(self):
        # block of extents x=2, y=1, z=2 with recognizable values
        block = np.array([[[1 + 2j, 3 + 4j]], [[5 + 6j, 7 + 8j]]])
        frame = encode_frame(0, 3, STAGE_INVERSE, block)
        length, from_p, to_p, stage, ex, ey, ez = struct.unpack_from("<7I", frame)
        assert (from_p, to_p, stage) == (0, 3, STAGE_INVERSE)
        assert (ex, ey, ez) == (2, 1, 2)
        assert length == 24 + 4 * 16
        floats = struct.unpack_from("<8d", frame, 4 + 24)
        # x index fastest, (re, im) pairs
        assert floats == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

    def test_decode_rejects_truncated_payload(self):
        block = np.ones((1, 1, 1), dtype=complex)
        frame = encode_frame(0, 1, STAGE_FORWARD, block)
        with pytest.raises(ExchangeError):
            decode_frame(frame[4:-8])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_roundtrip_keeps_the_block_dtype_bitwise(self, dtype):
        rng = np.random.default_rng(9)
        block = rng.standard_normal((3, 2, 4)).astype(dtype)
        if dtype is complex:
            block += 1j * rng.standard_normal((3, 2, 4))
        frame = encode_frame(2, 0, STAGE_INVERSE, block)
        assert len(frame) == 4 + 24 + block.nbytes
        from_p, to_p, stage, out = decode_frame(bytearray(frame[4:]))
        assert (from_p, to_p, stage) == (2, 0, STAGE_INVERSE)
        assert out.dtype == block.dtype
        assert np.array_equal(out.view(np.uint64), block.view(np.uint64))

    def test_real_frame_layout(self):
        block = np.array([[[1.5, -2.0]]])
        frame = encode_frame(1, 0, STAGE_FORWARD, block)
        length, from_p, to_p, tag, ex, ey, ez = struct.unpack_from("<7I", frame)
        assert (from_p, to_p, tag, ex, ey, ez) == (1, 0, STAGE_FORWARD + REAL_TAG, 2, 1, 1)
        assert length == 24 + 2 * 8
        assert struct.unpack_from("<2d", frame, 4 + 24) == (1.5, -2.0)

    @pytest.mark.parametrize("cut", [8, 16])
    def test_payload_not_matching_its_value_type_names_the_edge(self, cut):
        # a complex frame cut to half its values, or a real frame cut by one value
        dtype = complex if cut == 8 else float
        frame = encode_frame(3, 1, STAGE_FORWARD, np.ones((2, 1, 1), dtype=dtype))
        with pytest.raises(ExchangeError) as err:
            decode_frame(frame[4:-cut])
        assert (err.value.sender, err.value.receiver) == (3, 1)

    def test_unknown_value_type_names_the_edge(self):
        frame = bytearray(encode_frame(0, 2, STAGE_FORWARD, np.ones((1, 1, 1))))
        struct.pack_into("<I", frame, 12, STAGE_FORWARD + 2 * REAL_TAG)
        with pytest.raises(ExchangeError) as err:
            decode_frame(frame[4:])
        assert (err.value.sender, err.value.receiver) == (0, 2)


class TestInProcessTransport:
    def test_send_receive_ordering(self):
        mesh = InProcessMesh(2, timeout=5.0)
        a, b = mesh.endpoint(0), mesh.endpoint(1)
        first = np.ones((1, 1, 2), dtype=complex)
        second = 2 * first
        a.send(1, STAGE_FORWARD, first)
        a.send(1, STAGE_FORWARD, second)
        assert np.array_equal(b.receive(0, STAGE_FORWARD, (2, 1, 1)), first)
        assert np.array_equal(b.receive(0, STAGE_FORWARD, (2, 1, 1)), second)

    def test_extent_mismatch_raises(self):
        mesh = InProcessMesh(2, timeout=1.0)
        mesh.endpoint(0).send(1, STAGE_FORWARD, np.ones((1, 1, 2), dtype=complex))
        with pytest.raises(ExchangeError):
            mesh.endpoint(1).receive(0, STAGE_FORWARD, (3, 1, 1))

    def test_timeout_names_edge(self):
        mesh = InProcessMesh(2, timeout=0.05)
        with pytest.raises(ExchangeError) as err:
            mesh.endpoint(1).receive(0, STAGE_FORWARD, (1, 1, 1))
        assert err.value.sender == 0 and err.value.receiver == 1


class TestSocketTransport:
    def test_pairwise_send_receive(self):
        transports = socket_mesh(2)
        try:
            block = np.arange(6, dtype=complex).reshape(1, 2, 3)
            transports[0].send(1, STAGE_FORWARD, block)
            got = transports[1].receive(0, STAGE_FORWARD, (3, 2, 1), timeout=5.0)
            assert np.array_equal(got, block)
        finally:
            for t in transports:
                t.close()

    @pytest.mark.parametrize("cut", ["short-payload", "closed-mid-frame"])
    def test_truncated_frame_fails_fast_naming_edge(self, cut):
        transports = socket_mesh(2)
        try:
            block = np.arange(6, dtype=complex).reshape(1, 2, 3)
            frame = encode_frame(0, 1, STAGE_FORWARD, block)
            sock = transports[0]._socks[1]
            sock.sendall(frame)
            if cut == "short-payload":
                # the length word counts the bytes sent, 16 fewer than the extents need
                sock.sendall(struct.pack("<I", len(frame) - 20) + frame[4:-16])
            else:
                sock.sendall(frame[:-16])
                sock.shutdown(socket.SHUT_WR)
            # blocks read before the fault are still delivered, in order
            got = transports[1].receive(0, STAGE_FORWARD, (3, 2, 1), timeout=5.0)
            assert np.array_equal(got, block)
            start = time.perf_counter()
            for _ in range(2):  # the fault stays raised for later receives
                with pytest.raises(ExchangeError) as err:
                    transports[1].receive(0, STAGE_FORWARD, (3, 2, 1), timeout=30.0)
                assert (err.value.sender, err.value.receiver) == (0, 1)
            assert time.perf_counter() - start < 5.0
        finally:
            for t in transports:
                t.close()

    def test_clean_close_after_last_receive_raises_nothing(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        transports = socket_mesh(2)
        transports[0].send(1, STAGE_FORWARD, np.ones((1, 1, 2), dtype=complex))
        got = transports[1].receive(0, STAGE_FORWARD, (2, 1, 1), timeout=5.0)
        delivered = weakref.ref(got)
        for t in transports:
            t.close()
            # close waits for its readers before freeing their descriptors
            assert not any(reader.is_alive() for reader in t._readers)
        assert escaped == []
        del got  # the stopped readers must not keep the last block alive
        assert delivered() is None

    def test_receive_decodes_in_place_and_frees_block(self):
        # a forward block of a 159^3 solve in two parts: 80 planes x 79 rows
        block = np.arange(80 * 79 * 159, dtype=complex).reshape(80, 79, 159)
        frame = encode_frame(0, 1, STAGE_FORWARD, block)
        transports = socket_mesh(2)
        sender = threading.Thread(target=transports[0]._socks[1].sendall, args=(frame,))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sender.start()  # the frame was encoded before tracing began
            got = transports[1].receive(0, STAGE_FORWARD, (159, 79, 80), timeout=30.0)
            sender.join(timeout=30.0)
            assert not sender.is_alive()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert np.array_equal(got, block)
            assert got.flags.writeable
            del got
            deadline = time.perf_counter() + 5.0  # the reader drops its references
            while (tracemalloc.get_traced_memory()[0] - base >= 2**20
                   and time.perf_counter() < deadline):
                time.sleep(0.01)
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            for t in transports:
                t.close()
        assert peak <= 1.1 * block.nbytes, peak / block.nbytes
        assert left < 2**20, left

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_send_writes_the_block_from_its_own_memory(self, dtype):
        # a forward block of a 159^3 solve in two parts: 80 planes x 79 rows
        block = np.arange(80 * 79 * 159, dtype=dtype).reshape(80, 79, 159)
        a, b = socket.socketpair()
        received = bytearray(4 + 24 + block.nbytes)  # allocated before tracing

        def drain():
            view, got = memoryview(received), 0
            while got < len(received):
                got += b.recv_into(view[got:])

        transport = SocketTransport(0, {1: a})
        reader = threading.Thread(target=drain)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reader.start()
            transport.send(1, STAGE_FORWARD, block)
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            transport.close()
            b.close()
        assert peak <= 1.1 * block.nbytes, peak / block.nbytes
        assert struct.unpack_from("<I", received)[0] == 24 + block.nbytes
        from_p, to_p, stage, got = decode_frame(received[4:])
        assert (from_p, to_p, stage) == (0, 1, STAGE_FORWARD)
        assert got.dtype == block.dtype and np.array_equal(got, block)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_round_trip_bitwise_in_their_dtype(self, dtype):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((5, 3, 7)).astype(dtype)
        if dtype is complex:
            block += 1j * rng.standard_normal(block.shape)
        transports = socket_mesh(2)
        try:
            transports[1].send(0, STAGE_INVERSE, block)
            got = transports[0].receive(1, STAGE_INVERSE, (7, 3, 5), timeout=5.0)
        finally:
            for t in transports:
                t.close()
        assert got.dtype == block.dtype
        assert np.array_equal(got.view(np.uint64), block.view(np.uint64))

    def test_exchange_roundtrip_matches_in_process(self):
        parts = 3
        rng = np.random.default_rng(7)
        values = rng.standard_normal((7, 6, 4)) + 1j * rng.standard_normal((7, 6, 4))
        grid = make_grid(Domain(0, 1, 0, 1, 0, 1), 4, 6, 7)
        plan = make_exchange_plan(grid, parts)
        transports = socket_mesh(parts)
        out = np.empty_like(values)
        barrier = threading.Barrier(parts)

        def worker(part):
            z0, z1 = plan.partition.z_ranges[part]
            y_slab = exchange_forward(plan, transports[part], part,
                                      values[z0:z1].copy())
            y0, y1 = plan.partition.y_ranges[part]
            assert np.array_equal(y_slab, values[:, y0:y1, :])
            barrier.wait()
            out[z0:z1] = exchange_inverse(plan, transports[part], part, y_slab)

        threads = [threading.Thread(target=worker, args=(p,)) for p in range(parts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for t in transports:
            t.close()
        assert np.array_equal(out, values)

    def test_full_solve_over_sockets(self):
        import helmfft as hf
        p = hf.helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,
                                 hf.SchemeKind.SECOND_ORDER, 10)
        ref = hf.solve_direct(p)
        cfg = SolverConfig(mode=Partitioned(3), transport_factory=socket_mesh)
        u = hf.solve_direct(p, cfg)
        assert np.abs(u.values - ref.values).max() <= 1e-13
