import os
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
from helmfft.transport import (_HEADER, REAL_TAG, STAGE_FORWARD, STAGE_INVERSE,
                               SocketTransport, _frame_header, _frame_layout, _wire_block,
                               in_process_mesh, socket_mesh)


def encode_frame(from_part, to_part, stage, block: np.ndarray) -> bytes:
    """The wire format's spec: one block as the length-prefixed frame that
    SocketTransport sends for it."""
    block = _wire_block(block)
    return _frame_header(from_part, to_part, stage, block) + block.tobytes()


def decode_frame(payload):
    """Inverse of encode_frame, given the bytes after the length word, with
    SocketTransport's checks: a payload whose size does not match its
    extents and value type raises ExchangeError naming the frame's edge."""
    from_part, to_part, stage, dtype, shape = _frame_layout(payload, len(payload))
    block = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), offset=_HEADER.size)
    return from_part, to_part, stage, block.astype(dtype, copy=False).reshape(shape)


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
        a, b = in_process_mesh(2)
        first = np.ones((1, 1, 2), dtype=complex)
        second = 2 * first
        a.send(1, STAGE_FORWARD, first)
        a.send(1, STAGE_FORWARD, second)
        out = np.empty_like(first)
        assert np.array_equal(b.receive(0, STAGE_FORWARD, out), first)
        assert np.array_equal(b.receive(0, STAGE_FORWARD, out), second)

    def test_extent_mismatch_raises(self):
        mesh = in_process_mesh(2)
        mesh[0].send(1, STAGE_FORWARD, np.ones((1, 1, 2), dtype=complex))
        with pytest.raises(ExchangeError) as err:
            mesh[1].receive(0, STAGE_FORWARD, np.empty((1, 1, 3), dtype=complex))
        assert (err.value.sender, err.value.receiver) == (0, 1)

    def test_receive_into_out_copies_the_view(self):
        mesh = in_process_mesh(2)
        z_slab = np.arange(4 * 5 * 3, dtype=complex).reshape(4, 5, 3)
        mesh[0].send(1, STAGE_FORWARD, z_slab[:, 1:3, :])
        out = np.zeros((4, 2, 3), dtype=complex)
        assert mesh[1].receive(0, STAGE_FORWARD, out) is out
        assert np.array_equal(out, z_slab[:, 1:3, :])
        mesh[0].send(1, STAGE_FORWARD, z_slab[:, 1:3, :])
        with pytest.raises(ExchangeError) as err:
            mesh[1].receive(0, STAGE_FORWARD, out.real.copy())
        assert (err.value.sender, err.value.receiver) == (0, 1)

    def test_timeout_names_edge(self, monkeypatch):
        monkeypatch.setattr("helmfft.transport.RECEIVE_TIMEOUT_S", 0.05)
        mesh = in_process_mesh(2)
        with pytest.raises(ExchangeError) as err:
            mesh[1].receive(0, STAGE_FORWARD, np.empty((1, 1, 1), dtype=complex))
        assert err.value.sender == 0 and err.value.receiver == 1


    def test_close_fails_a_pending_receive_at_once_naming_edge(self):
        sender, receiver = in_process_mesh(2)  # the default 60 s timeout
        sender.send(1, STAGE_FORWARD, np.ones((1, 1, 2), dtype=complex))
        timer = threading.Timer(0.1, sender.close)
        timer.start()
        out = np.zeros((1, 1, 2), dtype=complex)
        # blocks sent before the close are still delivered, in order
        assert receiver.receive(0, STAGE_FORWARD, out) is out and np.all(out == 1)
        start = time.perf_counter()
        for _ in range(2):  # the end of stream stays raised for later receives
            with pytest.raises(ExchangeError) as err:
                receiver.receive(0, STAGE_FORWARD, out)
            assert (err.value.sender, err.value.receiver) == (0, 1)
        assert time.perf_counter() - start < 5.0
        timer.join(timeout=5.0)
        assert not timer.is_alive()


@pytest.mark.parametrize("mesh", [in_process_mesh, socket_mesh], ids=["in-process", "socket"])
def test_a_part_with_no_connection_is_named(mesh):
    transports = mesh(2)
    try:
        block = np.ones((1, 2, 3))
        for other in (0, 5):  # the part itself, and a part the mesh does not have
            with pytest.raises(ExchangeError, match="no connection") as err:
                transports[0].send(other, STAGE_FORWARD, block)
            assert (err.value.sender, err.value.receiver) == (0, other)
            with pytest.raises(ExchangeError, match="no connection") as err:
                transports[0].receive(other, STAGE_FORWARD, np.empty_like(block))
            assert (err.value.sender, err.value.receiver) == (other, 0)
    finally:
        for t in transports:
            t.close()


class TestSocketTransport:
    def test_pairwise_send_receive(self):
        transports = socket_mesh(2)
        try:
            block = np.arange(6, dtype=complex).reshape(1, 2, 3)
            transports[0].send(1, STAGE_FORWARD, block)
            got = transports[1].receive(0, STAGE_FORWARD, np.empty_like(block))
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
            out = np.empty_like(block)
            got = transports[1].receive(0, STAGE_FORWARD, out)
            assert np.array_equal(got, block)
            start = time.perf_counter()
            for _ in range(2):  # the fault stays raised for later receives
                with pytest.raises(ExchangeError) as err:
                    transports[1].receive(0, STAGE_FORWARD, out)
                assert (err.value.sender, err.value.receiver) == (0, 1)
            assert time.perf_counter() - start < 5.0
        finally:
            for t in transports:
                t.close()

    @pytest.mark.parametrize("edge", [(2, 1), (0, 3)], ids=["sender", "receiver"])
    def test_misrouted_frame_fails_the_edge(self, edge):
        transports = socket_mesh(2)
        try:
            block = np.ones((1, 2, 3))
            transports[0]._socks[1].sendall(encode_frame(*edge, STAGE_FORWARD, block))
            for _ in range(2):  # the edge stays failed for later receives
                with pytest.raises(ExchangeError) as err:
                    transports[1].receive(0, STAGE_FORWARD, np.empty_like(block))
                assert (err.value.sender, err.value.receiver) == (0, 1)
                assert f"misrouted frame {edge} on edge (0, 1)" in str(err.value)
        finally:
            for t in transports:
                t.close()

    @pytest.mark.parametrize("dtype", [">f8", ">c16"])
    def test_big_endian_block_arrives_bitwise_in_native_order(self, dtype):
        rng = np.random.default_rng(17)
        native = rng.standard_normal((2, 3, 4)) * (1j if dtype == ">c16" else 1) + 0.5
        assert _wire_block(native.astype(dtype)).dtype.byteorder in ("<", "=")
        transports = socket_mesh(2)
        try:
            transports[0].send(1, STAGE_FORWARD, native.astype(dtype))
            got = transports[1].receive(0, STAGE_FORWARD, np.empty_like(native))
            assert got.dtype == native.dtype and got.dtype.isnative
            assert got.tobytes() == native.tobytes()
        finally:
            for t in transports:
                t.close()

    def test_stage_mismatch_fails_the_edge_at_once(self):
        transports = socket_mesh(2)
        try:
            block = np.ones((1, 2, 3), dtype=complex)
            transports[0].send(1, STAGE_FORWARD, block)
            transports[0].send(1, STAGE_INVERSE, block)
            start = time.perf_counter()
            for _ in range(2):  # the edge stays failed for later receives
                with pytest.raises(ExchangeError) as err:
                    transports[1].receive(0, STAGE_INVERSE, np.empty_like(block))
                assert (err.value.sender, err.value.receiver) == (0, 1)
                assert time.perf_counter() - start < 5.0
        finally:
            for t in transports:
                t.close()

    def test_receive_after_close_fails_at_once_naming_edge(self):
        transports = socket_mesh(2)
        for t in transports:
            t.close()
        start = time.perf_counter()
        with pytest.raises(ExchangeError) as err:
            transports[1].receive(0, STAGE_FORWARD, np.empty((1, 1, 2)))
        assert (err.value.sender, err.value.receiver) == (0, 1)
        assert time.perf_counter() - start < 5.0

    def test_clean_close_after_last_receive_raises_nothing(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        before = set(threading.enumerate())
        transports = socket_mesh(2)
        started = set(threading.enumerate()) - before
        assert len(started) == 2  # one writer per peer, and no other thread
        transports[0].send(1, STAGE_FORWARD, np.ones((1, 1, 2), dtype=complex))
        got = transports[1].receive(0, STAGE_FORWARD, np.empty((1, 1, 2), dtype=complex))
        delivered = weakref.ref(got)
        for t in transports:
            t.close()
        # close waits for its writers before freeing their descriptors
        assert not any(thread.is_alive() for thread in started)
        assert escaped == []
        del got  # the transports must not keep the last block alive
        assert delivered() is None

    def test_a_mesh_leaks_no_descriptor_or_thread(self):
        import helmfft as hf

        def held():
            return len(os.listdir("/proc/self/fd")), threading.active_count()

        p = hf.helmholtz_problem(10.0, 9.0, 10.0, 10.0, 9.0,
                                 hf.SchemeKind.SECOND_ORDER, 10)
        before = held()
        transports = socket_mesh(3)
        assert held()[0] == before[0] + 6  # one socketpair per pair of parts
        for t in transports:
            t.close()
        assert held() == before
        hf.solve_direct(p, SolverConfig(mode=Partitioned(3), transport_factory=socket_mesh))
        assert held() == before

    def test_writer_fault_fails_the_next_send_naming_edge(self):
        a, b = socket.socketpair()
        b.close()  # the peer is gone: the writer's first write fails
        transport = SocketTransport(0, {1: a})
        block = np.ones((1, 1, 2))
        try:
            deadline = time.perf_counter() + 5.0
            with pytest.raises(ExchangeError) as err:
                while time.perf_counter() < deadline:
                    transport.send(1, STAGE_FORWARD, block)
                    time.sleep(0.01)
            assert (err.value.sender, err.value.receiver) == (0, 1)
        finally:
            transport.close()
        with pytest.raises(ExchangeError):  # and a send after close
            transport.send(1, STAGE_FORWARD, block)

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

    def test_strided_block_of_many_planes_goes_out_plane_by_plane(self):
        # more planes than one sendmsg call takes buffers (IOV_MAX, 1024 on Linux)
        rng = np.random.default_rng(11)
        z_slab = rng.standard_normal((1100, 5, 3)) + 1j * rng.standard_normal((1100, 5, 3))
        block = z_slab[:, 1:4, :]  # a y-range: each plane C-contiguous, the block not
        assert not block.flags.c_contiguous and block[0].flags.c_contiguous
        transports = socket_mesh(2)
        try:
            transports[0].send(1, STAGE_FORWARD, block)
            got = transports[1].receive(0, STAGE_FORWARD, np.empty(block.shape, complex))
        finally:
            for t in transports:
                t.close()
        assert np.array_equal(got, block)

        expect = encode_frame(0, 1, STAGE_FORWARD, np.ascontiguousarray(block))
        a, b = socket.socketpair()
        received = bytearray()

        def drain():
            while len(received) < len(expect):
                received.extend(b.recv(1 << 16))

        transport = SocketTransport(0, {1: a})
        reader = threading.Thread(target=drain)
        reader.start()
        try:
            transport.send(1, STAGE_FORWARD, block)
            reader.join(timeout=30.0)
            assert not reader.is_alive()
        finally:
            transport.close()
            b.close()
        assert bytes(received) == expect

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_round_trip_bitwise_in_their_dtype(self, dtype):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((5, 3, 7)).astype(dtype)
        if dtype is complex:
            block += 1j * rng.standard_normal(block.shape)
        transports = socket_mesh(2)
        try:
            transports[1].send(0, STAGE_INVERSE, block)
            got = transports[0].receive(1, STAGE_INVERSE, np.empty_like(block))
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
            z0, z1 = plan.z_ranges[part]
            y0, y1 = plan.y_ranges[part]
            z_slab = values[z0:z1].copy()
            y_slab = exchange_forward(plan, transports[part], part,
                                      (z_slab, np.empty((7, y1 - y0, 4), dtype=complex)))
            assert np.array_equal(y_slab, values[:, y0:y1, :])
            barrier.wait()
            out[z0:z1] = exchange_inverse(plan, transports[part], part, (z_slab, y_slab))

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


# a forward block of a 159^3 solve in two parts: 80 planes x 79 rows
BLOCK_SHAPE = (80, 79, 159)


def random_block(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal(shape).astype(dtype)
    if np.dtype(dtype).kind == "c":
        block += 1j * rng.standard_normal(shape)
    return block


def bits(values):
    return values.view(np.uint64)


class TestReceiveInPlace:
    """A socket receive reads the frame's values straight into out."""

    @pytest.mark.parametrize("dest", ["contiguous", "y-range"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_values_land_in_out_without_a_block_sized_array(self, dtype, dest):
        block = random_block(BLOCK_SHAPE, dtype, 12)
        n_z, n_y, n_x = block.shape
        # a y-range of a z-slab: each plane C-contiguous, the block not
        z_slab = np.full((n_z, 2 * n_y, n_x), -1.0, dtype=dtype)
        out = np.empty_like(block) if dest == "contiguous" else z_slab[:, n_y:]
        transports = socket_mesh(2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            transports[0].send(1, STAGE_FORWARD, block)
            got = transports[1].receive(0, STAGE_FORWARD, out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            for t in transports:
                t.close()
        assert got is out
        assert peak < 2**20, peak
        assert np.array_equal(bits(out), bits(block))
        assert np.all(z_slab[:, :n_y] == -1.0)  # the rest of the slab untouched

    @pytest.mark.parametrize("mismatch", ["extents", "dtype"])
    def test_a_frame_that_does_not_fit_fails_the_edge(self, mismatch):
        block = random_block((3, 2, 4), complex, 13)
        out = np.empty((3, 2, 5), complex) if mismatch == "extents" else block.real.copy()
        transports = socket_mesh(2)
        try:
            transports[0].send(1, STAGE_FORWARD, block)
            transports[0].send(1, STAGE_FORWARD, block)
            with pytest.raises(ExchangeError) as err:
                transports[1].receive(0, STAGE_FORWARD, out)
            assert (err.value.sender, err.value.receiver) == (0, 1)
            start = time.perf_counter()
            with pytest.raises(ExchangeError) as err:  # the edge stays failed
                transports[1].receive(0, STAGE_FORWARD, np.empty_like(block))
            assert (err.value.sender, err.value.receiver) == (0, 1)
            assert time.perf_counter() - start < 5.0
        finally:
            for t in transports:
                t.close()

    def test_destination_must_be_writable_3d_with_contiguous_planes(self):
        read_only = np.empty((3, 2, 4))
        read_only.flags.writeable = False
        transports = socket_mesh(2)
        try:
            for out in (np.empty((3, 2, 8))[:, :, :4],  # an x-range: planes not C-contiguous
                        np.empty((2, 4)), read_only):
                with pytest.raises(ValueError):
                    transports[1].receive(0, STAGE_FORWARD, out)
        finally:
            for t in transports:
                t.close()

    def test_timeout_before_the_frame_leaves_the_edge_usable(self, monkeypatch):
        monkeypatch.setattr("helmfft.transport.RECEIVE_TIMEOUT_S", 0.05)
        transports = socket_mesh(2)
        try:
            out = np.zeros((3, 2, 4), complex)
            with pytest.raises(ExchangeError) as err:
                transports[1].receive(0, STAGE_FORWARD, out)
            assert (err.value.sender, err.value.receiver) == (0, 1)
            monkeypatch.setattr("helmfft.transport.RECEIVE_TIMEOUT_S", 30.0)
            block = random_block((3, 2, 4), complex, 14)
            transports[0].send(1, STAGE_FORWARD, block)
            got = transports[1].receive(0, STAGE_FORWARD, np.empty_like(block))
            assert np.array_equal(got, block)
            assert not out.any()  # the timed-out destination was not written
        finally:
            for t in transports:
                t.close()

    def test_timeout_mid_frame_fails_the_edge(self, monkeypatch):
        monkeypatch.setattr("helmfft.transport.RECEIVE_TIMEOUT_S", 0.2)
        block = random_block((3, 2, 4), complex, 15)
        frame = encode_frame(0, 1, STAGE_FORWARD, block)
        transports = socket_mesh(2)
        try:
            transports[0]._socks[1].sendall(frame[:-16])  # the receive starts, then waits
            out, errors = np.zeros((3, 2, 4), complex), []

            def receive():
                try:
                    transports[1].receive(0, STAGE_FORWARD, out)
                except ExchangeError as exc:
                    errors.append((exc.sender, exc.receiver))

            start = time.perf_counter()
            receiver = threading.Thread(target=receive)
            receiver.start()
            receiver.join(timeout=5.0)
            assert not receiver.is_alive() and errors == [(0, 1)]
            transports[0]._socks[1].sendall(frame[-16:])  # too late: the edge stays failed
            monkeypatch.setattr("helmfft.transport.RECEIVE_TIMEOUT_S", 30.0)
            with pytest.raises(ExchangeError):
                transports[1].receive(0, STAGE_FORWARD, out)
            assert time.perf_counter() - start < 5.0
        finally:
            for t in transports:
                t.close()


class TestNoDeadlock:
    """Sends never wait for the peer's receive, so every part may send all
    its blocks before it receives any, however large they are."""

    @pytest.mark.parametrize("parts", [2, 3])
    def test_every_part_sends_then_receives_in_place(self, parts):
        shape = (128, 128, 128)  # 16 MiB of float64, beyond any socket buffer
        sources = [np.arange(128**3, dtype=float).reshape(shape) + 1e7 * p
                   for p in range(parts)]
        transports = socket_mesh(parts)
        errors = []

        def part(p):
            try:
                for q in range(parts):
                    if q != p:
                        transports[p].send(q, STAGE_FORWARD, sources[p])
                out = np.empty(shape)
                for q in range(parts):
                    if q != p:
                        transports[p].receive(q, STAGE_FORWARD, out)
                        assert np.array_equal(out, sources[q])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=part, args=(p,)) for p in range(parts)]
        start = time.perf_counter()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            elapsed = time.perf_counter() - start
        finally:
            for t in transports:
                t.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert elapsed < 10.0, elapsed
