"""Message transports for the partitioned solver's block redistribution.

Two implementations of the same contract:

- InProcessTransport: per-(sender, receiver) FIFO channels inside one process;
  in_process_mesh, the solver's default transport factory, builds them.
- SocketTransport: the same contract over byte-stream sockets with
  length-prefixed binary frames, so parts may live in separate processes or
  hosts. socket_mesh connects the parts of one process with socketpairs.

Delivery is reliable and ordered per (sender, receiver) pair. Sends are
buffered (they do not wait for the receiver), receives wait up to
RECEIVE_TIMEOUT_S for the matching block; the exchange itself is complete
only when every expected block has been received, and the solver places a
barrier between stages on top of that. Closing an endpoint ends its
outgoing streams, so a peer's pending or later receive from it raises
ExchangeError at once.

A sent block may be a view whose planes are each C-contiguous (a y-range
of a z-slab). InProcessTransport passes it by reference. SocketTransport
queues it, by reference, to the writer thread of the peer's connection,
which sends it from its own memory in the wire format below. Either way
the sender leaves it unchanged until the stage barrier.

A receive names its destination, out: a writable 3D array whose planes
are each C-contiguous (again a y-range of a z-slab works), and the block's
extents are out's. The block lands in out, which is returned; a block of
another shape, dtype or stage raises ExchangeError naming the edge.
InProcessTransport copies the sender's view into out. SocketTransport reads
the sender's next frame on the calling thread: the header first, checked
against the edge, the stage and out, then the values off the socket
straight into out's planes. So no block-sized staging array is made on
either side of a socket.

Frame layout (all integers little-endian unsigned 32-bit):

    [payload_len][from_part][to_part][tag][ext_x][ext_y][ext_z]
    followed by ext_z * ext_y * ext_x values in the block's own dtype, x
    index fastest: a complex128 value is a little-endian float64
    (real, imag) pair, a float64 value one little-endian float64.

tag is the stage for a complex128 block and the stage + REAL_TAG for a
float64 block. payload_len counts every byte after the length word itself,
and must equal the header plus the values the extents and the tag declare.
"""

import os
import queue
import select
import socket
import struct
import sys
import threading
import time

import numpy as np

from .errors import ExchangeError

STAGE_FORWARD = 1
STAGE_INVERSE = 2
REAL_TAG = 0x100  # added to a frame's stage tag when its values are float64
RECEIVE_TIMEOUT_S = 60.0  # how long a receive waits for its block

_HEADER = struct.Struct("<6I")  # from, to, tag, ext_x, ext_y, ext_z
_LEN = struct.Struct("<I")
# buffers one sendmsg or recvmsg_into call may take (1024 on Linux; 16 is
# the POSIX minimum)
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))
_BYTESWAP = sys.byteorder != "little"  # frame values are little-endian


def _check_destination(out):
    """ValueError unless out is a writable 3D array whose planes are each
    C-contiguous."""
    if (out.ndim != 3 or not out.flags.writeable
            or not all(plane.flags.c_contiguous for plane in out)):
        raise ValueError("destination must be a writable 3D array with C-contiguous planes")


def _check_fit(sender, receiver, stage, got_stage, shape, dtype, out):
    """ExchangeError naming the edge unless a block of got_stage, shape and
    dtype is the stage's block for out."""
    if got_stage != stage or shape != out.shape or dtype != out.dtype:
        raise ExchangeError(
            f"stage {got_stage} {shape[::-1]} {dtype} block on edge ({sender}, {receiver}) "
            f"does not fit stage {stage} into a {out.shape[::-1]} {out.dtype} destination",
            sender=sender, receiver=receiver)


def _planes(block):
    """The block as buffers in wire order: itself if C-contiguous, else its planes."""
    return [block] if block.flags.c_contiguous else list(block)


class InProcessTransport:
    """Endpoint of a shared-memory mesh; obtain via in_process_mesh().

    A sent block, view or not, is passed by reference, and a receive copies
    it into out: the receiver reads the sender's memory, which stays
    unchanged until the stage barrier.
    """

    def __init__(self, part, channels):
        self.part = part
        self._channels = channels

    def _channel(self, sender, receiver):
        channel = self._channels.get((sender, receiver))
        if channel is None:
            raise ExchangeError(f"no connection from {sender} to {receiver}",
                                sender=sender, receiver=receiver)
        return channel

    def send(self, to_part, stage, block):
        self._channel(self.part, to_part).put((stage, block))

    def receive(self, from_part, stage, out):
        _check_destination(out)
        channel = self._channel(from_part, self.part)
        try:
            got_stage, block = channel.get(timeout=RECEIVE_TIMEOUT_S)
        except queue.Empty:
            raise ExchangeError(f"timed out waiting for block {from_part} -> {self.part}",
                                sender=from_part, receiver=self.part) from None
        if got_stage is None:  # end of stream, kept for later receives too
            channel.put((None, None))
            raise ExchangeError(f"part {from_part} closed edge ({from_part}, {self.part})",
                                sender=from_part, receiver=self.part)
        _check_fit(from_part, self.part, stage, got_stage, block.shape, block.dtype, out)
        out[...] = block
        return out

    def close(self):
        """End this part's outgoing streams: a peer's receive from it fails at once."""
        for (sender, _), channel in self._channels.items():
            if sender == self.part:
                channel.put((None, None))


def in_process_mesh(n_parts):
    """All-pairs FIFO channels for n_parts parts in one process; returns one
    InProcessTransport per part."""
    channels = {(s, r): queue.Queue()
                for s in range(n_parts) for r in range(n_parts) if s != r}
    return [InProcessTransport(p, channels) for p in range(n_parts)]


def _wire_block(block) -> np.ndarray:
    """The block as little-endian float64 or complex128 values whose planes
    are each C-contiguous: on a little-endian host, the solver's blocks as
    they are, and any other block copied."""
    block = np.asarray(block)
    dtype = np.dtype("<c16" if np.iscomplexobj(block) else "<f8")
    if block.dtype == dtype and all(plane.flags.c_contiguous for plane in block):
        return block
    return np.ascontiguousarray(block, dtype=dtype)


def _frame_header(from_part, to_part, stage, block: np.ndarray) -> bytes:
    """Length word and header of the frame carrying a _wire_block block."""
    n_z, n_y, n_x = block.shape
    tag = stage + (REAL_TAG if block.dtype.kind == "f" else 0)
    return (_LEN.pack(_HEADER.size + block.nbytes)
            + _HEADER.pack(from_part, to_part, tag, n_x, n_y, n_z))


def _frame_layout(header, length):
    """(from_part, to_part, stage, dtype, shape) of the frame with this header
    and length word; dtype is native. A length that does not match the
    extents and value type raises ExchangeError naming the frame's edge."""
    from_part, to_part, tag, n_x, n_y, n_z = _HEADER.unpack_from(header)
    stage, real = tag % REAL_TAG, tag // REAL_TAG
    if real not in (0, 1):
        raise ExchangeError(f"frame tag {tag:#x} on edge ({from_part}, {to_part}) "
                            f"names no value type", sender=from_part, receiver=to_part)
    dtype = np.dtype(np.float64 if real else np.complex128)
    size = length - _HEADER.size
    expected = n_x * n_y * n_z * dtype.itemsize
    if size != expected:
        raise ExchangeError(
            f"frame payload {size} bytes on edge ({from_part}, {to_part}), expected "
            f"{expected} for {n_x}x{n_y}x{n_z} {dtype.name} values",
            sender=from_part, receiver=to_part)
    return from_part, to_part, stage, dtype, (n_z, n_y, n_x)


def _stream(transfer, buffers):
    """Pass every byte of buffers, in order, to transfer(views), which moves
    a prefix of them and returns its byte count; at most _IOV_MAX buffers a
    call."""
    views = [v for v in (memoryview(b).cast("B") for b in buffers) if v.nbytes]
    first = 0
    while first < len(views):
        moved = transfer(views[first:first + _IOV_MAX])
        if not moved:
            raise ExchangeError("connection closed")
        while first < len(views) and moved >= views[first].nbytes:
            moved -= views[first].nbytes
            first += 1
        if moved:
            views[first] = views[first][moved:]


def _recv_buffers(sock, buffers, ready):
    """Fill every byte of buffers, in order, with the next bytes of the stream;
    before each read, ready() says whether the socket has bytes (or has
    ended) in time."""
    def transfer(views):
        if not ready():
            raise ExchangeError("timed out mid-frame")
        return sock.recvmsg_into(views)[0]

    _stream(transfer, buffers)


class SocketTransport:
    """Transport over connected sockets, one per peer part.

    Each connection has a writer thread, which sends the blocks queued for
    the peer in order, and no other thread: a receive reads the peer's next
    frame on the calling thread. Sends never wait for the peer, so
    symmetric all-to-all exchanges cannot deadlock on full kernel buffers.

    A receive that ends before the frame's first byte arrives (a timeout)
    leaves the edge as it was. Any other failed receive (a corrupt,
    truncated, misrouted or other-stage frame, a frame that does not fit
    its destination, a timeout mid-frame or a connection lost) fails the
    edge, and this and every later receive from its peer raise at once.
    When a writer fails, the next send to its peer raises.
    """

    def __init__(self, part, peers):
        self.part = part
        self._socks = dict(peers)  # part id -> connected socket
        self._faults = {}  # part id -> exception that failed the edge from it
        self._send_faults = {}  # part id -> exception that stopped its writer
        self._outboxes = {peer: queue.SimpleQueue() for peer in self._socks}
        self._writers = [threading.Thread(target=self._write, args=(peer, sock), daemon=True)
                         for peer, sock in self._socks.items()]
        for thread in self._writers:
            thread.start()

    def _write(self, peer, sock):
        """Send the frames queued for peer, in order, until close."""
        outbox = self._outboxes[peer]
        try:
            while True:
                buffers = outbox.get()
                if buffers is None:
                    return
                _stream(sock.sendmsg, buffers)  # from the blocks' own memory
                del buffers  # hold no block while waiting for the next
        except Exception as exc:
            # the traceback would keep the frame's block alive
            self._send_faults.setdefault(peer, exc.with_traceback(None))

    def send(self, to_part, stage, block):
        outbox = self._outboxes.get(to_part)
        if outbox is None:
            raise ExchangeError(f"no connection from {self.part} to {to_part}",
                                sender=self.part, receiver=to_part)
        fault = self._send_faults.get(to_part)
        if fault is not None:
            raise ExchangeError(f"connection {self.part} -> {to_part} failed: {fault}",
                                sender=self.part, receiver=to_part) from fault
        block = _wire_block(block)
        outbox.put([_frame_header(self.part, to_part, stage, block), *_planes(block)])

    def receive(self, from_part, stage, out):
        sock = self._socks.get(from_part)
        if sock is None:
            raise ExchangeError(f"no connection from {from_part} to {self.part}",
                                sender=from_part, receiver=self.part)
        _check_destination(out)
        fault = self._faults.get(from_part)
        if fault is None:
            deadline = time.monotonic() + RECEIVE_TIMEOUT_S
            poller = select.poll()
            poller.register(sock, select.POLLIN)

            def ready():
                return bool(poller.poll(max(0.0, deadline - time.monotonic()) * 1e3))

            if not ready():  # no byte of the frame read: the edge stays usable
                raise ExchangeError(f"timed out waiting for block {from_part} -> {self.part}",
                                    sender=from_part, receiver=self.part)
            try:
                self._read_frame(sock, from_part, stage, out, ready)
                return out
            except Exception as exc:
                fault = self._faults.setdefault(from_part, exc.with_traceback(None))
        raise ExchangeError(f"connection {from_part} -> {self.part} failed: {fault}",
                            sender=from_part, receiver=self.part) from fault

    def _read_frame(self, sock, peer, stage, out, ready):
        """Read peer's next frame, checked against the edge, stage and out,
        with its values straight into out."""
        head = bytearray(_LEN.size + _HEADER.size)
        _recv_buffers(sock, [head], ready)
        (length,) = _LEN.unpack_from(head)
        from_part, to_part, got_stage, dtype, shape = _frame_layout(head[_LEN.size:], length)
        if (from_part, to_part) != (peer, self.part):
            raise ExchangeError(
                f"misrouted frame ({from_part}, {to_part}) on edge ({peer}, {self.part})")
        _check_fit(peer, self.part, stage, got_stage, shape, dtype, out)
        _recv_buffers(sock, _planes(out), ready)
        if _BYTESWAP:
            out.byteswap(inplace=True)

    def close(self):
        """Fail the edges, stop the writers, then close the sockets.

        A frame still queued is not sent. A writer can be mid-send when close
        starts. Were its socket closed first, the descriptor number could go
        to a socket opened next (the next solve's mesh), and the stale writer
        would write into that stream. The shutdown ends every write, so the
        joins are short.
        """
        for peer in self._socks:
            self._faults.setdefault(peer, ExchangeError("endpoint closed"))
            self._send_faults.setdefault(peer, ExchangeError("endpoint closed"))
            self._outboxes[peer].put(None)
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._writers:
            thread.join(timeout=5.0)
        for sock in self._socks.values():
            sock.close()


def socket_mesh(n_parts):
    """Fully-connected mesh of socketpairs, one per pair of parts; returns one
    SocketTransport per part.

    Both ends of every pair live in this process, for tests and single-host
    runs; a worker process may inherit its part's descriptors. A multi-host
    deployment would connect the same pairs across machines and hand them
    to SocketTransport, which takes any connected stream sockets.
    """
    peers = [{} for _ in range(n_parts)]
    for p in range(n_parts):
        for q in range(p + 1, n_parts):
            peers[p][q], peers[q][p] = socket.socketpair()
    return [SocketTransport(p, peers[p]) for p in range(n_parts)]
