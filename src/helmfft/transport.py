"""Message transports for the partitioned solver's block redistribution.

Two implementations of the same contract:

- InProcessTransport: per-(sender, receiver) FIFO channels inside one process;
  the mandatory transport used by the partitioned execution mode.
- SocketTransport: the same contract over byte-stream sockets with
  length-prefixed binary frames, so parts may live in separate processes or
  hosts.

Delivery is reliable and ordered per (sender, receiver) pair. Sends are
buffered (they do not wait for the receiver), receives block until the
matching block arrives; the exchange itself is complete only when every
expected block has been received, and the solver places a barrier between
stages on top of that. Closing an endpoint ends its outgoing streams, so a
peer's pending or later receive from it raises ExchangeError at once.

A sent block may be a view whose planes are each C-contiguous (a y-range
of a z-slab). InProcessTransport passes it by reference, SocketTransport
sends it from its own memory in the same wire format, and the sender leaves
it unchanged until the stage barrier.

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
import socket
import struct
import threading

import numpy as np

from .errors import ExchangeError

STAGE_FORWARD = 1
STAGE_INVERSE = 2
REAL_TAG = 0x100  # added to a frame's stage tag when its values are float64

_HEADER = struct.Struct("<6I")  # from, to, tag, ext_x, ext_y, ext_z
_LEN = struct.Struct("<I")
# buffers one sendmsg call may take (1024 on Linux; 16 is the POSIX minimum)
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))


def _take(channel, timeout, sender, receiver):
    """The channel's next item; a timeout raises ExchangeError naming the edge."""
    try:
        return channel.get(timeout=timeout)
    except queue.Empty:
        raise ExchangeError(f"timed out waiting for block {sender} -> {receiver}",
                            sender=sender, receiver=receiver) from None


def _check_extents(block, extents, sender, receiver):
    """The block, if its (ext_x, ext_y, ext_z) are extents; else ExchangeError."""
    if block.shape[::-1] != tuple(extents):
        raise ExchangeError(f"block extents {block.shape[::-1]} != expected "
                            f"{tuple(extents)} on edge ({sender}, {receiver})",
                            sender=sender, receiver=receiver)
    return block


class InProcessTransport:
    """Endpoint of a shared-memory mesh; obtain via InProcessMesh.endpoint().

    A sent block, view or not, is passed by reference: the receiver reads
    the sender's memory, which stays unchanged until the stage barrier.
    """

    def __init__(self, mesh, part):
        self._mesh = mesh
        self.part = part

    def send(self, to_part, stage, block):
        if to_part == self.part:
            raise ExchangeError("self-send not routed through transport",
                                sender=self.part, receiver=to_part)
        self._mesh.channel(self.part, to_part).put((stage, block))

    def receive(self, from_part, stage, extents):
        got_stage, block = _take(self._mesh.channel(from_part, self.part),
                                 self._mesh.timeout, from_part, self.part)
        if got_stage is None:  # end of stream, kept for later receives too
            self._mesh.channel(from_part, self.part).put((None, None))
            raise ExchangeError(f"part {from_part} closed edge ({from_part}, {self.part})",
                                sender=from_part, receiver=self.part)
        if got_stage != stage:
            raise ExchangeError(
                f"stage mismatch on edge ({from_part}, {self.part}): "
                f"expected {stage}, got {got_stage}",
                sender=from_part, receiver=self.part)
        return _check_extents(block, extents, from_part, self.part)

    def close(self):
        """End this part's outgoing streams: a peer's receive from it fails at once."""
        for to_part in range(self._mesh.n_parts):
            if to_part != self.part:
                self._mesh.channel(self.part, to_part).put((None, None))


class InProcessMesh:
    """All-pairs FIFO channels for np parts in one process."""

    def __init__(self, n_parts, timeout=60.0):
        self.n_parts = n_parts
        self.timeout = timeout
        self._channels = {
            (s, r): queue.Queue()
            for s in range(n_parts) for r in range(n_parts) if s != r
        }

    def channel(self, sender, receiver):
        return self._channels[(sender, receiver)]

    def endpoint(self, part) -> InProcessTransport:
        return InProcessTransport(self, part)


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


def encode_frame(from_part, to_part, stage, block: np.ndarray) -> bytes:
    """Serialize one block into a length-prefixed frame."""
    block = _wire_block(block)
    return _frame_header(from_part, to_part, stage, block) + block.tobytes()


def decode_frame(payload):
    """Inverse of encode_frame, given the bytes after the length word.

    The block is a view of payload (a bytearray gives a writable block), so
    decoding copies nothing on a little-endian host. A payload whose size
    does not match its extents and value type raises ExchangeError naming
    the frame's edge.
    """
    from_part, to_part, tag, n_x, n_y, n_z = _HEADER.unpack_from(payload)
    stage, real = tag % REAL_TAG, tag // REAL_TAG
    size = len(payload) - _HEADER.size
    if real not in (0, 1):
        raise ExchangeError(f"frame tag {tag:#x} on edge ({from_part}, {to_part}) "
                            f"names no value type", sender=from_part, receiver=to_part)
    dtype = np.dtype("<f8" if real else "<c16")
    expected = n_x * n_y * n_z * dtype.itemsize
    if size != expected:
        raise ExchangeError(
            f"frame payload {size} bytes on edge ({from_part}, {to_part}), expected "
            f"{expected} for {n_x}x{n_y}x{n_z} {dtype.name} values",
            sender=from_part, receiver=to_part)
    block = np.frombuffer(payload, dtype=dtype, offset=_HEADER.size)
    block = block.astype(dtype.newbyteorder("="), copy=False).reshape(n_z, n_y, n_x)
    return from_part, to_part, stage, block


def _send_buffers(sock, buffers):
    """Send every byte of buffers, in order, from their own memory, at most
    _IOV_MAX buffers a sendmsg call."""
    views = [memoryview(b).cast("B") for b in buffers]
    first = 0
    while first < len(views):
        sent = sock.sendmsg(views[first:first + _IOV_MAX])
        while first < len(views) and sent >= views[first].nbytes:
            sent -= views[first].nbytes
            first += 1
        if sent:
            views[first] = views[first][sent:]


def _read_exact(sock, count):
    """The next count bytes of the stream, received into one bytearray."""
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        n = sock.recv_into(view[got:])
        if not n:
            raise ExchangeError("peer closed connection mid-frame")
        got += n
    return buf


class SocketTransport:
    """Transport over connected sockets, one per peer part.

    A background reader drains each peer socket into per-(sender, stage)
    queues, so symmetric all-to-all exchanges cannot deadlock on full
    kernel buffers. When a reader fails (a corrupt, truncated or misrouted
    frame, or a connection lost), its exception is queued behind the blocks
    already read from that peer, so the next receive from the peer raises
    it at once instead of waiting out the timeout.
    """

    def __init__(self, part, peers):
        self.part = part
        self._socks = dict(peers)  # part id -> connected socket
        self._queues = {}
        self._faults = {}  # part id -> exception that stopped its reader
        self._lock = threading.Lock()
        self._readers = []
        for peer, sock in self._socks.items():
            t = threading.Thread(target=self._drain, args=(peer, sock), daemon=True)
            t.start()
            self._readers.append(t)

    def _queue(self, from_part, stage):
        with self._lock:
            q = self._queues.get((from_part, stage))
            if q is None:
                q = self._queues[(from_part, stage)] = queue.Queue()
                if from_part in self._faults:
                    q.put(self._faults[from_part])
            return q

    def _drain(self, peer, sock):
        try:
            while True:
                (length,) = _LEN.unpack(_read_exact(sock, _LEN.size))
                payload = _read_exact(sock, length)
                from_part, to_part, stage, block = decode_frame(payload)
                if to_part != self.part:
                    raise ExchangeError(
                        f"misrouted frame for part {to_part} arrived at {self.part}",
                        sender=from_part, receiver=self.part)
                self._queue(from_part, stage).put(block)
                # the block is the payload's memory; hold neither between frames
                del payload, block
        except Exception as exc:  # a clean close ends here too, unread
            # the traceback would keep this frame's last payload and block alive
            exc = exc.with_traceback(None)
            with self._lock:
                self._faults[peer] = exc
                for (from_part, _stage), q in self._queues.items():
                    if from_part == peer:
                        q.put(exc)

    def send(self, to_part, stage, block):
        sock = self._socks.get(to_part)
        if sock is None:
            raise ExchangeError(f"no connection from {self.part} to {to_part}",
                                sender=self.part, receiver=to_part)
        block = _wire_block(block)
        values = [block] if block.flags.c_contiguous else list(block)  # one per plane
        _send_buffers(sock, [_frame_header(self.part, to_part, stage, block), *values])

    def receive(self, from_part, stage, extents, timeout=60.0):
        block = _take(self._queue(from_part, stage), timeout, from_part, self.part)
        if isinstance(block, Exception):
            self._queue(from_part, stage).put(block)  # later receives fail too
            raise ExchangeError(
                f"connection {from_part} -> {self.part} failed: {block}",
                sender=from_part, receiver=self.part) from block
        return _check_extents(block, extents, from_part, self.part)

    def close(self):
        """Shut the connections down, wait for the readers, then close.

        A reader can be between reads when close starts. Were its socket
        closed first, the descriptor number could go to a socket opened next
        (the next solve's mesh), and the stale reader would take bytes from
        that stream. The shutdown ends every read, so the joins are short.
        """
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for reader in self._readers:
            reader.join(timeout=5.0)
        for sock in self._socks.values():
            sock.close()


def socket_mesh(n_parts, host="127.0.0.1"):
    """Fully-connected localhost TCP mesh; returns one SocketTransport per part.

    Intended for tests and single-host experiments; a distributed deployment
    would establish the same pairwise connections across machines.
    """
    listeners = []
    for _ in range(n_parts):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, 0))
        srv.listen(n_parts)
        listeners.append(srv)
    peers = [{} for _ in range(n_parts)]
    # every part connects to each higher-numbered part and names itself; the
    # listen backlog holds the connections until they are accepted below
    for p in range(n_parts):
        for q in range(p + 1, n_parts):
            sock = socket.create_connection(listeners[q].getsockname())
            sock.sendall(_LEN.pack(p))
            peers[p][q] = sock
    for q, srv in enumerate(listeners):
        for _ in range(q):
            conn, _addr = srv.accept()
            (who,) = _LEN.unpack(_read_exact(conn, _LEN.size))
            peers[q][who] = conn
        srv.close()
    return [SocketTransport(p, peers[p]) for p in range(n_parts)]
