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
stages on top of that.

Frame layout (all integers little-endian unsigned 32-bit):

    [payload_len][from_part][to_part][tag][ext_x][ext_y][ext_z]
    followed by ext_z * ext_y * ext_x values in the block's own dtype, x
    index fastest: a complex128 value is a little-endian float64
    (real, imag) pair, a float64 value one little-endian float64.

tag is the stage for a complex128 block and the stage + REAL_TAG for a
float64 block. payload_len counts every byte after the length word itself,
and must equal the header plus the values the extents and the tag declare.
"""

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


class InProcessTransport:
    """Endpoint of a shared-memory mesh; obtain via InProcessMesh.endpoint()."""

    def __init__(self, mesh, part):
        self._mesh = mesh
        self.part = part

    def send(self, to_part, stage, block):
        if to_part == self.part:
            raise ExchangeError("self-send not routed through transport",
                                sender=self.part, receiver=to_part)
        self._mesh.channel(self.part, to_part).put((stage, block))

    def receive(self, from_part, stage, extents):
        try:
            got_stage, block = self._mesh.channel(from_part, self.part).get(
                timeout=self._mesh.timeout)
        except queue.Empty:
            raise ExchangeError(
                f"timed out waiting for block {from_part} -> {self.part}",
                sender=from_part, receiver=self.part) from None
        if got_stage != stage:
            raise ExchangeError(
                f"stage mismatch on edge ({from_part}, {self.part}): "
                f"expected {stage}, got {got_stage}",
                sender=from_part, receiver=self.part)
        n_z, n_y, n_x = block.shape
        if (n_x, n_y, n_z) != tuple(extents):
            raise ExchangeError(
                f"block extents {(n_x, n_y, n_z)} != expected {tuple(extents)} "
                f"on edge ({from_part}, {self.part})",
                sender=from_part, receiver=self.part)
        return block

    def close(self):
        pass


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
    """The block as contiguous little-endian float64 or complex128 values.

    The solver's blocks already are, so on a little-endian host this copies
    nothing.
    """
    block = np.asarray(block)
    return np.ascontiguousarray(block, dtype="<c16" if np.iscomplexobj(block) else "<f8")


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
    """Send every byte of buffers, in order, from their own memory."""
    views = [memoryview(b).cast("B") for b in buffers]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= views[0].nbytes:
            sent -= views[0].nbytes
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


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
        _send_buffers(sock, [_frame_header(self.part, to_part, stage, block), block])

    def receive(self, from_part, stage, extents, timeout=60.0):
        try:
            block = self._queue(from_part, stage).get(timeout=timeout)
        except queue.Empty:
            raise ExchangeError(
                f"timed out waiting for block {from_part} -> {self.part}",
                sender=from_part, receiver=self.part) from None
        if isinstance(block, Exception):
            self._queue(from_part, stage).put(block)  # later receives fail too
            raise ExchangeError(
                f"connection {from_part} -> {self.part} failed: {block}",
                sender=from_part, receiver=self.part) from block
        n_z, n_y, n_x = block.shape
        if (n_x, n_y, n_z) != tuple(extents):
            raise ExchangeError(
                f"block extents {(n_x, n_y, n_z)} != expected {tuple(extents)} "
                f"on edge ({from_part}, {self.part})",
                sender=from_part, receiver=self.part)
        return block

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
    listeners = {}
    ports = {}
    for p in range(n_parts):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, 0))
        srv.listen(n_parts)
        listeners[p] = srv
        ports[p] = srv.getsockname()[1]

    peers = {p: {} for p in range(n_parts)}
    lock = threading.Lock()

    def accept_for(p, expected):
        for _ in range(expected):
            conn, _addr = listeners[p].accept()
            (who,) = _LEN.unpack(_read_exact(conn, _LEN.size))
            with lock:
                peers[p][who] = conn

    threads = []
    for p in range(n_parts):
        expected = p  # parts connect to all lower-numbered parts
        if expected:
            t = threading.Thread(target=accept_for, args=(p, expected))
            t.start()
            threads.append(t)
    for p in range(n_parts):
        for q in range(p + 1, n_parts):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.connect((host, ports[q]))
            sock.sendall(_LEN.pack(p))
            with lock:
                peers[p][q] = sock
    for t in threads:
        t.join()
    for srv in listeners.values():
        srv.close()
    return [SocketTransport(p, peers[p]) for p in range(n_parts)]
