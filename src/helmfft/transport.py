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
of a z-slab). InProcessTransport passes it by reference. SocketTransport
queues it, by reference, to the writer thread of the peer's connection,
which sends it from its own memory in the wire format below. Either way
the sender leaves it unchanged until the stage barrier.

A receive may name its destination, out: a writable array of the block's
shape whose planes are each C-contiguous (again a y-range of a z-slab
works). The block lands in out, which is returned; without out the receive
returns a block of its own. InProcessTransport copies the sender's view
into out. SocketTransport posts out to the reader thread of the sender's
connection. The reader checks each frame's header first, then waits for
the destination posted for the frame's (sender, stage) and reads the values
off the socket straight into its planes. So no block-sized staging array is
made on either side of a socket, and nothing is read before its
destination is known.

Frame layout (all integers little-endian unsigned 32-bit):

    [payload_len][from_part][to_part][tag][ext_x][ext_y][ext_z]
    followed by ext_z * ext_y * ext_x values in the block's own dtype, x
    index fastest: a complex128 value is a little-endian float64
    (real, imag) pair, a float64 value one little-endian float64.

tag is the stage for a complex128 block and the stage + REAL_TAG for a
float64 block. payload_len counts every byte after the length word itself,
and must equal the header plus the values the extents and the tag declare.
"""

import collections
import os
import queue
import socket
import struct
import sys
import threading

import numpy as np

from .errors import ExchangeError

STAGE_FORWARD = 1
STAGE_INVERSE = 2
REAL_TAG = 0x100  # added to a frame's stage tag when its values are float64

_HEADER = struct.Struct("<6I")  # from, to, tag, ext_x, ext_y, ext_z
_LEN = struct.Struct("<I")
# buffers one sendmsg or recvmsg_into call may take (1024 on Linux; 16 is
# the POSIX minimum)
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))
_BYTESWAP = sys.byteorder != "little"  # frame values are little-endian


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


def _check_destination(out, extents):
    """ValueError unless out is a writable array of extents (ext_x, ext_y,
    ext_z) whose planes are each C-contiguous."""
    if out.shape[::-1] != tuple(extents):
        raise ValueError(f"destination extents {out.shape[::-1]} != {tuple(extents)}")
    if not out.flags.writeable or not all(plane.flags.c_contiguous for plane in out):
        raise ValueError("destination must be writable with C-contiguous planes")


def _planes(block):
    """The block as buffers in wire order: itself if C-contiguous, else its planes."""
    return [block] if block.flags.c_contiguous else list(block)


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

    def receive(self, from_part, stage, extents, out=None):
        if out is not None:
            _check_destination(out, extents)
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
        block = _check_extents(block, extents, from_part, self.part)
        if out is None:
            return block
        if block.dtype != out.dtype:
            raise ExchangeError(f"{block.dtype} block on edge ({from_part}, {self.part}) "
                                f"does not fit a {out.dtype} destination",
                                sender=from_part, receiver=self.part)
        out[...] = block
        return out

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
    from_part, to_part, stage, dtype, shape = _frame_layout(payload, len(payload))
    block = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), offset=_HEADER.size)
    return from_part, to_part, stage, block.astype(dtype, copy=False).reshape(shape)


def _stream(transfer, buffers):
    """Pass every byte of buffers, in order, to transfer(views), which moves
    a prefix of them and returns its byte count; at most _IOV_MAX buffers a
    call."""
    views = [v for v in (memoryview(b).cast("B") for b in buffers) if v.nbytes]
    first = 0
    while first < len(views):
        moved = transfer(views[first:first + _IOV_MAX])
        if not moved:
            raise ExchangeError("peer closed connection mid-frame")
        while first < len(views) and moved >= views[first].nbytes:
            moved -= views[first].nbytes
            first += 1
        if moved:
            views[first] = views[first][moved:]


def _send_buffers(sock, buffers):
    """Send every byte of buffers, in order, from their own memory."""
    _stream(sock.sendmsg, buffers)


def _recv_buffers(sock, buffers):
    """Fill every byte of buffers, in order, with the next bytes of the stream."""
    _stream(lambda views: sock.recvmsg_into(views)[0], buffers)


def _read_exact(sock, count):
    """The next count bytes of the stream, received into one bytearray."""
    buf = bytearray(count)
    _recv_buffers(sock, [buf])
    return buf


class _Post:
    """A receive's destination (None: a new block), waiting for its frame."""

    def __init__(self, out):
        self.out = out
        self.result = None  # the block, or the exception that ended the read
        self.done = threading.Event()

    def finish(self, result):
        self.result = result
        self.done.set()


class SocketTransport:
    """Transport over connected sockets, one per peer part.

    Each connection has a writer thread, which sends the blocks queued for
    the peer in order, and a reader thread, which fills the receives posted
    for the peer's frames in order. Sends never wait for the peer, so
    symmetric all-to-all exchanges cannot deadlock on full kernel buffers
    although a reader holds each frame until its receive is posted.

    When a reader fails (a corrupt, truncated or misrouted frame, a frame
    that does not fit its destination, or a connection lost), every pending
    and later receive from its peer raises its exception at once. When a
    writer fails, the next send to its peer raises.
    """

    def __init__(self, part, peers):
        self.part = part
        self._socks = dict(peers)  # part id -> connected socket
        self._cond = threading.Condition()
        self._posts = collections.defaultdict(collections.deque)  # (from, stage) -> posts
        self._faults = {}  # part id -> exception that stopped its reader
        self._send_faults = {}  # part id -> exception that stopped its writer
        self._closing = False
        self._outboxes = {peer: queue.SimpleQueue() for peer in self._socks}
        self._readers = [threading.Thread(target=self._read, args=(peer, sock), daemon=True)
                         for peer, sock in self._socks.items()]
        self._writers = [threading.Thread(target=self._write, args=(peer, sock), daemon=True)
                         for peer, sock in self._socks.items()]
        for thread in self._readers + self._writers:
            thread.start()

    def _write(self, peer, sock):
        """Send the frames queued for peer, in order, until close."""
        outbox = self._outboxes[peer]
        try:
            while True:
                buffers = outbox.get()
                if buffers is None:
                    return
                _send_buffers(sock, buffers)
                del buffers  # hold no block while waiting for the next
        except Exception as exc:
            # the traceback would keep the frame's block alive
            self._send_faults.setdefault(peer, exc.with_traceback(None))

    def _claim(self, peer, stage):
        """The oldest receive posted for (peer, stage), once there is one."""
        with self._cond:
            posts = self._posts[(peer, stage)]
            while not (posts or self._closing or peer in self._faults):
                self._cond.wait()
            if self._closing or peer in self._faults:
                raise ExchangeError(f"edge ({peer}, {self.part}) closed")
            return posts.popleft()

    def _read(self, peer, sock):
        post = None
        try:
            while True:
                (length,) = _LEN.unpack(_read_exact(sock, _LEN.size))
                if length < _HEADER.size:
                    raise ExchangeError(f"frame length {length} is shorter than a header")
                from_part, to_part, stage, dtype, shape = _frame_layout(
                    _read_exact(sock, _HEADER.size), length)
                if (from_part, to_part) != (peer, self.part):
                    raise ExchangeError(
                        f"misrouted frame ({from_part}, {to_part}) on edge ({peer}, {self.part})",
                        sender=peer, receiver=self.part)
                post = self._claim(peer, stage)
                block = np.empty(shape, dtype) if post.out is None else post.out
                if block.shape != shape or block.dtype != dtype:
                    raise ExchangeError(
                        f"{shape[::-1]} {dtype.name} frame on edge ({peer}, {self.part}) "
                        f"does not fit a {block.shape[::-1]} {block.dtype} destination",
                        sender=peer, receiver=self.part)
                _recv_buffers(sock, _planes(block))
                if _BYTESWAP:
                    block.byteswap(inplace=True)
                post.finish(block)
                post = block = None  # hold neither between frames
        except Exception as exc:  # a clean close ends here too
            # the traceback would keep this frame's block alive
            self._fail(peer, exc.with_traceback(None), post)

    def _fail(self, peer, exc, claimed=None):
        """Fail peer's edge: its claimed, pending and later receives raise."""
        with self._cond:
            exc = self._faults.setdefault(peer, exc)
            pending = [posts for (sender, _), posts in self._posts.items() if sender == peer]
            failed = [post for posts in pending for post in posts]
            for posts in pending:
                posts.clear()
            self._cond.notify_all()
        for post in failed + ([claimed] if claimed is not None else []):
            post.finish(exc)

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

    def receive(self, from_part, stage, extents, timeout=60.0, out=None):
        if from_part not in self._socks:
            raise ExchangeError(f"no connection from {from_part} to {self.part}",
                                sender=from_part, receiver=self.part)
        if out is not None:
            _check_destination(out, extents)
        post = _Post(out)
        with self._cond:
            if from_part in self._faults:
                post.finish(self._faults[from_part])
            else:
                self._posts[(from_part, stage)].append(post)
                self._cond.notify_all()
        if not post.done.wait(timeout) and self._withdraw(from_part, stage, post):
            raise ExchangeError(f"timed out waiting for block {from_part} -> {self.part}",
                                sender=from_part, receiver=self.part)
        if isinstance(post.result, Exception):
            raise ExchangeError(
                f"connection {from_part} -> {self.part} failed: {post.result}",
                sender=from_part, receiver=self.part) from post.result
        return _check_extents(post.result, extents, from_part, self.part)

    def _withdraw(self, from_part, stage, post):
        """Withdraw a timed-out receive's post; False if it was filled meanwhile.
        A reader already writing into the destination is stopped first, which
        fails the edge."""
        with self._cond:
            posts = self._posts[(from_part, stage)]
            if post in posts:
                posts.remove(post)
                return True
        if post.done.is_set():
            return False
        self._fail(from_part, ExchangeError(f"receive {from_part} -> {self.part} timed out"))
        try:
            self._socks[from_part].shutdown(socket.SHUT_RD)
        except OSError:
            pass
        post.done.wait()
        return True

    def close(self):
        """Shut the connections down, wait for the readers and writers, then close.

        A frame still queued is not sent. A reader can be between reads when
        close starts. Were its socket closed first, the descriptor number
        could go to a socket opened next (the next solve's mesh), and the
        stale reader would take bytes from that stream. The shutdown ends
        every read and write, so the joins are short.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for peer, sock in self._socks.items():
            self._send_faults.setdefault(peer, ExchangeError("endpoint closed"))
            self._outboxes[peer].put(None)
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._readers + self._writers:
            thread.join(timeout=5.0)
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
