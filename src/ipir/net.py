"""Networked replica servers and the client-side exchange.

Wire format, protocol version 2: each frame is a 4-byte big-endian length
prefix followed by a body of at most 2**24 bytes, a one-byte tag and then
big-endian fields. Each side parses only the frames the other side sends:

- query (0x02), client to replica: u32 words ``[session, n_combos,
  size_0 ... size_{n-1}, msg, pos, msg, pos, ...]``, each combo's atom
  count and then the atoms of every combo in order.
- hello (0x01), the bare tag to a replica, which replies with the u32
  words ``[proto_version, K, L]``. No library call sends one.
- answer (0x03), replica to client: a u32 session, then one byte, 0 or 1,
  per combo.
- error (0x04), replica to client: a one-byte length, the ASCII code
  (``range``, ``malformed``, ``frame_too_large`` or ``busy``), then the
  UTF-8 detail.

A replica replies to any other body, a version-1 peer's JSON among them,
with a ``malformed`` error and ends the connection. A client raises
``ProtocolError`` on a hello or a query, and ``FetchTimeout`` on a body it
cannot parse.

Servers are honest-but-curious: they evaluate queries against an immutable
replica and keep no per-client state. Download-cost accounting counts
answer payload bits only; framing overhead is tracked separately.

Memory: a replica refuses a frame announced longer than
``1 + 4·(2 + 3·K·L)`` bytes with ``frame_too_large`` before it reads the
body. A valid query names each (message, position) at most once, so it
fits: at most K·L sizes and K·L atoms. A connection therefore holds at most
one body of ``12·K·L + 9`` bytes, decoded into at most ``3·K·L + 2`` words
and as many tuples, and an answer frame of at most ``3·K·L + 9`` bytes.
An error body is cut to ``ERROR_CAP`` bytes. A client refuses a reply
announced longer than its query's answer, 5 bytes and one per combo, and
than ``ERROR_CAP``, with a ``ProtocolError`` before it reads the body.
Decoding and answering the worst such query takes about 60 bytes per word:
under 0.8 MB at K=4, L=1024 (tracemalloc peak, CPython 3.11), so under
``MAX_CONNECTIONS`` × 0.8 MB = 51 MB for a full replica.

Connections: a ``RemoteTransport`` keeps one TCP connection per replica
until ``close()`` and pipelines each exchange: every query frame goes out,
then the replies are read in server order and checked against the
exchange's session id, which counts up modulo 2**32. Any failure closes all
of its connections, so no later exchange can read a stale reply; a
connection its server has closed is replaced before the query is written. A
``StoreServer`` runs one accept thread and one thread per connection, which
ends when a frame has not begun within ``IDLE_TIMEOUT`` seconds, or not
ended as long after it began; beyond ``MAX_CONNECTIONS`` live connections a
new one gets a ``busy`` error frame and is closed, which the client raises
as a ``ProtocolError``. An accept that fails (say, out of file descriptors)
is logged once per run of failures and retried every ``ACCEPT_BACKOFF``
seconds. ``close()`` shuts the listening socket down to wake the accept
thread, shuts every live connection down to wake its thread, and joins them
all, without waiting for a client and for at most ``CLOSE_TIMEOUT``
seconds.

A reply is checked for its session id, its length and its 0/1 alphabet
only: a replica that flips an answer bit goes unseen here, and is caught in
the simulator only because ``intermittent.retrieve`` compares the decoded
message with its local store.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .core import MessageStore
from .errors import (
    FetchTimeout,
    InvalidParams,
    LengthMismatch,
    MalformedFrame,
    OutOfRange,
    ProtocolError,
)
from .pir import PirQuery, pir_answer

PROTO_VERSION = 2
MAX_FRAME = 1 << 24
ERROR_CAP = 256  # the longest error body; a replica cuts the detail to fit
# frame tags, the first byte of every body
HELLO, QUERY, ANSWER, ERROR = 1, 2, 3, 4
_KINDS = {HELLO: "hello", QUERY: "query", ANSWER: "answer", ERROR: "error"}
_BARE_HELLO = bytes((HELLO,))
_WORD = struct.Struct("!I")
_TAGGED_WORD = struct.Struct("!BI")
_HELLO_REPLY = struct.Struct("!BIII")
# a server closes a connection that sends nothing for this many seconds, so
# an idle, stalled or vanished client does not hold a handler thread
IDLE_TIMEOUT = 30.0
# live connections a server serves at once, so its handler threads are
# bounded; one more is refused with a "busy" error frame
MAX_CONNECTIONS = 64
# seconds between retries of a failing accept, so a persistent error such
# as EMFILE does not spin the accept thread
ACCEPT_BACKOFF = 0.05
# seconds close() waits, in all, for the server's threads to end
CLOSE_TIMEOUT = 5.0


class _TooLarge(MalformedFrame):
    """A frame announced longer than its reader takes."""


def _query_body(session: int, combos) -> bytes:
    words = [session, len(combos), *map(len, combos)]
    for combo in combos:
        for atom in combo:
            words += atom
    try:
        return struct.pack(f"!B{len(words)}I", QUERY, *words)
    except struct.error as exc:
        raise OutOfRange(f"a query word is not a u32: {exc}") from exc


def _error_body(code: str, detail: str) -> bytes:
    """An error body, its detail cut at a whole character to fit ERROR_CAP."""
    head = bytes((ERROR, len(code))) + code.encode("ascii")
    cut = detail.encode("utf-8")[: ERROR_CAP - len(head)]
    return head + cut.decode("utf-8", "ignore").encode("utf-8")


def _unexpected(body: bytes) -> str:
    """Why a side refuses a body that is not a frame it reads."""
    if not body:
        return "empty frame"
    name = _KINDS.get(body[0])
    return f"unexpected {name} frame" if name else f"unknown frame tag 0x{body[0]:02x}"


def _parse_query(body: bytes) -> tuple[int, tuple]:
    """A query body's session and combos, each a tuple of (msg, pos) pairs."""
    if not body or body[0] != QUERY:
        raise MalformedFrame(_unexpected(body))
    count, rest = divmod(len(body) - 1, 4)
    if rest:
        raise MalformedFrame(f"query of {len(body) - 1} bytes is not whole u32 words")
    if count < 2:
        raise MalformedFrame("query lacks its session or its combo count")
    words = struct.unpack_from(f"!{count}I", body, 1)
    start = 2 + words[1]
    if start > count:
        raise MalformedFrame(f"{words[1]} combo sizes run past the end of the query")
    sizes = words[2:start]
    if start + 2 * sum(sizes) != count:
        raise MalformedFrame(f"combo sizes name {sum(sizes)} atoms in "
                             f"{count - start} words")
    atoms = iter(words[start:])
    pairs = list(zip(atoms, atoms))
    combos = []
    first = 0
    for size in sizes:
        combos.append(tuple(pairs[first:first + size]))
        first += size
    return words[0], tuple(combos)


def _send(sock: socket.socket, body: bytes) -> int:
    if len(body) > MAX_FRAME:
        raise MalformedFrame(f"payload of {len(body)} bytes exceeds the frame limit")
    sock.sendall(_WORD.pack(len(body)) + body)
    return 4 + len(body)


def _recv_body(sock: socket.socket, limit: int = MAX_FRAME) -> bytes | None:
    """The body bytes of one frame; None on clean EOF. Once its first bytes
    arrive, the whole frame must arrive within the socket's own timeout, or
    TimeoutError: after a recv comes back short, each gets the time left."""
    timeout = sock.gettimeout()
    data = sock.recv(4)
    if not data:
        return None
    end = None if timeout is None else time.monotonic() + timeout
    try:
        (length,) = _WORD.unpack(data if len(data) == 4 else _recv_rest(sock, data, 4, end))
        if length > limit:
            raise _TooLarge(f"announced frame of {length} bytes exceeds the limit of {limit}")
        # once the timeout is cut, the first body recv gets the time left too
        data = sock.recv(length) if sock.gettimeout() == timeout else b""
        return data if len(data) == length else _recv_rest(sock, data, length, end)
    finally:
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)


def _recv_rest(sock: socket.socket, data: bytes, n: int, end: float | None) -> bytes:
    """``data`` and the rest of its n bytes, each recv cut to the time left to ``end``."""
    chunks, got = [data], len(data)
    while got < n:
        if end is not None:
            left = end - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame deadline passed")
            sock.settimeout(left)
        chunk = sock.recv(n - got)
        if not chunk:
            raise MalformedFrame("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _serve(store: MessageStore, sock: socket.socket):
    # tag, session, count, then at most K·L sizes and K·L atoms
    limit = min(MAX_FRAME, 1 + 4 * (2 + 3 * store.K * store.L))
    hello = _HELLO_REPLY.pack(HELLO, PROTO_VERSION, store.K, store.L)
    while True:
        try:
            body = _recv_body(sock, limit)
            if body is None:
                return
            if body == _BARE_HELLO:
                _send(sock, hello)
                continue
            session, combos = _parse_query(body)
        except MalformedFrame as exc:
            code = "frame_too_large" if isinstance(exc, _TooLarge) else "malformed"
            try:
                _send(sock, _error_body(code, str(exc)))
            except OSError:
                pass
            return
        try:
            bits = pir_answer(PirQuery(combos), store)
        except OutOfRange as exc:
            _send(sock, _error_body("range", str(exc)))
            continue
        _send(sock, _TAGGED_WORD.pack(ANSWER, session) + bytes(bits))


class StoreServer:
    """A running replica: one thread accepts, and each connection is served
    on its own thread; close() tears it down."""

    def __init__(self, store: MessageStore, bind):
        self._store = store
        self._listener = socket.create_server(bind)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._closing = threading.Event()
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        failing = False
        while not self._closing.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError as exc:
                # close() shut the listener down, or the accept failed: wait
                # before the retry, in case the error persists
                if self._closing.is_set():
                    break
                if not failing:
                    # imported here, on a failure path, because importing
                    # logging adds about 0.4 MB to every process using ipir
                    import logging

                    logging.getLogger(__name__).warning(
                        "replica %s: accept failed (%s); retrying every %s s",
                        _endpoint(self.address), exc, ACCEPT_BACKOFF,
                    )
                    failing = True
                self._closing.wait(ACCEPT_BACKOFF)
                continue
            failing = False
            with self._live_lock:
                busy = len(self._live) >= MAX_CONNECTIONS
                if not busy:
                    thread = threading.Thread(target=self._handle, args=(sock,), daemon=True)
                    self._live[sock] = thread
            if busy:
                _refuse(sock)
            else:
                thread.start()

    def _handle(self, sock: socket.socket):
        try:
            sock.settimeout(IDLE_TIMEOUT)
            _serve(self._store, sock)
        except OSError:
            # the idle timeout, a client gone mid-frame, or close() ending
            # the connection: nothing is left to answer
            pass
        finally:
            with self._live_lock:
                del self._live[sock]
            sock.close()

    def wait(self):
        self._thread.join()

    def close(self):
        """Stop accepting, end the live connections and join every server
        thread. Returns at once, without waiting for a poll or a client;
        a thread that has not ended within CLOSE_TIMEOUT is left behind."""
        if self._closing.is_set():
            return
        self._closing.set()
        deadline = time.monotonic() + CLOSE_TIMEOUT
        self._listener.shutdown(socket.SHUT_RDWR)
        self._thread.join(CLOSE_TIMEOUT)
        with self._live_lock:
            # under the lock, so no connection here has been closed yet
            live = list(self._live.items())
            for sock, _ in live:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._listener.close()


def _refuse(sock: socket.socket):
    """Tell a connection over the cap that the server is busy, and close it.
    The frame fits an empty send buffer, so the accept thread never waits
    on the client."""
    try:
        sock.setblocking(False)
        _send(sock, _error_body("busy", f"more than {MAX_CONNECTIONS} connections"))
    except OSError:
        pass
    finally:
        sock.close()


def serve(store: MessageStore, bind=("127.0.0.1", 0)) -> StoreServer:
    """Serve a replica on background threads; stateless between queries."""
    return StoreServer(store, bind)


def _endpoint(address) -> str:
    return f"{address[0]}:{address[1]}"


def _peer_closed(sock: socket.socket) -> bool:
    """True if an idle connection has something to read: its server closed
    or reset it (or wrote out of turn), so it cannot carry an exchange."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _read_answer(sock, address, session: int, query: PirQuery) -> tuple[tuple[int, ...], int]:
    """One server's answer bits, checked against its query; with the frame
    size. Only an answer or an error body is parsed: a body of another
    known kind is an unexpected reply, and no frame, or one that does not
    parse, is a FetchTimeout. A frame announced longer than the query's
    answer and than ERROR_CAP is a ProtocolError before its body is read."""
    try:
        body = _recv_body(sock, max(5 + len(query.combos), ERROR_CAP))
        if body is None:
            raise FetchTimeout(_endpoint(address))
        tag = body[0] if body else None
        if tag not in _KINDS:
            raise MalformedFrame(_unexpected(body))
        if tag == ANSWER and len(body) < 5:
            raise MalformedFrame("answer shorter than its session id")
        if tag == ERROR:
            end = 2 + body[1] if len(body) > 1 else 0
            if not 2 <= end <= len(body):
                raise MalformedFrame("error frame shorter than its code")
            try:
                code, detail = body[2:end].decode("ascii"), body[end:].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedFrame(f"undecodable error frame: {exc}") from exc
    except _TooLarge as exc:
        raise ProtocolError(f"server {address} sent an oversized reply: {exc}") from exc
    except (OSError, MalformedFrame) as exc:
        raise FetchTimeout(_endpoint(address)) from exc
    if tag == ERROR:
        raise ProtocolError(f"server {address} answered {code}: {detail}")
    if tag != ANSWER or _WORD.unpack_from(body, 1)[0] != session:
        raise ProtocolError(f"unexpected reply {_KINDS[tag]!r} from {address}")
    bits = body[5:]
    if len(bits) != len(query.combos) or bits.translate(None, b"\x00\x01"):
        raise LengthMismatch(
            f"server {address} answered {len(bits)} bits for "
            f"{len(query.combos)} combos"
        )
    return tuple(bits), 4 + len(body)


@dataclass
class RemoteTransport:
    """Client-side exchange against one endpoint per server index.

    Callable with a query list, like the in-process transport; accumulates
    answer-bit and framing-byte counters for wire accounting over the
    exchanges that succeed. Keeps one connection per endpoint until close();
    one exchange at a time. A query atom that no u32 word holds raises
    ``OutOfRange`` before anything is sent.
    """

    addresses: list[tuple[str, int]]
    timeout: float = 5.0
    answer_bits: int = field(default=0, init=False)
    frame_bytes: int = field(default=0, init=False)
    _serial: int = field(default=0, init=False)
    _socks: dict[int, socket.socket] = field(default_factory=dict, init=False, repr=False)

    def __call__(self, queries: list[PirQuery]) -> list[tuple[int, ...]]:
        if len(queries) != len(self.addresses):
            raise InvalidParams(
                f"{len(queries)} queries for {len(self.addresses)} endpoints"
            )
        self._serial = session = (self._serial + 1) & 0xFFFFFFFF
        # Every query goes out before any reply is read. That cannot
        # deadlock: a server replies only after it has read its whole frame,
        # so taking in a query never waits on the client reading a reply.
        try:
            bodies = [_query_body(session, query.combos) for query in queries]
            socks = []
            sent = 0
            for index, (address, body) in enumerate(zip(self.addresses, bodies)):
                try:
                    sock = self._connection(index)
                    sent += _send(sock, body)
                except (OSError, MalformedFrame) as exc:
                    raise FetchTimeout(_endpoint(address)) from exc
                socks.append(sock)
            answers = []
            received = 0
            for sock, address, query in zip(socks, self.addresses, queries):
                answer, size = _read_answer(sock, address, session, query)
                answers.append(answer)
                received += size
        except BaseException:
            # a connection may hold half a frame or a late reply
            self.close()
            raise
        self.answer_bits += sum(map(len, answers))
        self.frame_bytes += sent + received
        return answers

    def _connection(self, index: int) -> socket.socket:
        sock = self._socks.get(index)
        if sock is not None and _peer_closed(sock):
            # the query has not been written yet, so nothing is re-sent
            sock.close()
            sock = None
        if sock is None:
            sock = socket.create_connection(self.addresses[index], timeout=self.timeout)
            self._socks[index] = sock
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self):
        """Close every connection; a later exchange opens new ones."""
        for sock in self._socks.values():
            sock.close()
        self._socks.clear()


STORE_MAGIC_LEN = 8  # two 4-byte big-endian fields: K, L


def store_to_bytes(store: MessageStore) -> bytes:
    """Binary store file: 8-byte header (K, L) then K * L/8 payload bytes."""
    if store.L % 8 != 0:
        raise InvalidParams("file storage needs L to be a multiple of 8")
    payload = "".join(f"{b:d}" for bits in store.data for b in bits)  # a bool bit as 0 or 1
    return struct.pack("!II", store.K, store.L) + int(payload, 2).to_bytes(
        store.K * store.L // 8, "big"
    )


def store_from_bytes(blob: bytes) -> MessageStore:
    if len(blob) < STORE_MAGIC_LEN:
        raise MalformedFrame("store file shorter than its header")
    K, L = struct.unpack("!II", blob[:STORE_MAGIC_LEN])
    if L % 8 != 0:
        raise MalformedFrame(f"stored L={L} is not a multiple of 8")
    need = STORE_MAGIC_LEN + K * L // 8
    if len(blob) != need:
        raise MalformedFrame(f"store file has {len(blob)} bytes, expected {need}")
    payload = format(int.from_bytes(blob[STORE_MAGIC_LEN:], "big"), f"0{K * L}b")
    data = tuple(tuple(map(int, payload[m * L : (m + 1) * L])) for m in range(K))
    return MessageStore(K=K, L=L, data=data)


def save_store(store: MessageStore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(store_to_bytes(store))


def load_store(path) -> MessageStore:
    with open(path, "rb") as fh:
        return store_from_bytes(fh.read())
