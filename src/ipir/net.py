"""Networked replica servers and the client-side exchange.

Wire format: each frame is a 4-byte big-endian length prefix followed by a
UTF-8 JSON payload of at most 2**24 bytes. Messages carry a "type" field
(hello / query / answer / error); unknown fields are ignored. Answer bits
travel as a '0'/'1' string so there is no endianness to argue about.

Servers are honest-but-curious: they evaluate queries against an immutable
replica and keep no per-client state. Download-cost accounting counts
answer payload bits only; framing overhead is tracked separately.

Connections: a ``RemoteTransport`` keeps one TCP connection per replica
until ``close()`` and pipelines each exchange: every query frame goes out,
then the replies are read in server order and checked against the
exchange's session id. Any failure closes all of its connections, so no
later exchange can read a stale reply; a connection its server has closed
is replaced before the query is written. A ``StoreServer`` runs one accept
thread and one thread per connection, which ends after ``IDLE_TIMEOUT``
seconds of silence; beyond ``MAX_CONNECTIONS`` live connections a new one
gets a ``busy`` error frame and is closed, which the client raises as a
``ProtocolError``. An accept that fails (say, out of file descriptors) is
logged once per run of failures and retried every ``ACCEPT_BACKOFF``
seconds. ``close()`` shuts the listening socket down to wake the accept
thread, shuts every live connection down to wake its thread, and joins
them all, without waiting for a client and for at most ``CLOSE_TIMEOUT``
seconds.

A reply is checked for its session id, its length and its '0'/'1' alphabet
only: a replica that flips an answer bit goes unseen here, and is caught in
the simulator only because ``intermittent.retrieve`` compares the decoded
message with its local store.
"""

from __future__ import annotations

import json
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
from .pir import PirAnswer, PirQuery, pir_answer

PROTO_VERSION = 1
MAX_FRAME = 1 << 24
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


def send_frame(sock: socket.socket, payload: dict) -> int:
    """Send one frame; returns the number of bytes written."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise MalformedFrame(f"payload of {len(body)} bytes exceeds the frame limit")
    sock.sendall(struct.pack("!I", len(body)) + body)
    return 4 + len(body)


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_body(sock: socket.socket) -> bytes | None:
    """The payload bytes of one frame; None on clean EOF."""
    header = _recv_exactly(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    if length > MAX_FRAME:
        raise MalformedFrame(f"announced frame of {length} bytes exceeds the limit")
    body = _recv_exactly(sock, length)
    if body is None:
        raise MalformedFrame("connection closed mid-frame")
    return body


def _decode(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedFrame("frame payload is not an object")
    return payload


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; None on clean EOF."""
    body = _recv_body(sock)
    return None if body is None else _decode(body)


def _atom(msg, pos) -> tuple[int, int]:
    """A query atom as the wire gave it; JSON numbers with a fraction or an
    exponent, strings and booleans are refused, not converted."""
    if type(msg) is not int or type(pos) is not int:
        raise TypeError(f"atom [{msg!r}, {pos!r}] is not a pair of integers")
    return msg, pos


def _serve(store: MessageStore, sock: socket.socket):
    while True:
        try:
            message = recv_frame(sock)
        except MalformedFrame as exc:
            try:
                send_frame(sock, {"type": "error", "code": "frame_too_large"
                                  if "limit" in str(exc) else "malformed",
                                  "detail": str(exc)})
            except OSError:
                pass
            return
        if message is None:
            return
        kind = message.get("type")
        if kind == "hello":
            send_frame(
                sock,
                {
                    "type": "hello",
                    "proto_version": PROTO_VERSION,
                    "K": store.K,
                    "L": store.L,
                },
            )
        elif kind == "query":
            session = message.get("session", "")
            combos = message.get("combos", [])
            try:
                query = PirQuery(
                    server=0,
                    combos=tuple(tuple(_atom(m, b) for m, b in combo) for combo in combos),
                )
                answer = pir_answer(query, store)
            except OutOfRange as exc:
                send_frame(
                    sock, {"type": "error", "code": "range", "detail": str(exc)}
                )
                continue
            except (TypeError, ValueError) as exc:
                send_frame(
                    sock,
                    {"type": "error", "code": "malformed", "detail": str(exc)},
                )
                return
            send_frame(
                sock,
                {
                    "type": "answer",
                    "session": session,
                    "bits": "".join(str(b) for b in answer.bits),
                },
            )
        else:
            send_frame(
                sock,
                {"type": "error", "code": "malformed",
                 "detail": f"unknown type {kind!r}"},
            )
            return


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
        send_frame(sock, {"type": "error", "code": "busy",
                          "detail": f"more than {MAX_CONNECTIONS} connections"})
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


def _read_answer(sock, address, session: str, query: PirQuery) -> tuple[PirAnswer, int]:
    """One server's reply, checked against its query; with the frame size."""
    try:
        body = _recv_body(sock)
        reply = None if body is None else _decode(body)
    except (OSError, MalformedFrame) as exc:
        raise FetchTimeout(_endpoint(address)) from exc
    if reply is None:
        raise FetchTimeout(_endpoint(address))
    if reply.get("type") == "error":
        raise ProtocolError(f"server {address} answered {reply.get('code')}: "
                            f"{reply.get('detail')}")
    if reply.get("type") != "answer" or reply.get("session") != session:
        raise ProtocolError(f"unexpected reply {reply.get('type')!r} from {address}")
    bits = reply.get("bits", "")
    if not isinstance(bits, str):
        raise LengthMismatch(f"server {address} answered bits as a {type(bits).__name__}")
    if len(bits) != len(query.combos) or any(c not in "01" for c in bits):
        raise LengthMismatch(
            f"server {address} answered {len(bits)} bits for "
            f"{len(query.combos)} combos"
        )
    answer = PirAnswer(server=query.server, bits=tuple(int(c) for c in bits))
    return answer, 4 + len(body)


@dataclass
class RemoteTransport:
    """Client-side exchange against one endpoint per server index.

    Callable with a query list, like the in-process transport; accumulates
    answer-bit and framing-byte counters for wire accounting over the
    exchanges that succeed. Keeps one connection per endpoint until close();
    one exchange at a time.
    """

    addresses: list[tuple[str, int]]
    timeout: float = 5.0
    answer_bits: int = 0
    frame_bytes: int = 0
    _serial: int = 0
    _socks: dict[int, socket.socket] = field(default_factory=dict, repr=False)

    def __call__(self, queries: list[PirQuery]) -> list[PirAnswer]:
        if len(queries) != len(self.addresses):
            raise InvalidParams(
                f"{len(queries)} queries for {len(self.addresses)} endpoints"
            )
        self._serial += 1
        session = f"{self._serial:08x}"
        # Every query goes out before any reply is read. That cannot
        # deadlock: a server replies only after it has read its whole frame,
        # so taking in a query never waits on the client reading a reply.
        try:
            socks = []
            sent = 0
            for index, (address, query) in enumerate(zip(self.addresses, queries)):
                frame = {
                    "type": "query",
                    "session": session,
                    "combos": [[list(pair) for pair in combo] for combo in query.combos],
                }
                try:
                    sock = self._connection(index)
                    sent += send_frame(sock, frame)
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
        self.answer_bits += sum(len(a.bits) for a in answers)
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


def hello(address, timeout: float = 5.0) -> dict:
    """Ask one server for its parameters."""
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            send_frame(sock, {"type": "hello"})
            reply = recv_frame(sock)
    except OSError as exc:
        raise FetchTimeout(_endpoint(address)) from exc
    if not reply or reply.get("type") != "hello":
        raise ProtocolError(f"bad hello reply from {address}")
    return reply


STORE_MAGIC_LEN = 8  # two 4-byte big-endian fields: K, L


def store_to_bytes(store: MessageStore) -> bytes:
    """Binary store file: 8-byte header (K, L) then K * L/8 payload bytes."""
    if store.L % 8 != 0:
        raise InvalidParams("file storage needs L to be a multiple of 8")
    out = bytearray(struct.pack("!II", store.K, store.L))
    for bits in store.data:
        for i in range(0, store.L, 8):
            byte = 0
            for j in range(8):
                byte = (byte << 1) | bits[i + j]
            out.append(byte)
    return bytes(out)


def store_from_bytes(blob: bytes) -> MessageStore:
    if len(blob) < STORE_MAGIC_LEN:
        raise MalformedFrame("store file shorter than its header")
    K, L = struct.unpack("!II", blob[:STORE_MAGIC_LEN])
    if L % 8 != 0:
        raise MalformedFrame(f"stored L={L} is not a multiple of 8")
    need = STORE_MAGIC_LEN + K * L // 8
    if len(blob) != need:
        raise MalformedFrame(f"store file has {len(blob)} bytes, expected {need}")
    data = []
    offset = STORE_MAGIC_LEN
    for _ in range(K):
        bits = []
        for _ in range(L // 8):
            byte = blob[offset]
            offset += 1
            bits.extend((byte >> (7 - j)) & 1 for j in range(8))
        data.append(tuple(bits))
    return MessageStore(K=K, L=L, data=tuple(data))


def save_store(store: MessageStore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(store_to_bytes(store))


def load_store(path) -> MessageStore:
    with open(path, "rb") as fh:
        return store_from_bytes(fh.read())
