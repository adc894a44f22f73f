import errno
import json
import logging
import socket
import struct
import threading
import time
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from ipir import net
from ipir.core import MessageStore, fork_rng
from ipir.errors import (
    FetchTimeout,
    InvalidParams,
    LengthMismatch,
    MalformedFrame,
    OutOfRange,
    ProtocolError,
)
from ipir.intermittent import local_transport, run_two_request
from ipir.net import (
    HELLO,
    MAX_FRAME,
    QUERY,
    RemoteTransport,
    serve,
    store_from_bytes,
    store_to_bytes,
)
from ipir.obfuscation import greedy_policy
from ipir.pir import PirQuery, PirSession, open_session, pir_answer, pir_setup

from oracles import decode, encode, key_from_perms, send_frame


def other_threads():
    return [t.name for t in threading.enumerate() if t is not threading.main_thread()]


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Servers and fakes must join every thread they start by the end of
    the test that made them; a short grace period covers thread exit."""
    yield
    deadline = time.monotonic() + 2.0
    while other_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not other_threads(), f"threads outlived the test: {other_threads()}"


@pytest.fixture
def running_pair(store22):
    servers = [serve(store22) for _ in range(2)]
    yield servers
    for s in servers:
        s.close()


def recv_frame(sock):
    """Read one frame as ``decode`` returns it; None on clean EOF."""
    body = net._recv_body(sock)
    return None if body is None else decode(body)


def textbook_queries():
    params = pir_setup(2, (0, 1), 4)
    identity = key_from_perms((((0, 1, 2, 3),), ((0, 1, 2, 3),)))
    return PirSession.from_key(params, 0, identity).queries


def query_frame(*words) -> bytes:
    """A query body of the given u32 words, checked by nothing."""
    return bytes((QUERY,)) + struct.pack(f"!{len(words)}I", *words)


u32 = st.integers(0, 2**32 - 1)
MESSAGES = st.one_of(
    st.builds(
        lambda session, combos: {"type": "query", "session": session, "combos": combos},
        u32,
        st.lists(st.lists(st.tuples(u32, u32), max_size=4).map(tuple), max_size=6).map(tuple),
    ),
    st.builds(
        lambda session, bits: {"type": "answer", "session": session, "bits": bits},
        u32,
        st.binary(max_size=12),
    ),
    st.just({"type": "hello"}),
    st.builds(
        lambda version, K, L: {"type": "hello", "proto_version": version, "K": K, "L": L},
        u32, u32, u32,
    ),
    st.builds(
        lambda code, detail: {"type": "error", "code": code, "detail": detail},
        st.text(st.characters(max_codepoint=127), max_size=40),
        st.text(max_size=40),
    ),
)


# the parser tests' replica, whose per-store frame limit takes every
# query MESSAGES draws, and the address the client's messages name
PARSER_STORE = MessageStore.random(4, 8, fork_rng(9, "s"))
ADDRESS = ("127.0.0.1", 9)


def replica_replies(store: MessageStore, body: bytes) -> list[bytes]:
    """The raw bodies ``net._serve`` sends back for one frame of ``body``."""
    a, b = socket.socketpair()
    with a:
        a.sendall(struct.pack("!I", len(body)) + body)
        a.shutdown(socket.SHUT_WR)
        with b:
            net._serve(store, b)
        replies = []
        while (reply := net._recv_body(a)) is not None:
            replies.append(reply)
    return replies


def replica_reads(body: bytes):
    """What ``net._serve`` makes of one frame over a socketpair: the query
    it evaluates, as ("query", session, combos), "hello", or the code of
    the error it replies with. ``pir_answer`` is replaced by a recorder."""
    evaluated = []

    def answer(query, store):
        evaluated.append(query.combos)
        return (0,) * len(query.combos)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "pir_answer", answer)
        [reply] = map(decode, replica_replies(PARSER_STORE, body))
    if reply["type"] == "answer":
        [combos] = evaluated
        return "query", reply["session"], combos
    if reply["type"] == "hello":
        assert reply == {"type": "hello", "proto_version": net.PROTO_VERSION,
                         "K": PARSER_STORE.K, "L": PARSER_STORE.L}
        return "hello"
    return reply["code"]


def replica_expected(body: bytes):
    """``replica_reads`` as the oracle codec decides it, but for one
    decision: the replica takes only the bare hello, and refuses a hello
    with fields, the 13-byte hello reply among them, that the codec reads."""
    try:
        message = decode(body)
    except MalformedFrame:
        return "malformed"
    if message["type"] == "query":
        return "query", message["session"], message["combos"]
    return "hello" if body == bytes((HELLO,)) else "malformed"


def client_reads(body: bytes, session: int, n_combos: int):
    """What ``net._read_answer`` makes of one frame over a socketpair, for
    a query of ``n_combos`` combos: the bits, or the error's type and text."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack("!I", len(body)) + body)
        try:
            bits, size = net._read_answer(b, ADDRESS, session, PirQuery(((),) * n_combos))
        except ProtocolError as exc:
            return type(exc), str(exc)
    assert size == 4 + len(body)
    return bits


def client_expected(body: bytes, session: int, n_combos: int):
    """``client_reads`` as the oracle codec decides it, but for a hello or
    query body that the codec refuses: the client parses neither, so it
    takes any such body as an unexpected reply, where a reader on the codec
    raises FetchTimeout."""
    try:
        reply = decode(body)
    except MalformedFrame:
        kind = {HELLO: "hello", QUERY: "query"}.get(body[0]) if body else None
        if kind:
            return ProtocolError, f"unexpected reply {kind!r} from {ADDRESS}"
        return FetchTimeout, f"no answer from {ADDRESS[0]}:{ADDRESS[1]}"
    kind = reply["type"]
    if kind == "error":
        return ProtocolError, f"server {ADDRESS} answered {reply['code']}: {reply['detail']}"
    if kind != "answer" or reply["session"] != session:
        return ProtocolError, f"unexpected reply {kind!r} from {ADDRESS}"
    bits = reply["bits"]
    if len(bits) != n_combos or bits.translate(None, b"\x00\x01"):
        return LengthMismatch, f"server {ADDRESS} answered {len(bits)} bits for {n_combos} combos"
    return tuple(bits)


class TestSideParsers:
    """The replica's and the client's parsers against the oracle codec:
    the same frames accepted, the same error codes, and on the client the
    same exception and text, but for the decisions the expectations name."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(MESSAGES, st.booleans())
    def test_every_message_is_read_as_the_oracle_reads_it(self, message, same_session):
        body = encode(message)
        assert replica_reads(body) == replica_expected(body)
        session = message.get("session", 0) ^ (not same_session)
        n_combos = len(message.get("bits", b""))
        assert client_reads(body, session, n_combos) == client_expected(body, session, n_combos)
        if message["type"] == "query":
            assert net._query_body(message["session"], message["combos"]) == body
        if message["type"] == "error":
            assert net._error_body(message["code"], message["detail"]) == body

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"\xff{not json",
            query_frame(1, 1, 1, 0, 0)[:-1],
            query_frame(1, 0) + b"\x00",
            query_frame(1),
            query_frame(1, 5, 1, 0, 0),
            query_frame(1, 2, 1, 2, 0, 0, 1, 1),
            b"\x03\x00\x00",
            b"\x04",
            b"\x04\x09busy",
            b"\x04\x04busy\xff",
            b"\x04\x02\xffx",
            b"\x01\x00",
            encode({"type": "hello", "proto_version": 2, "K": 2, "L": 4}),
        ],
        ids=["empty", "unknown tag", "query not whole words", "query and a stray byte",
             "query without its count",
             "combo count past the end", "sizes disagree with the atoms",
             "answer shorter than its session id", "error without its code length",
             "error code past the end", "non-UTF-8 error detail", "non-ASCII error code",
             "two-byte hello", "hello reply"],
    )
    def test_malformed_body_is_refused_as_the_oracle_refuses_it(self, body):
        assert replica_reads(body) == replica_expected(body)
        assert client_reads(body, 1, 1) == client_expected(body, 1, 1)


class TestReplyBound:
    """A client reads a reply of at most its query's answer or ERROR_CAP
    bytes, and every error frame a replica sends fits ERROR_CAP."""

    @staticmethod
    def read(prefix: bytes, n_combos: int):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(2.0)
            a.sendall(prefix)
            return net._read_answer(b, ADDRESS, 1, PirQuery(((),) * n_combos))

    @pytest.mark.parametrize("n_combos", [0, 1, net.ERROR_CAP - 5, net.ERROR_CAP, 3 * 2 * 4])
    def test_a_longer_reply_is_refused_unread(self, n_combos):
        limit = max(5 + n_combos, net.ERROR_CAP)
        # only the header is sent: reading the body would time out
        with pytest.raises(ProtocolError) as err:
            self.read(struct.pack("!I", limit + 1), n_combos)
        assert type(err.value) is ProtocolError
        assert isinstance(err.value.__cause__, MalformedFrame)

    @pytest.mark.parametrize("n_combos", [0, 1, net.ERROR_CAP, 4 * net.ERROR_CAP])
    def test_replies_at_the_bound_are_read(self, n_combos):
        answer = encode({"type": "answer", "session": 1, "bits": bytes(n_combos)})
        assert len(answer) == 5 + n_combos
        frame = struct.pack("!I", len(answer)) + answer
        assert self.read(frame, n_combos) == ((0,) * n_combos, len(frame))
        error = net._error_body("range", "x" * 1000)
        assert len(error) == net.ERROR_CAP
        with pytest.raises(ProtocolError, match="answered range: x+$") as err:
            self.read(struct.pack("!I", len(error)) + error, n_combos)
        assert type(err.value) is ProtocolError

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["range", "malformed", "frame_too_large", "busy"]),
        st.text(max_size=400),
    )
    def test_every_error_frame_fits_the_cap(self, code, detail):
        body = net._error_body(code, detail)
        assert len(body) <= net.ERROR_CAP
        message = decode(body)
        assert message["code"] == code and detail.startswith(message["detail"])
        if len(encode({"type": "error", "code": code, "detail": detail})) <= net.ERROR_CAP:
            assert message["detail"] == detail
        else:
            assert net.ERROR_CAP - 3 <= len(body)


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            reply = {"type": "hello", "proto_version": 2, "K": 3, "L": 8}
            send_frame(a, reply)
            assert recv_frame(b) == reply
        finally:
            a.close()
            b.close()
        # the replica's own hello reply is the oracle's bytes
        store = MessageStore.random(3, 8, fork_rng(4, "s"))
        assert replica_replies(store, bytes((HELLO,))) == [encode(reply)]

    def test_length_prefix_is_big_endian(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "answer", "session": 1, "bits": b"\x01\x00"})
            header = b.recv(4)
            (length,) = struct.unpack("!I", header)
            body = b.recv(length)
            assert body == b"\x03" + b"\x00\x00\x00\x01" + b"\x01\x00"
        finally:
            a.close()
            b.close()

    def test_query_is_big_endian_words(self):
        combos = (((0, 1),), ((1, 2), (2, 3)))
        body = net._query_body(258, combos)
        assert body == query_frame(258, 2, 1, 2, 0, 1, 1, 2, 2, 3)
        assert body[1:5] == b"\x00\x00\x01\x02"

    def test_error_layout(self):
        body = net._error_body("busy", "é")
        assert body == b"\x04\x04busy" + "é".encode()

    @settings(max_examples=300, deadline=None)
    @given(MESSAGES)
    def test_every_message_round_trips(self, message):
        body = encode(message)
        assert decode(body) == message
        # each frame net sends is the oracle's bytes
        kind = message["type"]
        if kind == "query":
            assert net._query_body(message["session"], message["combos"]) == body
        if kind == "error":
            assert net._error_body(message["code"], message["detail"]) == body
        if kind == "answer":
            assert net._TAGGED_WORD.pack(net.ANSWER, message["session"]) + message["bits"] == body
        if kind == "hello" and len(message) > 1:
            fields = message["proto_version"], message["K"], message["L"]
            assert net._HELLO_REPLY.pack(HELLO, *fields) == body

    @pytest.mark.parametrize("shape", ["singletons", "empty combos", "one combo"])
    def test_the_longest_admissible_query_takes_under_0_8_mb(self, shape):
        # the net docstring's bound at K=4, L=1024: decoding and answering
        # a query of up to 1 + 4·(2 + 3·K·L) bytes, repeated atoms and all
        K, L = 4, 1024
        store = MessageStore.random(K, L, fork_rng(5, "s"))
        atoms = [(m, b) for m in range(K) for b in range(L)]
        combos = {
            "singletons": [(atom,) for atom in atoms],
            "empty combos": [()] * (3 * K * L),
            "one combo": [tuple((atoms * 2)[:(3 * K * L - 1) // 2])],
        }[shape]
        body = net._query_body(1, tuple(combos))
        assert 1 + 4 * (1 + 3 * K * L) <= len(body) <= 1 + 4 * (2 + 3 * K * L)
        tracemalloc.start()
        try:
            _, parsed = net._parse_query(body)
            pir_answer(PirQuery(parsed), store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 800_000


class TestServer:
    def test_hello_reports_parameters(self, running_pair, store22):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            send_frame(sock, {"type": "hello"})
            reply = recv_frame(sock)
        assert reply["type"] == "hello"
        assert reply["K"] == store22.K
        assert reply["L"] == store22.L
        assert reply["proto_version"] == 2

    def test_single_lookup(self, running_pair, store22):
        query = PirQuery((((0, 0),),))
        transport = RemoteTransport(addresses=[running_pair[0].address])
        try:
            answers = transport([query])
        finally:
            transport.close()
        assert answers[0] == (store22.data[0][0],)

    def test_out_of_range_is_reported(self, running_pair):
        query = PirQuery((((0, 99),),))
        transport = RemoteTransport(addresses=[running_pair[0].address])
        try:
            with pytest.raises(ProtocolError) as err:
                transport([query])
        finally:
            transport.close()
        assert "range" in str(err.value)

    def test_oversized_frame_is_refused(self, running_pair):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", MAX_FRAME + 1))
            sock.sendall(b"x" * 64)
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "frame_too_large"

    def test_a_trickling_client_is_dropped_at_the_frame_deadline(self, store22, monkeypatch):
        # each byte comes 0.2 s after the last, inside the 0.5 s idle wait,
        # but the whole frame must arrive within 0.5 s of its first byte:
        # the replica hangs up while the header is still coming in
        monkeypatch.setattr(net, "IDLE_TIMEOUT", 0.5)
        server = serve(store22)
        query = PirQuery((((1, 2),),))
        body = encode({"type": "query", "session": 1, "combos": query.combos})
        frame = struct.pack("!I", len(body)) + body
        try:
            with socket.create_connection(server.address, timeout=0.2) as sock:
                sent, reply = 0, None
                for byte in frame:
                    try:
                        sock.sendall(bytes((byte,)))
                        reply = sock.recv(64)
                    except TimeoutError:
                        sent += 1
                        continue
                    except OSError:
                        reply = b""  # reset rather than closed
                    break
            assert reply == b""
            assert sent < len(frame) - 1
            # the replica then serves a new client
            transport = RemoteTransport(addresses=[server.address])
            try:
                assert transport([query])[0] == (store22.data[1][2],)
            finally:
                transport.close()
        finally:
            server.close()

    def test_down_server_times_out_with_endpoint(self, store22):
        server = serve(store22)
        address = server.address
        server.close()
        query = PirQuery((((0, 0),),))
        transport = RemoteTransport(addresses=[address], timeout=0.5)
        try:
            with pytest.raises(FetchTimeout) as err:
                transport([query])
        finally:
            transport.close()
        assert str(address[1]) in str(err.value)

    def test_textbook_query_pair_downloads_six_bits(self, running_pair, store22):
        transport = RemoteTransport(addresses=[s.address for s in running_pair])
        try:
            answers = transport(textbook_queries())
        finally:
            transport.close()
        assert sum(map(len, answers)) == 6

    def test_every_transport_answers_equal_tuples_of_ints(self, running_pair, store22):
        # an answer is the bit tuple alone, whichever way it was fetched
        rng = fork_rng(3, "answers")
        transport = RemoteTransport(addresses=[s.address for s in running_pair])
        local = local_transport(store22)
        try:
            for subset in ((0,), (1,), (0, 1)):
                params = pir_setup(2, subset, 4)
                for desired in subset:
                    queries = open_session(params, desired, rng).queries
                    answers = [
                        [pir_answer(q, store22) for q in queries],
                        local(queries),
                        transport(queries),
                    ]
                    assert answers[0] == answers[1] == answers[2]
                    for answer, query in zip(chain(*answers), queries * 3):
                        assert type(answer) is tuple and len(answer) == len(query.combos)
                        assert {type(b) for b in answer} == {int}
        finally:
            transport.close()

    def test_query_longer_than_the_store_allows_is_refused_unread(
        self, running_pair, store22
    ):
        # sizes and atoms of a query naming every (message, position) once
        bound = 1 + 4 * (2 + 3 * store22.K * store22.L)
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", bound + 1))  # and no body
            reply = recv_frame(sock)
            assert (reply["type"], reply["code"]) == ("error", "frame_too_large")
            assert recv_frame(sock) is None

    def test_query_of_every_atom_once_is_answered(self, running_pair, store22):
        combos = tuple(((m, b),) for m in range(store22.K) for b in range(store22.L))
        message = {"type": "query", "session": 7, "combos": combos}
        assert len(encode(message)) == 1 + 4 * (2 + 3 * store22.K * store22.L)
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            send_frame(sock, message)
            reply = recv_frame(sock)
        assert reply == {"type": "answer", "session": 7,
                         "bits": bytes(bit for row in store22.data for bit in row)}

    @pytest.mark.parametrize(
        "body, detail",
        [
            (b"\xff{not json", "unknown frame tag 0xff"),
            (encode({"type": "answer", "session": 1, "bits": b"\x00"}),
             "unexpected answer frame"),
            (json.dumps({"type": "hello"}).encode(), "unknown frame tag 0x7b"),
            (query_frame(1, 1, 1, 0, 0)[:-1], "not whole u32 words"),
            (query_frame(1, 5, 1, 0, 0), "5 combo sizes run past the end"),
            (query_frame(1, 2, 1, 2, 0, 0, 1, 1), "sizes name 3 atoms in 4 words"),
            (b"", "empty frame"),
        ],
        ids=["undecodable frame", "unknown type", "version-1 JSON hello",
             "body not whole words", "combo count past the end",
             "sizes disagree with the atoms", "empty body"],
    )
    def test_malformed_frame_gets_an_error_and_the_connection_ends(
        self, running_pair, body, detail
    ):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = recv_frame(sock)
            assert (reply["type"], reply["code"]) == ("error", "malformed")
            assert detail in reply["detail"]
            assert recv_frame(sock) is None

    def test_out_of_range_keeps_the_connection_open(self, running_pair, store22):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            send_frame(sock, {"type": "query", "session": 1, "combos": (((0, 99),),)})
            reply = recv_frame(sock)
            assert (reply["type"], reply["code"]) == ("error", "range")
            send_frame(sock, {"type": "query", "session": 2, "combos": (((1, 2),),)})
            reply = recv_frame(sock)
            assert reply == {"type": "answer", "session": 2,
                             "bits": bytes([store22.data[1][2]])}

    def test_atom_that_no_word_holds_is_refused_before_sending(
        self, running_pair, store22
    ):
        transport = RemoteTransport(addresses=[running_pair[0].address])
        good = [PirQuery((((1, 2),),))]
        try:
            transport(good)
            with pytest.raises(OutOfRange):
                transport([PirQuery((((-1, 0),),))])
            assert transport._socks == {}  # every connection was dropped
            assert transport(good)[0] == (store22.data[1][2],)
            assert transport.answer_bits == 2
        finally:
            transport.close()

    def test_two_clients_at_once_are_both_answered(self, running_pair, store22):
        address = running_pair[0].address
        with socket.create_connection(address, timeout=5) as first, \
                socket.create_connection(address, timeout=5) as second:
            # the second client is answered while the first one's
            # connection is open and silent
            for sock in (second, first):
                send_frame(sock, {"type": "hello"})
                assert recv_frame(sock)["K"] == store22.K

    def test_a_connection_beyond_the_cap_is_told_busy(self, store22, monkeypatch):
        monkeypatch.setattr(net, "MAX_CONNECTIONS", 2)
        server = serve(store22)
        try:
            with socket.create_connection(server.address, timeout=5) as first, \
                    socket.create_connection(server.address, timeout=5) as second:
                for sock in (first, second):  # both are being served
                    send_frame(sock, {"type": "hello"})
                    assert recv_frame(sock)["K"] == store22.K
                with socket.create_connection(server.address, timeout=5) as third:
                    reply = recv_frame(third)
                    assert reply["type"] == "error" and reply["code"] == "busy"
                    assert recv_frame(third) is None  # and closed
                assert len(other_threads()) == 3  # the accept loop and two handlers
                send_frame(first, {"type": "hello"})
                assert recv_frame(first)["K"] == store22.K
        finally:
            server.close()

    def test_client_over_the_cap_raises_and_is_served_later(self, store22, monkeypatch):
        monkeypatch.setattr(net, "MAX_CONNECTIONS", 2)
        server = serve(store22)
        transport = RemoteTransport(addresses=[server.address])
        query = [PirQuery((((0, 0),),))]
        try:
            with socket.create_connection(server.address, timeout=5) as first, \
                    socket.create_connection(server.address, timeout=5) as second:
                for sock in (first, second):
                    send_frame(sock, {"type": "hello"})
                    recv_frame(sock)
                with pytest.raises(ProtocolError, match="busy"):
                    transport(query)
            # the two connections closed; their handlers leave on EOF
            deadline = time.monotonic() + 5
            while len(other_threads()) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert transport(query)[0] == pir_answer(query[0], store22)
        finally:
            transport.close()
            server.close()

    def test_close_is_idempotent_and_ends_wait(self, store22):
        server = serve(store22)
        waiter = threading.Thread(target=server.wait)
        waiter.start()
        server.close()
        waiter.join(5)
        assert not waiter.is_alive()
        server.close()
        server.wait()

    def test_close_ends_a_live_connection_at_once(self, store22):
        server = serve(store22)
        transport = RemoteTransport(addresses=[server.address])
        try:
            transport([PirQuery((((0, 0),),))])
            assert len(other_threads()) == 2  # the accept loop and one handler
            start = time.perf_counter()
            server.close()
            assert time.perf_counter() - start < 0.1
            assert other_threads() == []
        finally:
            transport.close()
            server.close()

    def test_persistent_accept_error_backs_off(self, store22, monkeypatch, caplog):
        # a listener out of file descriptors fails every accept at once
        calls = []

        def accept(sock):
            calls.append(sock)
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(socket.socket, "accept", accept)
        with caplog.at_level(logging.WARNING, logger="ipir.net"):
            server = serve(store22)
            time.sleep(0.3)
            start = time.perf_counter()
            server.close()
            assert time.perf_counter() - start < 0.1
        # one retry per ACCEPT_BACKOFF (0.05 s) in 0.3 s, not a spin
        assert 2 <= len(calls) <= 12
        warnings = [r for r in caplog.records if r.name == "ipir.net"]
        assert len(warnings) == 1 and "Too many open files" in warnings[0].getMessage()

    def test_accept_recovers_after_an_error(self, store22, monkeypatch):
        real_accept = socket.socket.accept
        failures = []

        def accept(sock):
            if not failures:
                failures.append(sock)
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept)
        server = serve(store22)
        try:
            with socket.create_connection(server.address, timeout=5) as client:
                send_frame(client, {"type": "hello"})
                assert recv_frame(client)["K"] == store22.K
            assert len(failures) == 1
        finally:
            server.close()

    def test_close_gives_up_on_a_stuck_connection(self, store22, monkeypatch):
        # a handler that ignores the shutdown holds close() for at most
        # CLOSE_TIMEOUT; it is released afterwards, so no thread outlives
        # the test
        started, release = threading.Event(), threading.Event()

        def stuck(store, sock):
            started.set()
            release.wait(10)

        monkeypatch.setattr(net, "_serve", stuck)
        monkeypatch.setattr(net, "CLOSE_TIMEOUT", 0.2)
        server = serve(store22)
        try:
            with socket.create_connection(server.address, timeout=5):
                assert started.wait(5)
                start = time.perf_counter()
                server.close()
                assert 0.15 < time.perf_counter() - start < 1.0
        finally:
            release.set()
            server.close()


class TestTransportTransparency:
    def test_networked_two_request_matches_in_process(
        self, pair_joint, pair_cond, config22, store22, running_pair
    ):
        policy = greedy_policy(pair_cond)
        transport = RemoteTransport(addresses=[s.address for s in running_pair])
        try:
            networked = run_two_request(
                pair_joint, policy, config22, store22, trials=150,
                transport=transport, keep_transcripts=True,
            )
        finally:
            transport.close()
        local = run_two_request(
            pair_joint, policy, config22, store22, trials=150, keep_transcripts=True
        )
        assert networked.cost_x_empirical == local.cost_x_empirical
        assert networked.samples == local.samples
        for tn, tl in zip(networked.transcripts, local.transcripts):
            assert tn.private.queries == tl.private.queries
            assert tn.private.answers == tl.private.answers
            assert tn.nonprivate.queries == tl.nonprivate.queries
            assert tn.nonprivate.answers == tl.nonprivate.answers

    def test_wire_bit_accounting_matches_library_lengths(
        self, pair_joint, pair_cond, config22, store22, running_pair
    ):
        policy = greedy_policy(pair_cond)
        transport = RemoteTransport(addresses=[s.address for s in running_pair])
        try:
            report = run_two_request(
                pair_joint, policy, config22, store22, trials=80,
                transport=transport, keep_transcripts=True,
            )
        finally:
            transport.close()
        expected_bits = sum(
            sum(len(q.combos) for q in t.private.queries)
            + sum(len(q.combos) for q in t.nonprivate.queries)
            for t in report.transcripts
        )
        assert transport.answer_bits == expected_bits
        assert transport.frame_bytes > 0

    def test_frame_bytes_are_the_bytes_on_the_wire(self, running_pair, store22):
        queries = textbook_queries()
        transport = RemoteTransport(addresses=[s.address for s in running_pair])
        try:
            transport(queries)
        finally:
            transport.close()
        expected = 0
        for query in queries:
            combos = len(query.combos)
            atoms = sum(map(len, query.combos))
            # prefix, tag, then session, count, sizes and atom words
            expected += 4 + 1 + 4 * (2 + combos + 2 * atoms)
            # prefix, tag, session, then one byte per combo
            expected += 4 + 1 + 4 + combos
        assert transport.answer_bits == 6
        assert transport.frame_bytes == expected == 138


class FakeReplica:
    """A one-thread replica on 127.0.0.1:0 that misbehaves once.

    ``fault(conn, message)`` handles the first query it reads and the
    connection is then dropped; every later query gets the honest answer.
    ``accepted`` counts the connections it took.
    """

    def __init__(self, store, fault):
        self.store = store
        self.fault = fault
        self.accepted = 0
        self.sessions = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._accept, name="fake-replica")
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                conn.settimeout(5)
                try:
                    self._serve(conn)
                except OSError:
                    pass

    def _serve(self, conn):
        while (message := recv_frame(conn)) is not None:
            self.sessions.append(message["session"])
            if self.fault is not None:
                fault, self.fault = self.fault, None
                fault(conn, message)
                return
            query = PirQuery(message["combos"])
            bits = pir_answer(query, self.store)
            send_frame(conn, {"type": "answer", "session": message["session"], "bits": bits})

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(5)
        assert not self.thread.is_alive()


@pytest.fixture
def fake_replica(store22):
    """Starts ``FakeReplica(store22, fault)``; every replica started is
    closed in teardown, so a test that fails anywhere leaves no accept
    thread behind."""
    fakes = []

    def start(fault):
        fakes.append(FakeReplica(store22, fault))
        return fakes[-1]

    yield start
    for fake in fakes:
        fake.close()


def reply_with(**fields):
    """A fault that sends one answer frame, changed by ``fields``."""

    def fault(conn, message):
        reply = {"type": "answer", "session": message["session"],
                 "bits": bytes(len(message["combos"]))}
        send_frame(conn, {**reply, **fields})

    return fault


def bit_outside_01(conn, message):
    bits = bytearray(len(message["combos"]))
    bits[-1] = 2
    send_frame(conn, {"type": "answer", "session": message["session"], "bits": bits})


def hello_for_answer(conn, message):
    send_frame(conn, {"type": "hello", "proto_version": net.PROTO_VERSION, "K": 2, "L": 4})


def sends(body):
    """A fault that sends one frame of ``body`` in place of the answer."""

    def fault(conn, message):
        conn.sendall(struct.pack("!I", len(body)) + body)

    return fault


def echoes_the_query(conn, message):
    send_frame(conn, message)


def truncated_frame(conn, message):
    conn.sendall(struct.pack("!I", 100) + b"\x03\x00\x00")


def dies_mid_exchange(conn, message):
    pass  # the connection closes with no reply


def stalls(conn, message):
    conn.recv(1)  # no reply; returns once the client gives up and hangs up


def trickles_its_answer(conn, message):
    # one byte every 0.2 s, each inside the client's 0.5 s timeout, until
    # the client hangs up: the whole frame would take over 2 s
    body = encode({"type": "answer", "session": message["session"],
                   "bits": bytes(len(message["combos"]))})
    conn.settimeout(0.2)
    for byte in struct.pack("!I", len(body)) + body:
        conn.sendall(bytes((byte,)))
        try:
            if not conn.recv(1):
                return
        except TimeoutError:
            pass


def announces_a_longer_answer(conn, message):
    # a header one byte past what the client reads, and no body: a client
    # that read on would wait out its timeout
    conn.sendall(struct.pack("!I", max(5 + len(message["combos"]), net.ERROR_CAP) + 1))
    conn.recv(1)


# name: (fault, the error it must raise, the client's timeout)
FAULTS = {
    "truncated frame": (truncated_frame, FetchTimeout, 5.0),
    "wrong session id": (reply_with(session=0xDEADBEEF), ProtocolError, 5.0),
    "peer dies mid-exchange": (dies_mid_exchange, FetchTimeout, 5.0),
    "stalled peer": (stalls, FetchTimeout, 0.5),
    "trickled answer": (trickles_its_answer, FetchTimeout, 0.5),
    "wrong-length answer": (reply_with(bits=b"\x00"), LengthMismatch, 5.0),
    "answer outside 01": (bit_outside_01, LengthMismatch, 5.0),
    "a hello frame in place of the answer": (hello_for_answer, ProtocolError, 5.0),
    "a malformed error frame in place of the answer": (sends(b"\x04\x09busy"), FetchTimeout, 5.0),
    "a query frame in place of the answer": (echoes_the_query, ProtocolError, 5.0),
    "an answer shorter than its session id": (sends(b"\x03\x00\x00"), FetchTimeout, 5.0),
    "an answer announced longer than its query allows": (
        announces_a_longer_answer, ProtocolError, 5.0
    ),
}


class TestFaults:
    """The faulty replica is server 0, so server 1's reply is still unread
    when the exchange fails; the next exchange must not read it."""

    @pytest.mark.parametrize("name", FAULTS)
    def test_fault_raises_its_type_and_the_next_exchange_succeeds(
        self, name, store22, running_pair, fake_replica
    ):
        fault, expected, timeout = FAULTS[name]
        fake = fake_replica(fault)
        queries = textbook_queries()
        honest = [pir_answer(q, store22) for q in queries]
        transport = RemoteTransport(
            addresses=[fake.address, running_pair[1].address], timeout=timeout
        )
        try:
            with pytest.raises(ProtocolError) as err:
                transport(queries)
            assert type(err.value) is expected
            if name == "truncated frame":
                assert isinstance(err.value.__cause__, MalformedFrame)
            if name in ("stalled peer", "trickled answer"):
                assert isinstance(err.value.__cause__, TimeoutError)
            if name == "an answer announced longer than its query allows":
                assert isinstance(err.value.__cause__, MalformedFrame)
                assert "exceeds the limit of 256" in str(err.value)
            assert (transport.answer_bits, transport.frame_bytes) == (0, 0)
            assert transport(queries) == honest
            assert transport.answer_bits == 6
        finally:
            transport.close()
        assert fake.accepted == 2

    def test_one_connection_per_replica_across_exchanges(self, store22, fake_replica):
        fake = fake_replica(None)
        transport = RemoteTransport(addresses=[fake.address])
        try:
            for combo in range(5):
                query = PirQuery((((0, combo % 4),),))
                assert transport([query])[0] == (store22.data[0][combo % 4],)
        finally:
            transport.close()
        assert fake.accepted == 1

    def test_session_ids_wrap_modulo_2_to_the_32(self, store22, fake_replica):
        fake = fake_replica(None)
        transport = RemoteTransport(addresses=[fake.address])
        transport._serial = 2**32 - 1
        query = PirQuery((((1, 2),),))
        try:
            for _ in range(2):
                assert transport([query])[0] == (store22.data[1][2],)
        finally:
            transport.close()
        assert fake.sessions == [0, 1]

    def test_connection_closed_for_idleness_is_replaced(
        self, store22, monkeypatch
    ):
        monkeypatch.setattr(net, "IDLE_TIMEOUT", 0.05)
        server = serve(store22)
        transport = RemoteTransport(addresses=[server.address])
        query = PirQuery((((1, 2),),))
        try:
            transport([query])
            deadline = time.monotonic() + 2.0
            while len(other_threads()) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(other_threads()) == 1  # the handler left on its timeout
            assert transport([query])[0] == (store22.data[1][2],)
        finally:
            transport.close()
            server.close()


class TestStoreFile:
    def test_round_trip(self):
        store = MessageStore.random(3, 16, fork_rng(1, "s"))
        assert store_from_bytes(store_to_bytes(store)) == store

    def test_header_layout(self):
        store = MessageStore.random(2, 8, fork_rng(2, "s"))
        blob = store_to_bytes(store)
        K, L = struct.unpack("!II", blob[:8])
        assert (K, L) == (2, 8)
        assert len(blob) == 8 + 2 * 8 // 8

    @pytest.mark.parametrize(
        "data, blob",
        [
            (((1, 0, 0, 0, 0, 0, 0, 1),), b"\x00\x00\x00\x01\x00\x00\x00\x08\x81"),
            # not a palindrome, so a reversed bit or message order shows
            (
                ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
                 (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
                b"\x00\x00\x00\x02\x00\x00\x00\x10\xc0\x01\x02\x80",
            ),
        ],
    )
    def test_payload_layout(self, data, blob):
        # messages in order, each filling its bytes most significant bit first
        store = MessageStore(K=len(data), L=len(data[0]), data=data)
        assert store_to_bytes(store) == blob
        assert store_from_bytes(blob) == store
        bools = MessageStore(K=store.K, L=store.L, data=tuple(tuple(map(bool, m)) for m in data))
        assert store_to_bytes(bools) == blob

    def test_length_must_be_byte_aligned(self):
        store = MessageStore.random(2, 4, fork_rng(3, "s"))
        with pytest.raises(InvalidParams):
            store_to_bytes(store)

    def test_truncated_file_rejected(self):
        store = MessageStore.random(2, 8, fork_rng(4, "s"))
        with pytest.raises(MalformedFrame):
            store_from_bytes(store_to_bytes(store)[:-1])

    @pytest.mark.parametrize("K, L", [(0, 8), (2, 0), (0, 0)])
    def test_empty_store_rejected(self, K, L):
        # with K * L == 0 the header alone is a file of the right length
        with pytest.raises(InvalidParams):
            store_from_bytes(struct.pack("!II", K, L))
