import errno
import json
import logging
import socket
import struct
import threading
import time

import pytest

from ipir import net
from ipir.core import MessageStore, fork_rng
from ipir.errors import (
    FetchTimeout,
    InvalidParams,
    LengthMismatch,
    MalformedFrame,
    ProtocolError,
)
from ipir.intermittent import run_two_request
from ipir.net import (
    MAX_FRAME,
    RemoteTransport,
    hello,
    recv_frame,
    send_frame,
    serve,
    store_from_bytes,
    store_to_bytes,
)
from ipir.obfuscation import greedy_policy
from ipir.pir import PirQuery, PirSession, pir_answer, pir_setup

from oracles import key_from_perms


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


def textbook_queries():
    params = pir_setup(2, (0, 1), 4)
    identity = key_from_perms((((0, 1, 2, 3),), ((0, 1, 2, 3),)))
    return PirSession.from_key(params, 0, identity).queries


def compact(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "extra": [1, 2]})
            assert recv_frame(b) == {"type": "hello", "extra": [1, 2]}
        finally:
            a.close()
            b.close()

    def test_length_prefix_is_big_endian(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"k": 1})
            header = b.recv(4)
            (length,) = struct.unpack("!I", header)
            body = b.recv(length)
            assert json.loads(body) == {"k": 1}
        finally:
            a.close()
            b.close()


class TestServer:
    def test_hello_reports_parameters(self, running_pair, store22):
        reply = hello(running_pair[0].address)
        assert reply["K"] == store22.K
        assert reply["L"] == store22.L
        assert reply["proto_version"] == 1

    def test_single_lookup(self, running_pair, store22):
        query = PirQuery(server=0, combos=(((0, 0),),))
        transport = RemoteTransport(addresses=[running_pair[0].address])
        try:
            answers = transport([query])
        finally:
            transport.close()
        assert answers[0].bits == (store22.data[0][0],)

    def test_out_of_range_is_reported(self, running_pair):
        query = PirQuery(server=0, combos=(((0, 99),),))
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

    def test_down_server_times_out_with_endpoint(self, store22):
        server = serve(store22)
        address = server.address
        server.close()
        query = PirQuery(server=0, combos=(((0, 0),),))
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
        assert sum(len(a.bits) for a in answers) == 6

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff{not json",
            compact({"type": "bogus"}),
            compact({"type": "query", "session": "s", "combos": [[["a", 0]]]}),
            compact({"type": "query", "session": "s", "combos": [[[0, 1.7]]]}),
            compact({"type": "query", "session": "s", "combos": [[["1", "2"]]]}),
            compact({"type": "query", "session": "s", "combos": [[[True, 3]]]}),
        ],
        ids=["undecodable frame", "unknown type", "non-integer combo",
             "fractional position", "numeric strings", "boolean message"],
    )
    def test_malformed_frame_gets_an_error_and_the_connection_ends(
        self, running_pair, body
    ):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = recv_frame(sock)
            assert (reply["type"], reply["code"]) == ("error", "malformed")
            assert recv_frame(sock) is None

    def test_out_of_range_keeps_the_connection_open(self, running_pair, store22):
        with socket.create_connection(running_pair[0].address, timeout=5) as sock:
            send_frame(sock, {"type": "query", "session": "a", "combos": [[[0, 99]]]})
            reply = recv_frame(sock)
            assert (reply["type"], reply["code"]) == ("error", "range")
            send_frame(sock, {"type": "query", "session": "b", "combos": [[[1, 2]]]})
            reply = recv_frame(sock)
            assert reply == {"type": "answer", "session": "b",
                             "bits": str(store22.data[1][2])}

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
        query = [PirQuery(server=0, combos=(((0, 0),),))]
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
            assert transport(query)[0].bits == pir_answer(query[0], store22).bits
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
            transport([PirQuery(server=0, combos=(((0, 0),),))])
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
            combos = [[list(pair) for pair in combo] for combo in query.combos]
            bits = "".join(map(str, pir_answer(query, store22).bits))
            expected += 4 + len(compact({"type": "query", "session": "00000001", "combos": combos}))
            expected += 4 + len(compact({"type": "answer", "session": "00000001", "bits": bits}))
        assert transport.answer_bits == 6
        assert transport.frame_bytes == expected == 274


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
            if self.fault is not None:
                fault, self.fault = self.fault, None
                fault(conn, message)
                return
            query = PirQuery(server=0, combos=tuple(
                tuple((m, b) for m, b in combo) for combo in message["combos"]
            ))
            bits = "".join(map(str, pir_answer(query, self.store).bits))
            send_frame(conn, {"type": "answer", "session": message["session"], "bits": bits})

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(5)
        assert not self.thread.is_alive()


def reply_with(**fields):
    """A fault that sends one answer frame, changed by ``fields``."""

    def fault(conn, message):
        reply = {"type": "answer", "session": message["session"],
                 "bits": "0" * len(message["combos"])}
        send_frame(conn, {**reply, **fields})

    return fault


def truncated_frame(conn, message):
    conn.sendall(struct.pack("!I", 100) + b'{"type":')


def dies_mid_exchange(conn, message):
    pass  # the connection closes with no reply


def stalls(conn, message):
    conn.recv(1)  # no reply; returns once the client gives up and hangs up


# name: (fault, the error it must raise, the client's timeout)
FAULTS = {
    "truncated frame": (truncated_frame, FetchTimeout, 5.0),
    "wrong session id": (reply_with(session="deadbeef"), ProtocolError, 5.0),
    "peer dies mid-exchange": (dies_mid_exchange, FetchTimeout, 5.0),
    "stalled peer": (stalls, FetchTimeout, 0.5),
    "wrong-length answer": (reply_with(bits="0"), LengthMismatch, 5.0),
    "answer outside 01": (reply_with(bits="02"), LengthMismatch, 5.0),
    "answer that is not a string": (reply_with(bits=[0, 1, 1]), LengthMismatch, 5.0),
}


class TestFaults:
    """The faulty replica is server 0, so server 1's reply is still unread
    when the exchange fails; the next exchange must not read it."""

    @pytest.mark.parametrize("name", FAULTS)
    def test_fault_raises_its_type_and_the_next_exchange_succeeds(
        self, name, store22, running_pair
    ):
        fault, expected, timeout = FAULTS[name]
        fake = FakeReplica(store22, fault)
        queries = textbook_queries()
        honest = [pir_answer(q, store22).bits for q in queries]
        transport = RemoteTransport(
            addresses=[fake.address, running_pair[1].address], timeout=timeout
        )
        try:
            with pytest.raises(ProtocolError) as err:
                transport(queries)
            assert type(err.value) is expected
            if name == "truncated frame":
                assert isinstance(err.value.__cause__, MalformedFrame)
            if name == "stalled peer":
                assert isinstance(err.value.__cause__, TimeoutError)
            assert (transport.answer_bits, transport.frame_bytes) == (0, 0)
            assert [a.bits for a in transport(queries)] == honest
            assert transport.answer_bits == 6
        finally:
            transport.close()
            fake.close()
        assert fake.accepted == 2

    def test_one_connection_per_replica_across_exchanges(self, store22):
        fake = FakeReplica(store22, None)
        transport = RemoteTransport(addresses=[fake.address])
        try:
            for combo in range(5):
                query = PirQuery(server=0, combos=(((0, combo % 4),),))
                assert transport([query])[0].bits == (store22.data[0][combo % 4],)
        finally:
            transport.close()
            fake.close()
        assert fake.accepted == 1

    def test_connection_closed_for_idleness_is_replaced(
        self, store22, monkeypatch
    ):
        monkeypatch.setattr(net, "IDLE_TIMEOUT", 0.05)
        server = serve(store22)
        transport = RemoteTransport(addresses=[server.address])
        query = PirQuery(server=0, combos=(((1, 2),),))
        try:
            transport([query])
            deadline = time.monotonic() + 2.0
            while len(other_threads()) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(other_threads()) == 1  # the handler left on its timeout
            assert transport([query])[0].bits == (store22.data[1][2],)
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

    def test_length_must_be_byte_aligned(self):
        store = MessageStore.random(2, 4, fork_rng(3, "s"))
        with pytest.raises(Exception):
            store_to_bytes(store)

    def test_truncated_file_rejected(self):
        store = MessageStore.random(2, 8, fork_rng(4, "s"))
        with pytest.raises(Exception):
            store_from_bytes(store_to_bytes(store)[:-1])

    @pytest.mark.parametrize("K, L", [(0, 8), (2, 0), (0, 0)])
    def test_empty_store_rejected(self, K, L):
        # with K * L == 0 the header alone is a file of the right length
        with pytest.raises(InvalidParams):
            store_from_bytes(struct.pack("!II", K, L))
