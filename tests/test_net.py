import json
import socket
import struct

import pytest

from ipir.core import MessageStore, fork_rng
from ipir.errors import FetchTimeout, ProtocolError
from ipir.intermittent import run_two_request
from ipir.net import (
    MAX_FRAME,
    RemoteTransport,
    fetch,
    hello,
    recv_frame,
    send_frame,
    serve,
    store_from_bytes,
    store_to_bytes,
)
from ipir.obfuscation import greedy_policy
from ipir.pir import PirQuery, PirKey, PirSession, pir_setup


@pytest.fixture
def running_pair(store22):
    servers = [serve(store22) for _ in range(2)]
    yield servers
    for s in servers:
        s.close()


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
        answers = fetch([running_pair[0].address], [query])
        assert answers[0].bits == (store22.data[0][0],)

    def test_out_of_range_is_reported(self, running_pair):
        query = PirQuery(server=0, combos=(((0, 99),),))
        with pytest.raises(ProtocolError) as err:
            fetch([running_pair[0].address], [query])
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
        with pytest.raises(FetchTimeout) as err:
            fetch([address], [query], timeout=0.5)
        assert str(address[1]) in str(err.value)

    def test_textbook_query_pair_downloads_six_bits(self, running_pair, store22):
        params = pir_setup(2, (0, 1), 4)
        identity = PirKey(perms=(((0, 1, 2, 3),), ((0, 1, 2, 3),)))
        queries = PirSession.from_key(params, 0, identity).queries
        answers = fetch([s.address for s in running_pair], queries)
        assert sum(len(a.bits) for a in answers) == 6


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
