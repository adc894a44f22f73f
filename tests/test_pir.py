import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ipir.core import MessageStore, capacity_cost, fork_rng
from ipir.errors import (
    BlockMismatch,
    DesiredNotInSubset,
    InconsistentAnswers,
    OutOfRange,
)
from ipir.pir import (
    PirAnswer,
    PirKey,
    PirQuery,
    PirSession,
    answer_length,
    enumerate_keys,
    key_count,
    open_session,
    pir_answer,
    pir_setup,
)

from oracles import block_plan, session_plan, shuffle_key, sorted_queries


class TestSetup:
    def test_pair_over_four_bits(self):
        p = pir_setup(2, (0, 1), 4)
        assert p.k == 2 and p.block == 4 and p.blocks == 1

    def test_single_message_two_blocks(self):
        p = pir_setup(2, (0,), 4)
        assert p.k == 1 and p.block == 2 and p.blocks == 2
        session = open_session(p, 0, random.Random(0))
        assert [len(q.combos) for q in session.queries] == [2, 2]

    def test_three_servers_pair(self):
        p = pir_setup(3, (1, 4), 9)
        assert p.k == 2 and p.block == 9 and p.blocks == 1

    def test_block_mismatch(self):
        with pytest.raises(BlockMismatch):
            pir_setup(2, (0, 1), 6)


class TestQueryStructure:
    def test_identity_key_reproduces_the_textbook_pair(self):
        params = pir_setup(2, (0, 1), 4)
        identity = PirKey(perms=(((0, 1, 2, 3),), ((0, 1, 2, 3),)))
        queries = PirSession.from_key(params, 0, identity).queries
        assert set(queries[0].combos) == {
            ((0, 0),),
            ((1, 0),),
            ((0, 2), (1, 1)),
        }
        assert set(queries[1].combos) == {
            ((0, 1),),
            ((1, 1),),
            ((0, 3), (1, 0)),
        }

    def test_single_message_is_plain_download(self):
        params = pir_setup(2, (0,), 4)
        queries = open_session(params, 0, fork_rng(0, "k")).queries
        positions = set()
        for q in queries:
            assert len(q.combos) == 2
            for combo in q.combos:
                assert len(combo) == 1 and combo[0][0] == 0
                positions.add(combo[0][1])
        assert positions == {0, 1, 2, 3}

    def test_combos_sorted_canonically(self):
        params = pir_setup(3, (0, 1, 2), 27)
        queries = open_session(params, 1, fork_rng(1, "k")).queries
        for q in queries:
            assert list(q.combos) == sorted(q.combos)
            for combo in q.combos:
                assert list(combo) == sorted(combo)

    def test_desired_must_be_in_subset(self):
        params = pir_setup(2, (0, 2), 4)
        with pytest.raises(DesiredNotInSubset):
            open_session(params, 1, fork_rng(0))
        with pytest.raises(DesiredNotInSubset):
            PirSession.from_key(params, 1, PirKey.random(params, fork_rng(0)))

    def test_total_download_matches_capacity(self):
        for n in (2, 3, 4):
            for k in (1, 2, 3, 4):
                L = n**k
                params = pir_setup(n, range(k), L)
                queries = open_session(params, 0, fork_rng(n, k)).queries
                total = sum(answer_length(q) for q in queries)
                assert total == L * capacity_cost(n, k)

    def test_eight_bit_three_message_download(self):
        params = pir_setup(2, (0, 1, 2), 8)
        queries = open_session(params, 2, fork_rng(5, "k")).queries
        assert sum(answer_length(q) for q in queries) == 14
        assert all(answer_length(q) == 7 for q in queries)


class TestAnswers:
    def test_single_bit_lookup(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 0), (0, 1, 1, 0)))
        q = PirQuery(server=0, combos=(((0, 0),),))
        assert pir_answer(q, store).bits == (1,)

    def test_xor_combo(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 0), (0, 1, 1, 0)))
        q = PirQuery(server=0, combos=(((0, 2), (1, 1)),))
        assert pir_answer(q, store).bits == (1 ^ 1,)

    def test_empty_query(self):
        store = MessageStore(K=1, L=4, data=((1, 0, 1, 0),))
        assert pir_answer(PirQuery(server=0, combos=()), store).bits == ()

    def test_out_of_range(self):
        store = MessageStore(K=1, L=4, data=((1, 0, 1, 0),))
        with pytest.raises(OutOfRange):
            pir_answer(PirQuery(server=0, combos=(((0, 9),),)), store)


class TestDecode:
    def test_textbook_side_information_cancels(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 1), (0, 1, 1, 0)))
        params = pir_setup(2, (0, 1), 4)
        identity = PirKey(perms=(((0, 1, 2, 3),), ((0, 1, 2, 3),)))
        session = PirSession.from_key(params, 0, identity)
        answers = [pir_answer(q, store) for q in session.queries]
        assert session.decode(answers) == (1, 0, 1, 1)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_randomized_round_trips(self, n, k):
        K = 3
        L = n**K
        subset = tuple(sorted(random.Random(n * 10 + k).sample(range(K), k)))
        params = pir_setup(n, subset, L)
        for trial in range(120):
            rng = fork_rng(77, n, k, trial)
            store = MessageStore.random(K, L, rng)
            for desired in subset:
                session = open_session(params, desired, rng)
                answers = [pir_answer(q, store) for q in session.queries]
                assert session.decode(answers) == store.data[desired]

    def test_corrupted_answer_breaks_decode(self):
        params = pir_setup(2, (0, 1), 4)
        rng = fork_rng(13, "c")
        store = MessageStore.random(2, 4, rng)
        session = open_session(params, 0, rng)
        answers = [pir_answer(q, store) for q in session.queries]
        bits = list(answers[0].bits)
        bits[0] ^= 1
        answers[0] = PirAnswer(server=0, bits=tuple(bits))
        assert session.decode(answers) != store.data[0]

    def test_length_mismatch_detected(self):
        params = pir_setup(2, (0, 1), 4)
        rng = fork_rng(14, "m")
        store = MessageStore.random(2, 4, rng)
        session = open_session(params, 0, rng)
        answers = [pir_answer(q, store) for q in session.queries]
        answers[1] = PirAnswer(server=1, bits=answers[1].bits[:-1])
        with pytest.raises(InconsistentAnswers):
            session.decode(answers)

    def test_missing_answer_detected(self):
        params = pir_setup(2, (0, 1), 4)
        store = MessageStore.random(2, 4, fork_rng(14, "s"))
        session = open_session(params, 0, fork_rng(14, "k"))
        answers = [pir_answer(q, store) for q in session.queries]
        with pytest.raises(InconsistentAnswers):
            session.decode(answers[:1])

    def test_session_matches_two_step_api(self):
        # open_session is exactly "draw a key, then build from it"
        params = pir_setup(2, (0, 1, 2), 8)
        store = MessageStore.random(3, 8, fork_rng(15, "s"))
        for desired in params.subset:
            session = open_session(params, desired, fork_rng(15, "k", desired))
            assert session.key == PirKey.random(params, fork_rng(15, "k", desired))
            rebuilt = PirSession.from_key(params, desired, session.key)
            assert rebuilt.queries == session.queries
            answers = [pir_answer(q, store) for q in session.queries]
            assert rebuilt.decode(answers) == session.decode(answers) == store.data[desired]


class TestKeyDraw:
    # every block size N^k up to 81, each with its number of members k
    SHAPES = [(n, k) for n in range(2, 82) for k in range(1, 7) if n**k <= 81]

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_matches_shuffle_oracle(self, blocks):
        # the inlined Fisher-Yates draws what rng.shuffle draws and leaves
        # the stream at the same place
        for n, k in self.SHAPES:
            params = pir_setup(n, range(k), blocks * n**k)
            for seed in range(200):
                rng, ref = random.Random(seed), random.Random(seed)
                assert PirKey.random(params, rng) == shuffle_key(params, ref)
                assert rng.getrandbits(64) == ref.getrandbits(64)


class TestTemplatePlan:
    @pytest.mark.parametrize(
        "n,subset,L",
        [
            (2, (0,), 2),
            (2, (0,), 8),
            (2, (0, 1), 4),
            (2, (0, 1), 12),
            (2, (1, 3, 4), 16),
            (2, (0, 1, 2, 3), 32),
            (3, (0, 2), 18),
            (3, (0, 1, 2), 27),
            (4, (2, 5), 16),
        ],
    )
    def test_from_key_matches_direct_construction(self, n, subset, L):
        # the cached key-free template and the combo-by-combo construction
        # give identical queries and decode plans for every desired index;
        # a session keys each decode entry by its combos' first atoms, which
        # are distinct per server (test_first_atoms_distinct_per_server)
        params = pir_setup(n, subset, L)
        rng = fork_rng(21, "template", n, subset, L)
        for desired in params.subset:
            for _ in range(5):
                key = PirKey.random(params, rng)
                session = PirSession.from_key(params, desired, key)
                queries, decode = session_plan(params, desired, key)
                assert session.queries == queries == sorted_queries(params, desired, key)
                assert session._decode == [
                    (pos, server, combo[0], side_server, None if side is None else side[0])
                    for pos, server, combo, side_server, side in decode
                ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 4).flatmap(
            lambda k: st.sets(st.integers(0, 7), min_size=k, max_size=k)
        ),
        st.integers(1, 4),
        st.data(),
    )
    def test_placement_matches_sorted_oracle(self, n, subset, blocks, data):
        # placing combos by first atom gives the lexicographic sort
        params = pir_setup(n, subset, blocks * n ** len(subset))
        desired = data.draw(st.sampled_from(params.subset))
        key = PirKey.random(params, fork_rng(data.draw(st.integers(0, 2**32))))
        assert PirSession.from_key(params, desired, key).queries == sorted_queries(
            params, desired, key
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_atoms_distinct_per_server(self, n, k):
        # canonical placement and decode lookups both key a combo by its
        # first atom, so no server's query may repeat one
        params = pir_setup(n, range(k), n**k)
        identity = PirKey(perms=((tuple(range(params.block)),),) * k)
        for desired_pos in range(k):
            per_server, _ = block_plan(params, desired_pos, identity, 0)
            for combos in per_server:
                firsts = [combo[0] for combo in combos]
                assert len(set(firsts)) == len(firsts)
            for query in PirSession.from_key(params, desired_pos, identity).queries:
                assert len({combo[0] for combo in query.combos}) == len(query.combos)

    def test_sessions_share_singleton_combos(self):
        # a kept query holds no per-session copy of its one-atom combos
        params = pir_setup(2, (0, 1, 2), 8)
        rng = fork_rng(22, "shared")
        first, second = (open_session(params, 1, rng) for _ in range(2))
        ones = {c: c for q in first.queries for c in q.combos if len(c) == 1}
        shared = [c for q in second.queries for c in q.combos if c in ones]
        assert shared and all(ones[c] is c for c in shared)


class TestQueryPrivacy:
    def test_exact_distribution_equality_by_key_enumeration(self):
        # the full key space is tractable for a 4-bit block over 2 messages
        params = pir_setup(2, (0, 1), 4)
        assert key_count(params) == 576
        for server in range(2):
            counts = {}
            for desired in (0, 1):
                c = Counter()
                for key in enumerate_keys(params):
                    c[PirSession.from_key(params, desired, key).queries[server].combos] += 1
                counts[desired] = c
            assert counts[0] == counts[1]

    def test_exact_equality_single_message_blocks(self):
        params = pir_setup(3, (2,), 3)
        assert key_count(params) == 6
        c = Counter()
        for key in enumerate_keys(params):
            for q in PirSession.from_key(params, 2, key).queries:
                c[(q.server, q.combos)] += 1
        # every position must appear exactly twice per server over 6 keys
        for (server, combos), n in c.items():
            assert n == 2

    @pytest.mark.parametrize("n,k,L", [(2, 3, 8), (3, 2, 9)])
    def test_empirical_pattern_closeness(self, n, k, L):
        from ipir.audit import total_variation
        from ipir.pir import query_pattern

        params = pir_setup(n, range(k), L)
        trials = 20_000
        for server in range(min(n, 2)):
            counters = []
            for desired in range(k):
                rng = fork_rng(31, n, k, desired)
                c = Counter()
                for _ in range(trials):
                    key = PirKey.random(params, rng)
                    query = PirSession.from_key(params, desired, key).queries[server]
                    c[query_pattern(params, query)] += 1
                counters.append(c)
            for i in range(1, len(counters)):
                support = len(set(counters[0]) | set(counters[i]))
                noise = (support / 3.1416 / trials) ** 0.5
                assert total_variation(counters[0], counters[i]) < 4 * noise

    def test_pattern_is_exact_on_the_enumerable_instance(self):
        # sanity for the quotient: pattern distributions also match exactly
        # where the raw-query enumeration already matches
        from ipir.pir import query_pattern

        params = pir_setup(2, (0, 1), 4)
        per_desired = []
        for desired in (0, 1):
            c = Counter()
            for key in enumerate_keys(params):
                q = PirSession.from_key(params, desired, key).queries[0]
                c[query_pattern(params, q)] += 1
            per_desired.append(c)
        assert per_desired[0] == per_desired[1]
