import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ipir.core import MessageStore, capacity_cost, fork_rng
from ipir.errors import (
    BlockMismatch,
    DesiredNotInSubset,
    InconsistentAnswers,
    InvalidParams,
    OutOfRange,
)
from ipir.pir import (
    PirKey,
    PirQuery,
    PirSession,
    open_session,
    order_pattern,
    pir_answer,
    pir_setup,
    query_pattern,
    sample_order_key,
    slot_orders,
)

from oracles import (
    block_plan,
    checked_answer,
    enumerate_keys,
    key_count,
    key_from_perms,
    key_perms,
    keyed_sample_orders,
    pooled_session,
    sample_orders,
    sample_patterns,
    session_plan,
    shuffle_key,
    sorted_queries,
)


def plan_decode(queries, plan, answers, L):
    """Decode by ``session_plan``'s entries: each desired bit is the answer
    to its combo, XORed with the answer to its side combo, if any."""
    bit = {
        (n, combo): b
        for n, (q, a) in enumerate(zip(queries, answers))
        for combo, b in zip(q.combos, a)
    }
    out = [0] * L
    for pos, server, combo, side_server, side in plan:
        out[pos] = bit[server, combo] ^ (0 if side is None else bit[side_server, side])
    return tuple(out)


def assert_session_matches_oracles(params, desired, key, rng):
    """The session from ``key`` equals the pooled and the direct oracle:
    the same queries, and the same decode of answers from a store and of
    arbitrary answer bits."""
    session = PirSession.from_key(params, desired, key)
    pooled = pooled_session(params, desired, key)
    queries, plan = session_plan(params, desired, key)
    assert session.queries == pooled.queries == queries == sorted_queries(params, desired, key)
    store = MessageStore.random(max(params.subset) + 1, params.L, rng)
    answers = [pir_answer(q, store) for q in session.queries]
    assert session.decode(answers) == pooled.decode(answers) == store.data[desired]
    noise = [tuple(rng.getrandbits(1) for _ in q.combos) for q in session.queries]
    assert (
        session.decode(noise)
        == pooled.decode(noise)
        == plan_decode(queries, plan, noise, params.L)
    )


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
        # a refused setup is refused again, not remembered
        with pytest.raises(BlockMismatch):
            pir_setup(2, (1, 0), 6)

    @pytest.mark.parametrize(
        "n_servers, subset, L",
        [(2.0, (3, 7), 52), (2, (3, 7), 52.0), (2, (3.0, 7), 52), (True, (3, 7), 52),
         (2, (3, True), 52)],
    )
    def test_float_and_bool_arguments_are_refused(self, n_servers, subset, L):
        # 2.0 == 2 and hashes alike, so cached float params would be handed
        # to every later int call with equal arguments
        with pytest.raises(InvalidParams, match="must be ints"):
            pir_setup(n_servers, subset, L)
        params = pir_setup(2, (3, 7), 52)
        assert [type(v) for v in (params.n_servers, params.L, *params.subset)] == [int] * 4
        assert key_count(params) > 0

    def test_equal_arguments_share_one_params(self):
        p = pir_setup(2, (1, 0), 8)
        assert pir_setup(2, [0, 1, 1], 8) is p
        assert pir_setup(2, (0, 1), 16) is not p
        assert p.subset == (0, 1)


class TestQueryStructure:
    def test_identity_key_reproduces_the_textbook_pair(self):
        params = pir_setup(2, (0, 1), 4)
        identity = key_from_perms((((0, 1, 2, 3),), ((0, 1, 2, 3),)))
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

    @pytest.mark.parametrize("desired", [1.0, True])
    def test_desired_must_be_an_int(self, desired):
        # 1.0 == True == 1 is in the subset, and would build a session
        # whose desired is not an int
        with pytest.raises(InvalidParams):
            open_session(pir_setup(2, (0, 1), 4), desired, fork_rng(0))

    def test_total_download_matches_capacity(self):
        for n in (2, 3, 4):
            for k in (1, 2, 3, 4):
                L = n**k
                params = pir_setup(n, range(k), L)
                queries = open_session(params, 0, fork_rng(n, k)).queries
                total = sum(len(q.combos) for q in queries)
                assert total == L * capacity_cost(n, k)

    def test_eight_bit_three_message_download(self):
        params = pir_setup(2, (0, 1, 2), 8)
        queries = open_session(params, 2, fork_rng(5, "k")).queries
        assert sum(len(q.combos) for q in queries) == 14
        assert all(len(q.combos) == 7 for q in queries)


class TestAnswers:
    def test_single_bit_lookup(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 0), (0, 1, 1, 0)))
        q = PirQuery((((0, 0),),))
        assert pir_answer(q, store) == (1,)

    def test_xor_combo(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 0), (0, 1, 1, 0)))
        q = PirQuery((((0, 2), (1, 1)),))
        assert pir_answer(q, store) == (1 ^ 1,)

    def test_empty_query(self):
        store = MessageStore(K=1, L=4, data=((1, 0, 1, 0),))
        assert pir_answer(PirQuery(()), store) == ()

    def test_out_of_range(self):
        store = MessageStore(K=1, L=4, data=((1, 0, 1, 0),))
        with pytest.raises(OutOfRange):
            pir_answer(PirQuery((((0, 9),),)), store)


def outcome(answer, query, store):
    """The bits an answer function gives, or the type and message of what
    it raises."""
    try:
        return answer(query, store)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


class TestAnswerParity:
    # the store's atoms are (msg, pos), msg < 2 and pos < 4
    STORE = MessageStore(K=2, L=4, data=((1, 0, 1, 1), (0, 1, 1, 0)))
    VALID = (((0, 1),), ((0, 2), (1, 3)), ((1, 0),))
    BAD = [(2, 0), (0, 4), (-1, 0), (0, -1), (-1, 9), (7, -2), (10**30, 0)]
    MALFORMED = [
        (True, 1), (0, False), (1.0, 0), (0, 2.0), (-1.0, 0), (9.0, 1), ("0", 1), (0, None)
    ]

    @staticmethod
    def placements(atom):
        # the atom alone, in a combo after a valid atom, and in the last
        # combo after valid ones, as a singleton or in a pair
        valid = TestAnswerParity.VALID
        yield ((atom,),)
        yield (((0, 0), atom),)
        yield valid + ((atom,),)
        yield valid + (((0, 3), atom),)

    def lean_outcomes(self, atom):
        # what pir_answer gives for each placement, checked against the
        # checked loop
        outcomes = []
        for combos in self.placements(atom):
            query = PirQuery(combos)
            lean = outcome(pir_answer, query, self.STORE)
            assert lean == outcome(checked_answer, query, self.STORE), combos
            outcomes.append(lean)
        return outcomes

    def test_valid_queries(self):
        params = pir_setup(2, (0, 1), 4)
        for desired in params.subset:
            for key in enumerate_keys(params):
                for query in PirSession.from_key(params, desired, key).queries:
                    assert pir_answer(query, self.STORE) == checked_answer(query, self.STORE)

    @pytest.mark.parametrize("atom", BAD)
    def test_out_of_range_message(self, atom):
        for lean in self.lean_outcomes(atom):
            assert lean == (OutOfRange, f"combo references {atom}")

    @pytest.mark.parametrize("atom", MALFORMED)
    def test_malformed_atoms_raise_the_same(self, atom):
        # a bool is an int, so it answers as 0 or 1; a float raises
        # TypeError when it indexes the store, or OutOfRange when it is out
        # of range first; a str or None fails the comparison
        for lean in self.lean_outcomes(atom):
            if any(type(v) is bool for v in atom):
                assert type(lean) is tuple and all(b in (0, 1) for b in lean)
            elif any(type(v) is float for v in atom):
                assert lean[0] in (OutOfRange, TypeError)
            else:
                assert lean[0] is TypeError


class TestDecode:
    def test_textbook_side_information_cancels(self):
        store = MessageStore(K=2, L=4, data=((1, 0, 1, 1), (0, 1, 1, 0)))
        params = pir_setup(2, (0, 1), 4)
        identity = key_from_perms((((0, 1, 2, 3),), ((0, 1, 2, 3),)))
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
        bits = list(answers[0])
        bits[0] ^= 1
        answers[0] = tuple(bits)
        assert session.decode(answers) != store.data[0]

    def test_length_mismatch_detected(self):
        params = pir_setup(2, (0, 1), 4)
        rng = fork_rng(14, "m")
        store = MessageStore.random(2, 4, rng)
        session = open_session(params, 0, rng)
        answers = [pir_answer(q, store) for q in session.queries]
        answers[1] = answers[1][:-1]
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

    def test_keys_are_their_slots(self):
        # a key holds only its slots, compares by them, and the oracles'
        # permutation reading of them round-trips
        params = pir_setup(3, (0, 2), 18)
        key = PirKey.random(params, fork_rng(5, "slots"))
        assert PirKey(list(key.slots)) == key
        assert key != PirKey(sorted(key.slots))
        assert key_from_perms(key_perms(params, key)) == key
        with pytest.raises(TypeError):
            hash(key)


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
        # the compiled tables, the pooled block-by-block construction and
        # the combo-by-combo construction give identical queries, and
        # decode every set of answer bits alike, for every desired index
        params = pir_setup(n, subset, L)
        rng = fork_rng(21, "template", n, subset, L)
        for desired in params.subset:
            for _ in range(5):
                assert_session_matches_oracles(params, desired, PirKey.random(params, rng), rng)

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
        rng = fork_rng(data.draw(st.integers(0, 2**32)))
        key = PirKey.random(params, rng)
        assert PirSession.from_key(params, desired, key).queries == sorted_queries(
            params, desired, key
        )
        assert_session_matches_oracles(params, desired, key, rng)

    # N = 2..4 and k = 1..4: block sizes N^k up to 256
    SHAPES = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3, 4)]

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_sessions_match_pooled_oracle(self, blocks):
        # for every desired position, a session drawn on the rng equals the
        # oracles over the key rng.shuffle draws, and leaves the stream
        # where the shuffles leave it
        for n, k in self.SHAPES:
            # odd message indices, so a subset position is not its message
            params = pir_setup(n, range(1, 2 * k, 2), blocks * n**k)
            for desired in params.subset:
                for seed in range(2):
                    rng, ref = (fork_rng(23, n, k, blocks, desired, seed) for _ in range(2))
                    session = open_session(params, desired, rng)
                    key = shuffle_key(params, ref)
                    assert session.key == key
                    assert_session_matches_oracles(params, desired, key, fork_rng(24, seed))
                    assert rng.getrandbits(64) == ref.getrandbits(64)

    @pytest.mark.parametrize(
        "n,subset,L",
        [(2, (0,), 2), (3, (1,), 3), (2, (0,), 4), (2, (1,), 4), (2, (0, 1), 4)],
    )
    def test_every_key_of_small_shapes(self, n, subset, L):
        # a gather of one index must still give a tuple: at N=2, k=1, L=2
        # and N=3, k=1, L=3 each server asks for one combo; N=2, K=2, L=4
        # holds every shape of the two-request reproduction's sessions
        params = pir_setup(n, subset, L)
        rng = fork_rng(25, n, subset, L)
        for desired in params.subset:
            for key in enumerate_keys(params):
                assert_session_matches_oracles(params, desired, key, rng)
        if L == n:
            session = open_session(params, subset[0], rng)
            assert [len(q.combos) for q in session.queries] == [1] * n

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_atoms_distinct_per_server(self, n, k):
        # canonical placement and decode lookups both key a combo by its
        # first atom, so no server's query may repeat one
        params = pir_setup(n, range(k), n**k)
        identity = key_from_perms(((tuple(range(params.block)),),) * k)
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


class TestSamplePatterns:
    # N = 2..4 and k = 1..4: block sizes N^k up to 256
    SHAPES = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3, 4)]

    @staticmethod
    def assert_matches_sessions(params, desired, seed):
        # on the same rng, the flat draw gives the orders of the keyed
        # oracle, and each server's order mapped through order_pattern
        # equals the pattern oracle, which equals query_pattern of the
        # session's query; the orders and both oracles leave the stream
        # where a full session leaves it
        rng, keyed, oracle, ref = (random.Random(seed) for _ in range(4))
        expected = [query_pattern(params, q) for q in open_session(params, desired, ref).queries]
        assert sample_patterns(params, desired, oracle) == expected
        orders = sample_orders(params, desired, rng)
        assert orders == keyed_sample_orders(params, desired, keyed)
        assert [order_pattern(params, order) for order in orders] == expected
        assert all(type(cid) is int and cid > 0 for order in orders for cid in order)
        tail = ref.getrandbits(64)
        assert rng.getrandbits(64) == tail
        assert keyed.getrandbits(64) == tail and oracle.getrandbits(64) == tail

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_matches_session_patterns(self, blocks):
        for n, k in self.SHAPES:
            # odd message indices, so a subset position is not its message
            params = pir_setup(n, range(1, 2 * k, 2), blocks * n**k)
            for desired in params.subset:
                for seed in range(10):
                    self.assert_matches_sessions(params, desired, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SHAPES).flatmap(
            lambda shape: st.tuples(
                st.just(shape[0]),
                st.sets(st.integers(0, 7), min_size=shape[1], max_size=shape[1]),
            )
        ),
        st.integers(1, 3),
        st.data(),
    )
    def test_matches_session_patterns_hypothesis(self, shape, blocks, data):
        n, subset = shape
        params = pir_setup(n, subset, blocks * n ** len(subset))
        desired = data.draw(st.sampled_from(params.subset))
        self.assert_matches_sessions(params, desired, data.draw(st.integers(0, 2**32)))

    def test_desired_must_be_in_subset(self):
        for sampler in (sample_orders, keyed_sample_orders, sample_patterns):
            with pytest.raises(DesiredNotInSubset):
                sampler(pir_setup(2, (0, 2), 4), 1, fork_rng(0))


class TestOrderKey:
    # N = 2..3, k = 1..4 and blocks = 1..4: the key must fix every server's
    # order, so one scatter per distinct key gives the oracle's orders
    SHAPES = [(n, k, blocks) for n in (2, 3) for k in (1, 2, 3, 4) for blocks in (1, 2, 3, 4)]

    @staticmethod
    def assert_matches_oracle(params, desired, seed, draws):
        # on the same rng, every draw's orders are those the first draw of
        # its key scattered, equal to the oracle's, and the stream moves alike
        rng, oracle = random.Random(seed), random.Random(seed)
        first: dict = {}
        for _ in range(draws):
            key, slots = sample_order_key(params, desired, rng)
            orders = first.setdefault(key, slot_orders(params, desired, slots))
            assert orders == sample_orders(params, desired, oracle)
            assert type(key) is bytes
        assert rng.getstate() == oracle.getstate()
        return first

    @pytest.mark.parametrize("n,k,blocks", SHAPES)
    def test_one_scatter_per_key_gives_the_oracle_orders(self, n, k, blocks):
        # odd message indices, so a subset position is not its message;
        # the shapes with few keys see each of them many times
        params = pir_setup(n, range(1, 2 * k, 2), blocks * n**k)
        draws = 400 if n**k * blocks <= 32 else 40
        for desired in params.subset:
            self.assert_matches_oracle(params, desired, 7 * desired + k, draws)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SHAPES).flatmap(
            lambda shape: st.tuples(
                st.just(shape[0]),
                st.sets(st.integers(0, 7), min_size=shape[1], max_size=shape[1]),
                st.just(shape[2]),
            )
        ),
        st.data(),
    )
    def test_one_scatter_per_key_hypothesis(self, shape, data):
        n, subset, blocks = shape
        params = pir_setup(n, subset, blocks * n ** len(subset))
        desired = data.draw(st.sampled_from(params.subset))
        self.assert_matches_oracle(params, desired, data.draw(st.integers(0, 2**32)), 30)

    @pytest.mark.parametrize(
        "n,k,L,desired,keys",
        [(2, 1, 8, 0, 1), (2, 2, 8, 1, 4), (2, 3, 8, 2, 48), (3, 2, 9, 1, 6)],
    )
    def test_keys_are_few_where_rows_hold_few_ids(self, n, k, L, desired, keys):
        # one key at k = 1, where every order is a constant; at most the
        # key count of the rows' comparisons elsewhere
        params = pir_setup(n, range(k), L)
        assert len(self.assert_matches_oracle(params, desired, 3, 2_000)) == keys

    def test_desired_must_be_in_subset(self):
        with pytest.raises(DesiredNotInSubset):
            sample_order_key(pir_setup(2, (0, 2), 4), 1, fork_rng(0))


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
            for server, q in enumerate(PirSession.from_key(params, 2, key).queries):
                c[(server, q.combos)] += 1
        # every position must appear exactly twice per server over 6 keys
        for (server, combos), n in c.items():
            assert n == 2

    @pytest.mark.parametrize("n,k,L", [(2, 3, 8), (3, 2, 9)])
    def test_empirical_pattern_closeness(self, n, k, L):
        from ipir.audit import total_variation

        params = pir_setup(n, range(k), L)
        trials = 20_000
        servers = range(min(n, 2))
        # every server's counters read the same stream per desired value,
        # so one draw fills them all; each distinct order is mapped to its
        # pattern once, in the order the draws first met it
        counters = [[Counter() for _ in range(k)] for _ in servers]
        for desired in range(k):
            rng = fork_rng(31, n, k, desired)
            orders = [Counter() for _ in servers]
            for _ in range(trials):
                drawn = sample_orders(params, desired, rng)
                for server in servers:
                    orders[server][drawn[server]] += 1
            for server in servers:
                for order, count in orders[server].items():
                    counters[server][desired][order_pattern(params, order)] += count
        for per_desired in counters:
            for i in range(1, k):
                support = len(set(per_desired[0]) | set(per_desired[i]))
                noise = (support / 3.1416 / trials) ** 0.5
                assert total_variation(per_desired[0], per_desired[i]) < 4 * noise

    def test_pattern_is_exact_on_the_enumerable_instance(self):
        # sanity for the quotient: pattern distributions also match exactly
        # where the raw-query enumeration already matches
        params = pir_setup(2, (0, 1), 4)
        per_desired = []
        for desired in (0, 1):
            c = Counter()
            for key in enumerate_keys(params):
                q = PirSession.from_key(params, desired, key).queries[0]
                c[query_pattern(params, q)] += 1
            per_desired.append(c)
        assert per_desired[0] == per_desired[1]
