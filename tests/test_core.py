import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ipir.core import (
    ConditionalMatrix,
    JointDistribution,
    MessageStore,
    SystemConfig,
    WeightedSampler,
    capacity_cost,
    conditional_from_joint,
    fork_rng,
    format_rational,
    parse_rational,
    scale_to_integers,
    validate_joint,
)
from ipir.errors import DistributionError, InvalidParams, NegativeEntry, SumNotOne
from ipir.obfuscation import ObfuscationPolicy, subset_samplers

from oracles import assert_same_sampler, fraction_sampler


def fractions_matrix(K, denominator=24):
    """Strategy: K x K integer cell matrices normalized to sum 1."""
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=K, max_size=K),
        min_size=K,
        max_size=K,
    ).filter(lambda rows: sum(map(sum, rows)) > 0)


class TestValidateJoint:
    def test_pair_table_valid(self, pair_joint):
        assert pair_joint.K == 2
        assert pair_joint.table[0][0] == F(3, 8)

    def test_sum_not_one_reports_deficit(self):
        with pytest.raises(SumNotOne) as err:
            validate_joint([[F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)]])
        assert err.value.total == F(3, 2)
        assert err.value.deficit == F(-1, 2)

    def test_degenerate_point_mass_is_valid(self):
        j = validate_joint([[1, 0], [0, 0]])
        assert F(sum(j.weights[0]), j.scale) == 1
        assert j.support() == (0,)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_joint([[F(5, 4), F(-1, 4)], [0, 0]])

    def test_over_refuses_a_negative_weight(self):
        # it built a law with a -1/2 entry
        with pytest.raises(NegativeEntry):
            JointDistribution.over([[1, -1], [1, 1]], 2)

    def test_json_round_trip(self, pair_joint):
        again = JointDistribution.from_json_dict(pair_joint.to_json_dict())
        assert again == pair_joint

    @given(st.integers(min_value=1, max_value=4).flatmap(fractions_matrix))
    def test_weights_are_the_table_in_lowest_terms(self, cells):
        # a validated law and one built from the same integers with ``over``
        # are the same value: weights over the lcm of the entries'
        # denominators
        total = sum(map(sum, cells))
        law = validate_joint([[F(c, total) for c in row] for row in cells])
        entries = [v for row in law.table for v in row]
        assert law.scale == math.lcm(*(v.denominator for v in entries))
        assert [w for row in law.weights for w in row] == [v * law.scale for v in entries]
        assert JointDistribution.over(cells, total) == law
        assert law.transposed().table == tuple(zip(*law.table))
        assert law.transposed().transposed() == law


class TestConditionalFromJoint:
    def test_pair_table_rows(self, pair_joint):
        cond = conditional_from_joint(pair_joint)
        assert cond.rows == (
            (F(3, 4), F(1, 4)),
            (F(1, 4), F(3, 4)),
        )
        assert cond.support == (0, 1)

    def test_uniform_joint(self):
        K = 3
        cond = conditional_from_joint(validate_joint([[F(1, 9)] * 3] * 3))
        assert all(v == F(1, 3) for row in cond.rows for v in row)

    def test_unsupported_row_flagged(self):
        j = validate_joint([[F(1, 2), F(1, 2)], [0, 0]])
        cond = conditional_from_joint(j)
        assert cond.support == (0,)
        assert not cond.full_support()

    @given(fractions_matrix(3))
    def test_reconstructs_joint_on_support(self, cells):
        total = sum(map(sum, cells))
        joint = validate_joint([[F(v, total) for v in row] for row in cells])
        cond = conditional_from_joint(joint)
        for s in cond.support:
            mass = F(sum(joint.weights[s]), joint.scale)
            for x in range(3):
                assert cond.rows[s][x] * mass == joint.table[s][x]


class TestCapacityCost:
    def test_two_by_two(self):
        assert capacity_cost(2, 2) == F(3, 2)

    def test_single_message_is_free_of_overhead(self):
        for n in range(2, 7):
            assert capacity_cost(n, 1) == 1

    def test_two_servers_three_messages(self):
        assert capacity_cost(2, 3) == F(7, 4)

    def test_monotone_grid(self):
        for n in range(2, 9):
            for k in range(1, 10):
                assert capacity_cost(n, k + 1) > capacity_cost(n, k)
        for k in range(1, 11):
            for n in range(2, 8):
                assert capacity_cost(n + 1, k) <= capacity_cost(n, k)
                if k > 1:
                    assert capacity_cost(n + 1, k) < capacity_cost(n, k)

    @pytest.mark.parametrize("n, k", [(2.0, 3), (2, 3.0), (2, True), (True, 2)])
    def test_sizes_that_are_not_ints_rejected(self, n, k):
        with pytest.raises(InvalidParams, match="N and k must be ints"):
            capacity_cost(n, k)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            capacity_cost(1, 2)
        with pytest.raises(InvalidParams):
            capacity_cost(3, 0)


class TestRationalArithmetic:
    @given(
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
        st.sampled_from("+-*/"),
    )
    def test_operations_stay_reduced(self, a, b, op):
        import math

        if op == "/" and b == 0:
            return
        value = {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else a}[op]
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


class TestRationalText:
    def test_parse_and_format(self):
        assert parse_rational("3/8") == F(3, 8)
        assert parse_rational("2") == F(2)
        assert format_rational(F(6, 4)) == "3/2"
        assert format_rational(F(4, 2)) == "2"

    @pytest.mark.parametrize("text", ["1/0", "0/0", None, True, "", [], "nan", "1/2/3"])
    def test_not_a_rational(self, text):
        with pytest.raises(DistributionError, match="is not a rational number"):
            parse_rational(text)

    def test_ints_and_floats_are_read_as_before(self):
        assert parse_rational(-1) == -1 and type(parse_rational(3)) is F
        assert parse_rational(1.5) == F(3, 2) and parse_rational(" 1/4 ") == F(1, 4)

    @given(st.integers(-50, 50), st.integers(1, 50))
    def test_round_trip(self, num, den):
        v = F(num, den)
        assert parse_rational(format_rational(v)) == v


class TestSystemConfig:
    def test_length_must_divide(self):
        with pytest.raises(InvalidParams):
            SystemConfig(N=2, K=2, L=6, seed=0)
        SystemConfig(N=2, K=2, L=8, seed=0)

    def test_server_floor(self):
        with pytest.raises(InvalidParams):
            SystemConfig(N=1, K=2, L=2, seed=0)

    @pytest.mark.parametrize("seed", [7.0, True, None, "7"])
    def test_seed_must_be_an_int(self, seed):
        # fork_rng reads the seed through str(), so 7.0 and 7 would name
        # different streams
        with pytest.raises(InvalidParams, match="seed must be an int"):
            SystemConfig(N=2, K=2, L=4, seed=seed)


class TestMessageStore:
    def test_random_shape(self):
        store = MessageStore.random(3, 8, fork_rng(0, "s"))
        assert store.K == 3 and store.L == 8
        assert all(len(m) == 8 for m in store.data)

    def test_bad_lengths_rejected(self):
        with pytest.raises(InvalidParams):
            MessageStore(K=1, L=4, data=((0, 1),))

    @pytest.mark.parametrize("K, L", [(0, 8), (2, 0), (0, 0), (-1, 8), (2, -8)])
    def test_empty_store_rejected(self, K, L):
        # no retrieval can use a store without a message or a bit
        with pytest.raises(InvalidParams):
            MessageStore(K=K, L=L, data=((),) * max(K, 0))
        with pytest.raises(InvalidParams):
            MessageStore.random(K, L, fork_rng(0, "s"))

    @pytest.mark.parametrize("K, L", [(1, 8.0), (1.0, 8), (True, 8), (1, True)])
    def test_sizes_that_are_not_ints_rejected(self, K, L):
        # a float or bool size equals an int one, so only its type can refuse it
        with pytest.raises(InvalidParams, match="K and L must be ints"):
            MessageStore(K=K, L=L, data=((1,) * int(L),) * int(K))

    @pytest.mark.parametrize("bit", [1.0, 0.0, 2, -1, "1", None])
    def test_values_that_are_not_bits_rejected(self, bit):
        with pytest.raises(InvalidParams, match="non-bit"):
            MessageStore(K=1, L=8, data=((1,) * 7 + (bit,),))


class TestRandomness:
    def test_fork_is_deterministic_and_labelled(self):
        a = fork_rng(7, "x", 1).random()
        b = fork_rng(7, "x", 1).random()
        c = fork_rng(7, "x", 2).random()
        assert a == b
        assert a != c

    def test_weighted_sampler_exact_frequencies(self):
        sampler = WeightedSampler([("a", 1), ("b", 2)])
        rng = fork_rng(3, "draws")
        counts = {"a": 0, "b": 0}
        n = 30_000
        for _ in range(n):
            counts[sampler.draw(rng)] += 1
        assert abs(counts["a"] / n - 1 / 3) < 0.01

    def test_weights_must_sum_to_one(self):
        # counts need no sum; Fraction weights still must sum to 1, in the
        # oracle and in the subset samplers that read a policy's shares
        assert WeightedSampler([("a", 1)]).draw(fork_rng(0)) == "a"
        with pytest.raises(DistributionError, match="weights sum to 1/3, expected 1"):
            fraction_sampler([("a", F(1, 3))]).draw(fork_rng(0))
        joint = validate_joint([[F(1)]])
        policy = ObfuscationPolicy(K=1, entries={(0, 0, 1): F(1, 3)})
        with pytest.raises(DistributionError, match="weights sum to 1/3, expected 1"):
            subset_samplers(policy, joint)

    @pytest.mark.parametrize(
        "items",
        [[(0, F(3, 2)), (1, F(-1, 2))], [(0, F(-1, 4)), (1, F(1, 4)), (2, F(1))]],
    )
    def test_negative_weight_is_refused_before_any_draw(self, items):
        # these weights sum to 1, so only the sign check catches them; as
        # counts over their common denominator the negative one is -1
        with pytest.raises(NegativeEntry, match="weight -1/[24] is negative"):
            fraction_sampler(items)
        counts, _ = scale_to_integers(w for _, w in items)
        with pytest.raises(NegativeEntry, match="count -1 is negative"):
            WeightedSampler(enumerate(counts))

    @pytest.mark.parametrize(
        "items, error, message",
        [
            ([], InvalidParams, "nothing to sample from"),
            ([(0, 1), (1, F(1, 2))], DistributionError, "counts must be ints"),
            ([(0, 1.0)], DistributionError, "counts must be ints"),
            ([(0, True)], DistributionError, "counts must be ints"),
            ([(0, "1")], DistributionError, "counts must be ints"),
            ([(0, None)], DistributionError, "counts must be ints"),
            ([(0, 2), (1, -3), (2, 4)], NegativeEntry, "count -3 is negative"),
            ([(0, 0)], InvalidParams, "every count is 0"),
            ([(0, 0), (1, 0), (2, 0)], InvalidParams, "every count is 0"),
        ],
        ids=["empty", "fraction", "float", "bool", "str", "none", "negative", "zero",
             "zeros"],
    )
    def test_bad_counts_are_refused_when_built(self, items, error, message):
        with pytest.raises(error, match=message):
            WeightedSampler(items)

    def test_counts_draw_as_their_shares(self):
        # counts are drawn over their sum reduced, with the thresholds and
        # draws of their shares as Fractions
        counts = [(0, 6), (1, 0), (2, 4), (3, 10)]
        by_counts = WeightedSampler(counts)
        by_shares = fraction_sampler((v, F(c, 20)) for v, c in counts)
        assert by_counts.denominator == by_shares.denominator == 10
        assert_same_sampler(by_counts, by_shares, 500, 6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8).filter(any),
        st.integers(min_value=1, max_value=12),
    )
    def test_counts_and_their_multiples_draw_as_their_shares(self, counts, factor):
        # scaling every count by a common factor changes no draw: the
        # sampler reduces by the gcd, as the shares' lcm does
        total = sum(counts)
        shares = fraction_sampler((v, F(c, total)) for v, c in enumerate(counts))
        sampler = WeightedSampler((v, c * factor) for v, c in enumerate(counts))
        assert_same_sampler(sampler, shares, 50, total * factor)

    def test_draw_is_the_first_threshold_above_the_pick(self):
        # the bisected draw equals a linear scan of cumulative counts, zero
        # counts included, on the same random stream
        counts = [0, 1, 0, 2, 3, 0]
        sampler = WeightedSampler(enumerate(counts))
        assert sampler.denominator == 6
        fast, slow = fork_rng(5, "draw"), fork_rng(5, "draw")
        for _ in range(2_000):
            pick = slow.randrange(sampler.denominator)
            acc, expected = 0, None
            for value, c in enumerate(counts):
                acc += c
                if pick < acc:
                    expected = value
                    break
            assert sampler.draw(fast) == expected
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize(
        "denominator",
        [1, 2, 2**5, 2**32, 2**64, 3, 2**5 + 1, 2**32 + 1, 2**69 + 1]
        + [random.Random(m).randrange(1, 2**70) for m in range(6)],
    )
    def test_pick_is_randrange(self, denominator):
        # the pick takes what rng.randrange(denominator) takes, rejections
        # included (about half the words at 2^m + 1), and leaves the
        # stream where randrange leaves it
        shapes = random.Random(denominator)
        for seed in range(20):
            low = shapes.randrange(denominator)
            sampler = WeightedSampler([(0, 1), (1, low), (2, denominator - 1 - low)])
            assert sampler.denominator == denominator
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(50):
                pick = slow.randrange(denominator)
                assert sampler.draw(fast) == (0 if pick < 1 else 1 if pick < 1 + low else 2)
                assert fast.getstate() == slow.getstate()


class TestConditionalMatrix:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(SumNotOne):
            ConditionalMatrix.from_rows([[F(1, 2), F(1, 4)], [F(1, 2), F(1, 2)]])

    def test_empty_matrix_refused(self):
        with pytest.raises(DistributionError, match="at least one row"):
            ConditionalMatrix.from_rows([])
