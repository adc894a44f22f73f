import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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
    validate_joint,
)
from ipir.errors import DistributionError, InvalidParams, NegativeEntry, SumNotOne


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
        sampler = WeightedSampler([("a", F(1, 3)), ("b", F(2, 3))])
        rng = fork_rng(3, "draws")
        counts = {"a": 0, "b": 0}
        n = 30_000
        for _ in range(n):
            counts[sampler.draw(rng)] += 1
        assert abs(counts["a"] / n - 1 / 3) < 0.01

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            WeightedSampler([("a", F(1, 3))]).draw(fork_rng(0))

    @pytest.mark.parametrize(
        "items",
        [[(0, F(3, 2)), (1, F(-1, 2))], [(0, F(-1, 4)), (1, F(1, 4)), (2, F(1))]],
    )
    def test_negative_weight_is_refused_before_any_draw(self, items):
        # these weights sum to 1, so only the sign check catches them
        with pytest.raises(NegativeEntry, match="weight -1/[24] is negative"):
            WeightedSampler(items)

    def test_counts_draw_as_their_shares(self):
        # counts are drawn over their sum reduced, with the thresholds and
        # draws of their shares as Fractions
        counts = [(0, 6), (1, 0), (2, 4), (3, 10)]
        by_counts = WeightedSampler.of_counts(counts)
        by_shares = WeightedSampler((v, F(c, 20)) for v, c in counts)
        assert by_counts.denominator == by_shares.denominator == 10
        assert by_counts.thresholds == by_shares.thresholds
        assert by_counts.values == by_shares.values
        fast, slow = fork_rng(6, "counts"), fork_rng(6, "counts")
        assert [by_counts.draw(fast) for _ in range(500)] == [
            by_shares.draw(slow) for _ in range(500)
        ]

    def test_draw_is_the_first_threshold_above_the_pick(self):
        # the bisected draw equals a linear scan of cumulative numerators,
        # zero weights included, on the same random stream
        weights = [F(0), F(1, 6), F(0), F(1, 3), F(1, 2), F(0)]
        sampler = WeightedSampler(enumerate(weights))
        fast, slow = fork_rng(5, "draw"), fork_rng(5, "draw")
        for _ in range(2_000):
            pick = slow.randrange(sampler.denominator)
            acc, expected = 0, None
            for value, w in enumerate(weights):
                acc += w.numerator * (sampler.denominator // w.denominator)
                if pick < acc:
                    expected = value
                    break
            assert sampler.draw(fast) == expected

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
            sampler = WeightedSampler(
                [
                    (0, F(1, denominator)),
                    (1, F(low, denominator)),
                    (2, F(denominator - 1 - low, denominator)),
                ]
            )
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
