from fractions import Fraction as F

import random

import pytest
from hypothesis import given, settings, strategies as st

from ipir import intermittent
from ipir.core import (
    MessageStore,
    SystemConfig,
    WeightedSampler,
    capacity_cost,
    fork_rng,
    validate_joint,
)
from ipir.errors import InconsistentAnswers, InvalidParams, NegativeEntry, UnsupportedPair
from ipir.intermittent import (
    guaranteed_cost_bound,
    retrieve,
    run_two_request,
)
from ipir.obfuscation import (
    ObfuscationPolicy,
    expected_cost,
    greedy_policy,
    indices_of,
    likelihood_profile,
    solve_lp,
    build_lp,
    trivial_policy,
)
from ipir.pir import pir_setup

from oracles import assert_same_sampler, fraction_sampler, recording_sampler
from test_obfuscation import cell_matrices, positive_joint, sparse_joint

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def retrieve_private(s, config, store, rng):
    return retrieve(pir_setup(config.N, range(config.K), config.L), s, store, rng)


def retrieve_nonprivate(x, s, policy, config, store, rng):
    subset = indices_of(fraction_sampler(policy.at(s, x)).draw(rng))
    return retrieve(pir_setup(config.N, subset, config.L), x, store, rng)


class TestRetrievePrivate:
    def test_pair_costs_six_bits(self, config22, store22):
        record = retrieve_private(0, config22, store22, fork_rng(1, "p"))
        assert record.cost.total == F(3, 2)
        assert sum(map(len, record.answers)) == 6

    def test_three_messages_cost(self):
        config = SystemConfig(N=2, K=3, L=8, seed=2)
        store = MessageStore.random(3, 8, fork_rng(2, "s"))
        record = retrieve_private(2, config, store, fork_rng(2, "p"))
        assert record.cost.total == F(7, 4)
        assert sum(map(len, record.answers)) == 14

    def test_decodes_every_message(self, config22, store22):
        for s in range(config22.K):
            record = retrieve_private(s, config22, store22, fork_rng(3, s))
            assert record.decoded == store22.data[s]


class TestRetrieveNonprivate:
    def test_forced_branch_costs(self, pair_cond, config22, store22):
        policy = greedy_policy(pair_cond)
        # (s=1, x=0) always releases the singleton
        record = retrieve_nonprivate(0, 1, policy, config22, store22, fork_rng(4, "n"))
        assert record.subset == (0,)
        assert record.cost.total == 1
        assert record.decoded == store22.data[0]

    def test_conditional_mean_bits(self, pair_cond, config22, store22):
        # for equal requests the mix is 1/3 direct (4 bits), 2/3 hidden (6 bits)
        policy = greedy_policy(pair_cond)
        trials = 20_000
        bits = 0
        for i in range(trials):
            record = retrieve_nonprivate(
                0, 0, policy, config22, store22, fork_rng(5, "t", i)
            )
            bits += sum(map(len, record.answers))
        assert abs(bits / trials - 16 / 3) < 0.05

    def test_trivial_policy_matches_private_cost(self, pair_joint, config22, store22):
        policy = trivial_policy(2)
        record = retrieve_nonprivate(1, 0, policy, config22, store22, fork_rng(6, "v"))
        assert record.cost.total == capacity_cost(2, 2)

    def test_independent_requests_cost_one(self):
        joint = validate_joint([[F(1, 4)] * 2] * 2)
        policy = solve_lp(build_lp(joint, 2))
        config = SystemConfig(N=2, K=2, L=4, seed=7)
        store = MessageStore.random(2, 4, fork_rng(7, "s"))
        record = retrieve_nonprivate(1, 0, policy, config, store, fork_rng(7, "n"))
        assert record.cost.total == 1


class TestRunTwoRequest:
    def test_empirical_converges_to_exact(self, pair_joint, pair_cond, config22, store22):
        policy = greedy_policy(pair_cond)
        report = run_two_request(
            pair_joint, policy, config22, store22, trials=20_000,
            private_each_trial=False,
        )
        assert report.cost_x_expected == F(5, 4)
        assert abs(float(report.cost_x_empirical) - 1.25) < 0.02
        assert report.cost_s.total == F(3, 2)
        assert len(report.samples) == 20_000

    def test_trivial_policy_has_no_variance(self, pair_joint, config22, store22):
        report = run_two_request(
            pair_joint, trivial_policy(2), config22, store22, trials=500
        )
        assert report.cost_x_empirical == capacity_cost(2, 2)
        assert report.cost_x_expected == capacity_cost(2, 2)

    def test_skew_policy_empirical(self, skew_cond, skew_joint):
        policy = greedy_policy(skew_cond)
        config = SystemConfig(N=2, K=3, L=8, seed=9)
        store = MessageStore.random(3, 8, fork_rng(9, "s"))
        report = run_two_request(
            skew_joint, policy, config, store, trials=20_000,
            private_each_trial=False,
        )
        assert report.cost_x_expected == F(51, 40)
        assert abs(float(report.cost_x_empirical) - 51 / 40) < 0.02

    def test_negative_trials_rejected(self, pair_joint, config22, store22):
        with pytest.raises(InvalidParams):
            run_two_request(pair_joint, trivial_policy(2), config22, store22, trials=-3)

    @pytest.mark.parametrize("trials", [2.5, "3", None, True], ids=repr)
    def test_trials_that_are_not_ints_are_refused_before_any_draw(
        self, pair_joint, config22, store22, trials, monkeypatch
    ):
        def no_draw(self, rng):
            raise AssertionError("drew before checking trials")

        monkeypatch.setattr(WeightedSampler, "draw", no_draw)
        with pytest.raises(InvalidParams, match=f"trials must be an int, got {trials!r}"):
            run_two_request(pair_joint, trivial_policy(2), config22, store22, trials=trials)

    @pytest.mark.parametrize(
        "config, store",
        [
            (SystemConfig(N=2, K=2, L=4), MessageStore.random(2, 8, fork_rng(1, "s"))),
            (SystemConfig(N=2, K=2, L=8), MessageStore.random(2, 4, fork_rng(2, "s"))),
            (SystemConfig(N=2, K=2, L=4), MessageStore.random(3, 4, fork_rng(3, "s"))),
        ],
        ids=["longer messages", "shorter messages", "more messages"],
    )
    def test_store_of_another_size_is_refused_before_any_exchange(
        self, pair_joint, config, store, monkeypatch
    ):
        def no_draw(self, rng):
            raise AssertionError("drew before checking the store")

        def transport(queries):
            raise AssertionError("exchanged before checking the store")

        monkeypatch.setattr(WeightedSampler, "draw", no_draw)
        with pytest.raises(InvalidParams, match=f"store has K={store.K}, L={store.L}"):
            run_two_request(
                pair_joint, trivial_policy(2), config, store, trials=5, transport=transport
            )

    def test_incomplete_policy_names_the_pair_before_any_draw(self, config22, store22):
        # K=2 uniform law with the trivial policy missing its (0, 1) entry
        joint = validate_joint([[F(1, 4)] * 2] * 2)
        entries = dict(trivial_policy(2).entries)
        del entries[(0, 1, 3)]

        def transport(queries):
            raise AssertionError("retrieved before checking the policy")

        with pytest.raises(UnsupportedPair, match=r"\(s=0, x=1\)"):
            run_two_request(
                joint, ObfuscationPolicy(K=2, entries=entries), config22, store22,
                trials=5, transport=transport,
            )

    def test_negative_policy_entry_is_refused_before_any_draw(
        self, pair_joint, config22, store22, monkeypatch
    ):
        # p(u|x,s) of 3/2 and -1/2 at (0, 0) sum to 1: an unvalidated policy
        # that once always drew the first subset
        entries = dict(trivial_policy(2).entries)
        entries[(0, 0, 1)], entries[(0, 0, 3)] = F(3, 2), F(-1, 2)

        def no_draw(self, rng):
            raise AssertionError("drew before checking the policy")

        monkeypatch.setattr(WeightedSampler, "draw", no_draw)
        with pytest.raises(NegativeEntry, match="weight -1/2 is negative"):
            run_two_request(
                pair_joint, ObfuscationPolicy(K=2, entries=entries), config22, store22,
                trials=5,
            )

    def test_zero_trials_report_no_samples(self, pair_joint, config22, store22):
        report = run_two_request(pair_joint, trivial_policy(2), config22, store22, trials=0)
        assert report.samples == [] and report.cost_x_empirical == 0

    def test_private_once_per_s_keeps_requests_and_exact_costs(self, skew_cond, skew_joint):
        # skipping the private key draw shifts the rest of a trial's stream:
        # the requests and the exact costs stay, the subsets need not
        policy = greedy_policy(skew_cond)
        config = SystemConfig(N=2, K=3, L=8, seed=12)
        store = MessageStore.random(3, 8, fork_rng(12, "s"))
        each, once = (
            run_two_request(
                skew_joint, policy, config, store, trials=400, private_each_trial=flag
            )
            for flag in (True, False)
        )
        assert [(s, x) for s, x, _ in each.samples] == [(s, x) for s, x, _ in once.samples]
        assert each.cost_x_expected == once.cost_x_expected == F(51, 40)
        assert each.cost_s == once.cost_s
        assert [u for *_, u in each.samples] != [u for *_, u in once.samples]

    def test_deterministic_under_seed(self, pair_joint, pair_cond, config22, store22):
        policy = greedy_policy(pair_cond)
        a = run_two_request(pair_joint, policy, config22, store22, trials=300)
        b = run_two_request(pair_joint, policy, config22, store22, trials=300)
        assert a.samples == b.samples
        assert a.cost_x_empirical == b.cost_x_empirical

    def test_answer_lengths_match_queries(self, pair_joint, pair_cond, config22, store22):
        policy = greedy_policy(pair_cond)
        report = run_two_request(
            pair_joint, policy, config22, store22, trials=50, keep_transcripts=True
        )
        for t in report.transcripts:
            for record in (t.private, t.nonprivate):
                for q, a in zip(record.queries, record.answers):
                    assert len(a) == len(q.combos)

    @pytest.mark.parametrize("flip_call", [0, 1], ids=["private", "nonprivate"])
    def test_flipped_answer_bit_is_caught(
        self, flip_call, flipping_transport, pair_joint, pair_cond, config22, store22
    ):
        # trial 0 exchanges the private queries first, then the non-private ones
        transport, calls = flipping_transport(store22, flip_call)
        with pytest.raises(InconsistentAnswers):
            run_two_request(
                pair_joint, greedy_policy(pair_cond), config22, store22,
                trials=5, transport=transport,
            )
        assert len(calls) == flip_call + 1


def check_pair_sampler(joint, seed, draws=500):
    """``run_two_request`` draws (s, x) over the law's integer weights as a
    sampler over the nonzero entries of its Fraction table would."""
    K = joint.K
    config = SystemConfig(N=2, K=K, L=2**K, seed=seed)
    store = MessageStore.random(K, 2**K, fork_rng(seed, "store"))
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intermittent, "WeightedSampler", recording_sampler(built))
        report = run_two_request(joint, trivial_policy(K), config, store, trials=3)
    (pair_sampler,) = built
    reference = fraction_sampler(
        ((s, x), p) for s, row in enumerate(joint.table) for x, p in enumerate(row) if p
    )
    assert_same_sampler(pair_sampler, reference, draws, seed)
    assert [(s, x) for s, x, _ in report.samples] == [
        reference.draw(fork_rng(seed, "trial", trial)) for trial in range(3)
    ]


class TestPairSampler:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_seeded_laws(self, K):
        rng = random.Random(f"pair-sampler:{K}")
        for i in range(6):
            if i % 2 or K == 1:
                joint = positive_joint(rng, K)
            else:
                joint = sparse_joint(rng, K, zero_row=i % 4 == 0)
            check_pair_sampler(joint, seed=i)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(cell_matrices), st.integers(0, 99))
    def test_hypothesis_laws(self, cells, seed):
        total = sum(map(sum, cells))
        check_pair_sampler(validate_joint([[F(c, total) for c in row] for row in cells]), seed, 100)


class TestGuaranteedBound:
    def test_pair_bound(self, pair_cond):
        profile = likelihood_profile(pair_cond)
        assert guaranteed_cost_bound(profile, 2) == F(5, 4)

    def test_skew_bound(self, skew_cond):
        profile = likelihood_profile(skew_cond)
        assert guaranteed_cost_bound(profile, 2) == F(51, 40)

    def test_degenerate_profile(self):
        from ipir.core import ConditionalMatrix

        cond = ConditionalMatrix.from_rows([[F(1, 2), F(1, 2)]] * 2)
        profile = likelihood_profile(cond)
        assert profile.size_weights == (F(1), F(0))
        assert guaranteed_cost_bound(profile, 2) == 1

    def test_bound_is_max_over_allowed_size_laws(self, skew_cond):
        # reference maximization by a float LP over the cumulative polytope
        profile = likelihood_profile(skew_cond)
        K = skew_cond.K
        n = 2
        costs = [-float(capacity_cost(n, j + 1)) for j in range(K)]
        cum = [sum(map(float, profile.size_weights[: i + 1])) for i in range(K)]
        a_ub = [[-1.0 if j <= i else 0.0 for j in range(K)] for i in range(K)]
        b_ub = [-c for c in cum]
        res = scipy_linprog(
            costs,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=[[1.0] * K],
            b_eq=[1.0],
            bounds=[(0, None)] * K,
            method="highs",
        )
        assert res.success
        assert abs(-res.fun - float(guaranteed_cost_bound(profile, n))) < 1e-9

    def test_greedy_cost_never_exceeds_bound(self, skew_cond, skew_joint):
        policy = greedy_policy(skew_cond)
        bound = guaranteed_cost_bound(likelihood_profile(skew_cond), 2)
        assert expected_cost(policy, skew_joint, 2) <= bound

    def test_bound_maximality_on_random_profiles(self):
        import random

        from test_obfuscation import random_cond

        rng = random.Random(55)
        for _ in range(15):
            K = rng.choice([2, 3, 4])
            n = rng.choice([2, 3])
            profile = likelihood_profile(random_cond(rng, K))
            costs = [-float(capacity_cost(n, j + 1)) for j in range(K)]
            cum = [sum(map(float, profile.size_weights[: i + 1])) for i in range(K)]
            a_ub = [[-1.0 if j <= i else 0.0 for j in range(K)] for i in range(K)]
            res = scipy_linprog(
                costs,
                A_ub=a_ub,
                b_ub=[-c for c in cum],
                A_eq=[[1.0] * K],
                b_eq=[1.0],
                bounds=[(0, None)] * K,
                method="highs",
            )
            assert res.success
            assert abs(-res.fun - float(guaranteed_cost_bound(profile, n))) < 1e-9
