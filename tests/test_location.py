import gc
import json
import logging
import math
import random
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipir import audit, cli, core, location, obfuscation
from ipir.core import (
    JointDistribution,
    MessageStore,
    SystemConfig,
    capacity_cost,
    fork_rng,
    validate_joint,
)
from ipir.errors import (
    ConfigError,
    DegeneratePosterior,
    DistributionError,
    InconsistentAnswers,
    InvalidParams,
    NegativeEntry,
    ScheduleMismatch,
    SumNotOne,
)
from ipir.location import (
    MobilityModel,
    PosteriorState,
    PrivacySchedule,
    advance_posterior,
    condition_posterior,
    initial_posterior,
    policy_for_posterior,
    sample_trace,
    simulate,
    step_nonprivate,
    step_private,
)
from ipir.audit import audit_online_privacy
from ipir.intermittent import local_transport
from ipir.obfuscation import (
    ObfuscationPolicy,
    build_lp,
    expected_cost,
    greedy_policy,
    mask_of,
    policy_weights,
    solve_lp,
    validate_policy,
)
from ipir.core import conditional_from_joint

from oracles import (
    assert_same_sampler,
    enumerate_mechanism,
    fraction_advance_posterior,
    fraction_condition_posterior,
    fraction_sample_trace,
    fraction_sampler,
    fraction_solve_lp,
    numerator_advance_posterior,
    posterior_law,
    recording_sampler,
    simulate_stepwise,
    state_of,
    sxu_build_lp,
    step_law,
    sxu_solve_lp,
    transition_at,
)
from test_obfuscation import cell_matrices, positive_joint, recorded_pivots, sparse_joint


SCENARIOS = Path(__file__).parent.parent / "scenarios"


def two_state_model():
    return MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
    )


def random_model(rng, K, denmax=12):
    """Uniform prior and one transition matrix with random positive rows."""
    rows = []
    for _ in range(K):
        cells = [rng.randrange(1, denmax) for _ in range(K)]
        rows.append([F(c, sum(cells)) for c in cells])
    return MobilityModel.build([F(1, K)] * K, [rows])


def run_setup(K, seed):
    config = SystemConfig(N=2, K=K, L=2**K, seed=seed)
    return config, MessageStore.random(K, 2**K, fork_rng(seed, "store"))


def tracked_taus(sched):
    """The latest private instant a tracked posterior carries at each t."""
    model = two_state_model()
    state = initial_posterior(model)
    taus = [state.tau]
    for _ in range(sched.horizon):
        state = advance_posterior(state, model, sched)
        taus.append(state.tau)
    return taus


class TestSchedule:
    def test_latest_private(self):
        sched = PrivacySchedule(horizon=5, private=frozenset({0, 3}))
        assert tracked_taus(sched) == [0, 0, 0, 3, 3, 3]

    def test_always_private_origin(self):
        sched = PrivacySchedule(horizon=9, private=frozenset({0}))
        assert tracked_taus(sched) == [0] * 10

    def test_zero_must_be_private(self):
        with pytest.raises(InvalidParams):
            PrivacySchedule(horizon=3, private=frozenset({1}))

    def test_normalized_shifts_time(self):
        sched = PrivacySchedule.normalized(5, [2, 4])
        assert sched.horizon == 3
        assert sched.private == frozenset({0, 2})

    def test_empty_private_set_rejected(self):
        with pytest.raises(InvalidParams):
            PrivacySchedule.normalized(3, [])

    @pytest.mark.parametrize(
        "horizon, private",
        [(3.7, {0, 1.5}), (3.0, {0}), (True, {0}), ("3", {0}),
         (3, {0, 1.5}), (3, {0, 2.0}), (3, {False, 2})],
    )
    def test_values_that_are_not_ints_rejected(self, horizon, private):
        with pytest.raises(InvalidParams, match="must be an int|must be ints"):
            PrivacySchedule(horizon=horizon, private=frozenset(private))

    @pytest.mark.parametrize(
        "horizon, private, message",
        [("3", ["1"], "horizon must be an int, got '3'"),
         (3.0, [1], "horizon must be an int, got 3.0"),
         (3, ["1"], r"private instants must be ints, got \['1'\]"),
         # checked before the shift, which would make them 0 and 1.0
         (3, [1, 2.0], r"private instants must be ints, got \[1, 2.0\]"),
         (3, [True, 2], r"private instants must be ints, got \[True, 2\]")],
    )
    def test_normalized_rejects_values_that_are_not_ints(self, horizon, private, message):
        with pytest.raises(InvalidParams, match=message):
            PrivacySchedule.normalized(horizon, private)


class TestMobilityModel:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(DistributionError):
            MobilityModel.build([F(1, 2), F(1, 2)], [[[F(1, 2), F(1, 4)]] * 2])

    def test_time_variant_indexing(self):
        mats = [
            [[F(1), F(0)], [F(0), F(1)]],
            [[F(0), F(1)], [F(1), F(0)]],
        ]
        model = MobilityModel.build([F(1), F(0)], mats)
        assert model.time_variant
        assert model.kernel_at(0) != model.kernel_at(1)
        with pytest.raises(InvalidParams):
            model.kernel_at(2)

    def test_json_round_trip(self):
        data = json.loads((SCENARIOS / "two_state_walk.json").read_text())
        assert MobilityModel.from_json_dict(data) == two_state_model()
        # a list of matrices is a time-variant chain
        again = MobilityModel.from_json_dict({**data, "transitions": [data["transitions"]] * 2})
        assert again.time_variant and again.transitions == two_state_model().transitions * 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda pi0, mats: MobilityModel.build(pi0, mats, time_variant=False),
            lambda pi0, mats: MobilityModel(K=2, pi0=tuple(pi0), transitions=tuple(mats)),
        ],
        ids=["build", "constructor"],
    )
    def test_several_matrices_need_a_time_variant_chain(self, build):
        # every step once ran on the first matrix, so a walk from 0 under
        # the identity and then a swap stayed at 0
        identity = ((F(1), F(0)), (F(0), F(1)))
        swap = ((F(0), F(1)), (F(1), F(0)))
        with pytest.raises(DistributionError, match="2 transition matrices"):
            build((F(1), F(0)), (identity, swap))

    def test_bad_initial_distribution_rejected(self):
        with pytest.raises(DistributionError):
            MobilityModel.build([F(1, 2), F(1, 4)], [[[F(1, 2), F(1, 2)]] * 2])


class TestPosterior:
    def test_initial_is_diagonal(self):
        model = MobilityModel.build([F(1, 3), F(2, 3)], [[[F(1, 2), F(1, 2)]] * 2])
        state = initial_posterior(model)
        assert state.law.table[0][0] == F(1, 3)
        assert state.law.table[1][1] == F(2, 3)
        assert state.law.table[0][1] == 0

    def test_point_mass_advance_to_nonprivate(self):
        # from a known private location, the pair law is transition-row x point
        model = MobilityModel.build([F(0), F(1)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]])
        sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        state = advance_posterior(initial_posterior(model), model, sched)
        assert state.t == 1 and state.tau == 0
        assert state.law.table[0][1] == F(1, 4)
        assert state.law.table[1][1] == F(3, 4)
        assert state.law.table[0][0] == 0 and state.law.table[1][0] == 0

    def test_advance_to_private_collapses_to_diagonal(self):
        model = two_state_model()
        sched = PrivacySchedule(horizon=2, private=frozenset({0, 1}))
        state = advance_posterior(initial_posterior(model), model, sched)
        assert state.tau == 1
        assert all(state.law.table[a][b] == 0 for a in range(2) for b in range(2) if a != b)

    def test_identity_transitions_preserve_diagonal(self):
        model = MobilityModel.build([F(1, 2), F(1, 2)], [[[F(1), F(0)], [F(0), F(1)]]])
        sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        state = advance_posterior(initial_posterior(model), model, sched)
        assert state.law.table[0][0] == F(1, 2)
        assert state.law.table[1][1] == F(1, 2)

    def test_first_step_posterior_matches_pair_law(self, pair_joint):
        model = two_state_model()
        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        state = advance_posterior(initial_posterior(model), model, sched)
        law = validate_joint(
            [[state.law.table[a][b] for a in range(2)] for b in range(2)]
        )
        assert law == pair_joint


class TestSteps:
    def setup_method(self):
        self.model = two_state_model()
        self.config = SystemConfig(N=2, K=2, L=4, seed=77)
        self.store = MessageStore.random(2, 4, fork_rng(77, "store"))

    def test_private_step_costs_capacity(self):
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = initial_posterior(self.model)
        record, nxt = step_private(
            state, 1, self.model, sched, self.config, self.store, fork_rng(1, "p")
        )
        assert record.cost == capacity_cost(2, 2)
        assert record.decoded == self.store.data[1]
        assert nxt.t == 1
        # the full-K subset tells nothing: the posterior only advances
        assert record.subset == (0, 1)
        assert nxt == advance_posterior(state, self.model, sched)

    def test_private_step_requires_private_slot(self):
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = PosteriorState(t=1, tau=0, law=initial_posterior(self.model).law)
        with pytest.raises(ScheduleMismatch):
            step_private(
                state, 0, self.model, sched, self.config, self.store, fork_rng(2, "p")
            )

    def test_nonprivate_step_reduces_to_pair_policy(self, pair_joint):
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = advance_posterior(initial_posterior(self.model), self.model, sched)
        policy, used = policy_for_posterior(state.law, 2, "lp")
        assert used == "lp"
        assert expected_cost(policy, pair_joint, 2) == F(5, 4)
        record, nxt = step_nonprivate(
            state, 0, 1, self.model, sched, self.config, self.store, fork_rng(3, "n")
        )
        assert record.online_privacy_zero
        assert record.decoded == self.store.data[0]
        assert 0 in record.subset

    def test_tracked_tau_is_the_latest_private_instant(self):
        # simulate reads the true latest private location as trace[state.tau]
        sched = PrivacySchedule(horizon=7, private=frozenset({0, 1, 4}))
        state = initial_posterior(self.model)
        for t in range(sched.horizon + 1):
            assert (state.t, state.tau) == (t, max(i for i in sched.private if i <= t))
            rng = fork_rng(5, "step", t)
            if sched.is_private(t):
                _, state = step_private(
                    state, 0, self.model, sched, self.config, self.store, rng
                )
            else:
                _, state = step_nonprivate(
                    state, 0, 0, self.model, sched, self.config, self.store, rng
                )

    def test_lp_policy_on_a_sparse_posterior(self):
        # P(current=a, private=b) with zero cells; private location 1 has no mass
        joint = (
            (F(1, 4), F(0), F(0)),
            (F(1, 8), F(0), F(1, 8)),
            (F(0), F(0), F(1, 2)),
        )
        policy, used = policy_for_posterior(validate_joint(joint), 2, "lp")
        assert used == "lp"
        law = validate_joint([[joint[a][b] for a in range(3)] for b in range(3)])
        assert validate_policy(policy, law).all_ok
        assert sorted({(s, x) for s, x, _ in policy.entries}) == [(0, 0), (0, 1), (2, 1), (2, 2)]
        oracle = sxu_solve_lp(sxu_build_lp(law, 2))
        assert expected_cost(policy, law, 2) == expected_cost(oracle, law, 2)
        state = PosteriorState(t=1, tau=0, law=validate_joint(joint))
        assert audit_online_privacy(*step_law(state, policy)).passed

    @pytest.mark.parametrize(
        "solver, K, full, used",
        [("lp", 2, True, "lp"), ("greedy", 2, True, "greedy"),
         ("greedy", 3, False, "lp"), ("lp", 7, True, "greedy"),
         ("lp", 7, False, "trivial"), ("greedy", 7, False, "trivial")],
    )
    def test_solver_choice(self, solver, K, full, used):
        # P(current=a, private=b): heavier on the diagonal; on partial
        # support the last private location has no mass
        private = K if full else K - 1
        weights = [[(2 if a == b else 1) if b < private else 0 for b in range(K)]
                   for a in range(K)]
        total = sum(map(sum, weights))
        joint = tuple(tuple(F(w, total) for w in row) for row in weights)
        policy, got = policy_for_posterior(validate_joint(joint), 2, solver)
        assert got == used
        law = validate_joint([[joint[a][b] for a in range(K)] for b in range(K)])
        assert validate_policy(policy, law).all_ok

    def test_unknown_solver_rejected_before_any_work(self, pair_joint):
        with pytest.raises(InvalidParams):
            policy_for_posterior(pair_joint, 2, "nope")
        # the law is not normalized; the solver name is checked first
        with pytest.raises(InvalidParams):
            policy_for_posterior(JointDistribution(((1,),), 2), 2, "nope")

    def test_independent_posterior_gives_singletons(self):
        iid = MobilityModel.build([F(1, 2), F(1, 2)], [[[F(1, 2), F(1, 2)]] * 2])
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = advance_posterior(initial_posterior(iid), iid, sched)
        record, _ = step_nonprivate(
            state, 1, 0, iid, sched, self.config, self.store, fork_rng(4, "n")
        )
        assert record.subset == (1,)
        assert record.cost == 1

    def test_conditioning_matches_direct_bayes(self):
        sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        state = advance_posterior(initial_posterior(self.model), self.model, sched)
        policy, _ = policy_for_posterior(state.law, 2, "lp")
        mask = mask_of((0, 1))
        conditioned = condition_posterior(state, step_law(state, policy)[0], mask)
        # direct Bayes: joint[a][b] * p(u | x=a, s=b), renormalized
        direct = [
            [
                state.law.table[a][b] * policy.entries.get((b, a, mask), F(0))
                for b in range(2)
            ]
            for a in range(2)
        ]
        total = sum(v for row in direct for v in row)
        for a in range(2):
            for b in range(2):
                assert conditioned.law.table[a][b] == direct[a][b] / total


class TestSimulate:
    def setup_method(self):
        self.model = two_state_model()
        self.config = SystemConfig(N=2, K=2, L=4, seed=2024)
        self.store = MessageStore.random(2, 4, fork_rng(2024, "store"))

    def test_all_private_schedule(self):
        sched = PrivacySchedule(horizon=2, private=frozenset({0, 1, 2}))
        report = simulate(self.model, sched, self.config, self.store)
        assert [s.cost for s in report.steps] == [F(3, 2)] * 3
        assert report.all_private_zero()
        assert report.all_decoded(self.store)

    def test_iid_chain_costs_one_after_start(self):
        iid = MobilityModel.build([F(1, 2), F(1, 2)], [[[F(1, 2), F(1, 2)]] * 2])
        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        report = simulate(iid, sched, self.config, self.store)
        assert [s.cost for s in report.steps] == [F(3, 2), F(1), F(1), F(1)]

    def test_deterministic_under_seed(self):
        sched = PrivacySchedule(horizon=3, private=frozenset({0, 2}))
        a = simulate(self.model, sched, self.config, self.store)
        b = simulate(self.model, sched, self.config, self.store)
        assert a.trace == b.trace
        assert [s.subset for s in a.steps] == [s.subset for s in b.steps]
        assert a.total_cost == b.total_cost

    def test_sparse_chain_stays_private_and_decodes(self):
        # zero transition entries leave zero cells in the tracked posteriors
        model = MobilityModel.build(
            [F(1, 2), F(1, 4), F(1, 4)],
            [[[F(1, 2), F(1, 2), F(0)], [F(0), F(1, 2), F(1, 2)], [F(1, 3), F(0), F(2, 3)]]],
        )
        sched = PrivacySchedule(horizon=6, private=frozenset({0, 3}))
        store = MessageStore.random(3, 8, fork_rng(7, "store"))
        for seed in range(4):
            report = simulate(model, sched, SystemConfig(N=2, K=3, L=8, seed=seed), store)
            assert report.all_private_zero()
            assert report.all_decoded(store)
            assert {step.solver for step in report.steps if not step.private} == {"lp"}

    def test_expected_step_one_cost_is_the_pair_optimum(self):
        # average the realized step-1 cost over many seeds; the step-1 policy
        # is the pair-example optimum, so the mean tends to 5/4
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        total = 0.0
        n = 400
        for seed in range(n):
            config = SystemConfig(N=2, K=2, L=4, seed=seed)
            store = MessageStore.random(2, 4, fork_rng(seed, "store"))
            report = simulate(self.model, sched, config, store)
            total += float(report.steps[1].cost)
        assert abs(total / n - 1.25) < 0.05

    def test_greedy_solver_also_protects(self):
        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        report = simulate(self.model, sched, self.config, self.store, solver="greedy")
        assert report.all_private_zero()
        assert report.all_decoded(self.store)

    def test_time_variant_chain(self):
        mats = [
            [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]],
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
            [[F(9, 10), F(1, 10)], [F(1, 10), F(9, 10)]],
        ]
        model = MobilityModel.build([F(1, 2), F(1, 2)], mats)
        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        report = simulate(model, sched, self.config, self.store)
        assert report.all_private_zero()
        # after the iid step the posterior is independent: step 3 is free
        assert report.steps[2].cost == 1

    @pytest.mark.parametrize(
        "config, store, message",
        [
            (SystemConfig(N=2, K=2, L=4), MessageStore.random(2, 8, fork_rng(1, "s")),
             "store has K=2, L=8; config has K=2, L=4"),
            (SystemConfig(N=2, K=2, L=8), MessageStore.random(2, 4, fork_rng(2, "s")),
             "store has K=2, L=4; config has K=2, L=8"),
            (SystemConfig(N=2, K=2, L=4), MessageStore.random(3, 4, fork_rng(3, "s")),
             "store has K=3, L=4; config has K=2, L=4"),
        ],
        ids=["longer messages", "shorter messages", "more messages"],
    )
    def test_store_of_another_size_is_refused_before_any_exchange(
        self, config, store, message
    ):
        def transport(queries):
            raise AssertionError("exchanged before checking the store")

        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        with pytest.raises(InvalidParams, match=message):
            simulate(self.model, sched, config, store, transport=transport)

    def test_short_time_variant_chain_fails_before_any_exchange(self):
        # the trace is sampled, and runs out of matrices, before step 0
        mats = [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]] * 2
        model = MobilityModel.build([F(1, 2), F(1, 2)], mats)

        def transport(queries):
            raise AssertionError("exchanged before sampling the trace")

        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        with pytest.raises(InvalidParams, match="no transition matrix for step 2"):
            simulate(model, sched, self.config, self.store, transport=transport)

    @pytest.mark.parametrize("flip_call", [0, 1], ids=["private", "nonprivate"])
    def test_flipped_answer_bit_is_caught(self, flip_call, flipping_transport):
        # step 0 is private and step 1 is not; each step exchanges once
        sched = PrivacySchedule(horizon=3, private=frozenset({0}))
        transport, calls = flipping_transport(self.store, flip_call)
        with pytest.raises(InconsistentAnswers):
            simulate(self.model, sched, self.config, self.store, transport=transport)
        assert len(calls) == flip_call + 1


class TestTrackedVersusBruteForce:
    @pytest.mark.parametrize(
        "private",
        [
            {0},
            {0, 1},
            {0, 2},
            {0, 3},
            {0, 1, 3},
            {0, 1, 2, 3},
        ],
    )
    def test_posterior_consistency_two_states(self, private):
        model = two_state_model()
        config = SystemConfig(N=2, K=2, L=4, seed=0)
        sched = PrivacySchedule(horizon=3, private=frozenset(private))
        nodes = enumerate_mechanism(model, sched, config)
        assert nodes, "no realizable histories"
        for node in nodes:
            assert node.tracked.law.table == node.brute_joint
        mass = sum(n.prob for n in nodes if n.t == 3)
        assert mass == 1

    def test_posterior_consistency_three_states(self, skew_cond):
        trans = [list(row) for row in skew_cond.rows]
        model = MobilityModel.build([F(1, 3)] * 3, [trans])
        config = SystemConfig(N=2, K=3, L=8, seed=0)
        sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        nodes = enumerate_mechanism(model, sched, config)
        for node in nodes:
            assert node.tracked.law.table == node.brute_joint


class TestSolvedOncePerPosterior:
    """simulate solves and audits each distinct posterior once per call and
    gives the same report as the step loop that solves at every step."""

    @pytest.mark.parametrize("solver", ["lp", "greedy"])
    @pytest.mark.parametrize(
        "K, horizon, private", [(2, 10, {0, 5}), (3, 12, {0, 6}), (4, 12, {0})]
    )
    def test_report_equals_stepwise(self, K, horizon, private, solver, recording_transport):
        model = random_model(random.Random(f"equal:{K}"), K)
        sched = PrivacySchedule(horizon=horizon, private=frozenset(private))
        config, store = run_setup(K, seed=10 + K)
        posteriors = []
        ref_transport, ref_exchanges = recording_transport(local_transport(store))
        oracle = simulate_stepwise(
            model, sched, config, store, solver, posteriors=posteriors, transport=ref_transport
        )
        transport, exchanges = recording_transport(local_transport(store))
        report = simulate(model, sched, config, store, solver, transport)
        assert exchanges == ref_exchanges and len(exchanges) == horizon + 1
        assert len(set(posteriors)) < len(posteriors)  # some posterior repeats
        assert report.trace == oracle.trace
        for step, ref in zip(report.steps, oracle.steps, strict=True):
            assert (step.subset, step.solver, step.cost) == (ref.subset, ref.solver, ref.cost)
            assert step.online_privacy_bits == ref.online_privacy_bits
            assert step.online_privacy_zero == ref.online_privacy_zero
        assert report.total_cost == oracle.total_cost
        assert report == oracle
        assert {s.solver for s in report.steps if not s.private} == {solver}

    @pytest.mark.parametrize("solver", ["lp", "greedy"])
    def test_sparse_chain_that_loses_support(self, solver, recording_transport):
        # nothing moves to location 2, so from t=1 on it has no mass and the
        # private location taken at t=4 has partial support: both solvers
        # then run the LP
        half, third = F(1, 2), F(1, 3)
        model = MobilityModel.build(
            [third] * 3,
            [[[half, half, F(0)], [third, 2 * third, F(0)], [half, half, F(0)]]],
        )
        sched = PrivacySchedule(horizon=9, private=frozenset({0, 4}))
        config, store = run_setup(3, seed=21)
        posteriors = []
        ref_transport, ref_exchanges = recording_transport(local_transport(store))
        oracle = simulate_stepwise(
            model, sched, config, store, solver, posteriors=posteriors, transport=ref_transport
        )
        transport, exchanges = recording_transport(local_transport(store))
        report = simulate(model, sched, config, store, solver, transport)
        assert exchanges == ref_exchanges and len(exchanges) == sched.horizon + 1
        assert report == oracle
        assert report.all_private_zero() and report.all_decoded(store)
        # private location 2 has no mass in the law at every step after t=4
        assert all(all(row[2] == 0 for row in joint) for joint in posteriors[3:])
        assert {s.solver for s in report.steps[5:]} == {"lp"}

    def test_each_exact_posterior_has_its_own_entry(self, recording_transport):
        # two posteriors that differ only in their last row, then the first
        # again, made of new Fraction objects
        model = random_model(random.Random("entry"), 3)
        sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        config, store = run_setup(3, seed=5)
        first = tuple(tuple(F(w, 13) for w in row) for row in ((3, 1, 1), (1, 2, 1), (1, 1, 2)))
        second = first[:2] + ((F(2, 13), F(1, 13), F(1, 13)),)
        again = tuple(tuple(F(v.numerator, v.denominator) for v in row) for row in first)
        solved = {}
        for joint in (first, second, again):
            state = PosteriorState(t=1, tau=0, law=validate_joint(joint))
            args = (state, 0, 0, model, sched, config, store)
            transport, exchanges = recording_transport(local_transport(store))
            record, _ = step_nonprivate(
                *args, fork_rng(5, "entry"), transport=transport, solved=solved
            )
            ref_transport, ref_exchanges = recording_transport(local_transport(store))
            ref, _ = step_nonprivate(*args, fork_rng(5, "entry"), transport=ref_transport)
            assert record == ref
            assert exchanges == ref_exchanges and len(exchanges) == 1
        assert len(solved) == 2
        # each entry keeps the integer law of its posterior's policy under
        # the transposed posterior, which its steps condition on
        assert list(solved) == [validate_joint(j) for j in (first, second)]
        policies = [policy_for_posterior(law, 2)[0] for law in solved]
        for (law, (_, weights, _)), policy in zip(solved.items(), policies):
            assert weights == policy_weights(policy, law.transposed())[0]
        assert policies == [policy_for_posterior(validate_joint(j), 2)[0] for j in (first, second)]
        assert policies[0] != policies[1]

    @pytest.mark.parametrize(
        "K, horizon, private", [(3, 12, {0, 6}), (3, 40, {0}), (4, 16, {0, 8})]
    )
    def test_one_lp_solve_per_distinct_posterior(self, monkeypatch, K, horizon, private):
        model = random_model(random.Random(f"count:{K}:{horizon}"), K)
        sched = PrivacySchedule(horizon=horizon, private=frozenset(private))
        config, store = run_setup(K, seed=K + horizon)
        posteriors = []
        simulate_stepwise(model, sched, config, store, posteriors=posteriors)
        distinct = len(set(posteriors))
        assert distinct < len(posteriors)

        calls = {"solve_lp": 0, "policy": 0, "weights": 0, "audit": 0, "scale": 0,
                 "validate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(location, "solve_lp", counting("solve_lp", location.solve_lp))
        monkeypatch.setattr(
            location, "policy_for_posterior",
            counting("policy", location.policy_for_posterior),
        )
        monkeypatch.setattr(
            location, "policy_weights", counting("weights", location.policy_weights)
        )
        monkeypatch.setattr(
            audit, "audit_online_privacy", counting("audit", audit.audit_online_privacy)
        )
        # one integer law per new posterior, which the audit and every
        # conditioning read: no step scales a policy again, and the model
        # scaled its initial law when it was built
        monkeypatch.setattr(
            location, "scale_to_integers", counting("scale", location.scale_to_integers)
        )
        # a new posterior is exact by construction: its law goes to the
        # policy and the online audit without validation
        monkeypatch.setattr(core, "validate_joint", counting("validate", core.validate_joint))
        # a second call solves everything again: nothing is kept across calls
        for run in (1, 2):
            simulate(model, sched, config, store)
            assert calls == {"solve_lp": distinct * run, "policy": distinct * run,
                             "weights": distinct * run, "audit": distinct * run,
                             "scale": 0, "validate": 0}
        # a public call takes a law and validates nothing; a caller that
        # holds a raw matrix validates it first, once
        state = initial_posterior(model)
        policy_for_posterior(state.law, config.N)
        assert calls["validate"] == 0
        policy_for_posterior(core.validate_joint(state.law.table), config.N)
        assert calls["validate"] == 1

    @pytest.mark.parametrize("solver", ["lp", "greedy"])
    def test_no_posterior_builds_its_fraction_table(self, monkeypatch, solver):
        # a step reads each law's integer weights; its Fraction table is
        # built only when a caller asks for state.law.table
        built = []
        table = JointDistribution.table

        def recording(law):
            built.append(law)
            return table.func(law)

        monkeypatch.setattr(JointDistribution, "table", property(recording))
        for model, horizon, private in [
            (random_model(random.Random("no-table"), 3), 20, {0, 9}),
            (time_variant_model(random.Random("no-table-tv"), 3, 8), 8, {0, 3}),
        ]:
            sched = PrivacySchedule(horizon=horizon, private=frozenset(private))
            config, store = run_setup(3, seed=3)
            report = simulate(model, sched, config, store, solver)
            assert {s.solver for s in report.steps if not s.private} <= {"lp", "greedy"}
        assert built == []
        state = initial_posterior(model)
        assert state.law.table == table.func(state.law) and built == [state.law]


class TestWarmStartedSimulation:
    """Non-private steps solve the covering LP from the certified bases of
    earlier solves at the same (K, N), which no report depends on."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_report_does_not_depend_on_the_caches(
        self, empty_bases, recording_transport, K, N
    ):
        model, other = (random_model(random.Random(f"warm:{K}:{name}"), K) for name in "ab")
        sched = PrivacySchedule(horizon=8, private=frozenset({0, 4}))
        config = SystemConfig(N=N, K=K, L=N**K, seed=K + N)
        store = MessageStore.random(K, N**K, fork_rng(K + N, "store"))
        cold_transport, cold_exchanges = recording_transport(local_transport(store))
        cold = simulate(model, sched, config, store, transport=cold_transport)
        empty_bases.clear()
        simulate(other, sched, config, store)  # caches warmed by other posteriors
        transport, exchanges = recording_transport(local_transport(store))
        assert simulate(model, sched, config, store, transport=transport) == cold
        assert exchanges == cold_exchanges and len(exchanges) == sched.horizon + 1
        assert {s.solver for s in cold.steps if not s.private} == {"lp"}

    def test_most_k3_solves_skip_the_simplex(self, empty_bases, monkeypatch):
        pivots = recorded_pivots(monkeypatch)
        sched = PrivacySchedule(horizon=12, private=frozenset({0, 6}))
        config, store = run_setup(3, seed=3)
        # a run of simulations like the location benchmark's, one model each
        for i in range(30):
            simulate(random_model(random.Random(f"hits:{i}"), 3), sched, config, store)
        assert len(pivots) > 200
        assert pivots.count(0) >= 0.8 * len(pivots)


@st.composite
def posterior_cases(draw):
    """(state, model, policy) at K = 1..3: a tracked joint with zero
    entries, a kernel with zero entries, and a policy-shaped table whose
    entries need not form a valid policy."""
    K = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=0, max_value=5)

    def law(cells):
        total = sum(cells) or 1
        return [F(c, total) for c in cells]

    cells = draw(st.lists(small, min_size=K * K, max_size=K * K))
    joint = law(cells)
    state = state_of(
        t=draw(st.integers(min_value=0, max_value=3)),
        tau=0,
        joint=tuple(tuple(joint[a * K : a * K + K]) for a in range(K)),
    )
    rows = []
    for _ in range(K):
        cells = draw(st.lists(small, min_size=K, max_size=K).filter(any))
        rows.append(law(cells))
    model = MobilityModel.build([F(1, K)] * K, [rows])
    keys = st.tuples(
        st.integers(min_value=0, max_value=K - 1),
        st.integers(min_value=0, max_value=K - 1),
        st.integers(min_value=1, max_value=(1 << K) - 1),
    )
    values = st.builds(F, small, st.integers(min_value=1, max_value=6))
    policy = ObfuscationPolicy(K=K, entries=draw(st.dictionaries(keys, values, max_size=12)))
    return state, model, policy


def assert_same_posterior(state, oracle):
    assert state == oracle
    assert all(type(v) is F for row in state.law.table for v in row)
    assert [[v.as_integer_ratio() for v in row] for row in state.law.table] == [
        [v.as_integer_ratio() for v in row] for row in oracle.law.table
    ]


class TestIntegerPosterior:
    """The integer posterior updates against the Fraction ones they replaced
    (oracles.fraction_condition_posterior and fraction_advance_posterior)."""

    @settings(max_examples=150, deadline=None)
    @given(posterior_cases(), st.booleans())
    def test_hypothesis_advance(self, case, private_next):
        state, model, _ = case
        private = {0, state.t + 1} if private_next else {0}
        sched = PrivacySchedule(horizon=state.t + 1, private=frozenset(private))
        assert_same_posterior(
            advance_posterior(state, model, sched),
            fraction_advance_posterior(state, model, sched),
        )

    @settings(max_examples=150, deadline=None)
    @given(posterior_cases(), st.integers(min_value=1, max_value=7))
    def test_hypothesis_condition(self, case, mask):
        state, _, policy = case
        mask &= (1 << policy.K) - 1
        weights, _ = step_law(state, policy)
        try:
            expected = fraction_condition_posterior(state, policy, mask)
        except DegeneratePosterior as exc:
            with pytest.raises(DegeneratePosterior) as caught:
                condition_posterior(state, weights, mask)
            assert str(caught.value) == str(exc)
            return
        assert_same_posterior(condition_posterior(state, weights, mask), expected)

    def test_collapse_onto_a_private_instant(self):
        model = random_model(random.Random("collapse"), 3)
        sched = PrivacySchedule(horizon=2, private=frozenset({0, 2}))
        state = advance_posterior(initial_posterior(model), model, sched)
        policy = greedy_policy(conditional_from_joint(posterior_law(state.law.table)))
        conditioned = condition_posterior(state, step_law(state, policy)[0], 0b011)
        assert conditioned == fraction_condition_posterior(state, policy, 0b011)
        collapsed = advance_posterior(conditioned, model, sched)
        assert_same_posterior(collapsed, fraction_advance_posterior(conditioned, model, sched))
        assert collapsed.tau == 2
        assert all(v == 0 for a, row in enumerate(collapsed.law.table) for b, v in enumerate(row) if a != b)

    @settings(max_examples=150, deadline=None)
    @given(posterior_cases(), st.booleans())
    def test_hypothesis_advance_against_rescaling(self, case, private_next):
        # the kernel scaled once per model against the joint and the kernel
        # rescaled to integers at every step
        state, model, _ = case
        private = {0, state.t + 1} if private_next else {0}
        sched = PrivacySchedule(horizon=state.t + 1, private=frozenset(private))
        assert_same_posterior(
            advance_posterior(state, model, sched),
            numerator_advance_posterior(state, model, sched),
        )

    @settings(max_examples=150, deadline=None)
    @given(posterior_cases())
    def test_hypothesis_transposed_law_is_the_validated_one(self, case):
        state, _, _ = case
        if not any(map(any, state.law.weights)):
            with pytest.raises(SumNotOne):
                posterior_law(state.law.table)
            return
        assert state.law.transposed() == posterior_law(state.law.table)

    def test_degenerate_posterior_raises_the_same_error(self):
        state = PosteriorState(t=3, tau=0, law=validate_joint(((F(1, 2), F(0)), (F(0), F(1, 2)))))
        policy = ObfuscationPolicy(K=2, entries={(0, 0, 0b01): F(1), (1, 1, 0b10): F(1)})
        with pytest.raises(DegeneratePosterior, match="step 3") as caught:
            condition_posterior(state, step_law(state, policy)[0], 0b11)
        with pytest.raises(DegeneratePosterior) as expected:
            fraction_condition_posterior(state, policy, 0b11)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("solver", ["lp", "greedy"])
    def test_every_step_of_a_walk(self, solver):
        # each update of a simulated walk, against the oracles on the same input
        model = random_model(random.Random(f"walk:{solver}"), 3)
        sched = PrivacySchedule(horizon=14, private=frozenset({0, 7}))
        state = initial_posterior(model)
        rng = random.Random(3)
        for t in range(sched.horizon):
            if not sched.is_private(t):
                policy, _ = policy_for_posterior(state.law, 2, solver)
                weights, _ = step_law(state, policy)
                masks = sorted({mask for (_, _, mask) in policy.entries})
                mask = rng.choice(masks)
                try:
                    expected = fraction_condition_posterior(state, policy, mask)
                except DegeneratePosterior:
                    with pytest.raises(DegeneratePosterior):
                        condition_posterior(state, weights, mask)
                    mask = masks[-1]
                    expected = fraction_condition_posterior(state, policy, mask)
                state = condition_posterior(state, weights, mask)
                assert_same_posterior(state, expected)
            expected = fraction_advance_posterior(state, model, sched)
            state = advance_posterior(state, model, sched)
            assert_same_posterior(state, expected)


def recorded_states(monkeypatch, model, sched, seed, solver="lp"):
    """Every posterior that ``simulate`` builds, in order: the initial one,
    then each conditioned and each advanced one."""
    states = [initial_posterior(model)]
    for name in ("advance_posterior", "condition_posterior"):
        def record(*args, _update=getattr(location, name)):
            state = _update(*args)
            states.append(state)
            return state
        monkeypatch.setattr(location, name, record)
    config, store = run_setup(model.K, seed)
    simulate(model, sched, config, store, solver)
    return states


def time_variant_model(rng, K, steps):
    """A chain with its own random matrix per step; rows may have zeros."""
    def row():
        cells = [rng.choice([0, 1, 2, 3, 5]) for _ in range(K)]
        cells[rng.randrange(K)] += 1
        return [F(c, sum(cells)) for c in cells]

    return MobilityModel.build(row(), [[row() for _ in range(K)] for _ in range(steps)])


def check_sample_trace(model, horizon, seed, draws=500):
    """``sample_trace`` draws the trace of ``oracles.fraction_sample_trace``
    from the same stream and leaves it where the oracle does; each sampler
    it builds, x_0's over the initial law and x_t+1's over row x_t of the
    step's kernel, is the Fraction sampler over the same entries."""
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(location, "WeightedSampler", recording_sampler(built))
        fast = fork_rng(seed, "trace")
        trace = sample_trace(model, horizon, fast)
    slow = fork_rng(seed, "trace")
    assert trace == fraction_sample_trace(model, horizon, slow)
    assert fast.getstate() == slow.getstate()
    expected = [fraction_sampler(enumerate(model.pi0))] + [
        fraction_sampler((v, w) for v, w in enumerate(transition_at(model, t)[x]) if w)
        for t, x in enumerate(trace[:-1])
    ]
    assert len(built) == len(expected) == horizon + 1
    for t, (sampler, reference) in enumerate(zip(built, expected)):
        assert_same_sampler(sampler, reference, draws, (seed, t))
    return trace


def sparse_model(rng, K, steps=1):
    """A chain whose initial law and rows have zeros, time-variant when
    ``steps`` > 1; one entry per row stays positive."""
    def row():
        cells = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(K)]
        cells[rng.randrange(K)] += 1
        return [F(c, sum(cells)) for c in cells]

    return MobilityModel.build(row(), [[row() for _ in range(K)] for _ in range(steps)])


def model_cells(K):
    """Strategy: (initial cells, matrices of cells) with a positive total
    per law and per row, one to three matrices."""
    positive = st.lists(st.integers(min_value=0, max_value=5), min_size=K, max_size=K).filter(any)
    return st.tuples(positive, st.lists(st.lists(positive, min_size=K, max_size=K),
                                        min_size=1, max_size=3))


class TestSampleTrace:
    """The trace sampler over the model's integer laws against the one over
    its Fractions that it replaced."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_seeded_chains_with_zeros(self, K):
        rng = random.Random(f"sample-trace:{K}")
        for seed in range(3):
            check_sample_trace(sparse_model(rng, K), 12, seed)
            check_sample_trace(sparse_model(rng, K, steps=6), 6, seed)
            check_sample_trace(random_model(rng, K), 8, seed)

    def test_a_zero_initial_entry_is_never_drawn(self):
        model = MobilityModel.build([F(0), F(1, 3), F(0), F(2, 3)], [[[F(1, 4)] * 4] * 4])
        assert model.initial == ((0, 1, 0, 2), 3)
        starts = {check_sample_trace(model, 0, seed, draws=50)[0] for seed in range(60)}
        assert starts == {1, 3}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(model_cells), st.integers(0, 99))
    def test_hypothesis_chains(self, cells, seed):
        initial, matrices = cells
        model = MobilityModel.build(
            [F(c, sum(initial)) for c in initial],
            [[[F(c, sum(row)) for c in row] for row in m] for m in matrices],
        )
        horizon = len(matrices) if model.time_variant else 5
        check_sample_trace(model, horizon, seed, draws=50)


class TestCanonicalLaw:
    """A posterior's law is its entries in lowest terms: the common
    denominator is the lcm of the Fraction entries' denominators."""

    def assert_canonical(self, state):
        entries = [v for row in state.law.table for v in row]
        assert state.law.scale == math.lcm(*(v.denominator for v in entries))
        assert [w for row in state.law.weights for w in row] == [
            v * state.law.scale for v in entries
        ]

    @pytest.mark.parametrize("solver", ["lp", "greedy"])
    def test_long_walk(self, monkeypatch, solver):
        model = random_model(random.Random("canonical"), 3)
        sched = PrivacySchedule(horizon=40, private=frozenset({0, 17}))
        states = recorded_states(monkeypatch, model, sched, seed=8, solver=solver)
        # one advance per step before the horizon, one conditioning per
        # non-private step
        assert len(states) == 1 + 40 + 39
        for state in states:
            self.assert_canonical(state)

    def test_time_variant_chain(self, monkeypatch):
        model = time_variant_model(random.Random("canonical-tv"), 3, 10)
        sched = PrivacySchedule(horizon=10, private=frozenset({0, 4}))
        states = recorded_states(monkeypatch, model, sched, seed=9)
        assert len(states) == 1 + 10 + 9
        for state in states:
            self.assert_canonical(state)

    def test_each_transition_matrix_is_scaled_once_per_model(self, monkeypatch):
        rng = random.Random("scaled-once")
        calls = []

        def recording(values):
            values = list(values)
            calls.append(values)
            return scale_to_integers(values)

        scale_to_integers = location.scale_to_integers
        monkeypatch.setattr(location, "scale_to_integers", recording)
        model = time_variant_model(rng, 3, 6)
        matrices = [[v for row in m for v in row] for m in model.transitions]
        assert calls == [list(model.pi0), *matrices]
        weights, scale = scale_to_integers(model.pi0)
        assert model.initial == (tuple(weights), scale)
        for t, (rows, scale) in enumerate(model.kernels):
            assert model.kernel_at(t) is model.kernels[t]
            assert [n for row in rows for n in row] == [v * scale for v in matrices[t]]
        calls.clear()
        config, store = run_setup(3, seed=6)
        simulate(model, PrivacySchedule(horizon=6, private=frozenset({0})), config, store)
        assert calls == []

    def test_no_matrix_past_the_last(self):
        model = time_variant_model(random.Random("past"), 2, 3)
        sched = PrivacySchedule(horizon=4, private=frozenset({0}))
        with pytest.raises(InvalidParams, match="no transition matrix for step 3"):
            model.kernel_at(3)
        state = PosteriorState(t=3, tau=0, law=initial_posterior(model).law)
        with pytest.raises(InvalidParams, match="no transition matrix for step 3"):
            advance_posterior(state, model, sched)


class TestValidationAtTheBoundary:
    """A law from outside is validated where it enters, with the same typed
    errors as before the steps stopped validating their posteriors."""

    NEGATIVE = [[F(5, 4), F(-1, 4)], [F(0), F(0)]]
    UNNORMALIZED = [[F(1, 2), F(1, 4)], [F(0), F(0)]]

    def test_validate_joint(self):
        with pytest.raises(NegativeEntry, match=r"entry \(0, 1\) = -1/4 is negative"):
            validate_joint(self.NEGATIVE)
        with pytest.raises(SumNotOne) as caught:
            validate_joint(self.UNNORMALIZED)
        assert (caught.value.total, caught.value.deficit) == (F(3, 4), F(1, 4))

    def test_json(self):
        text = lambda rows: {"K": 2, "p": [[str(v) for v in row] for row in rows]}  # noqa: E731
        with pytest.raises(NegativeEntry):
            JointDistribution.from_json_dict(text(self.NEGATIVE))
        with pytest.raises(SumNotOne):
            JointDistribution.from_json_dict(text(self.UNNORMALIZED))

    @pytest.mark.parametrize(
        "pi0, row, message",
        [
            ([F(5, 4), F(-1, 4)], [F(1, 2)] * 2, "pi0 has a negative entry"),
            ([F(1, 2), F(1, 4)], [F(1, 2)] * 2, "pi0 does not sum to 1"),
            ([F(1, 2)] * 2, [F(5, 4), F(-1, 4)], "bad transition row"),
            ([F(1, 2)] * 2, [F(1, 2), F(1, 4)], "transition row does not sum to 1"),
        ],
    )
    def test_mobility_model(self, pi0, row, message):
        with pytest.raises(DistributionError, match=message):
            MobilityModel.build(pi0, [[row, row]])

    def test_public_calls_with_a_raw_matrix(self):
        # policy_for_posterior takes a law; a caller that holds a raw
        # matrix builds the law with validate_joint, which refuses these
        with pytest.raises(NegativeEntry):
            policy_for_posterior(validate_joint(self.NEGATIVE), 2)
        with pytest.raises(SumNotOne):
            policy_for_posterior(validate_joint(self.UNNORMALIZED), 2)

    @pytest.mark.parametrize(
        "what, bad, error",
        [
            ("joint", "NEGATIVE", NegativeEntry),
            ("joint", "UNNORMALIZED", SumNotOne),
            ("model", "NEGATIVE", DistributionError),
            ("model", "UNNORMALIZED", DistributionError),
        ],
    )
    def test_cli(self, tmp_path, capsys, what, bad, error):
        rows = [[str(v) for v in row] for row in getattr(self, bad)]
        schedule = str(SCENARIOS / "first_instant_private.json")
        path = tmp_path / "input.json"
        if what == "joint":
            path.write_text(json.dumps({"K": 2, "p": rows}))
            parse, args = JointDistribution.from_json_dict, ["solve-lp", "--joint", str(path)]
        else:
            # the first row as the initial law of a two-state chain
            path.write_text(json.dumps({"K": 2, "pi0": rows[0], "transitions": [[1, 0], [0, 1]]}))
            parse = MobilityModel.from_json_dict
            args = ["simulate-location", "--model", str(path), "--schedule", schedule]
        with pytest.raises(ConfigError) as caught:
            cli._load(str(path), what, parse)
        assert isinstance(caught.value.__cause__, error)
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: bad {what} file")


class TestKeptSteps:
    def test_steps_over_one_subset_share_the_tuple_and_cost(self):
        model = random_model(random.Random("shared"), 3)
        sched = PrivacySchedule(horizon=12, private=frozenset({0, 6}))
        config, store = run_setup(3, seed=4)
        report = simulate(model, sched, config, store)
        by_subset = {}
        for step in report.steps:
            first = by_subset.setdefault(step.subset, step)
            assert step.subset is first.subset
            if step.cost == first.cost:
                assert step.cost is first.cost
        assert len(by_subset) < len(report.steps)

    @staticmethod
    def retained_per_report(L, reports=40):
        """Bytes that each of ``reports`` 13-step K=3 reports keeps alive,
        measured over a second pass of the same seeds, once every cache
        the first pass filled is warm."""
        model = random_model(random.Random("retained"), 3)
        sched = PrivacySchedule(horizon=12, private=frozenset({0, 6}))
        store = MessageStore.random(3, L, fork_rng(L, "store"))
        configs = [SystemConfig(N=2, K=3, L=L, seed=seed) for seed in range(reports)]
        for config in configs:
            simulate(model, sched, config, store)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [simulate(model, sched, config, store) for config in configs]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == reports
        return retained / reports

    def test_a_report_does_not_grow_with_the_message_length(self):
        # a record keeps no query or answer, so nothing it holds is L bits
        # long; kept exchanges would make an L=512 report about 20x an L=8 one
        short, long = self.retained_per_report(8), self.retained_per_report(512)
        assert long < 1.5 * short, (short, long)


class TestFallbackLogs:
    def records(self, caplog):
        return [r for r in caplog.records if r.name == "ipir.location"]

    def test_lp_run_at_k3_logs_nothing(self, caplog):
        model = random_model(random.Random("quiet"), 3)
        sched = PrivacySchedule(horizon=8, private=frozenset({0, 4}))
        config, store = run_setup(3, seed=2)
        with caplog.at_level(logging.DEBUG, logger="ipir"):
            report = simulate(model, sched, config, store, solver="lp")
        assert {s.solver for s in report.steps if not s.private} == {"lp"}
        assert not [r for r in caplog.records if r.name.startswith("ipir")]

    def test_greedy_on_partial_support_logs_the_lp(self, caplog):
        joint = ((F(1, 2), F(0)), (F(1, 2), F(0)))
        with caplog.at_level(logging.INFO, logger="ipir.location"):
            _, used = policy_for_posterior(validate_joint(joint), 2, "greedy")
        assert used == "lp"
        (record,) = self.records(caplog)
        assert record.levelno == logging.INFO
        assert record.getMessage() == (
            "K=2: solver 'greedy' asked, 'lp' ran (LP cap 6, partial support)"
        )

    def test_lp_above_the_cap_logs_the_greedy_construction(self, caplog):
        K = location.DEFAULT_LP_CAP + 1
        joint = [[F(1, K * K)] * K for _ in range(K)]
        with caplog.at_level(logging.INFO, logger="ipir.location"):
            _, used = policy_for_posterior(validate_joint(joint), 2, "lp")
        assert used == "greedy"
        (record,) = self.records(caplog)
        assert record.getMessage() == (
            f"K={K}: solver 'lp' asked, 'greedy' ran (LP cap {K - 1}, full support)"
        )

    def test_lp_above_the_cap_on_partial_support_logs_the_trivial_policy(self, caplog):
        K = location.DEFAULT_LP_CAP + 1
        joint = [[F(1, K)] + [F(0)] * (K - 1) for _ in range(K)]
        with caplog.at_level(logging.INFO, logger="ipir.location"):
            _, used = policy_for_posterior(validate_joint(joint), 2, "lp")
        assert used == "trivial"
        (record,) = self.records(caplog)
        assert "'trivial' ran" in record.getMessage()
        assert "partial support" in record.getMessage()


class TestStepChecks:
    """A step run on its own checks what ``simulate`` checks, and names
    the step."""

    def setup_method(self):
        self.model = two_state_model()
        self.sched = PrivacySchedule(horizon=2, private=frozenset({0}))
        self.config = SystemConfig(N=2, K=2, L=4, seed=3)
        self.store = MessageStore.random(2, 4, fork_rng(3, "store"))
        self.private = initial_posterior(self.model)
        self.nonprivate = advance_posterior(self.private, self.model, self.sched)

    def run(self, private, x_t=0, x_tau=0, model=None, store=None, state=None):
        model, store = model or self.model, store or self.store
        rng = fork_rng(3, "step")
        if private:
            return step_private(
                state or self.private, x_t, model, self.sched, self.config, store, rng
            )
        return step_nonprivate(
            state or self.nonprivate, x_t, x_tau, model, self.sched, self.config, store, rng
        )

    @pytest.mark.parametrize("private", [True, False])
    def test_store_of_another_length_is_refused(self, private):
        # not reported as a faulty server's answers
        store = MessageStore.random(2, 8, fork_rng(4, "store"))
        with pytest.raises(InvalidParams, match="store has K=2, L=8; config has K=2, L=4"):
            self.run(private, store=store)

    @pytest.mark.parametrize("private", [True, False])
    def test_model_of_another_k_is_refused(self, private):
        model = random_model(random.Random("other-k"), 3)
        with pytest.raises(InvalidParams, match="model has K=3, posterior K=2, config K=2"):
            self.run(private, model=model)

    @pytest.mark.parametrize("private", [True, False])
    def test_posterior_of_another_k_is_refused(self, private):
        law = JointDistribution.over([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
        state = PosteriorState(t=0 if private else 1, tau=0, law=law)
        with pytest.raises(InvalidParams, match="model has K=2, posterior K=3, config K=2"):
            self.run(private, state=state)

    @pytest.mark.parametrize("x", [2, -1, 1.0, True, "1"])
    @pytest.mark.parametrize("private", [True, False])
    def test_current_location_outside_the_messages_is_refused(self, private, x):
        step = 0 if private else 1
        with pytest.raises(InvalidParams, match=rf"step {step}: location x_t={x!r} is not"):
            self.run(private, x_t=x)

    @pytest.mark.parametrize("x", [2, -1, 1.0, True])
    def test_private_location_outside_the_messages_is_refused(self, x):
        with pytest.raises(InvalidParams, match=rf"step 1: location x_tau={x!r} is not"):
            self.run(False, x_tau=x)

    def test_locations_of_zero_probability_are_degenerate(self):
        # the walk never leaves 0, so current location 1 has no mass
        model = MobilityModel.build([F(1), F(0)], [[[F(1), F(0)], [F(0), F(1)]]])
        state = advance_posterior(initial_posterior(model), model, self.sched)
        with pytest.raises(DegeneratePosterior, match="step 1: the locations have zero"):
            self.run(False, x_t=1, model=model, state=state)


def check_step_law(joint, draws=1_000):
    """A location step at a posterior whose transpose is ``joint`` against
    the Fraction policy of oracles.fraction_solve_lp: the same posterior
    conditioned on every subset the policy uses, and the subset draws of
    ``check_step_draws``."""
    oracle = fraction_solve_lp(build_lp(joint, 2))
    state = PosteriorState(t=1, tau=0, law=joint.transposed())
    weights, _ = step_law(state, solve_lp(build_lp(joint, 2)))
    expected, _ = step_law(state, oracle)
    for mask in {u for _, _, u in expected}:
        assert condition_posterior(state, weights, mask) == condition_posterior(
            state, expected, mask
        )
    check_step_draws(joint, oracle, "lp", draws)


def check_step_draws(joint, reference, solver, draws):
    """At each pair of positive mass under ``joint``, the step's subset
    sampler has the denominator, thresholds and values of one over
    ``reference.at`` at the pair, and draws the same subsets from the same
    stream."""
    K = joint.K
    state = PosteriorState(t=1, tau=0, law=joint.transposed())
    built = []
    model = MobilityModel.build([F(1, K)] * K, [[[F(1, K)] * K] * K])
    sched = PrivacySchedule(horizon=1, private=frozenset({0}))
    config, store = run_setup(K, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(location, "WeightedSampler", recording_sampler(built))
        for s, row in enumerate(joint.weights):
            for x, w in enumerate(row):
                if w:
                    rng = fork_rng(1, "step", s, x)
                    step_nonprivate(state, x, s, model, sched, config, store, rng, solver)
                    sampler, expected = built.pop(), fraction_sampler(reference.at(s, x))
                    assert_same_sampler(sampler, expected, draws, (2, s, x))


class TestIntegerLpStep:
    """The LP step stays in integers from the rhs to the draw."""

    @pytest.mark.parametrize("K, count", [(2, 6), (3, 6), (4, 3), (5, 1)])
    def test_seeded_laws(self, K, count):
        rng = random.Random(f"step-law:{K}")
        for i in range(count):
            check_step_law(
                positive_joint(rng, K) if i % 3 else sparse_joint(rng, K, zero_row=i % 2 == 1)
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(cell_matrices))
    def test_hypothesis_laws(self, cells):
        total = sum(map(sum, cells))
        check_step_law(validate_joint([[F(c, total) for c in row] for row in cells]), draws=200)

    def test_greedy_draws_are_those_of_policy_at(self):
        # the greedy construction stores the entries at (s=0, x=2) of this
        # law in mask order 4, 6, 5; the step draws over them mask-ascending
        rows = [[3, 1, 6], [6, 3, 1], [1, 5, 4]]
        joint = validate_joint([[F(c, 30) for c in row] for row in rows])
        policy = greedy_policy(conditional_from_joint(joint))
        assert [u for s, x, u in policy.entries if (s, x) == (0, 2)] == [4, 6, 5]
        check_step_draws(joint, policy, "greedy", draws=1_000)

    def test_lp_simulation_builds_no_entries_and_no_fraction(self, monkeypatch):
        kept = []

        def recording(instance):
            kept.append(solve_lp(instance))
            return kept[-1]

        built = []

        class Counting(F):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return F(*args, **kwargs)

        monkeypatch.setattr(location, "solve_lp", recording)
        monkeypatch.setattr(obfuscation, "Fraction", Counting)
        model = random_model(random.Random("integer-step"), 3)
        sched = PrivacySchedule(horizon=12, private=frozenset({0, 6}))
        config, store = run_setup(3, seed=5)
        report = simulate(model, sched, config, store, solver="lp")
        assert {s.solver for s in report.steps if not s.private} == {"lp"}
        assert kept and all("entries" not in vars(policy) for policy in kept)
        assert built == []

