import dataclasses
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipir.audit import audit_policy_independence
from ipir.core import (
    ConditionalMatrix,
    JointDistribution,
    capacity_cost,
    conditional_from_joint,
    fork_rng,
    scale_to_integers,
    validate_joint,
)
from ipir import obfuscation
from ipir.errors import (
    ConstructionFailed,
    DistributionError,
    InvalidParams,
    IpirError,
    NegativeEntry,
    PartialSupport,
    TooLarge,
    UnsupportedPair,
)
from ipir.obfuscation import (
    DEFAULT_LP_CAP,
    LpInstance,
    ObfuscationPolicy,
    _route,
    build_lp,
    expected_cost,
    full_mask,
    greedy_policy,
    indices_of,
    likelihood_profile,
    mask_of,
    policy_weights,
    solve_lp,
    subset_samplers,
    trivial_policy,
    validate_policy,
)

from oracles import (
    assert_same_sampler,
    branching_size_weights,
    covering_lp,
    equality_build_lp,
    equality_lp_marginal,
    fraction_build_lp,
    fraction_expected_cost,
    fraction_policy_independence,
    fraction_route,
    fraction_sampler,
    fraction_solve_lp,
    fraction_subset_marginal,
    fraction_subset_samplers,
    fraction_validate_policy,
    lp_marginal,
    recomputing_greedy_policy,
    search_route,
    simplex_route,
    sxu_build_lp,
    sxu_solve_lp,
)

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def random_cond(rng, K, denmax=60):
    rows = []
    for _ in range(K):
        d = rng.randrange(1, denmax + 1)
        cuts = sorted(rng.randrange(0, d + 1) for _ in range(K - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        rows.append([F(p, d) for p in parts])
    return ConditionalMatrix.from_rows(rows)


def positive_joint(rng, K, denmax=30):
    """Random joint law with every cell positive, like a location posterior."""
    cells = [[rng.randrange(1, denmax) for _ in range(K)] for _ in range(K)]
    total = sum(map(sum, cells))
    return validate_joint([[F(c, total) for c in row] for row in cells])


def sparse_joint(rng, K, zero_row, denmax=30):
    """Random joint law with zero cells; ``zero_row`` empties one row, which
    needs K >= 2 to leave any mass."""
    if zero_row and K < 2:
        raise ValueError(f"emptying a row empties every row of a K={K} joint")
    while True:
        cells = [[rng.choice((0, rng.randrange(1, denmax))) for _ in range(K)] for _ in range(K)]
        if zero_row:
            cells[rng.randrange(K)] = [0] * K
        total = sum(map(sum, cells))
        if total:
            return validate_joint([[F(c, total) for c in row] for row in cells])


def cell_matrices(K):
    """Strategy: K x K small-integer cell matrices with a positive total."""
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=K, max_size=K),
        min_size=K,
        max_size=K,
    ).filter(lambda rows: sum(map(sum, rows)) > 0)


def check_against_oracle(joint, n_servers=2):
    """The covering LP reaches the (s, x, u) oracle's optimum with a valid
    policy; at K=2 both give the same policy wherever p(s, x) > 0."""
    policy = solve_lp(build_lp(joint, n_servers))
    oracle = sxu_solve_lp(sxu_build_lp(joint, n_servers))
    assert expected_cost(policy, joint, n_servers) == expected_cost(oracle, joint, n_servers)
    assert validate_policy(policy, joint).all_ok
    if joint.K == 2:
        cond = conditional_from_joint(joint)
        for s in cond.support:
            for x in range(2):
                if joint.table[s][x] != 0:
                    assert policy.at(s, x) == oracle.at(s, x)
            # the unique optimum puts m({x}) = min_s p(x|s) on each singleton
            marginal = fraction_subset_marginal(policy, cond, s)
            for x in range(2):
                assert marginal.get(1 << x, 0) == min(cond.rows[t][x] for t in cond.support)


def check_routing(joint, n_servers=2):
    """The flow routing of solve_lp against the simplex routing it replaced:
    a valid policy at the LP optimum whose subset law is the LP marginal at
    every supported s. At K=2 the routing is forced, so both are equal."""
    instance = build_lp(joint, n_servers)
    marginal, optimum = lp_marginal(instance)
    policy = solve_lp(instance)
    oracle = simplex_route(instance, marginal)
    assert validate_policy(policy, joint).all_ok
    assert expected_cost(policy, joint, n_servers) == optimum
    assert expected_cost(oracle, joint, n_servers) == optimum
    cond = conditional_from_joint(joint)
    for s in cond.support:
        assert fraction_subset_marginal(policy, cond, s) == marginal
    if joint.K == 2:
        assert policy.entries == oracle.entries


def check_against_equality_form(joint, n_servers=2):
    """The <= form covering LP, one-phase from its slack basis, against the
    equality form solved by the two-phase oracle: its optimum plus C(N, K)
    is the same exact cost. At K=2 the policy is also the one the equality
    form gives, entry for entry."""
    instance = build_lp(joint, n_servers)
    _, optimum = lp_marginal(instance)
    reference = equality_build_lp(joint, n_servers)
    marginal, reference_optimum = equality_lp_marginal(reference)
    assert optimum == reference_optimum
    if joint.K == 2:
        assert solve_lp(instance).entries == simplex_route(reference, marginal).entries


def tied_cond(rng, K):
    """Random conditional matrix whose rows mix tied, zero and distinct
    entries; one in five has K identical rows."""
    rows = list(random_cond(rng, K, denmax=40).rows)
    for s in range(K):
        if rng.random() < 0.4:
            parts = [rng.choice((0, 1, 1, 2, 3)) for _ in range(K)]
            parts[rng.randrange(K)] += 1
            rows[s] = [F(p, sum(parts)) for p in parts]
    if rng.random() < 0.2:
        rows = rows[:1] * K
    return ConditionalMatrix.from_rows(rows)


def conditional_matrices(K):
    """Strategy: K x K conditional matrices of small-integer rows, so ties
    and zeros are common; one flag makes every row the first."""
    rows = st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=K, max_size=K).filter(any),
        min_size=K,
        max_size=K,
    )

    def build(case):
        cells, same = case
        return ConditionalMatrix.from_rows(
            [[F(v, sum(row)) for v in row] for row in (cells[:1] * K if same else cells)]
        )

    return st.tuples(rows, st.booleans()).map(build)


def outcome(construct, cond):
    """A construction's entries in insertion order, or its error."""
    try:
        return list(construct(cond).entries.items())
    except ConstructionFailed as exc:
        return repr(exc)


def uniform_prior_joint(cond):
    K = cond.K
    return validate_joint(
        [[cond.rows[s][x] / K for x in range(K)] for s in range(K)]
    )


class TestLikelihoodProfile:
    def test_skew_matrix(self, skew_cond):
        prof = likelihood_profile(skew_cond)
        assert prof.rank_sums == (F(1, 2), F(9, 10), F(8, 5))
        assert prof.unit_rank == 2
        assert prof.size_weights == (F(1, 2), F(2, 5), F(1, 10))

    def test_pair_conditionals(self, pair_cond):
        prof = likelihood_profile(pair_cond)
        assert prof.rank_sums == (F(1, 2), F(3, 2))
        assert prof.unit_rank == 1
        assert prof.size_weights == (F(1, 2), F(1, 2))

    def test_uniform_rows(self):
        K = 4
        cond = ConditionalMatrix.from_rows([[F(1, K)] * K] * K)
        prof = likelihood_profile(cond)
        assert prof.rank_sums[0] == 1
        assert prof.unit_rank == K
        assert prof.size_weights == (F(1),) + (F(0),) * (K - 1)

    def test_partial_support_rejected(self):
        j = validate_joint([[F(1, 2), F(1, 2)], [0, 0]])
        with pytest.raises(PartialSupport):
            likelihood_profile(conditional_from_joint(j))

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
    def test_size_weights_match_the_case_by_case_oracle(self, K):
        rng = random.Random(f"size-weights:{K}")
        for _ in range(100):
            prof = likelihood_profile(tied_cond(rng, K))
            expected = branching_size_weights(prof)
            assert prof.size_weights == expected
            assert [type(w) for w in prof.size_weights] == [type(w) for w in expected]

    def test_weights_sum_to_one_and_first_rank_fits(self):
        rng = random.Random(10)
        for _ in range(50):
            prof = likelihood_profile(random_cond(rng, rng.choice([2, 3, 4])))
            assert sum(prof.size_weights, F(0)) == 1
            assert prof.rank_sums[0] <= 1


class TestGreedyConstruction:
    def test_skew_matrix_exact_assignments(self, skew_cond):
        policy = greedy_policy(skew_cond)

        def joint_mass(s, x, subset):
            p = policy.entries.get((s, x, mask_of(subset)), F(0))
            return p * skew_cond.rows[s][x]

        assert joint_mass(0, 2, (0, 2)) == F(3, 10)
        assert joint_mass(0, 2, (0, 1, 2)) == F(1, 10)
        assert joint_mass(1, 0, (0, 1, 2)) == F(1, 10)
        assert joint_mass(2, 1, (0, 1, 2)) == F(1, 10)
        assert joint_mass(1, 0, (0, 2)) == F(3, 10)
        assert policy.size_marginal(skew_cond) == (F(1, 2), F(2, 5), F(1, 10))

    def test_pair_conditionals_give_the_reference_policy(self, pair_cond, pair_joint):
        policy = greedy_policy(pair_cond)
        expected = {
            (0, 0, mask_of((0,))): F(1, 3),
            (0, 0, mask_of((0, 1))): F(2, 3),
            (0, 1, mask_of((1,))): F(1),
            (1, 0, mask_of((0,))): F(1),
            (1, 1, mask_of((1,))): F(1, 3),
            (1, 1, mask_of((0, 1))): F(2, 3),
        }
        assert policy.entries == expected
        assert policy.size_marginal(pair_cond) == (F(1, 2), F(1, 2))
        assert expected_cost(policy, pair_joint, 2) == F(5, 4)

    def test_uniform_rows_collapse_to_singletons(self):
        K = 3
        cond = ConditionalMatrix.from_rows([[F(1, K)] * K] * K)
        policy = greedy_policy(cond)
        for s in range(K):
            for x in range(K):
                assert policy.entries[(s, x, 1 << x)] == 1

    def test_random_instances_validate_and_meet_the_size_bound(self):
        rng = random.Random(99)
        for trial in range(200):
            K = rng.choice([2, 3, 4, 5])
            cond = random_cond(rng, K)
            prof = likelihood_profile(cond)
            policy = greedy_policy(cond)
            joint = uniform_prior_joint(cond)
            assert validate_policy(policy, joint).all_ok
            sizes = policy.size_marginal(cond)
            cum = F(0)
            cum_w = F(0)
            for i in range(K):
                cum += sizes[i]
                cum_w += prof.size_weights[i]
                assert cum >= cum_w


class TestFreeMassEquivalence:
    """greedy_policy, which keeps one free-mass table, against the
    construction that re-summed each companion's future self-use
    (oracles.recomputing_greedy_policy): the same entries in the same
    order, or the same error."""

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7])
    def test_seeded_matrices(self, K):
        rng = random.Random(f"free-mass:{K}")
        for _ in range(150 if K < 6 else 40):
            cond = tied_cond(rng, K)
            assert outcome(greedy_policy, cond) == outcome(recomputing_greedy_policy, cond)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=7).flatmap(conditional_matrices))
    def test_hypothesis_matrices(self, cond):
        assert outcome(greedy_policy, cond) == outcome(recomputing_greedy_policy, cond)


class TestLpInstance:
    def test_pair_instance_shape(self, pair_joint):
        # the (s, x, u) formulation, kept as the oracle of the covering LP
        inst = sxu_build_lp(pair_joint, 2)
        assert len(inst.variables) == 8
        # 4 normalization rows + 3 subset-marginal rows
        assert len(inst.rows) == 7
        for (s, x, mask), cost in zip(inst.variables, inst.costs):
            assert mask >> x & 1
            assert cost == pair_joint.table[s][x] * capacity_cost(2, bin(mask).count("1"))

    def test_covering_pair_shape(self, pair_joint):
        inst = build_lp(pair_joint, 2)
        # m({0}) and m({1}); the full set {0, 1} takes the rest
        assert inst.variables == (1, 2)
        assert inst.costs == (-F(1, 2), -F(1, 2))
        # sum m <= 1, then m(u within B) <= min_s p(B|s) for B = {0}, {1},
        # in units of 1/4
        assert inst.rows == ((1, 1), (1, 0), (0, 1))
        assert inst.rhs == (4, 1, 1)

    def test_covering_size_at_three(self, skew_joint):
        inst = build_lp(skew_joint, 2)
        assert (len(inst.variables), len(inst.rows)) == (6, 7)

    @pytest.mark.parametrize("K", range(1, DEFAULT_LP_CAP + 1))
    def test_variables_costs_and_rows_are_read_from_k_and_n(self, K):
        # an instance holds the law and its rhs; the rest is the covering
        # LP at (K, N), the same for every law
        fields = [f.name for f in dataclasses.fields(LpInstance)]
        assert fields == ["K", "n_servers", "joint", "rhs"]
        rng = random.Random(f"covering-lp:{K}")
        for n_servers in (2, 3):
            inst = build_lp(sparse_joint(rng, K, zero_row=K > 1), n_servers)
            assert (inst.variables, inst.costs, inst.rows) == covering_lp(K, n_servers)
            with pytest.raises(AttributeError):
                inst.rows = ()

    def test_single_message(self):
        inst = build_lp(validate_joint([[1]]), 3)
        policy = solve_lp(inst)
        assert policy.entries == {(0, 0, 1): F(1)}
        assert expected_cost(policy, validate_joint([[1]]), 3) == 1

    def test_independent_pair_costs_one(self):
        joint = validate_joint([[F(1, 4)] * 2] * 2)
        policy = solve_lp(build_lp(joint, 2))
        assert expected_cost(policy, joint, 2) == 1
        cond = conditional_from_joint(joint)
        greedy = greedy_policy(cond)
        assert expected_cost(greedy, joint, 2) == 1

    def test_cap(self, pair_joint):
        with pytest.raises(TooLarge):
            build_lp(pair_joint, 2, cap=1)
        with pytest.raises(TooLarge):
            fraction_build_lp(pair_joint, 2, cap=1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(cell_matrices),
        st.integers(min_value=2, max_value=4),
    )
    def test_hypothesis_equals_the_fraction_build(self, cells, n_servers):
        # the rhs from integer subset sums compared by cross-multiplication,
        # against the conditional rows summed and compared in Fractions, on
        # laws with zero cells and zero rows
        total = sum(map(sum, cells))
        joint = validate_joint([[F(c, total) for c in row] for row in cells])
        instance = build_lp(joint, n_servers)
        assert instance == fraction_build_lp(joint, n_servers)
        assert all(type(v) is int for v in instance.rhs)

    def test_seeded_sparse_joints_equal_the_fraction_build(self):
        rng = random.Random("fraction-build")
        for i in range(40):
            joint = sparse_joint(rng, 2 + i % 4, zero_row=i % 2 == 1)
            assert build_lp(joint, 2) == fraction_build_lp(joint, 2)


class TestLpSolve:
    def test_pair_optimum_is_five_quarters(self, pair_joint):
        policy = solve_lp(build_lp(pair_joint, 2))
        assert expected_cost(policy, pair_joint, 2) == F(5, 4)
        assert validate_policy(policy, pair_joint).all_ok

    def test_dominates_greedy_and_stays_in_trivial_range(self):
        rng = random.Random(321)
        for _ in range(25):
            K = rng.choice([2, 3])
            cond = random_cond(rng, K, denmax=20)
            joint = uniform_prior_joint(cond)
            lp_policy = solve_lp(build_lp(joint, 2))
            assert validate_policy(lp_policy, joint).all_ok
            lp_cost = expected_cost(lp_policy, joint, 2)
            greedy_cost = expected_cost(greedy_policy(cond), joint, 2)
            assert 1 <= lp_cost <= greedy_cost <= capacity_cost(2, K)


class TestCoveringLpEquivalence:
    @pytest.mark.parametrize("K, count", [(2, 40), (3, 30), (4, 6)])
    def test_seeded_sparse_joints(self, K, count):
        rng = random.Random(f"covering-lp:{K}")
        for i in range(count):
            check_against_oracle(sparse_joint(rng, K, zero_row=i % 2 == 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(cell_matrices))
    def test_hypothesis_joints(self, cells):
        total = sum(map(sum, cells))
        check_against_oracle(validate_joint([[F(c, total) for c in row] for row in cells]))

    def test_zero_mass_pairs_get_no_entries(self):
        joint = validate_joint([[F(1, 2), 0, F(1, 4)], [0, 0, 0], [0, F(1, 8), F(1, 8)]])
        policy = solve_lp(build_lp(joint, 2))
        assert sorted({(s, x) for s, x, _ in policy.entries}) == [(0, 0), (0, 2), (2, 1), (2, 2)]


class TestSparseJointHelper:
    def test_emptying_the_only_row_is_refused_at_once(self):
        with pytest.raises(ValueError, match="K=1"):
            sparse_joint(random.Random(0), 1, zero_row=True)


class TestSlackBasisEquivalence:
    @pytest.mark.parametrize("K, count", [(2, 40), (3, 30), (4, 10), (5, 3)])
    def test_seeded_sparse_joints(self, K, count):
        rng = random.Random(f"slack-basis:{K}")
        for i in range(count):
            check_against_equality_form(sparse_joint(rng, K, zero_row=i % 2 == 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(cell_matrices))
    def test_hypothesis_joints(self, cells):
        total = sum(map(sum, cells))
        check_against_equality_form(validate_joint([[F(c, total) for c in row] for row in cells]))


class TestFlowRouting:
    @pytest.mark.parametrize("K, count", [(2, 40), (3, 30), (4, 10), (5, 2)])
    def test_seeded_sparse_joints(self, K, count):
        rng = random.Random(f"flow-routing:{K}")
        for i in range(count):
            check_routing(sparse_joint(rng, K, zero_row=i % 2 == 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(cell_matrices))
    def test_hypothesis_joints(self, cells):
        total = sum(map(sum, cells))
        check_routing(validate_joint([[F(c, total) for c in row] for row in cells]))

    def test_unroutable_row_raises(self):
        # all demand is on {0}, which message 1's supply cannot reach
        with pytest.raises(ConstructionFailed, match="row 0 cannot be routed"):
            _route(0, [1, 1], {0b01: 2})


def recorded_pivots(monkeypatch) -> list[int]:
    """The pivot count of every simplex solve that solve_lp makes from now on."""
    pivots = []
    minimize = obfuscation.minimize

    def recording(*args, **kwargs):
        solution = minimize(*args, **kwargs)
        pivots.append(solution.pivots)
        return solution

    monkeypatch.setattr(obfuscation, "minimize", recording)
    return pivots


class TestWarmStart:
    """solve_lp starts from the certified bases of earlier solves at the
    same (K, N); what the caches hold never changes a policy."""

    def test_first_solve_is_cold_and_stores_its_basis(self, empty_bases, monkeypatch):
        pivots = recorded_pivots(monkeypatch)
        rng = random.Random("cold-path")
        laws = [positive_joint(rng, 3) for _ in range(12)]
        policies = [solve_lp(build_lp(law, 2)) for law in laws]
        assert pivots[0] > 0 and list(empty_bases) == [(3, 2)]
        assert empty_bases[3, 2]._bases and pivots.count(0) >= 6
        for law, policy in zip(laws, policies):
            empty_bases.clear()
            assert solve_lp(build_lp(law, 2)) == policy
            assert validate_policy(policy, law).all_ok

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("K, count", [(3, 40), (4, 12), (5, 4)])
    def test_entries_do_not_depend_on_the_caches(self, empty_bases, K, N, count):
        rng = random.Random(f"warm-policies:{K}:{N}")
        laws = [
            positive_joint(rng, K) if i % 3 else sparse_joint(rng, K, zero_row=i % 2 == 1)
            for i in range(count)
        ]
        cold = []
        for law in laws:
            empty_bases.clear()
            cold.append(list(solve_lp(build_lp(law, N)).entries.items()))
        for order in (laws, laws[::-1]):
            # each law is solved with the caches that the laws before it left
            empty_bases.clear()
            warm = {id(law): list(solve_lp(build_lp(law, N)).entries.items()) for law in order}
            assert [warm[id(law)] for law in laws] == cold
        if K == 3:
            assert empty_bases[K, N]._bases


def integer_route(s, row, marginal):
    """``_route`` on the row and the marginal scaled by D_s, the lcm of
    their denominators, as solve_lp scales them: (flow, D_s)."""
    numerators, scale = scale_to_integers([*row, *marginal.values()])
    demand = dict(zip(marginal, numerators[len(row) :]))
    return _route(s, numerators[: len(row)], demand), scale


def check_integer_route(s, row, marginal):
    """The integer flow over D_s is the Fraction flow, arc for arc, or both
    raise the same ConstructionFailed."""
    try:
        expected = fraction_route(s, row, marginal)
    except ConstructionFailed as exc:
        with pytest.raises(ConstructionFailed) as caught:
            integer_route(s, row, marginal)
        assert str(caught.value) == str(exc)
        return False
    flow, scale = integer_route(s, row, marginal)
    assert all(type(f) is int for f in flow.values())
    assert list(flow) == list(expected)
    assert {arc: F(f, scale) for arc, f in flow.items()} == expected
    return True


@st.composite
def route_inputs(draw):
    """A row with zero supplies allowed and a marginal over random masks,
    each over its own denominators, with equal or unequal totals."""
    K = draw(st.integers(min_value=1, max_value=4))
    amounts = st.integers(min_value=0, max_value=5)
    denominators = st.integers(min_value=1, max_value=12)
    row = [F(draw(amounts), draw(denominators)) for _ in range(K)]
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << K) - 1), min_size=1, unique=True)
    )
    marginal = {u: F(draw(amounts), draw(denominators)) for u in masks}
    return draw(st.integers(min_value=0, max_value=K - 1)), row, marginal


class TestIntegerRoute:
    """solve_lp's flow on integers over D_s against the Fraction flow it
    replaced (oracles.fraction_route)."""

    @settings(max_examples=200, deadline=None)
    @given(route_inputs())
    def test_hypothesis_rows_and_marginals(self, inputs):
        check_integer_route(*inputs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(cell_matrices))
    def test_lp_policies_equal_the_fraction_flow(self, cells):
        # every LP policy, entry for entry and in the same order, is the
        # Fraction flow of the LP marginal divided by p(x|s)
        total = sum(map(sum, cells))
        joint = validate_joint([[F(c, total) for c in row] for row in cells])
        instance = build_lp(joint, 2)
        marginal, _ = lp_marginal(instance)
        expected = {}
        cond = conditional_from_joint(joint)
        for s in cond.support:
            row = cond.rows[s]
            assert check_integer_route(s, row, marginal)
            flow = fraction_route(s, row, marginal)
            expected.update(
                ((s, x, u), f / row[x]) for (x, u), f in sorted(flow.items()) if f != 0
            )
        assert list(solve_lp(instance).entries.items()) == list(expected.items())

    def test_zero_supplies(self):
        row = [F(0), F(2, 3), F(0), F(1, 3)]
        marginal = {0b0010: F(1, 2), 0b1010: F(1, 6), 0b1111: F(1, 3)}
        assert check_integer_route(1, row, marginal)

    def test_unroutable_marginal_raises_the_same_error(self):
        # message 1's supply can reach no demand: all mass is on {0}
        row = [F(1, 2), F(1, 2)]
        assert not check_integer_route(0, row, {0b01: F(1)})
        with pytest.raises(ConstructionFailed, match="row 0 cannot be routed"):
            integer_route(0, row, {0b01: F(1)})


def check_route(s, supply, demand):
    """``_route`` against the search alone (oracles.search_route): the
    same flow, arc for arc and in order, or the same ConstructionFailed."""
    try:
        expected = search_route(s, supply, demand)
    except ConstructionFailed as exc:
        with pytest.raises(ConstructionFailed) as caught:
            _route(s, supply, demand)
        assert str(caught.value) == str(exc)
        return False
    assert list(_route(s, supply, demand).items()) == list(expected.items())
    return True


class TestDirectPushes:
    """_route pushes the direct arcs before it searches; the flow is the
    search's alone."""

    @settings(max_examples=300, deadline=None)
    @given(route_inputs())
    def test_hypothesis_supplies_and_demands(self, inputs):
        # equal and unequal totals, zero supplies and zero demands
        s, row, marginal = inputs
        numerators, _ = scale_to_integers([*row, *marginal.values()])
        check_route(s, numerators[: len(row)], dict(zip(marginal, numerators[len(row) :])))

    @pytest.mark.parametrize("K, count", [(2, 20), (3, 20), (4, 8), (5, 3)])
    def test_every_route_of_seeded_lp_solves(self, monkeypatch, K, count):
        routed = []
        route = obfuscation._route

        def checking(s, supply, demand):
            routed.append(check_route(s, supply, demand))
            return route(s, supply, demand)

        monkeypatch.setattr(obfuscation, "_route", checking)
        rng = random.Random(f"direct-pushes:{K}")
        for i in range(count):
            law = positive_joint(rng, K) if i % 3 else sparse_joint(rng, K, zero_row=i % 2 == 1)
            solve_lp(build_lp(law, 2))
        assert routed and all(routed)

    def test_unroutable_demand_raises_the_search_error(self):
        # after the direct pushes, the supply left can reach no demand left
        assert not check_route(0, [1, 1], {0b01: 2})
        assert not check_route(3, [1, 0, 2], {0b001: 2, 0b100: 1})


def check_kept_law(joint, n_servers=2):
    """solve_lp against the Fraction body it replaced
    (oracles.fraction_solve_lp): ``policy_weights`` under the solved law
    is the kept law, the oracle policy's law weight for weight over its
    scale and in its order, and read before any entry is built; then the
    entries, in order."""
    instance = build_lp(joint, n_servers)
    oracle = fraction_solve_lp(instance)
    policy = solve_lp(instance)
    weights, scale = policy_weights(policy, joint)
    assert "entries" not in vars(policy)
    expected, expected_scale = policy_weights(oracle, joint)
    assert list(weights) == list(expected)
    assert all(F(w, scale) == F(expected[key], expected_scale) for key, w in weights.items())
    assert list(policy.entries.items()) == list(oracle.entries.items())
    assert policy == oracle and repr(policy) == repr(oracle)
    return policy, oracle


def reads_the_policy_law(weights_of, policy, joint) -> bool:
    """Whether ``weights_of(policy, joint)`` is the law that the policy's
    entries give under ``joint``, weight for weight over its scale and in
    order."""
    expected, scale = policy_weights(ObfuscationPolicy(K=policy.K, entries=policy.entries), joint)
    got, got_scale = weights_of(policy, joint)
    return list(got) == list(expected) and all(
        F(w, got_scale) == F(expected[key], scale) for key, w in got.items()
    )


class TestKeptLaw:
    """solve_lp keeps its flow's integer (S, X, U) law, builds its entries
    only when read, and hands the law to ``policy_weights`` for the law it
    was solved for alone."""

    @pytest.mark.parametrize("K, count", [(2, 20), (3, 20), (4, 8), (5, 3)])
    def test_seeded_laws(self, K, count):
        rng = random.Random(f"kept-law:{K}")
        for i in range(count):
            check_kept_law(
                positive_joint(rng, K) if i % 3 else sparse_joint(rng, K, zero_row=i % 2 == 1)
            )

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(cell_matrices),
        st.integers(min_value=2, max_value=3),
    )
    def test_hypothesis_laws(self, cells, n_servers):
        total = sum(map(sum, cells))
        check_kept_law(validate_joint([[F(c, total) for c in row] for row in cells]), n_servers)

    def test_other_laws_of_the_same_k_are_scaled(self):
        rng = random.Random("other-laws")
        for K in (2, 3, 4):
            solved, other = positive_joint(rng, K), sparse_joint(rng, K, zero_row=True)
            policy = solve_lp(build_lp(solved, 2))
            for joint in (solved, other):
                assert reads_the_policy_law(policy_weights, policy, joint)
            assert validate_policy(policy, solved).all_ok

    def test_the_check_catches_a_kept_law_read_for_any_joint(self):
        # a policy_weights that skips the comparison of the laws passes on
        # the solved law and fails on another one of the same K
        def mutant(policy, joint):
            return policy._law[1:]

        rng = random.Random("other-laws")
        solved, other = positive_joint(rng, 3), positive_joint(rng, 3)
        policy = solve_lp(build_lp(solved, 2))
        assert reads_the_policy_law(mutant, policy, solved)
        assert not reads_the_policy_law(mutant, policy, other)

    def test_the_kept_law_is_read_only(self):
        joint = positive_joint(random.Random("read-only"), 3)
        policy = solve_lp(build_lp(joint, 2))
        weights, _ = policy_weights(policy, joint)
        key = next(iter(weights))
        with pytest.raises(TypeError):
            weights[key] = 0
        assert policy_weights(policy, joint)[0] is policy._law[1]

    def test_policies_built_from_entries_keep_no_law(self, pair_joint):
        policy = greedy_policy(conditional_from_joint(pair_joint))
        assert policy._law is None
        with pytest.raises(AttributeError):
            policy.missing


class TestTypedRefusals:
    @pytest.mark.parametrize("K", [2.5, 0, -1, True])
    def test_trivial_policy_needs_a_positive_int(self, K):
        with pytest.raises(InvalidParams, match="need an int K of at least 1"):
            trivial_policy(K)

    def test_float_server_count_is_refused_after_an_int_solve(self, pair_joint):
        # the (K, N) caches hold 2 and 2.0 as one key; a float N must not
        # ride on what an int N left there
        solve_lp(build_lp(pair_joint, 2))
        with pytest.raises(InvalidParams, match="N and k must be ints"):
            solve_lp(build_lp(pair_joint, 2.0))


class TestPolicyValidation:
    def test_reference_policy_passes(self, pair_cond, pair_joint):
        policy = greedy_policy(pair_cond)
        report = validate_policy(policy, pair_joint)
        assert report.all_ok
        marginal = fraction_subset_marginal(policy, pair_cond, 0)
        assert marginal[mask_of((0,))] == F(1, 4)
        assert marginal[mask_of((1,))] == F(1, 4)
        assert marginal[mask_of((0, 1))] == F(1, 2)
        assert marginal == fraction_subset_marginal(policy, pair_cond, 1)

    def test_broken_normalization_detected(self, pair_cond, pair_joint):
        policy = greedy_policy(pair_cond)
        entries = dict(policy.entries)
        entries[(0, 0, mask_of((0,)))] = F(1, 2)
        report = validate_policy(ObfuscationPolicy(K=2, entries=entries), pair_joint)
        assert not report.normalization_ok
        assert report.witness[0] == "normalization"
        assert report.witness[1:3] == (0, 0)

    def test_normalization_witness_is_the_first_pair(self):
        # (1, 2) sums to 3/2 and (2, 1) to 0; pairs are checked in (s, x)
        # order, and the zero cell (0, 1) needs no entries
        joint = validate_joint([[F(1, 8), 0, F(1, 8)], [F(1, 8)] * 3, [F(1, 8)] * 3])
        entries = {(s, x, u): p for (s, x, u), p in trivial_policy(3).entries.items() if (s, x) != (0, 1)}
        entries[(1, 2, mask_of((1, 2)))] = F(1, 2)
        del entries[(2, 1, mask_of((0, 1, 2)))]
        report = validate_policy(ObfuscationPolicy(K=3, entries=entries), joint)
        assert report.support_ok and not report.normalization_ok
        assert report.witness == ("normalization", 1, 2, F(3, 2))
        entries[(1, 2, mask_of((1, 2)))] = F(0)
        report = validate_policy(ObfuscationPolicy(K=3, entries=entries), joint)
        assert report.witness == ("normalization", 2, 1, 0)

    def test_support_violation_detected(self, pair_joint):
        policy = ObfuscationPolicy(K=2, entries={(0, 0, mask_of((1,))): F(1)})
        report = validate_policy(policy, pair_joint)
        assert not report.support_ok
        assert report.witness == ("support", 0, 0, (1,))

    @pytest.mark.parametrize(
        "entry, witness",
        [((0, 0, mask_of((0, 1, 5))), ("support", 0, 0, (0, 1, 5))),
         ((2, 0, mask_of((0,))), ("support", 2, 0, (0,)))],
    )
    def test_entry_outside_the_messages_detected(self, pair_joint, entry, witness):
        entries = dict(trivial_policy(2).entries)
        entries[entry] = F(1)
        report = validate_policy(ObfuscationPolicy(K=2, entries=entries), pair_joint)
        assert not report.support_ok
        assert report.witness == witness

    def test_correlated_singletons_fail_independence(self, pair_joint):
        policy = ObfuscationPolicy(
            K=2, entries={(s, x, 1 << x): F(1) for s in range(2) for x in range(2)}
        )
        report = validate_policy(policy, pair_joint)
        assert report.support_ok and report.normalization_ok
        assert not report.independence_ok
        assert report.witness[0] == "independence"


class TestExpectedCost:
    def test_trivial_policy_costs_capacity(self, pair_joint):
        assert expected_cost(trivial_policy(2), pair_joint, 2) == capacity_cost(2, 2)

    def test_skew_policy_cost(self, skew_cond, skew_joint):
        policy = greedy_policy(skew_cond)
        assert expected_cost(policy, skew_joint, 2) == F(51, 40)

    def test_exact_values_stay_fractions(self, pair_joint, skew_cond):
        # the zero and one these start from must not leak an int
        assert type(expected_cost(ObfuscationPolicy(K=2, entries={}), pair_joint, 2)) is F
        assert type(capacity_cost(2, 1)) is F
        assert all(type(p) is F for p in trivial_policy(3).entries.values())
        assert all(type(v) is F for v in greedy_policy(skew_cond).size_marginal(skew_cond))
        # the rhs is ints over its first entry
        assert all(type(v) is int for v in build_lp(pair_joint, 2).rhs)


def check_policy_law(policy, joint, n_servers=2):
    """The readers of ``policy_weights`` against their Fraction oracles:
    the same validation verdicts and witnesses wherever the oracle does not
    index past a row; where every entry's s and x lie in [K], the same
    expected cost; and where the entries are also non-negative, so that
    the (S, U) law is one, the same subset-independence check, bits
    included."""
    report = validate_policy(policy, joint)
    try:
        expected = fraction_validate_policy(policy, joint)
    except IndexError:
        assert not report.support_ok and report.witness[0] == "support"
    else:
        assert report == expected and repr(report.witness) == repr(expected.witness)
    K = joint.K
    if all(0 <= s < K and 0 <= x < K for s, x, _ in policy.entries):
        cost = expected_cost(policy, joint, n_servers)
        assert type(cost) is F and cost == fraction_expected_cost(policy, joint, n_servers)
    if all(0 <= s < K and 0 <= x < K and p >= 0 for (s, x, _), p in policy.entries.items()):
        check = audit_policy_independence(policy, joint).checks[0]
        assert (check.passed, check.bits, check.witness) == fraction_policy_independence(
            policy, joint
        )
    return report


def broken_policies(policy, K, rng):
    """A valid policy, then that policy with broken normalization, with a
    leak that keeps normalization, and with an entry outside [K]."""
    yield policy
    entries = dict(policy.entries)
    key = rng.choice(sorted(entries))
    entries[key] *= rng.choice((F(1, 2), F(3, 2), 0))
    yield ObfuscationPolicy(K=K, entries=entries)
    # one (s, x) of several subsets moves mass between two of them
    pairs = [(s, x) for s, x in sorted({(s, x) for s, x, _ in policy.entries})
             if len(policy.at(s, x)) > 1]
    if pairs:
        s, x = rng.choice(pairs)
        (u, p), (v, q) = policy.at(s, x)[:2]
        delta = min(p, q) / 2
        entries = dict(policy.entries)
        entries[s, x, u], entries[s, x, v] = p - delta, q + delta
        yield ObfuscationPolicy(K=K, entries=entries)
    yield ObfuscationPolicy(
        K=K, entries={(s, x, 1 << x): F(1) for s in range(K) for x in range(K)}
    )
    for extra in ((0, K, full_mask(K)), (K, 0, 1), (0, 0, 1 << K | 1)):
        yield ObfuscationPolicy(K=K, entries={**policy.entries, extra: F(1)})


def raw_policies(K):
    """Strategy: a table of exact entries, valid or not, with s and x up to
    K and subsets up to K + 1 bits, negative, zero and unnormalized values."""
    keys = st.tuples(
        st.integers(min_value=0, max_value=K),
        st.integers(min_value=0, max_value=K),
        st.integers(min_value=1, max_value=(1 << K + 1) - 1),
    )
    values = st.builds(
        F, st.integers(min_value=-1, max_value=4), st.integers(min_value=1, max_value=6)
    )
    return st.dictionaries(keys, values, max_size=3 * K * K).map(
        lambda entries: ObfuscationPolicy(K=K, entries=entries)
    )


class TestPolicyWeights:
    """The integer (S, X, U) law behind every policy check against the
    Fraction bodies it replaced (oracles.fraction_validate_policy,
    fraction_expected_cost and fraction_policy_independence)."""

    def test_weights_are_the_fraction_law_in_entry_order(self, skew_cond, skew_joint):
        entries = dict(greedy_policy(skew_cond).entries)
        expected = [(key, skew_joint.table[key[0]][key[1]] * p) for key, p in entries.items()]
        entries[(0, 5, 1)] = entries[(5, 0, 1)] = F(1)  # outside [K]: left out
        entries[(0, 0, 3)] = F(0)  # zero: left out
        weights, scale = policy_weights(ObfuscationPolicy(K=3, entries=entries), skew_joint)
        assert all(type(w) is int for w in weights.values())
        assert [(key, F(w, scale)) for key, w in weights.items()] == expected

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_seeded_policies(self, K):
        rng = random.Random(f"policy-law:{K}")
        verdicts = set()
        for i in range(12):
            joint = positive_joint(rng, K) if i % 2 else sparse_joint(rng, K, zero_row=K > 1)
            policies = [solve_lp(build_lp(joint, 2)), trivial_policy(K)]
            if K > 1 and i % 2:
                policies.append(greedy_policy(conditional_from_joint(joint)))
            for policy in policies:
                for case in broken_policies(policy, K, rng):
                    report = check_policy_law(case, joint, n_servers=2 + i % 2)
                    verdicts.add((report.witness or ("ok",))[0])
        assert verdicts == {"ok", "support", "normalization"} | (
            {"independence"} if K > 1 else set()
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda K: st.tuples(cell_matrices(K), raw_policies(K))
    ))
    def test_hypothesis_policies(self, case):
        cells, policy = case
        total = sum(map(sum, cells))
        check_policy_law(policy, validate_joint([[F(c, total) for c in row] for row in cells]))

    def test_empty_policy(self, pair_joint):
        report = check_policy_law(ObfuscationPolicy(K=2, entries={}), pair_joint)
        assert report.witness == ("normalization", 0, 0, 0)


def sample_subset(policy, s, x, rng):
    """The subset drawn for requests (s, x): one exact draw over the
    policy's choices there, as indices."""
    return indices_of(fraction_sampler(policy.at(s, x)).draw(rng))


def check_subset_samplers(policy, joint, draws, seed):
    """``subset_samplers`` builds, pair for pair in (s, x) order, the
    samplers of ``oracles.fraction_subset_samplers``, or refuses the policy
    with its error, of the same type and text."""
    try:
        expected = fraction_subset_samplers(policy, joint)
    except IpirError as exc:
        with pytest.raises(type(exc)) as err:
            subset_samplers(policy, joint)
        assert str(err.value) == str(exc)
        return type(exc)
    samplers = subset_samplers(policy, joint)
    assert list(samplers) == list(expected)
    for pair, sampler in samplers.items():
        assert_same_sampler(sampler, expected[pair], draws, (seed, pair))
    return None


class TestSubsetSamplers:
    """Each pair's sampler over the policy's shares scaled to integers
    against the Fraction sampler it replaced."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_seeded_policies(self, K):
        rng = random.Random(f"subset-samplers:{K}")
        for i in range(4):
            joint = positive_joint(rng, K) if i % 2 else sparse_joint(rng, K, zero_row=K > 1)
            policies = [solve_lp(build_lp(joint, 2)), trivial_policy(K)]
            if K > 1 and i % 2:
                policies.append(greedy_policy(conditional_from_joint(joint)))
            for policy in policies:
                assert check_subset_samplers(policy, joint, 500, (K, i)) is None

    @pytest.mark.parametrize(
        "name, scenario", [("solve_lp", "correlated_pair"), ("greedy", None),
                           ("two_request_transcript", None)]
    )
    def test_file_policies(self, name, scenario, skew_joint):
        data = json.loads((GOLDEN / f"{name}.json").read_text())
        policy = ObfuscationPolicy.from_json_dict(data["policy"])
        if "joint" in data:
            joint = JointDistribution.from_json_dict(data["joint"])
        elif scenario:
            joint = JointDistribution.from_json_dict(
                json.loads((SCENARIOS / f"{scenario}.json").read_text())
            )
        else:
            joint = skew_joint
        assert joint.K == policy.K
        assert check_subset_samplers(policy, joint, 500, name) is None

    @pytest.mark.parametrize(
        "shares, error, message",
        [
            ((F(3, 2), F(-1, 2)), NegativeEntry, "weight -1/2 is negative"),
            ((F(-1, 4), F(5, 4)), NegativeEntry, "weight -1/4 is negative"),
            ((F(1, 3), F(1, 3)), DistributionError, "weights sum to 2/3, expected 1"),
            ((F(2, 3), F(1, 2)), DistributionError, "weights sum to 7/6, expected 1"),
            ((F(0), F(0)), DistributionError, "weights sum to 0, expected 1"),
        ],
        ids=["negative", "negative first", "short", "over", "zero"],
    )
    def test_bad_pairs_are_refused_as_the_fraction_sampler_refused_them(
        self, pair_joint, shares, error, message
    ):
        entries = dict(trivial_policy(2).entries)
        entries[(1, 0, 1)], entries[(1, 0, 3)] = shares
        policy = ObfuscationPolicy(K=2, entries=entries)
        assert check_subset_samplers(policy, pair_joint, 0, 0) is error
        with pytest.raises(error, match=message):
            subset_samplers(policy, pair_joint)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda K: st.tuples(cell_matrices(K), raw_policies(K))
    ))
    def test_hypothesis_policies(self, case):
        cells, policy = case
        total = sum(map(sum, cells))
        joint = validate_joint([[F(c, total) for c in row] for row in cells])
        check_subset_samplers(policy, joint, 50, 0)


class TestSampleSubset:
    def test_deterministic_branch(self, pair_cond):
        policy = greedy_policy(pair_cond)
        for _ in range(20):
            assert sample_subset(policy, 1, 0, fork_rng(0, "d")) == (0,)

    def test_branch_frequencies(self, pair_cond):
        policy = greedy_policy(pair_cond)
        rng = fork_rng(8, "freq")
        n = 100_000
        singles = sum(
            1 for _ in range(n) if sample_subset(policy, 0, 0, rng) == (0,)
        )
        # p = 1/3; three sigmas of a binomial at n = 1e5
        sigma = (1 / 3 * 2 / 3 / n) ** 0.5
        assert abs(singles / n - 1 / 3) < 3.2 * sigma

    def test_repeatable_under_a_fixed_stream(self, pair_cond):
        policy = greedy_policy(pair_cond)
        draws1 = [sample_subset(policy, 0, 0, fork_rng(5, "s", i)) for i in range(50)]
        draws2 = [sample_subset(policy, 0, 0, fork_rng(5, "s", i)) for i in range(50)]
        assert draws1 == draws2

    def test_unsupported_pair(self, pair_cond, pair_joint):
        policy = greedy_policy(pair_cond)
        entries = {key: p for key, p in policy.entries.items() if key[:2] != (0, 1)}
        with pytest.raises(UnsupportedPair, match=r"\(s=0, x=1\)"):
            subset_samplers(ObfuscationPolicy(K=2, entries=entries), pair_joint)

    def test_subset_always_contains_request(self, skew_cond):
        policy = greedy_policy(skew_cond)
        rng = fork_rng(4, "contains")
        for _ in range(500):
            s = rng.randrange(3)
            x = rng.randrange(3)
            assert x in sample_subset(policy, s, x, rng)


class TestPolicySerialization:
    def test_round_trip(self, skew_cond):
        policy = greedy_policy(skew_cond)
        again = ObfuscationPolicy.from_json_dict(policy.to_json_dict())
        assert again == policy

    @pytest.mark.parametrize("K", [2.0, True, "2", None])
    def test_k_that_is_not_an_int_is_refused(self, K):
        data = {"K": K, "entries": [{"s": 0, "x": 0, "u": [0, 1], "p": "1"}]}
        with pytest.raises(DistributionError, match="policy K must be an int"):
            ObfuscationPolicy.from_json_dict(data)

    def test_indices_of_masks(self):
        assert indices_of(mask_of((0, 2, 5))) == (0, 2, 5)
