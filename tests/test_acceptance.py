"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not configured elsewhere.
"""

import random
import time
from fractions import Fraction as F

from ipir.core import (
    ConditionalMatrix,
    MessageStore,
    SystemConfig,
    capacity_cost,
    conditional_from_joint,
    fork_rng,
    validate_joint,
)
from ipir.audit import (
    audit_policy_independence,
    audit_leak_equivalence,
    audit_query_privacy,
    check_size_bound,
)
from ipir.intermittent import (
    guaranteed_cost_bound,
    local_transport,
    retrieve,
    run_two_request,
)
from ipir.location import MobilityModel, PrivacySchedule, simulate
from ipir.net import RemoteTransport, serve
from ipir.obfuscation import (
    build_lp,
    expected_cost,
    greedy_policy,
    indices_of,
    likelihood_profile,
    solve_lp,
)
from ipir import pir

from oracles import enumerate_mechanism, fraction_sampler, node_query_leak, step_law

PAIR_TABLE = [[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]]
SKEW_ROWS = [
    [F(1, 10), F(3, 10), F(6, 10)],
    [F(5, 10), F(4, 10), F(1, 10)],
    [F(2, 10), F(5, 10), F(3, 10)],
]


def announce(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def random_cond(rng, K, denmax=60):
    rows = []
    for _ in range(K):
        d = rng.randrange(1, denmax + 1)
        cuts = sorted(rng.randrange(0, d + 1) for _ in range(K - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        rows.append([F(p, d) for p in parts])
    return ConditionalMatrix.from_rows(rows)


def criterion3_instances():
    """The shared random-instance stream for criteria 3 and 4."""
    rng = random.Random(0xACCE97)
    for index in range(200):
        K = 2 + index % 4  # cycles K = 2, 3, 4, 5
        yield K, random_cond(rng, K)


def test_criterion_1_two_request_reproduction():
    started = time.time()
    joint = validate_joint(PAIR_TABLE)
    cond = conditional_from_joint(joint)
    policy = greedy_policy(cond)
    config = SystemConfig(N=2, K=2, L=4, seed=0xA1)
    store = MessageStore.random(2, 4, fork_rng(config.seed, "store"))

    # (a) the private request is a full-scheme retrieval of exactly 6 bits
    full = pir.pir_setup(config.N, range(config.K), config.L)
    record = retrieve(full, 0, store, fork_rng(config.seed, "private"))
    bits_private = sum(map(len, record.answers))
    ok_a = bits_private == 6 and record.cost.total == F(3, 2) == capacity_cost(2, 2)

    # (b) conditioned on equal requests, the branch mix downloads 16/3 bits
    # on average: 1/3 direct (4 bits), 2/3 hidden (6 bits)
    sampler = fraction_sampler(policy.at(0, 0))
    params = {
        mask: pir.pir_setup(config.N, indices_of(mask), config.L)
        for mask, _ in policy.at(0, 0)
    }
    trials = 100_000
    rng = fork_rng(config.seed, "equal-requests")
    bits = 0
    for _ in range(trials):
        mask = sampler.draw(rng)
        session = pir.open_session(params[mask], 0, rng)
        answers = [pir.pir_answer(q, store) for q in session.queries]
        assert session.decode(answers) == store.data[0]
        bits += sum(map(len, answers))
    mean_bits = bits / trials
    ok_b = abs(mean_bits - 16 / 3) <= 0.05

    # (c) the overall expected cost is exactly 5/4 and the Monte-Carlo run
    # lands within 0.01 of it (the private side is executed once per value
    # of s; its cost is deterministic and already pinned by (a))
    report = run_two_request(
        joint, policy, config, store, trials=100_000, private_each_trial=False
    )
    ok_c = (
        report.cost_x_expected == F(5, 4)
        and abs(float(report.cost_x_empirical) - 1.25) <= 0.01
    )

    elapsed = time.time() - started
    announce(
        "1",
        ok_a and ok_b and ok_c and elapsed < 10.0,
        f"private={bits_private} bits, equal-request mean={mean_bits:.4f} "
        f"(target 16/3≈5.3333), empirical={float(report.cost_x_empirical):.4f} "
        f"(exact {report.cost_x_expected}), {elapsed:.1f}s < 10s",
    )


def test_criterion_2_constructive_table_reproduction():
    started = time.time()
    cond = ConditionalMatrix.from_rows(SKEW_ROWS)
    joint = validate_joint(
        [[cond.rows[s][x] / 3 for x in range(3)] for s in range(3)]
    )
    policy = greedy_policy(cond)

    sizes = policy.size_marginal(cond)
    ok_sizes = sizes == (F(1, 2), F(2, 5), F(1, 10))
    ok_indep = audit_policy_independence(policy, joint).passed
    bound_report = check_size_bound(policy, cond)
    ok_bound_equality = bound_report.passed and all(
        c.bits == 0.0 for c in bound_report.checks
    )
    cost = expected_cost(policy, joint, 2)
    ok_cost = cost == F(51, 40)

    elapsed = time.time() - started
    announce(
        "2",
        ok_sizes and ok_indep and ok_bound_equality and ok_cost and elapsed < 1.0,
        f"size law={tuple(str(v) for v in sizes)}, independence exact, "
        f"size bound tight, cost={cost}, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_construction_guarantee_suite():
    started = time.time()
    checked = 0
    for K, cond in criterion3_instances():
        profile = likelihood_profile(cond)
        policy = greedy_policy(cond)
        sizes = policy.size_marginal(cond)
        cum = F(0)
        cum_w = F(0)
        for i in range(K):
            cum += sizes[i]
            cum_w += profile.size_weights[i]
            assert cum >= cum_w, (K, i, cond.rows)
        joint = validate_joint(
            [[cond.rows[s][x] / K for x in range(K)] for s in range(K)]
        )
        for n in (2, 3):
            assert expected_cost(policy, joint, n) <= guaranteed_cost_bound(profile, n)
        checked += 1
    elapsed = time.time() - started
    announce(
        "3",
        checked == 200 and elapsed < 60.0,
        f"{checked} random instances (K=2..5): size law dominates the "
        f"guarantee and cost stays under the bound for N=2,3; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_4_lp_optimality_sandwich():
    started = time.time()
    pair_joint = validate_joint(PAIR_TABLE)
    pair_lp = solve_lp(build_lp(pair_joint, 2))
    exact_pair = expected_cost(pair_lp, pair_joint, 2)
    ok_pair = exact_pair == F(5, 4)

    checked = 0
    for K, cond in criterion3_instances():
        if K > 4:
            continue
        joint = validate_joint(
            [[cond.rows[s][x] / K for x in range(K)] for s in range(K)]
        )
        lp_cost = expected_cost(solve_lp(build_lp(joint, 2)), joint, 2)
        greedy_cost = expected_cost(greedy_policy(cond), joint, 2)
        assert 1 <= lp_cost <= greedy_cost, (K, lp_cost, greedy_cost, cond.rows)
        checked += 1
    elapsed = time.time() - started
    announce(
        "4",
        ok_pair and checked == 150,
        f"pair optimum = {exact_pair} exactly; LP in [1, greedy] on "
        f"{checked} instances with K<=4 ({elapsed:.1f}s)",
    )


def test_criterion_5_query_privacy_exact_and_empirical():
    started = time.time()
    joint = validate_joint(PAIR_TABLE)
    policy = greedy_policy(conditional_from_joint(joint))
    config = SystemConfig(N=2, K=2, L=4, seed=0xA5)

    exact = audit_query_privacy(joint, policy, config, mode="exact")
    ok_exact = exact.passed and exact.mode == "exact" and len(exact.checks) == 2
    equivalence = audit_leak_equivalence(joint, policy, config)
    ok_equivalence = equivalence.passed

    skew_cond = ConditionalMatrix.from_rows(SKEW_ROWS)
    skew_joint = validate_joint(
        [[skew_cond.rows[s][x] / 3 for x in range(3)] for s in range(3)]
    )
    skew_policy = greedy_policy(skew_cond)
    config3 = SystemConfig(N=2, K=3, L=8, seed=0xA5)
    empirical = audit_query_privacy(
        skew_joint, skew_policy, config3, mode="empirical",
        trials=100_000, threshold=0.01,
    )
    ok_empirical = empirical.passed
    # the same instance read off its query orbits, exactly
    exact3 = audit_query_privacy(skew_joint, skew_policy, config3, mode="exact")
    ok_exact3 = exact3.mode == "exact" and exact3.passed and exact3.passed == ok_empirical

    elapsed = time.time() - started
    subset_tvs = [
        round(c.bits, 4) for c in empirical.checks if "subset marginal" in c.name
    ]
    announce(
        "5",
        ok_exact and ok_equivalence and ok_empirical and ok_exact3 and elapsed < 300.0,
        f"exact enumeration zero at both servers, equivalence holds, "
        f"empirical subset TVs={subset_tvs} < 0.01 at 1e5 trials, "
        f"K=3 L=8 exact zero too; "
        f"{elapsed:.1f}s < 300s",
    )


SCHEDULES = [
    (3, {0}),
    (3, {0, 2}),
    (4, {0, 1, 3}),
    (4, {0, 3}),
    (3, {0, 1, 2, 3}),
]


def test_criterion_6_tracked_posterior_equals_brute_force():
    started = time.time()
    model = MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
    )
    config = SystemConfig(N=2, K=2, L=4, seed=0xA6)
    store = MessageStore.random(2, 4, fork_rng(config.seed, "store"))

    nodes_checked = 0
    for horizon, private in SCHEDULES:
        schedule = PrivacySchedule(horizon=horizon, private=frozenset(private))
        for node in enumerate_mechanism(model, schedule, config):
            assert node.tracked.law.table == node.brute_joint, (
                private, node.t, node.history,
            )
            if node.policy is not None:
                from ipir.audit import audit_online_privacy

                assert audit_online_privacy(*step_law(node.tracked, node.policy)).passed
            nodes_checked += 1
        # decoded content matches the store on simulated traces
        for seed in range(3):
            cfg = SystemConfig(N=2, K=2, L=4, seed=seed)
            st = MessageStore.random(2, 4, fork_rng(seed, "store"))
            report = simulate(model, schedule, cfg, st)
            assert report.all_decoded(st)
            assert report.all_private_zero()

    elapsed = time.time() - started
    announce(
        "6",
        nodes_checked > 0 and elapsed < 120.0,
        f"{nodes_checked} realizable histories over {len(SCHEDULES)} schedules: "
        f"tracked = brute-force posterior exactly, per-step leakage 0, "
        f"decodes verified; {elapsed:.1f}s < 120s",
    )


def test_criterion_7_trace_level_privacy_by_enumeration():
    started = time.time()
    model = MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
    )
    config = SystemConfig(N=2, K=2, L=4, seed=0xA7)
    leaks_checked = 0
    for horizon, private in SCHEDULES:
        schedule = PrivacySchedule(horizon=horizon, private=frozenset(private))
        for node in enumerate_mechanism(model, schedule, config):
            for server in range(config.N):
                zero, bits = node_query_leak(node, schedule, config, server)
                assert zero, (private, node.t, node.history, server, bits)
                leaks_checked += 1
    elapsed = time.time() - started
    announce(
        "7",
        leaks_checked > 0,
        f"{leaks_checked} (history, server) pairs: all private locations "
        f"carry zero information into the step query ({elapsed:.1f}s)",
    )


def test_criterion_8_transport_transparency(recording_transport):
    started = time.time()
    joint = validate_joint(PAIR_TABLE)
    policy = greedy_policy(conditional_from_joint(joint))
    config = SystemConfig(N=2, K=2, L=4, seed=0xA8)
    store = MessageStore.random(2, 4, fork_rng(config.seed, "store"))

    servers = [serve(store) for _ in range(2)]
    transport = RemoteTransport(addresses=[s.address for s in servers])
    try:
        networked = run_two_request(
            joint, policy, config, store, trials=400,
            transport=transport, keep_transcripts=True,
        )
        local = run_two_request(
            joint, policy, config, store, trials=400, keep_transcripts=True
        )
        same_two_request = (
            networked.cost_x_empirical == local.cost_x_empirical
            and networked.samples == local.samples
            and all(
                tn.private.queries == tl.private.queries
                and tn.private.answers == tl.private.answers
                and tn.nonprivate.queries == tl.nonprivate.queries
                and tn.nonprivate.answers == tl.nonprivate.answers
                for tn, tl in zip(networked.transcripts, local.transcripts)
            )
        )
        expected_bits = sum(
            sum(len(q.combos) for q in t.private.queries)
            + sum(len(q.combos) for q in t.nonprivate.queries)
            for t in local.transcripts
        )
        wire_ok = transport.answer_bits == expected_bits

        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        schedule = PrivacySchedule(horizon=4, private=frozenset({0, 3}))
        loc_transport = RemoteTransport(addresses=[s.address for s in servers])
        net_recorder, net_exchanges = recording_transport(loc_transport)
        local_recorder, local_exchanges = recording_transport(local_transport(store))
        net_report = simulate(
            model, schedule, config, store, transport=net_recorder
        )
        local_report = simulate(model, schedule, config, store, transport=local_recorder)
        same_location = (
            net_report.trace == local_report.trace
            and net_report.total_cost == local_report.total_cost
            and all(
                a.subset == b.subset and a.decoded == b.decoded
                for a, b in zip(net_report.steps, local_report.steps, strict=True)
            )
            and len(local_exchanges) == schedule.horizon + 1
            and net_exchanges == local_exchanges
        )
        loc_bits = sum(
            sum(len(q.combos) for q in queries) for queries, _ in local_exchanges
        )
        wire_location_ok = loc_transport.answer_bits == loc_bits
        loc_transport.close()
    finally:
        transport.close()
        for s in servers:
            s.close()

    elapsed = time.time() - started
    announce(
        "8",
        same_two_request and wire_ok and same_location and wire_location_ok,
        f"networked = in-process transcripts for both scenarios; wire answer "
        f"bits match the in-library lengths exactly ({elapsed:.1f}s)",
    )
