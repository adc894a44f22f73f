"""The benchmark's tracer wraps library functions by name; a rename or a
call that bypasses the wrapped name must fail here, not in the benchmark."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import ipir
from ipir import audit, intermittent, location, net, pir
from ipir.core import (
    MessageStore,
    SystemConfig,
    conditional_from_joint,
    fork_rng,
    validate_joint,
)
from ipir.obfuscation import greedy_policy

from oracles import simulate_stepwise

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_point():
    tracer = load_tracer()
    points = tracer.trace_points(ipir)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in points]

    joint = validate_joint([[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]])
    policy = greedy_policy(conditional_from_joint(joint))
    config = SystemConfig(N=2, K=2, L=4, seed=3)
    store = MessageStore.random(2, 4, fork_rng(3, "store"))
    model = location.MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
    )
    schedule = location.PrivacySchedule(horizon=2, private=frozenset({0}))

    # called through their modules, as the benchmark's workloads call them
    with tracer.Tracer(ipir) as t:
        intermittent.run_two_request(
            joint, policy, config, store, trials=3, keep_transcripts=True
        )
        location.simulate(model, schedule, config, store)

    # every retrieval goes through the traced names: 3 trials x 2 + 3 steps,
    # with one answer per server
    for name in ("pir.open_session", "pir.key_draw", "pir.decode"):
        assert t.count(name) == 9, name
    assert t.count("pir.answer") == 9 * config.N
    assert t.count("intermittent.run_two_request") == 1
    assert t.count("location.simulate") == 1
    assert t.count("location.step_private") == 1
    assert t.count("location.step_nonprivate") == 2
    assert t.counters["pir.answer_bits"] > 0
    assert [owner.__dict__[attr] for owner, attr, _, _ in points] == originals


def test_loopback_exchanges_and_replica_answers_are_traced():
    # net.exchange_s and net.server_eval_s read these two points: each
    # exchange must go through RemoteTransport.__call__, and each replica
    # must answer through the pir_answer name that net imported
    tracer = load_tracer()
    store = MessageStore.random(2, 4, fork_rng(9, "store"))
    params = pir.pir_setup(2, (0, 1), 4)
    rng = fork_rng(9, "keys")
    exchanges = 5

    with tracer.Tracer(ipir) as t:
        servers = [net.serve(store) for _ in range(params.n_servers)]
        transport = net.RemoteTransport(addresses=[s.address for s in servers])
        try:
            for i in range(exchanges):
                session = pir.open_session(params, i % 2, rng)
                assert session.decode(transport(session.queries)) == store.data[i % 2]
        finally:
            transport.close()
            for server in servers:
                server.close()

    assert t.count("net.exchange") == exchanges
    assert t.count("net.server_eval") == exchanges * params.n_servers
    assert t.errors("net.exchange") == t.errors("net.server_eval") == 0
    assert t.busy("net.exchange") > 0 and t.busy("net.server_eval") > 0


def test_every_session_draws_one_traced_key():
    # pir.key_draw_s and pir.plan_s read the key-draw point and the
    # session's self time: on the two-request and the location runs each
    # session must draw its key through the traced name, and both spans
    # must take time
    tracer = load_tracer()
    joint = validate_joint([[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]])
    config = SystemConfig(N=2, K=2, L=4, seed=8)
    store = MessageStore.random(2, 4, fork_rng(8, "store"))
    model = location.MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
    )
    schedule = location.PrivacySchedule(horizon=3, private=frozenset({0}))
    runs = [
        lambda: intermittent.run_two_request(
            joint, greedy_policy(conditional_from_joint(joint)), config, store, trials=4
        ),
        lambda: location.simulate(model, schedule, config, store),
    ]
    for run in runs:
        with tracer.Tracer(ipir) as t:
            run()
        assert t.count("pir.open_session") > 0
        assert t.count("pir.key_draw") == t.count("pir.open_session")
        assert t.busy("pir.key_draw") > 0
        assert t.busy("pir.open_session") > 0


def test_posterior_spans_cover_every_update():
    # location.posterior_s sums these two spans: one advance per step
    # before the horizon and one conditioning per non-private step, however
    # the posterior state is represented
    tracer = load_tracer()
    model = location.MobilityModel.build(
        [F(1, 3), F(2, 3)], [[[F(3, 4), F(1, 4)], [F(1, 3), F(2, 3)]]]
    )
    schedule = location.PrivacySchedule(horizon=7, private=frozenset({0, 3}))
    config = SystemConfig(N=2, K=2, L=4, seed=4)
    store = MessageStore.random(2, 4, fork_rng(4, "store"))

    with tracer.Tracer(ipir) as t:
        location.simulate(model, schedule, config, store)

    assert t.count("location.advance_posterior") == schedule.horizon
    assert t.count("location.condition_posterior") == schedule.horizon + 1 - 2
    assert t.errors("location.advance_posterior") == 0
    assert t.busy("location.advance_posterior") > 0
    assert t.busy("location.condition_posterior") > 0


def distinct_posteriors(model, schedule, config, store):
    """Distinct posteriors over the non-private steps of the step-by-step
    run, which solves one LP at each of them."""
    posteriors = []
    simulate_stepwise(model, schedule, config, store, posteriors=posteriors)
    return len(set(posteriors))


def assert_policy_layers_seen(t):
    # the per-simulation reuse of solved posteriors must leave the spans
    # behind location.policy_s and audit.online_s in place
    assert t.count("location.policy_for_posterior") >= 1
    assert t.count("audit.audit_online_privacy") >= 1


def test_one_simplex_solve_per_lp_policy():
    # the bench's simplex.calls counts covering LPs: solve_lp routes each
    # private row by a flow, never by another simplex solve, and a
    # simulation solves each distinct posterior once
    tracer = load_tracer()
    model = location.MobilityModel.build(
        [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 3), F(2, 3)]]]
    )
    schedule = location.PrivacySchedule(horizon=4, private=frozenset({0}))
    config = SystemConfig(N=2, K=2, L=4, seed=5)
    store = MessageStore.random(2, 4, fork_rng(5, "store"))

    with tracer.Tracer(ipir) as t:
        location.simulate(model, schedule, config, store, solver="lp")

    # steps 1..4 are non-private, one LP policy per distinct posterior
    assert t.count("obfuscation.solve_lp") == distinct_posteriors(model, schedule, config, store)
    assert t.count("simplex.minimize") == t.count("obfuscation.solve_lp")
    assert_policy_layers_seen(t)


def test_covering_lp_has_no_slack_columns():
    # at K=3 the covering LP has a variable per proper subset (6) and a row
    # per proper subset plus the total-mass row (7); the bench reads these
    # as obfuscation.lp_vars and obfuscation.lp_rows
    tracer = load_tracer()
    third = F(1, 3)
    model = location.MobilityModel.build(
        [third] * 3,
        [[[F(1, 2), F(1, 4), F(1, 4)], [F(1, 6), F(2, 3), F(1, 6)], [F(1, 5), F(1, 5), F(3, 5)]]],
    )
    schedule = location.PrivacySchedule(horizon=3, private=frozenset({0}))
    config = SystemConfig(N=2, K=3, L=8, seed=6)
    store = MessageStore.random(3, 8, fork_rng(6, "store"))

    with tracer.Tracer(ipir) as t:
        location.simulate(model, schedule, config, store, solver="lp")

    builds = t.count("obfuscation.build_lp")
    assert builds == distinct_posteriors(model, schedule, config, store)
    assert t.counters["obfuscation.lp_vars"] == 6 * builds
    assert t.counters["obfuscation.lp_rows"] == 7 * builds
    assert_policy_layers_seen(t)


def test_empirical_audit_samples_patterns_without_sessions():
    # a sample draws the request and the subset through the traced sampler
    # and the key's shuffles straight into combo orders: no key object or
    # session is built and query_pattern is never called
    tracer = load_tracer()
    joint = validate_joint([[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]])
    policy = greedy_policy(conditional_from_joint(joint))
    config = SystemConfig(N=2, K=2, L=4, seed=7)
    trials = 50

    with tracer.Tracer(ipir) as t:
        report = audit.audit_query_privacy(
            joint, policy, config, mode="empirical", trials=trials
        )

    assert report.mode == "empirical"
    assert t.count("audit.audit_query_privacy") == 1
    assert t.count("core.draw") == 2 * trials * joint.K
    # no PirKey is built, so the tracer's key-draw point never fires: the
    # key shuffles run untraced inside the draw of pir.order_key_plan,
    # which has no point, as does the scatter of each distinct key,
    # pir.slot_orders
    assert t.count("pir.key_draw") == 0
    assert t.count("pir.open_session") == 0
    assert t.count("audit.query_pattern") == 0
