"""Every export of ``ipir`` ends, on a mutated argument, in a result or an
``IpirError``, never in another exception.

Each case calls one export (a function, a class or one of its building
classmethods) on valid K=2 arguments. A mutation replaces one argument:
with a value of the wrong type, its float twin, a bool, a value out of
range, or the K=3 twin of an argument that carries a K, so that it no
longer matches the others. The examples are derandomized, so a run is
repeatable.
"""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ipir
from ipir import (
    ConditionalMatrix,
    JointDistribution,
    MessageStore,
    MobilityModel,
    PirKey,
    PirSession,
    PrivacySchedule,
    SystemConfig,
    build_lp,
    conditional_from_joint,
    fork_rng,
    greedy_policy,
    initial_posterior,
    likelihood_profile,
    open_session,
    pir_setup,
    validate_joint,
)
from ipir.errors import IpirError
from ipir.obfuscation import policy_weights


class Rng:
    """A fresh seeded stream per call, so cases do not share one."""


def valid_arguments(K: int, L: int):
    """The valid arguments of every case at K messages of L bits."""
    # p(s, x) = 2 / K(K+1) on the diagonal and 1 / K(K+1) off it
    rows = [[F(1 + (s == x), K * (K + 1)) for x in range(K)] for s in range(K)]
    joint = validate_joint(rows)
    cond = conditional_from_joint(joint)
    policy = greedy_policy(cond)
    params = pir_setup(2, range(K), L)
    rng = fork_rng(K, "fuzz")
    model = MobilityModel.build(
        [F(1, K)] * K, [[[F(1, K)] * K for _ in range(K)]]
    )
    weights, scale = policy_weights(policy, joint)
    config, store = SystemConfig(N=2, K=K, L=L, seed=1), MessageStore.random(K, L, rng)
    state = initial_posterior(model)
    _, later = ipir.step_private(state, 1, model, SCHEDULE, config, store, rng)
    return {
        "rows": rows,
        "cond_rows": [[v * K for v in row] for row in rows],
        "joint": joint,
        "cond": cond,
        "policy": policy,
        "config": config,
        "store": store,
        "params": params,
        "key": PirKey.random(params, rng),
        "query": open_session(params, 0, rng).queries[0],
        "profile": likelihood_profile(cond),
        "model": model,
        "state": state,
        "later": later,
        "lp": build_lp(joint, 2),
        "weights": weights,
        "scale": scale,
        "entries": {(s, x): v for s, row in enumerate(joint.table) for x, v in enumerate(row)},
        "K": K,
        "L": L,
    }


SCHEDULE = PrivacySchedule.normalized(2, [0])
BASE, TWIN = valid_arguments(2, 4), valid_arguments(3, 8)


def arg(name):
    return ("ref", name)


# export name -> (callable, positional arguments); ("ref", name) stands
# for BASE[name], and a K=3 twin exists for it
CASES = {
    "ConditionalMatrix.from_rows": (ConditionalMatrix.from_rows, [arg("cond_rows")]),
    "JointDistribution.over": (JointDistribution.over, [[[3, 1], [1, 3]], 8]),
    "MessageStore.random": (MessageStore.random, [arg("K"), arg("L"), Rng]),
    "MessageStore": (MessageStore, [arg("K"), arg("L"), BASE["store"].data]),
    "SystemConfig": (SystemConfig, [2, arg("K"), arg("L"), 0]),
    "capacity_cost": (ipir.capacity_cost, [2, arg("K")]),
    "conditional_from_joint": (conditional_from_joint, [arg("joint")]),
    "fork_rng": (fork_rng, [3, "label"]),
    "validate_joint": (validate_joint, [arg("rows")]),
    "build_lp": (build_lp, [arg("joint"), 2]),
    "expected_cost": (ipir.expected_cost, [arg("policy"), arg("joint"), 2]),
    "greedy_policy": (greedy_policy, [arg("cond")]),
    "likelihood_profile": (likelihood_profile, [arg("cond")]),
    "solve_lp": (ipir.solve_lp, [arg("lp")]),
    "trivial_policy": (ipir.trivial_policy, [arg("K")]),
    "validate_policy": (ipir.validate_policy, [arg("policy"), arg("joint")]),
    "PirKey.random": (PirKey.random, [arg("params"), Rng]),
    "PirSession.from_key": (PirSession.from_key, [arg("params"), 0, arg("key")]),
    "open_session": (open_session, [arg("params"), 1, Rng]),
    "pir_answer": (ipir.pir_answer, [arg("query"), arg("store")]),
    "pir_setup": (pir_setup, [2, [0, 1], arg("L")]),
    "guaranteed_cost_bound": (ipir.guaranteed_cost_bound, [arg("profile"), 2]),
    "retrieve": (ipir.retrieve, [arg("params"), 1, arg("store"), Rng]),
    "run_two_request": (
        ipir.run_two_request,
        [arg("joint"), arg("policy"), arg("config"), arg("store"), 2],
    ),
    "MobilityModel.build": (
        MobilityModel.build, [[F(1, 2)] * 2, [[[F(1, 2)] * 2] * 2]]
    ),
    "PrivacySchedule": (PrivacySchedule, [2, frozenset({0})]),
    "PrivacySchedule.normalized": (PrivacySchedule.normalized, [2, [0]]),
    "initial_posterior": (initial_posterior, [arg("model")]),
    "simulate": (
        ipir.simulate,
        [arg("model"), SCHEDULE, arg("config"), arg("store"), "lp"],
    ),
    "step_nonprivate": (
        ipir.step_nonprivate,
        [arg("later"), 1, 0, arg("model"), SCHEDULE, arg("config"), arg("store"), Rng, "greedy"],
    ),
    "step_private": (
        ipir.step_private,
        [arg("state"), 1, arg("model"), SCHEDULE, arg("config"), arg("store"), Rng],
    ),
    "audit_online_privacy": (ipir.audit_online_privacy, [arg("weights"), arg("scale")]),
    "audit_policy_independence": (
        ipir.audit_policy_independence, [arg("policy"), arg("joint")]
    ),
    "audit_query_privacy": (
        ipir.audit_query_privacy,
        [arg("joint"), arg("policy"), arg("config"), "empirical", 0],
    ),
    "check_size_bound": (ipir.check_size_bound, [arg("policy"), arg("cond")]),
    "mutual_information": (ipir.mutual_information, [arg("entries")]),
}
# the records: each class is called on the fields of a valid instance
RECORDS = [
    ipir.audit_policy_independence(BASE["policy"], BASE["joint"]),
    ipir.run_two_request(BASE["joint"], BASE["policy"], BASE["config"], BASE["store"], 2),
    open_session(BASE["params"], 0, fork_rng(0, "fuzz-record")),
    *(BASE[name] for name in ("joint", "cond", "policy", "profile", "params", "key",
                              "query", "model", "state")),
]
for _record in RECORDS:
    CASES[type(_record).__name__] = (
        type(_record),
        [getattr(_record, f.name) for f in dataclasses.fields(_record) if f.init],
    )
CASES["CostReport"] = (ipir.CostReport, [F(3, 2)])


def test_every_export_has_a_case():
    exports = {name for name in dir(ipir) if not name.startswith("_")}
    modules = {"core", "obfuscation", "simplex", "pir", "intermittent", "location",
               "audit", "net", "cli", "errors"}
    assert exports - modules - {name.split(".")[0] for name in CASES} == set()


def is_ref(value):
    return isinstance(value, tuple) and len(value) == 2 and value[0] == "ref"


def resolve(value):
    """An argument as a call takes it: a fresh stream, or BASE's value."""
    if value is Rng:
        return fork_rng(0, "fuzz-call")
    return BASE[value[1]] if is_ref(value) else value


def deep(value, f):
    """``value`` with ``f`` applied to every number in it, containers as lists."""
    if isinstance(value, (list, tuple, frozenset)):
        return [deep(v, f) for v in value]
    return f(value) if isinstance(value, (int, F)) and type(value) is not bool else value


def mutations(value, name):
    """The mutated stand-ins for one argument: wrong type, float twin,
    bool, out of range, and the K=3 twin of an argument with a K.

    A record or a stream is only swapped for another K's, and a container
    keeps its kind: its entries are mutated, and its length. A value of
    another kind altogether there (a str for a law, None for a row list)
    is a programming error, which Python reports as it does."""
    out = [TWIN[name]] if name is not None else []
    if isinstance(value, random.Random) or dataclasses.is_dataclass(value):
        return out
    if value is None:
        return ["x", 0, []]
    if isinstance(value, (list, tuple, frozenset)):
        items = list(value)
        return out + [
            [], items + items[:1], items[:-1],
            deep(items, float), deep(items, lambda v: -v - 1), deep(items, lambda v: True),
            deep(items, lambda v: "x"), deep(items, lambda v: None),
        ]
    if isinstance(value, dict):
        items = list(value.items())
        label = tuple(v + 5 for v in items[0][0])
        return out + [{k: f(v) for k, v in items} for f in (float, lambda v: -v, str)] + [
            {**value, label: items[0][1]}
        ]
    out += ["x", None]
    if type(value) is bool:
        return out + [1.0, 1]
    if type(value) is int:
        return out + [float(value), True, False, -1, 0, value + 1, 2 * value + 1]
    if type(value) is float:
        return out + [True, -value, 1 + value, math.nan]
    if isinstance(value, F):
        return out + [float(value), -value, value + 1]
    if isinstance(value, str):
        return out + [1, "bogus"]
    raise AssertionError(f"no mutations for {value!r}")


CALLS = sorted(CASES)
# every (export, argument index, stand-in) the test draws from
MUTATED = [
    (name, i, replacement)
    for name in CALLS
    for i, value in enumerate(CASES[name][1])
    for replacement in mutations(resolve(value), value[1] if is_ref(value) else None)
]


def call_sized(fn, values):
    """``fn(*values)``, with an empirical audit drawing 20 samples per
    private value."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ipir.audit, "EMPIRICAL_TRIALS", 20)
        return fn(*values)


class TestFuzzedLibraryCalls:
    def test_every_case_runs_unmutated(self):
        for name in CALLS:
            fn, args = CASES[name]
            call_sized(fn, [*map(resolve, args)])

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(MUTATED))
    def test_mutated_argument_gives_a_result_or_an_ipir_error(self, call):
        name, i, replacement = call
        fn, args = CASES[name]
        values = [*map(resolve, args)]
        values[i] = replacement
        try:
            call_sized(fn, values)
        except IpirError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"{name} with argument {i} = {replacement!r}: {type(exc).__name__}: {exc}")
