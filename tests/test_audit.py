import importlib
import inspect
import logging
import math
import pkgutil
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import ipir
from ipir.core import (
    MessageStore,
    SystemConfig,
    WeightedSampler,
    conditional_from_joint,
    scale_to_integers,
    validate_joint,
)
from ipir.audit import (
    AuditReport,
    _empirical_checks,
    _factorization,
    _order_counts,
    _query_laws,
    audit_online_privacy,
    audit_policy_independence,
    audit_query_privacy,
    check_size_bound,
    mutual_information,
    total_variation,
)
from ipir.location import (
    MobilityModel,
    PosteriorState,
    PrivacySchedule,
    advance_posterior,
    initial_posterior,
    policy_for_posterior,
)
from ipir.errors import (
    DesiredNotInSubset,
    DistributionError,
    InvalidParams,
    NegativeEntry,
    UnsupportedPair,
)
from ipir.intermittent import run_two_request
from ipir.obfuscation import (
    ObfuscationPolicy,
    build_lp,
    check_k,
    expected_cost,
    greedy_policy,
    indices_of,
    mask_of,
    policy_weights,
    solve_lp,
    subset_samplers,
    trivial_policy,
    validate_policy,
)
from ipir import audit, intermittent, pir

from oracles import (
    enumerate_mechanism,
    fraction_independence_witness,
    fraction_leak_equivalence,
    fraction_mutual_information,
    fraction_policy_independence,
    fraction_query_law,
    fraction_query_privacy,
    fraction_sampler,
    key_count,
    keyed_order_counts,
    node_query_leak,
    online_privacy_factorization,
    orbit_sizes,
    order_pattern,
    query_counts,
    query_history_equivalence,
    query_laws,
    sample_order_key,
    sample_orders,
    session_pattern_counts,
    step_law,
)


def singleton_policy(K):
    return ObfuscationPolicy(
        K=K, entries={(s, x, 1 << x): F(1) for s in range(K) for x in range(K)}
    )


def orbit_of(N, L, combos):
    """The orbit ``(mask, label)`` of ``_query_laws`` read off one query:
    the mask of its messages, and the sorted masks of its combos over
    subset positions, which must be the same in every block."""
    subset = sorted({msg for combo in combos for msg, _ in combo})
    block = N ** len(subset)
    blocks = [[] for _ in range(L // block)]
    for combo in combos:
        blocks[combo[0][1] // block].append(mask_of(subset.index(msg) for msg, _ in combo))
    (label,) = {tuple(sorted(masks)) for masks in blocks}
    return mask_of(subset), label


def by_orbit(entries: dict, N, L) -> dict:
    """A query law ``entries[s, combos]`` summed over each query's orbit
    ``orbit_of``: the orbit law of ``_query_laws``, in Fractions."""
    law: dict = {}
    for (s, combos), p in entries.items():
        key = (s, orbit_of(N, L, combos))
        law[key] = law.get(key, 0) + p
    return law


# How far the bits of an orbit law may lie from those of the key walk's
# query-by-query law: the same mutual information, summed in fewer float
# terms. About 8x the largest gap, 1.3e-12, seen on random instances.
KEY_WALK_TOL = 1e-11


def assert_matches_key_walk(report: AuditReport, expected: AuditReport):
    """``report`` against the key walk's ``expected``: the same mode,
    names, verdicts and witnesses, and bits within KEY_WALK_TOL."""
    assert report.mode == expected.mode
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        (c.name, c.passed, c.witness) for c in expected.checks
    ]
    for check, reference in zip(report.checks, expected.checks):
        assert math.isclose(check.bits, reference.bits, rel_tol=0, abs_tol=KEY_WALK_TOL)


def subset_bits(policy, joint) -> float:
    """The bits of ``audit_policy_independence``: those of every exact
    query-level leak whose orbit labels do not depend on the desired
    position, the orbit law then being the (S, U) law relabelled."""
    return audit_policy_independence(policy, joint).checks[0].bits


def assert_reads_the_subset_law(report: AuditReport, policy, joint):
    """Every check of ``report``, an exact ``audit_query_privacy`` report,
    reads the subset law's verdict, bits and first s. So it is wherever the
    orbit labels do not depend on the desired position, as at every
    library template."""
    subset = audit_policy_independence(policy, joint).checks[0]
    witness = None if subset.passed else subset.witness[0]
    for check in report.checks:
        assert (check.passed, check.bits, check.witness) == (subset.passed, subset.bits, witness)


def full_set_leak():
    """A K=2 policy that releases the full set at s = 0 and the request
    alone at s = 1."""
    entries = {(0, 0, 3): F(1), (0, 1, 3): F(1), (1, 0, 1): F(1), (1, 1, 2): F(1)}
    return ObfuscationPolicy(K=2, entries=entries)


def assert_orbits_match_enumeration(params):
    """``pir.query_orbits`` against a walk over every key: each server's
    orbit holds as many queries as ``orbit_sizes`` reads off its label,
    each reached by key_count / size keys, and two desired positions share
    a label iff their enumerated query laws are equal."""
    total = key_count(params)
    counts = {desired: query_counts(params, desired) for desired in params.subset}
    labels = {desired: pir.query_orbits(params, desired) for desired in params.subset}
    for desired, per_server in counts.items():
        sizes = orbit_sizes(params, desired)
        assert len(labels[desired]) == len(sizes) == len(per_server) == params.n_servers
        for label, size, by_query in zip(labels[desired], sizes, per_server):
            assert len(by_query) == size
            assert set(by_query.values()) == {total // size}
            assert {orbit_of(params.n_servers, params.L, q) for q in by_query} == {
                (mask_of(params.subset), label)
            }
    for server in range(params.n_servers):
        for d1 in params.subset:
            for d2 in params.subset:
                same = labels[d1][server] == labels[d2][server]
                assert same == (counts[d1][server] == counts[d2][server])


class TestMutualInformation:
    def test_independent_uniform(self):
        entries = {(a, b): F(1, 4) for a in range(2) for b in range(2)}
        assert mutual_information(entries) == (True, 0.0)

    def test_correlated_pair_bits(self, pair_joint):
        entries = {(s, x): pair_joint.table[s][x] for s in range(2) for x in range(2)}
        zero, bits = mutual_information(entries)
        assert not zero
        # independent formula: 2*(3/8)lg(3/2) + 2*(1/8)lg(1/2)
        expected = 2 * (3 / 8) * math.log2(3 / 2) + 2 * (1 / 8) * math.log2(1 / 2)
        assert abs(bits - expected) < 1e-12

    def test_point_mass_factorizes(self):
        assert mutual_information({(1, 1): F(1)}) == (True, 0.0)

    def test_structural_zero_detected(self):
        # marginals full but a product cell is missing
        zero, bits = mutual_information({(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert not zero and bits > 0.9

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): F(3, 2), (1, 1): F(-1, 2)},
            {(0, 0): F(3, 2), (0, 1): F(-1, 2)},
            {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): F(-1, 2)},
        ],
        ids=["math domain", "silent", "division by zero"],
    )
    def test_negative_entry_is_refused(self, entries):
        with pytest.raises(NegativeEntry, match="= -1/2 is negative"):
            mutual_information(entries)


def independence_witness(entries: dict):
    """The witness of ``_factorization`` for the law ``entries``, scaled
    to integers over one common denominator."""
    numerators, scale = scale_to_integers(entries.values())
    return _factorization(dict(zip(entries, numerators)), scale)[2]


def assert_same_factorization(entries):
    """The integer factorization of the library against the Fraction one
    it replaced: the same verdict, bit-identical bits, the same witness."""
    expected = fraction_mutual_information(entries)
    assert mutual_information(entries) == expected
    assert independence_witness(entries) == fraction_independence_witness(entries)
    return expected


# an exact entry: a Fraction, possibly zero, or a plain int
exact_entries = st.one_of(
    st.builds(F, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=12)),
    st.integers(min_value=0, max_value=3),
)


def policies(K):
    """Strategy: a policy-shaped table of exact entries, valid or not."""
    keys = st.tuples(
        st.integers(min_value=0, max_value=K - 1),
        st.integers(min_value=0, max_value=K - 1),
        st.integers(min_value=1, max_value=(1 << K) - 1),
    )
    values = st.builds(
        F, st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=6)
    )
    return st.dictionaries(keys, values, max_size=3 * K * K).map(
        lambda entries: ObfuscationPolicy(K=K, entries=entries)
    )


class TestIntegerFactorization:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("abc")),
            exact_entries,
            max_size=12,
        )
    )
    def test_hypothesis_joints(self, entries):
        # zero entries, int entries, and a mass that need not be 1
        assert_same_factorization(entries)

    def test_mass_other_than_one(self):
        # p(a,b) = p(a) p(b) holds for a product law of mass 1 and fails
        # once it is scaled to mass 3, in both arithmetics alike
        product = {(a, b): F(a + 1, 3) * F(b + 2, 9) for a in range(2) for b in range(3)}
        assert assert_same_factorization(product) == (True, 0.0)
        assert not assert_same_factorization({k: 3 * v for k, v in product.items()})[0]

    def test_int_entries(self):
        # a point mass written in ints, then ints beside Fractions
        assert assert_same_factorization({(0, 0): 1, (0, 1): 0, (1, 0): 0})[0]
        assert not assert_same_factorization({(0, 0): 1, (1, 1): F(1, 2), (0, 1): 0})[0]

    def test_leaking_audit_instance(self, pair_joint, config22):
        # the exact (S, Q) laws behind tests/golden/audit_leaking.json, as
        # the oracle enumerates them and as orbits
        policy = singleton_policy(2)
        laws, scale = query_laws(pair_joint, policy, config22, {})
        orbit_laws, orbit_scale = _query_laws(pair_joint, policy, config22)
        for server, (law, orbit_law) in enumerate(zip(laws, orbit_laws)):
            entries = fraction_query_law(pair_joint, policy, config22, server)
            assert list(entries.items()) == [(k, F(w, scale)) for k, w in law.items()]
            assert by_orbit(entries, 2, 4) == {k: F(w, orbit_scale) for k, w in orbit_law.items()}
            zero, bits = assert_same_factorization(entries)
            assert (zero, bits) == (False, 0.18872187554086717)
            assert _factorization(law, scale) == (False, bits, independence_witness(entries))
            orbit_zero, orbit_bits, witness = _factorization(orbit_law, orbit_scale)
            assert (orbit_zero, witness[0]) == (False, independence_witness(entries)[0])
            assert witness[0] == 0
            assert math.isclose(orbit_bits, bits, rel_tol=0, abs_tol=KEY_WALK_TOL)
            assert orbit_bits == subset_bits(policy, pair_joint)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda K: st.tuples(
                st.lists(
                    st.lists(st.integers(min_value=0, max_value=4), min_size=K, max_size=K),
                    min_size=K,
                    max_size=K,
                ).filter(lambda rows: sum(map(sum, rows)) > 0),
                policies(K),
            )
        )
    )
    def test_policy_independence_hypothesis(self, case):
        cells, policy = case
        total = sum(map(sum, cells))
        joint = validate_joint([[F(c, total) for c in row] for row in cells])
        check = audit_policy_independence(policy, joint).checks[0]
        expected = fraction_policy_independence(policy, joint)
        assert (check.passed, check.bits, check.witness) == expected
        # a location step whose posterior transposes to this law, on the
        # integer law it keeps
        state = PosteriorState(t=1, tau=0, law=joint.transposed())
        step = audit_online_privacy(*step_law(state, policy)).checks[0]
        assert (step.passed, step.bits, step.witness) == expected

    @pytest.mark.parametrize("make", [greedy_policy, None, trivial_policy])
    def test_policy_independence_on_library_policies(self, make, skew_joint, skew_cond):
        policy = (
            singleton_policy(3) if make is None
            else make(skew_cond) if make is greedy_policy
            else make(3)
        )
        check = audit_policy_independence(policy, skew_joint).checks[0]
        expected = fraction_policy_independence(policy, skew_joint)
        assert (check.passed, check.bits, check.witness) == expected
        assert check.passed == (make is not None)


class TestPolicyIndependence:
    def test_reference_policies_pass(self, pair_joint, pair_cond, skew_joint, skew_cond):
        assert audit_policy_independence(greedy_policy(pair_cond), pair_joint).passed
        assert audit_policy_independence(greedy_policy(skew_cond), skew_joint).passed

    def test_singletons_fail_with_witness(self, pair_joint):
        report = audit_policy_independence(singleton_policy(2), pair_joint)
        assert not report.passed
        check = report.checks[0]
        assert check.witness is not None
        assert abs(check.bits - 0.18872) < 1e-3

    def test_negative_entry_is_refused_before_any_log(self, monkeypatch):
        # at s = 0 the entries 3/2 at {0} and -1/2 at {0, 1} sum to 1, yet
        # make the (S, U) weight of (0, {0, 1}) negative
        joint = validate_joint([[F(1, 4)] * 2] * 2)
        policy = ObfuscationPolicy(K=2, entries={
            (0, 0, 0b01): F(3, 2), (0, 0, 0b11): F(-1, 2), (0, 1, 0b10): F(1),
            (1, 0, 0b11): F(1), (1, 1, 0b11): F(1),
        })

        def no_log(value):
            raise AssertionError(f"log2({value}) taken")

        monkeypatch.setattr(math, "log2", no_log)
        with pytest.raises(NegativeEntry, match=r"\(s=0, x=0, u=\(0, 1\)\) is negative"):
            audit_policy_independence(policy, joint)


# (N, L) at K=3 for the skew greedy policy, where the full set alone has at
# least (8!)^3 keys: too many to walk, but its orbits are read off one block
LARGE_SKEW = [(2, 8), (3, 27), (2, 1024)]
LARGE_SKEW_IDS = [f"skew-N{N}-L{L}" for N, L in LARGE_SKEW]


class TestQueryPrivacyExact:
    def test_pair_instance_both_servers(self, pair_joint, pair_cond, config22):
        policy = greedy_policy(pair_cond)
        report = audit_query_privacy(pair_joint, policy, config22, mode="exact")
        assert report.passed
        assert len(report.checks) == 2

    def test_leak_detected_exactly(self, pair_joint, config22):
        report = audit_query_privacy(
            pair_joint, singleton_policy(2), config22, mode="exact"
        )
        assert not report.passed

    @pytest.mark.parametrize("N, L", LARGE_SKEW, ids=LARGE_SKEW_IDS)
    def test_large_key_spaces_are_audited_exactly(self, N, L, skew_joint, skew_cond):
        policy = greedy_policy(skew_cond)
        config = SystemConfig(N=N, K=3, L=L, seed=1)
        started = time.perf_counter()
        report = audit_query_privacy(skew_joint, policy, config, mode="exact")
        assert time.perf_counter() - started < 0.05
        assert report.mode == "exact" and report.passed
        assert [c.name for c in report.checks] == [f"query-privacy-server-{n}" for n in range(N)]

    @pytest.mark.parametrize(
        "K, N, L", [(2, 2, 4)] + [(3, N, L) for N, L in LARGE_SKEW],
        ids=["pair"] + LARGE_SKEW_IDS,
    )
    def test_exact_audit_logs_nothing(
        self, K, N, L, pair_joint, pair_cond, skew_joint, skew_cond, caplog
    ):
        joint, cond = (pair_joint, pair_cond) if K == 2 else (skew_joint, skew_cond)
        policy = greedy_policy(cond)
        config = SystemConfig(N=N, K=K, L=L, seed=1)
        with caplog.at_level(logging.DEBUG, logger="ipir"):
            report = audit_query_privacy(joint, policy, config)
        assert report.mode == "exact" and report.passed
        assert not [r for r in caplog.records if r.name.startswith("ipir")]

    def test_empirical_mode_passes_reference(
        self, pair_joint, pair_cond, config22, monkeypatch
    ):
        monkeypatch.setattr(audit, "EMPIRICAL_TRIALS", 20_000)
        report = audit_query_privacy(
            pair_joint, greedy_policy(pair_cond), config22, mode="empirical"
        )
        assert report.passed

    def test_unknown_mode_rejected(self, pair_joint, pair_cond, config22):
        with pytest.raises(InvalidParams):
            audit_query_privacy(pair_joint, greedy_policy(pair_cond), config22, mode="nope")

    @pytest.mark.parametrize("seed", ["x", True, 1.0, None])
    def test_empirical_audit_refuses_a_seed_that_is_not_an_int(
        self, pair_joint, pair_cond, config22, monkeypatch, seed
    ):
        monkeypatch.setattr(audit, "fork_rng", no_draw)
        with pytest.raises(InvalidParams, match="seed must be an int"):
            audit_query_privacy(
                pair_joint, greedy_policy(pair_cond), config22, mode="empirical", seed=seed
            )


def no_draw(*args):
    raise AssertionError("a random stream was forked")


def law_and_policy_entry_points() -> set[str]:
    """``module.name`` of every public function of the package with a
    ``JointDistribution`` and an ``ObfuscationPolicy`` parameter."""
    found = set()
    for info in pkgutil.iter_modules(ipir.__path__):
        module = importlib.import_module(f"ipir.{info.name}")
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and {"JointDistribution", "ObfuscationPolicy"}
                <= {p.annotation for p in inspect.signature(fn).parameters.values()}
            ):
                found.add(f"{info.name}.{name}")
    return found


def two_request(joint, policy, config):
    """Three two-request trials against a store that fits the config."""
    store = MessageStore(K=config.K, L=config.L, data=((0,) * config.L,) * config.K)
    return run_two_request(joint, policy, config, store, trials=3)


class TestKAgreement:
    # Every public entry point that takes a joint law and a policy refuses a
    # policy, or a config, of another K before any draw. Unchecked, a K=2
    # joint under a config of K=3 audited "exact" and passed, and ran
    # two-request trials reporting cost_s 7/4 next to cost_x_expected 5/4;
    # K=1 at L=2 and a K=3 policy raised BlockMismatch at the scheme of the
    # released subsets; and the trivial K=3 policy passed all three
    # validate_policy checks, at an expected cost of 7/4
    CASES = [
        (SystemConfig(N=2, K=3, L=8, seed=0), None),
        (SystemConfig(N=2, K=1, L=2, seed=0), None),
        (SystemConfig(N=2, K=2, L=4, seed=0), trivial_policy(3)),
    ]
    # the entry points that also take a config, by test id
    CONFIGURED = {
        "audit_query_privacy": ("audit.audit_query_privacy", audit_query_privacy),
        "audit_query_privacy-empirical": (
            "audit.audit_query_privacy",
            partial(audit_query_privacy, mode="empirical"),
        ),
        "run_two_request": ("intermittent.run_two_request", two_request),
    }
    # the entry points that take a law and a policy alone, called (policy, joint)
    READERS = {
        "obfuscation.check_k": lambda policy, joint: check_k(joint, policy),
        "obfuscation.policy_weights": policy_weights,
        "obfuscation.validate_policy": validate_policy,
        "obfuscation.expected_cost": partial(expected_cost, n_servers=2),
        "obfuscation.subset_samplers": subset_samplers,
        "audit.audit_policy_independence": audit_policy_independence,
    }

    @pytest.fixture
    def no_draws(self, monkeypatch):
        for module in (audit, intermittent):
            monkeypatch.setattr(module, "fork_rng", no_draw)
            monkeypatch.setattr(module, "subset_samplers", no_draw)
        monkeypatch.setattr(pir, "pir_setup", no_draw)
        monkeypatch.setattr(WeightedSampler, "draw", no_draw)

    @pytest.mark.parametrize("run", CONFIGURED, ids=list(CONFIGURED))
    @pytest.mark.parametrize("config, policy", CASES, ids=["config3", "config1", "policy3"])
    def test_audits_refuse_another_k(self, run, config, policy, pair_joint, pair_cond, no_draws):
        policy = policy or greedy_policy(pair_cond)
        with pytest.raises(
            InvalidParams,
            match=f"joint has K=2, the policy K={policy.K}, the config K={config.K}$",
        ):
            self.CONFIGURED[run][1](pair_joint, policy, config)

    @pytest.mark.parametrize("read", READERS, ids=list(READERS))
    @pytest.mark.parametrize("K", [1, 3])
    def test_readers_refuse_a_policy_of_another_k(self, read, K, pair_joint, no_draws):
        with pytest.raises(InvalidParams, match=f"joint has K=2, the policy K={K}$"):
            self.READERS[read](trivial_policy(K), pair_joint)

    def test_every_entry_point_is_covered(self):
        covered = {name for name, _ in self.CONFIGURED.values()} | set(self.READERS)
        assert law_and_policy_entry_points() == covered


# (N, K, L) instances whose exact audits stay small; at (2, 2, 8) and
# (3, 2, 9) the whole message set has too many keys, so only the leaking
# singleton policy, which never releases it, is audited there
SMALL = [(2, 2, 4), (2, 1, 2), (3, 1, 3), (3, 1, 6)]
SINGLETON_ONLY = [(2, 2, 8), (3, 2, 9)]


def make_policy(kind, joint, n_servers):
    if kind == "leaking":
        return singleton_policy(joint.K)
    if kind == "greedy":
        return greedy_policy(conditional_from_joint(joint))
    return solve_lp(build_lp(joint, n_servers))


def draw_joint(draw, K, kind):
    """A drawn K x K law with zero cells, every private value of positive
    mass for the greedy construction, which needs it."""
    low = 1 if kind == "greedy" else 0
    cells = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=K, max_size=K).filter(
                lambda row: sum(row) >= low
            ),
            min_size=K,
            max_size=K,
        ).filter(lambda rows: sum(map(sum, rows)) > 0)
    )
    total = sum(map(sum, cells))
    return validate_joint([[F(c, total) for c in row] for row in cells])


@st.composite
def audit_cases(draw, sizes=SMALL + SINGLETON_ONLY):
    """(joint, policy, config): a drawn law with zero cells and a greedy,
    LP or leaking policy for it."""
    kind = draw(st.sampled_from(["greedy", "lp", "leaking"]))
    N, K, L = draw(st.sampled_from(sizes if kind == "leaking" else SMALL))
    joint = draw_joint(draw, K, kind)
    return joint, make_policy(kind, joint, N), SystemConfig(N=N, K=K, L=L, seed=0)


@st.composite
def large_audit_cases(draw):
    """(joint, policy, config) at N = 2-4, K = 2-4 and L up to 1024: a drawn
    law and a greedy, LP, leaking or drawn policy for it, each drawn
    policy's pair (s, x) releasing one or two subsets that hold x."""
    N = draw(st.integers(min_value=2, max_value=4))
    K = draw(st.integers(min_value=2, max_value=4))
    L = N**K * draw(st.integers(min_value=1, max_value=1024 // N**K))
    kind = draw(st.sampled_from(["greedy", "lp", "leaking", "drawn"]))
    joint = draw_joint(draw, K, kind)
    config = SystemConfig(N=N, K=K, L=L, seed=0)
    if kind != "drawn":
        return joint, make_policy(kind, joint, N), config
    entries = {}
    for s in range(K):
        for x in range(K):
            masks = draw(
                st.lists(
                    st.integers(min_value=0, max_value=(1 << K) - 1).map(lambda m, x=x: m | 1 << x),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            counts = draw(
                st.lists(
                    st.integers(min_value=1, max_value=3), min_size=len(masks), max_size=len(masks)
                )
            )
            for mask, c in zip(masks, counts):
                entries[s, x, mask] = F(c, sum(counts))
    return joint, ObfuscationPolicy(K=K, entries=entries), config


@pytest.fixture
def doctored_template(monkeypatch):
    """At N=2, k=2 and desired position 1, server 1 asks the singleton of
    member 0's atom 2 in place of member 1's atom 1: its combo masks are
    1, 1, 3, where desired position 0 gives 1, 2, 3, and its atoms stay
    distinct. The caches built on templates are cleared around the test."""
    real = pir._block_template

    def doctored(n_servers, k, desired_pos):
        shapes, plan = real(n_servers, k, desired_pos)
        if (n_servers, k, desired_pos) == (2, 2, 1):
            (single, _, pair) = shapes[1]
            shapes = (shapes[0], (single, ((0, 2),), pair))
        return shapes, plan

    caches = (real, pir._tables, pir.query_orbits, pir._order_key)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(pir, "_block_template", doctored)
    yield
    for cache in caches:
        cache.cache_clear()


class TestIntegerQueryAudit:
    # the query orbits and integer laws of the exact audits against the
    # key walks and Fraction laws they replaced
    @pytest.mark.parametrize(
        "N, subset, L",
        [(2, (0,), 4), (2, (1,), 8), (2, (0, 1), 4), (3, (1,), 3), (3, (0,), 9),
         (2, (0, 2), 4)],
    )
    def test_counts_over_key_count_are_the_query_law(self, N, subset, L):
        assert_orbits_match_enumeration(pir.pir_setup(N, subset, L))

    def test_orbits_refuse_a_desired_message_outside_the_subset(self):
        with pytest.raises(DesiredNotInSubset, match=r"desired 2 not in subset \(0, 1\)"):
            pir.query_orbits(pir.pir_setup(2, (0, 1), 4), 2)

    def test_exact_audits_build_no_session(self, pair_joint, pair_cond, config22, monkeypatch):
        def no_session(*args):
            raise AssertionError("a session was built")

        monkeypatch.setattr(pir.PirSession, "from_key", staticmethod(no_session))
        policy = greedy_policy(pair_cond)
        report = audit_query_privacy(pair_joint, policy, config22)
        assert report.mode == "exact" and report.passed

    def test_doctored_template_leaks_as_the_oracle_says(
        self, doctored_template, pair_joint, config22
    ):
        # orbits of the two desired positions differ at server 1 only, so
        # releasing the full set leaks there, as the enumeration says
        params = pir.pir_setup(2, (0, 1), 4)
        (zero, one), (first, second) = pir.query_orbits(params, 0), pir.query_orbits(params, 1)
        assert zero == first and one != second
        assert_orbits_match_enumeration(params)
        policy = trivial_policy(2)
        report = audit_query_privacy(pair_joint, policy, config22)
        assert_matches_key_walk(report, fraction_query_privacy(pair_joint, policy, config22))
        assert [c.passed for c in report.checks] == [True, False]
        laws, scale = _query_laws(pair_joint, policy, config22)
        entries = fraction_query_law(pair_joint, policy, config22, 1)
        assert by_orbit(entries, 2, 4) == {k: F(w, scale) for k, w in laws[1].items()}
        leak = fraction_leak_equivalence(pair_joint, policy, config22)
        assert [c.passed for c in leak.checks[5:]] == [False, True, True, False, False]

    def test_full_set_leak_reads_the_key_walk_bits(self, pair_joint):
        # s = 0 releases the full set, whose orbits hold 20,736 queries per
        # server at L = 8; the walk over its 331,776 keys reads
        # 1.0000000000001652 bits, one term per query, and the orbit law,
        # one term per orbit, reads the subset law's 1.0
        policy = full_set_leak()
        report = audit_query_privacy(pair_joint, policy, SystemConfig(N=2, K=2, L=8, seed=0))
        assert report.mode == "exact"
        assert [(c.passed, c.witness) for c in report.checks] == [(False, 0)] * 2
        for check in report.checks:
            assert math.isclose(
                check.bits, 1.0000000000001652, rel_tol=0, abs_tol=KEY_WALK_TOL
            )
            assert check.bits == subset_bits(policy, pair_joint) == 1.0

    @pytest.mark.parametrize(
        "N, L, counts",
        [(2, 8, [[2, 4], [4, 1]]), (2, 8, [[3, 0], [0, 2]]), (2, 8, [[3, 2], [4, 1]]),
         (2, 4, [[4, 2], [3, 0]]), (3, 9, [[1, 1], [2, 4]]), (3, 9, [[4, 3], [3, 3]])],
    )
    def test_leaking_instances_match_fraction_oracle(self, N, L, counts):
        total = sum(map(sum, counts))
        joint = validate_joint([[F(c, total) for c in row] for row in counts])
        config = SystemConfig(N=N, K=2, L=L, seed=0)
        policy = singleton_policy(2)
        report = audit_query_privacy(joint, policy, config)
        assert_matches_key_walk(report, fraction_query_privacy(joint, policy, config))
        assert not report.passed
        assert_reads_the_subset_law(report, policy, joint)

    @settings(max_examples=40, deadline=None)
    @given(audit_cases())
    def test_exact_audit_matches_fraction_oracle(self, case):
        joint, policy, config = case
        report = audit_query_privacy(joint, policy, config, mode="exact")
        assert_matches_key_walk(report, fraction_query_privacy(joint, policy, config))
        assert_reads_the_subset_law(report, policy, joint)

    @settings(max_examples=6, deadline=None)
    @given(audit_cases(sizes=SMALL))
    # a pair that leaks at both servers, and a single message
    @example(
        (
            validate_joint([[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]]),
            singleton_policy(2),
            SystemConfig(N=2, K=2, L=4, seed=0),
        )
    )
    @example((validate_joint([[1]]), trivial_policy(1), SystemConfig(N=2, K=1, L=2, seed=0)))
    def test_leak_equivalence_oracle_agrees_with_the_exact_audit(self, case):
        # the reduction on the enumerated queries: at every server the
        # private query and the pair given s leak nothing, the pair leaks
        # iff the non-private query does, and that leak is the exact audit's
        joint, policy, config = case
        exact = audit_query_privacy(joint, policy, config, mode="exact")
        oracle = {c.name: c for c in fraction_leak_equivalence(joint, policy, config).checks}
        assert len(exact.checks) == config.N and len(oracle) == 5 * config.N
        holds = (
            "private query independent of request",
            "queries conditionally independent given request",
            "joint-leak zero iff single-leak zero",
        )
        for server, check in enumerate(exact.checks):
            reduction = [oracle[f"server-{server}: {name}"] for name in holds]
            assert all(c.passed for c in reduction)
            assert math.isclose(reduction[-1].bits, 0.0, rel_tol=0, abs_tol=KEY_WALK_TOL)
            single = oracle[f"server-{server}: single-query leak"]
            assert single.passed == check.passed
            assert math.isclose(single.bits, check.bits, rel_tol=0, abs_tol=KEY_WALK_TOL)

    @settings(max_examples=60, deadline=None)
    @given(large_audit_cases())
    def test_exact_audits_read_the_subset_law_at_any_size(self, case):
        # no key count bounds the orbit law: at every server the query
        # check is the subset check, verdict, bits and first s alike
        joint, policy, config = case
        assert_reads_the_subset_law(audit_query_privacy(joint, policy, config), policy, joint)

    @pytest.mark.parametrize("kind", ["greedy", "leaking"])
    def test_pair_instance_reports(self, kind, pair_joint, config22):
        policy = make_policy(kind, pair_joint, 2)
        exact = audit_query_privacy(pair_joint, policy, config22)
        assert_matches_key_walk(exact, fraction_query_privacy(pair_joint, policy, config22))
        assert exact.passed == (kind != "leaking")
        assert_reads_the_subset_law(exact, policy, pair_joint)


# one K=3, L=512 greedy empirical audit at the trial count of argv[1],
# then its peak RSS in bytes (ru_maxrss is in KB on Linux, bytes on macOS)
PEAK_RSS_AUDIT = """
import resource, sys
from fractions import Fraction as F
from ipir import audit
from ipir.core import SystemConfig, conditional_from_joint, validate_joint
from ipir.obfuscation import greedy_policy

rows = ((1, 3, 6), (5, 4, 1), (2, 5, 3))
joint = validate_joint([[F(w, 30) for w in row] for row in rows])
policy = greedy_policy(conditional_from_joint(joint))
config = SystemConfig(N=2, K=3, L=512, seed=0)
audit.EMPIRICAL_TRIALS = int(sys.argv[1])
audit.audit_query_privacy(joint, policy, config, mode="empirical")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak if sys.platform == "darwin" else peak * 1024)
"""


class TestEmpiricalCounts:
    # the order counting against the session-by-session counting
    # loop it replaced, on the report and on the counts themselves
    @staticmethod
    def as_patterns(config, mask, orders):
        """``orders`` counted by their patterns, one pattern per order."""
        params = pir.pir_setup(config.N, indices_of(mask), config.L)
        patterns = Counter()
        for order, n in orders.items():
            patterns[order_pattern(params, order)] += n
        assert len(patterns) == len(orders)
        return patterns

    def assert_matches_oracle(self, joint, policy, config, trials, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audit, "EMPIRICAL_TRIALS", trials)
            report = audit_query_privacy(joint, policy, config, mode="empirical", seed=seed)
        counts = session_pattern_counts(joint, policy, config, trials, seed)
        direct = _order_counts(joint, subset_samplers(policy, joint), config, trials, seed)
        mapped = [
            {
                s: {mask: self.as_patterns(config, mask, c) for mask, c in by_mask.items()}
                for s, by_mask in by_s.items()
            }
            for by_s in direct
        ]
        assert mapped == counts
        for by_s, ref_by_s in zip(mapped, counts):
            for s, by_mask in by_s.items():
                assert list(by_mask) == list(ref_by_s[s])
                for mask, c in by_mask.items():
                    assert list(c) == list(ref_by_s[s][mask])
        # the TVs over patterns are those over orders, to the last bit
        oracle = AuditReport(mode="empirical", checks=_empirical_checks(counts))
        assert report.to_json_dict() == oracle.to_json_dict()
        return report

    def test_skew_law(self, skew_joint, skew_cond):
        # acceptance criterion 5's law
        config = SystemConfig(N=2, K=3, L=8, seed=1)
        self.assert_matches_oracle(skew_joint, greedy_policy(skew_cond), config, 2_000, 5)

    def test_three_servers(self):
        joint = validate_joint([[F(1, 4), F(1, 8)], [F(1, 8), F(1, 2)]])
        config = SystemConfig(N=3, K=2, L=9, seed=2)
        policy = greedy_policy(conditional_from_joint(joint))
        self.assert_matches_oracle(joint, policy, config, 2_000, 6)

    def test_multi_block(self, pair_joint, pair_cond):
        # at L=8 a one-message subset has 4 blocks and the pair has 2
        config = SystemConfig(N=2, K=2, L=8, seed=3)
        policy = greedy_policy(pair_cond)
        self.assert_matches_oracle(pair_joint, policy, config, 2_000, 8)
        blocks = {
            pir.pir_setup(2, indices_of(mask), 8).blocks
            for s, x in sorted({(s, x) for s, x, _ in policy.entries})
            for mask, _ in policy.at(s, x)
        }
        assert blocks == {2, 4}

    def test_each_key_is_scattered_once(self, skew_joint, skew_cond, monkeypatch):
        # slot_orders runs once per distinct (subset, request, key) of the
        # whole audit, never once per sample, and gives the orders that
        # the oracle reads off a copy of the stream the key is drawn from;
        # each draw is replayed on its copy through the per-call sampler
        drawn, scattered = [], []
        order_key_plan, slot_orders = pir.order_key_plan, pir.slot_orders

        def recording_plan(params, desired):
            draw = order_key_plan(params, desired)

            def recording_draw(getrandbits):
                copy, replay = random.Random(), random.Random()
                copy.setstate(getrandbits.__self__.getstate())
                replay.setstate(copy.getstate())
                key, slots = draw(getrandbits)
                assert (key, slots) == sample_order_key(params, desired, replay)
                drawn.append(((params.subset, desired, key), sample_orders(params, desired, copy)))
                return key, slots

            return recording_draw

        def recording_scatters(params, desired, slots):
            key, expected = drawn[-1]
            scattered.append(key)
            orders = slot_orders(params, desired, slots)
            assert orders == expected
            return orders

        monkeypatch.setattr(pir, "order_key_plan", recording_plan)
        monkeypatch.setattr(pir, "slot_orders", recording_scatters)
        config = SystemConfig(N=2, K=3, L=8, seed=1)
        trials = 3_000
        monkeypatch.setattr(audit, "EMPIRICAL_TRIALS", trials)
        report = audit_query_privacy(
            skew_joint, greedy_policy(skew_cond), config, mode="empirical"
        )
        assert report.mode == "empirical"
        keys = {key for key, _ in drawn}
        assert len(drawn) == trials * 3
        assert len(scattered) == len(set(scattered)) == len(keys) < len(drawn) // 10
        assert set(scattered) == keys

    @pytest.mark.parametrize(
        "N, K, L", [(2, 2, 4), (2, 2, 8), (2, 2, 16), (2, 3, 8), (2, 3, 16), (3, 2, 9)]
    )
    @pytest.mark.parametrize("kind", ["greedy", "lp"])
    def test_plans_count_as_the_per_sample_loop(self, N, K, L, kind):
        # the plans set up once per (s, x, mask) against the loop that set
        # up every sample: the same Counters, with the private values,
        # masks and orders in the same first-seen order
        rows = [[1, 3], [2, 2]] if K == 2 else [[1, 3, 6], [5, 4, 1], [2, 5, 3]]
        total = sum(map(sum, rows))
        joint = validate_joint([[F(w, total) for w in row] for row in rows])
        policy = make_policy(kind, joint, N)
        samplers = subset_samplers(policy, joint)
        config = SystemConfig(N=N, K=K, L=L, seed=0)
        for seed in (1, 2, 3):
            counts = _order_counts(joint, samplers, config, 400, seed)
            oracle = keyed_order_counts(joint, samplers, config, 400, seed)
            assert counts == oracle
            for by_s, ref_by_s in zip(counts, oracle):
                assert list(by_s) == list(ref_by_s)
                for s, by_mask in by_s.items():
                    assert list(by_mask) == list(ref_by_s[s])
                    for mask, c in by_mask.items():
                        assert list(c.items()) == list(ref_by_s[s][mask].items())

    def test_an_undrawn_mask_builds_no_plan(self, pair_joint, config22, monkeypatch):
        # the full set with the subset {0} at share 0 beside it at (0, 0):
        # the sampler holds {0} with count 0, so no sample draws it, and
        # each private value's one sample builds the one plan it draws
        entries = dict(trivial_policy(2).entries)
        entries[0, 0, 1] = F(0)
        policy = ObfuscationPolicy(K=2, entries=entries)
        assert subset_samplers(policy, pair_joint)[0, 0].values == (1, 3)
        setups, plans = [], []
        pir_setup, order_key_plan = pir.pir_setup, pir.order_key_plan

        def recording_setup(n_servers, subset, L):
            setups.append(tuple(subset))
            return pir_setup(n_servers, subset, L)

        def recording_plan(params, desired):
            plans.append(params.subset)
            return order_key_plan(params, desired)

        monkeypatch.setattr(pir, "pir_setup", recording_setup)
        monkeypatch.setattr(pir, "order_key_plan", recording_plan)
        monkeypatch.setattr(audit, "EMPIRICAL_TRIALS", 1)
        report = audit_query_privacy(pair_joint, policy, config22, mode="empirical")
        assert report.mode == "empirical"
        assert setups == plans == [(0, 1), (0, 1)]

    def test_memory_grows_by_a_few_kilobytes_per_sample(self):
        # at L=512 almost every sample draws a new key and new orders, and
        # the audit keeps them all: about 4 KB per sample, where a pattern
        # per sample takes about 60 KB. Each trial count runs in a child of
        # its own, since ru_maxrss is a peak over the process's life
        low, high = 300, 1_000
        children = [
            subprocess.Popen(
                [sys.executable, "-c", PEAK_RSS_AUDIT, str(trials)],
                stdout=subprocess.PIPE,
                text=True,
            )
            for trials in (low, high)
        ]
        try:
            peaks = [int(child.communicate(timeout=60)[0]) for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait()
        samples = 3 * (high - low)  # three private values
        assert (peaks[1] - peaks[0]) / samples < 16 * 1024

    def test_pir_maps_no_order_to_a_pattern(self):
        # orders are the patterns' one-to-one labels within a subset, so
        # the audit counts them as they are; the map is a test oracle
        assert not hasattr(pir, "order_pattern")

    def test_request_sampler_from_counts_matches_the_fraction_sampler(self):
        # the audit draws x off a row's nonzero integer weights: the same
        # denominator (the lcm of the reduced shares, mass / gcd) and
        # thresholds as the sampler over Fraction(w, mass), so the same draws
        rng = random.Random(17)
        for _ in range(300):
            row = [rng.choice([0, 0, 1, 2, 3, 6, 12, 35]) for _ in range(rng.randint(1, 6))]
            row[rng.randrange(len(row))] = rng.randint(1, 40)
            mass = sum(row)
            shares = fraction_sampler((x, F(w, mass)) for x, w in enumerate(row) if w)
            counts = WeightedSampler((x, w) for x, w in enumerate(row) if w)
            assert counts.denominator == shares.denominator
            assert counts.thresholds == shares.thresholds
            assert counts.values == shares.values
            a, b = random.Random(mass), random.Random(mass)
            assert [counts.draw(a) for _ in range(20)] == [shares.draw(b) for _ in range(20)]

    def test_leaking_policy_witnesses(self, pair_joint, config22):
        report = self.assert_matches_oracle(
            pair_joint, singleton_policy(2), config22, 1_000, 7
        )
        assert not report.passed
        assert all(c.witness is not None for c in report.checks if not c.passed)


class TestIncompletePolicy:
    # K=2 uniform law with the trivial policy missing its (0, 1) entry
    @pytest.fixture
    def joint(self):
        return validate_joint([[F(1, 4)] * 2] * 2)

    @pytest.fixture
    def policy(self):
        entries = dict(trivial_policy(2).entries)
        del entries[(0, 1, 3)]
        return ObfuscationPolicy(K=2, entries=entries)

    @pytest.mark.parametrize("mode", ["exact", "empirical"])
    def test_audit_names_the_pair_before_any_draw(
        self, joint, policy, config22, mode, monkeypatch
    ):
        def no_draw(self, rng):
            raise AssertionError("drew before checking the policy")

        monkeypatch.setattr(WeightedSampler, "draw", no_draw)
        monkeypatch.setattr(audit, "EMPIRICAL_TRIALS", 10)
        with pytest.raises(UnsupportedPair, match=r"\(s=0, x=1\)"):
            audit_query_privacy(joint, policy, config22, mode=mode)

    def test_uncovered_zero_mass_pair_is_fine(self, config22):
        # a pair the joint never draws needs no entries
        joint = validate_joint([[F(1, 2), 0], [F(1, 4), F(1, 4)]])
        entries = {key: p for key, p in trivial_policy(2).entries.items() if key[:2] != (0, 1)}
        report = audit_query_privacy(joint, ObfuscationPolicy(K=2, entries=entries), config22)
        assert report.passed


class TestOnlinePrivacy:
    def test_mechanism_step_passes(self):
        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = advance_posterior(initial_posterior(model), model, sched)
        policy, _ = policy_for_posterior(state.law, 2, "lp")
        assert audit_online_privacy(*step_law(state, policy)).passed

    def test_dependent_step_policy_fails(self):
        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        sched = PrivacySchedule(horizon=1, private=frozenset({0}))
        state = advance_posterior(initial_posterior(model), model, sched)
        report = audit_online_privacy(*step_law(state, singleton_policy(2)))
        assert not report.passed
        assert report.checks[0].witness is not None

    def test_brute_force_consequence_three_steps(self):
        # per-step zero leakage implies zero leakage of all private
        # locations through the released query, on the full enumeration
        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        config = SystemConfig(N=2, K=2, L=4, seed=0)
        sched = PrivacySchedule(horizon=2, private=frozenset({0, 2}))
        nodes = enumerate_mechanism(model, sched, config)
        for node in nodes:
            if node.policy is not None:
                assert audit_online_privacy(*step_law(node.tracked, node.policy)).passed
            for server in range(config.N):
                zero, bits = node_query_leak(node, sched, config, server)
                assert zero, (node.t, node.history, server, bits)

    def test_matches_direct_factorization(self):
        # every mechanism node of the two-state walk plus seeded random
        # posteriors at K=2..4, each audited under both step constructors
        # and the leaking singleton policy
        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        config = SystemConfig(N=2, K=2, L=4, seed=0)
        sched = PrivacySchedule(horizon=3, private=frozenset({0, 2}))
        states = [node.tracked for node in enumerate_mechanism(model, sched, config)]
        rng = random.Random(23)
        for _ in range(30):
            K = rng.choice([2, 3, 4])
            cells = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(K)] for _ in range(K)]
            cells[rng.randrange(K)][rng.randrange(K)] += 1
            total = sum(map(sum, cells))
            joint = tuple(tuple(F(v, total) for v in row) for row in cells)
            states.append(PosteriorState(t=1, tau=0, law=validate_joint(joint)))
        leaks = 0
        for state in states:
            K = state.law.K
            policies = [
                policy_for_posterior(state.law, 2, "lp")[0],
                policy_for_posterior(state.law, 2, "greedy")[0],
                singleton_policy(K),
            ]
            for policy in policies:
                report = audit_online_privacy(*step_law(state, policy))
                zero, bits = online_privacy_factorization(state, policy)
                assert report.passed == zero
                assert math.isclose(report.checks[0].bits, bits, rel_tol=1e-12)
                leaks += not zero
        assert leaks > 10


class TestHistoryEquivalence:
    def test_query_history_conditioning_matches_subset_history(self):
        model = MobilityModel.build(
            [F(1, 2), F(1, 2)], [[[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]]
        )
        config = SystemConfig(N=2, K=2, L=4, seed=0)
        for server in range(2):
            assert query_history_equivalence(model, config, server)


class TestSizeBound:
    def test_skew_policy_is_tight(self, skew_cond):
        report = check_size_bound(greedy_policy(skew_cond), skew_cond)
        assert report.passed
        assert all(c.bits == 0.0 for c in report.checks)  # equality throughout

    def test_trivial_policy_reported_loose(self, skew_cond):
        report = check_size_bound(trivial_policy(3), skew_cond)
        failing = [c for c in report.checks if not c.passed]
        assert failing  # feasible but not size-tight
        assert failing[0].witness is not None

    @pytest.mark.parametrize("K", [2, 4])
    def test_policy_of_another_k_is_refused(self, skew_cond, K):
        with pytest.raises(DistributionError, match=f"policy has K={K}, the matrix K=3"):
            check_size_bound(trivial_policy(K), skew_cond)

    def test_random_greedy_policies_pass(self):
        import random

        from test_obfuscation import random_cond

        rng = random.Random(17)
        for _ in range(100):
            cond = random_cond(rng, rng.choice([2, 3, 4, 5]))
            report = check_size_bound(greedy_policy(cond), cond)
            assert report.passed


class TestTotalVariation:
    def test_identical_counts(self):
        a = Counter({"x": 50, "y": 50})
        assert total_variation(a, a) == 0.0

    def test_disjoint_counts(self):
        assert total_variation(Counter({"x": 10}), Counter({"y": 10})) == 1.0

    def test_relabelled_counts_give_the_same_bits(self):
        # the audit counts orders where it counted patterns, so the TV must
        # read the count pairs alone: a set of small ints meets these three
        # terms in opposite orders, and a plain float sum rounds them to
        # 0.3363636363636363 one way and 0.33636363636363636 the other
        a, b = Counter({0: 7, 1: 7, 2: 6}), Counter({0: 3, 1: 1, 2: 7})
        relabelled = Counter({2: 7, 1: 7, 0: 6}), Counter({2: 3, 1: 1, 0: 7})
        assert total_variation(a, b) == total_variation(*relabelled) == 0.3363636363636363
