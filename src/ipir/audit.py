"""Exact and empirical privacy verification.

Independence is decided by exact rational factorization of finite joint
laws (p(a,b) == p(a) p(b) everywhere), on integers: the law is scaled by
D, the lcm of its denominators, to weights W, and the check is
W(a,b) D == W_a W_b. The bits value attached to each check is a
floating-point diagnostic only and never part of the decision; its terms
are int ratios, correctly rounded as float(Fraction) is.
Exact query-level checks read each server's query law off its orbits
(``pir.query_orbits``): a uniform key makes the query uniform on one, so
p(s, q) = p(s, o) / |o| and I(S; Q) = I(S; O), the orbit sizes cancelling,
and the law of (S, Q) factorizes iff the law of (S, orbit) does. They run
at every size; sampled total-variation comparisons are a separate mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .core import (
    ConditionalMatrix,
    JointDistribution,
    SystemConfig,
    WeightedSampler,
    fork_rng,
    scale_to_integers,
)
from .errors import DistributionError, InvalidParams, NegativeEntry
from .obfuscation import (
    ObfuscationPolicy,
    check_k,
    indices_of,
    likelihood_profile,
    policy_weights,
    subset_samplers,
)
from . import pir

EMPIRICAL_TRIALS = 100_000
TV_THRESHOLD = 0.01


def _factorization(weights: dict, scale: int) -> tuple[bool, float, object]:
    """(independent?, bits, witness) of the law p(a, b) = weights[a, b] / scale.

    p(a,b) = p(a) p(b) times scale^2 is W(a,b) scale = W_a W_b, decided
    over the product of the marginal supports in integers. Every float is
    an int ratio, correctly rounded as float(Fraction) is, and the terms
    are summed in the entries' order. The witness is the first (a, b),
    labels ordered by str, where the law does not factorize; None if it
    does.
    """
    wa: dict = {}  # the marginals of the nonzero weights, in first-seen order
    wb: dict = {}
    for (a, b), w in weights.items():
        if w != 0:
            wa[a] = wa.get(a, 0) + w
            wb[b] = wb.get(b, 0) + w
    if all(
        weights.get((a, b), 0) * scale == x * y for a, x in wa.items() for b, y in wb.items()
    ):
        return True, 0.0, None
    bits = 0.0
    for (a, b), w in weights.items():
        if w != 0:
            p = w / scale
            bits += p * math.log2(p / ((wa[a] / scale) * (wb[b] / scale)))
    columns = sorted(wb.items(), key=str)
    witness = next(
        (a, b)
        for a, x in sorted(wa.items(), key=str)
        for b, y in columns
        if weights.get((a, b), 0) * scale != x * y
    )
    return False, max(bits, 0.0), witness


def mutual_information(entries: dict) -> tuple[bool, float]:
    """(exactly independent?, mutual information in bits) of the law
    ``entries[a, b]``, exact values keyed by label pairs.

    The boolean comes from factorization over the product of the marginal
    supports, decided exactly on the entries scaled to integers over one
    common denominator; the bits value is diagnostic. A negative entry
    raises NegativeEntry.
    """
    numerators, scale = scale_to_integers(entries.values())
    negative = next((key for key, n in zip(entries, numerators) if n < 0), None)
    if negative is not None:
        raise NegativeEntry(f"entry {negative!r} = {entries[negative]} is negative")
    return _factorization(dict(zip(entries, numerators)), scale)[:2]


@dataclass
class AuditCheck:
    name: str
    passed: bool
    bits: float = 0.0
    witness: object = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "bits": self.bits,
            "witness": None if self.witness is None else repr(self.witness),
        }


@dataclass
class AuditReport:
    checks: list[AuditCheck] = field(default_factory=list)
    mode: str = "exact"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def total_variation(counts_a: Counter, counts_b: Counter) -> float:
    """Half the L1 distance of two sampled laws, summed exactly by ``fsum``:
    it depends on the count pairs only, not on the order of their labels."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    keys = set(counts_a) | set(counts_b)
    return 0.5 * math.fsum(
        abs(counts_a.get(k, 0) / na - counts_b.get(k, 0) / nb) for k in keys
    )


def audit_policy_independence(policy: ObfuscationPolicy, joint: JointDistribution) -> AuditReport:
    """``audit_online_privacy`` on the integer (S, X, U) law of ``policy_weights``."""
    return audit_online_privacy(*policy_weights(policy, joint))


def _query_laws(
    joint: JointDistribution, policy: ObfuscationPolicy, config: SystemConfig
) -> tuple[list[dict], int]:
    """``(laws, scale)``: at every server n, the law of (S, orbit of Q_n),
    the private request and the non-private query's orbit, as integer
    weights over the scale of ``policy_weights``.

    An orbit is ``(mask, label)`` of ``pir.query_orbits``, so the weight of
    (s, orbit) sums the (S, X, U) weights W(s, x, u) of ``policy_weights``
    whose query lands on it.
    """
    weights, scale = policy_weights(policy, joint)
    laws: list[dict] = [{} for _ in range(config.N)]
    for (s, x, mask), w in weights.items():
        labels = pir.query_orbits(pir.pir_setup(config.N, indices_of(mask), config.L), x)
        for law, label in zip(laws, labels):
            key = (s, (mask, label))
            law[key] = law.get(key, 0) + w
    return laws, scale


def audit_query_privacy(
    joint: JointDistribution,
    policy: ObfuscationPolicy,
    config: SystemConfig,
    mode: str = "exact",
    seed: int = 0,
) -> AuditReport:
    """Per-server independence of the non-private query from the private
    request.

    Exact mode factor-checks the (S, orbit of Q_i) law of ``_query_laws``
    at each server, at any size: it factorizes iff the (S, Q_i) law does,
    at the same first s, and has the same mutual information. Empirical
    mode compares the sampled query law across s values by total variation
    distance at each server from ``EMPIRICAL_TRIALS`` samples per private
    value, read at the call, each drawn with a full session's
    ``getrandbits`` calls but kept only as the order key of its (s, x,
    mask)'s ``pir.order_key_plan`` (see ``_order_counts``). The per-order
    ``Counter``s that ``_order_counts`` returns hold most of the memory: at
    large L nearly every sample adds an order, about 4 KB each, and at
    K=3, L=512 with 3,000 trials per private value they hold 30.2 MB of a
    33.0 MB traced peak, where per-private-value key tables would save
    only 1.8 MB. That greedy audit peaks at 24 MB with 300 trials per
    private value, 32 MB with 1,000 and 55 MB with 3,000 (ru_maxrss,
    CPython 3.11). Any other mode, a config or policy whose K is not the
    joint's, and an empirical audit whose seed is not an int (a bool is
    not), raise InvalidParams, before any draw; a policy with no entries at
    a request pair of positive mass raises UnsupportedPair, in either mode.
    """
    if mode not in ("exact", "empirical"):
        raise InvalidParams(f"unknown audit mode {mode!r}")
    check_k(joint, policy, config)
    samplers = subset_samplers(policy, joint)
    report = AuditReport(mode=mode)
    if mode == "exact":
        laws, scale = _query_laws(joint, policy, config)
        for server, law in enumerate(laws):
            zero, bits, witness = _factorization(law, scale)
            report.checks.append(
                AuditCheck(
                    name=f"query-privacy-server-{server}",
                    passed=zero,
                    bits=bits,
                    witness=None if zero else witness[0],
                )
            )
        return report
    if type(seed) is not int:
        raise InvalidParams(f"the seed must be an int, got {seed!r}")
    counts = _order_counts(joint, samplers, config, EMPIRICAL_TRIALS, seed)
    report.checks.extend(_empirical_checks(counts))
    return report


def _order_counts(
    joint: JointDistribution,
    samplers: dict,
    config: SystemConfig,
    trials: int,
    seed: int,
) -> list[dict[int, dict[int, Counter]]]:
    """``counts[server][s][mask]``: the sampled combo orders at one server
    for private value s and released subset mask, from ``trials`` samples
    per supported s. Each s draws from its own named stream; a sample
    draws the non-private request x, from p(x|s) = W(s, x) / W_s by a
    ``WeightedSampler`` over the row's nonzero weights, then the subset,
    then the PIR key's shuffles, with no ``PirKey`` or session built.

    Within one subset an order is a one-to-one label of its query's
    ``pir.query_pattern``, so the orders' TVs are bit for bit the
    patterns'. Each s sets up the params and the ``pir.order_key_plan``
    draw of an (x, mask) when a sample first draws it, so a subset never
    drawn builds no plan, and a sample is two sampler draws, two dict hits,
    one shuffle and one bytes key, which fixes every server's order.
    Samples are counted per (mask, x, key) in first-seen order, and the
    audit-wide key map is probed only at a key's first sample in s: the
    audit's first of each key scatters its slots with ``pir.slot_orders``,
    and equal orders are interned to one object. A K=3, L=8 audit meets
    about 2.5k distinct keys in 3·10^5 samples. Merging the counts in that
    order gives each Counter its orders in the order a sample first met
    them.
    """
    counts: list[dict[int, dict[int, Counter]]] = [{} for _ in range(config.N)]
    by_key: dict = {}  # (mask, x, key) -> each server's order, over the whole audit
    interned: dict = {}  # order -> itself, so equal orders are one object
    for s in joint.support():
        x_sampler = WeightedSampler((x, w) for x, w in enumerate(joint.weights[s]) if w)
        # per x, its subset draw and its (params, plan) per mask, built on first draw
        requests = {x: (samplers[s, x].draw, {}) for x in x_sampler.values}
        rng = fork_rng(seed, "audit-empirical", s)
        getrandbits = rng.getrandbits
        seen: dict = {}  # (mask, x, key) -> samples, in first-seen order
        for _ in range(trials):
            x = x_sampler.draw(rng)
            draw_mask, plans = requests[x]
            mask = draw_mask(rng)
            plan = plans.get(mask)
            if plan is None:
                params = pir.pir_setup(config.N, indices_of(mask), config.L)
                plan = plans[mask] = params, pir.order_key_plan(params, x)
            params, draw_key = plan
            key, slots = draw_key(getrandbits)
            key = mask, x, key
            n = seen[key] = seen.get(key, 0) + 1
            if n == 1 and key not in by_key:
                scattered = pir.slot_orders(params, x, slots)
                by_key[key] = tuple(interned.setdefault(order, order) for order in scattered)
        masks = dict.fromkeys(mask for mask, _, _ in seen)
        for by_s in counts:
            by_s[s] = {mask: Counter() for mask in masks}
        for key, n in seen.items():
            for by_s, order in zip(counts, by_key[key]):
                by_s[s][key[0]][order] += n
    return counts


def _empirical_checks(counts: list[dict[int, dict[int, Counter]]]) -> list[AuditCheck]:
    """Two checks per server from ``counts[server][s][mask]``, as
    ``_order_counts`` returns them.

    The query splits into the released subset (small support; the pinned
    ``TV_THRESHOLD``, read at the call, is ~3x its sampling noise at
    ``EMPIRICAL_TRIALS``) and the position pattern within the subset
    (positions are exchangeable under the uniform key, so the pattern is a
    sufficient statistic; its support is larger, so its threshold is scaled
    to the pattern-level sampling noise). The counts are keyed by combo
    order, the patterns' one-to-one labels within a subset, so each TV and
    support size is the patterns'. Every sample counts once at every
    server, so the subset counts, and the subset check, are the same at
    each server and are computed once.
    """
    support = list(counts[0])
    subset_counts = {
        s: Counter({mask: sum(c.values()) for mask, c in by_mask.items()})
        for s, by_mask in counts[0].items()
    }
    worst = 0.0
    subset_witness = None
    for i, s1 in enumerate(support):
        for s2 in support[i + 1 :]:
            tv = total_variation(subset_counts[s1], subset_counts[s2])
            if tv > worst:
                worst = tv
                subset_witness = (s1, s2)
    subset_passed = worst < TV_THRESHOLD
    checks = []
    for server, by_s in enumerate(counts):
        checks.append(
            AuditCheck(
                name=f"query-privacy-server-{server}: subset marginal (TV<{TV_THRESHOLD})",
                passed=subset_passed,
                bits=worst,
                witness=None if subset_passed else subset_witness,
            )
        )
        worst_excess = 0.0
        witness = None
        for mask in sorted({mask for by_mask in by_s.values() for mask in by_mask}):
            for i, s1 in enumerate(support):
                for s2 in support[i + 1 :]:
                    c1 = by_s[s1].get(mask, Counter())
                    c2 = by_s[s2].get(mask, Counter())
                    n1, n2 = subset_counts[s1][mask], subset_counts[s2][mask]
                    if min(n1, n2) < 100:
                        continue
                    m = len(set(c1) | set(c2))
                    noise = (m / math.pi) ** 0.5 * (
                        (0.5 / n1) ** 0.5 + (0.5 / n2) ** 0.5
                    )
                    limit = max(TV_THRESHOLD, 4.0 * noise)
                    tv = total_variation(c1, c2)
                    excess = tv / limit
                    if excess > worst_excess:
                        worst_excess = excess
                        witness = (indices_of(mask), s1, s2, tv, limit)
        checks.append(
            AuditCheck(
                name=f"query-privacy-server-{server}: in-subset pattern "
                "(noise-scaled TV)",
                passed=worst_excess < 1.0,
                bits=worst_excess,
                witness=None if worst_excess < 1.0 else witness,
            )
        )
    return checks


def audit_online_privacy(weights: dict, scale: int) -> AuditReport:
    """Exact check, named ``subset-independence``, that the released subset
    is independent of the private request: the integer (S, X, U) law
    ``weights`` / ``scale`` of ``policy_weights``, summed over x in its
    order, factorizes. A location step passes its policy's law under the
    transposed posterior, the law the step conditions on. A scale that is
    not a positive int, or a weight that is not an int, raises
    DistributionError, and a negative weight NegativeEntry, before any log
    is taken."""
    if type(scale) is not int or scale < 1:
        raise DistributionError(f"the scale must be a positive int, got {scale!r}")
    # the witness orders labels by str, so each mask becomes its indices,
    # once per mask
    labels: dict = {}
    by_subset: dict = {}
    for (s, x, mask), w in weights.items():
        subset = labels.get(mask)
        if subset is None:
            subset = labels[mask] = indices_of(mask)
        if type(w) is not int:
            raise DistributionError(f"policy entry (s={s}, x={x}, u={subset}) = {w!r} is not an int")
        if w < 0:
            raise NegativeEntry(f"policy entry (s={s}, x={x}, u={subset}) is negative")
        key = (s, subset)
        by_subset[key] = by_subset.get(key, 0) + w
    zero, bits, witness = _factorization(by_subset, scale)
    check = AuditCheck(name="subset-independence", passed=zero, bits=bits, witness=witness)
    return AuditReport(checks=[check])


def check_size_bound(policy: ObfuscationPolicy, cond: ConditionalMatrix) -> AuditReport:
    """Exact per-rank comparison of the subset-size law against the
    guaranteed size weights: P(|U| <= i) >= sum of the first i weights.
    A policy whose K is not the matrix's raises DistributionError."""
    if policy.K != cond.K:
        raise DistributionError(f"policy has K={policy.K}, the matrix K={cond.K}")
    profile = likelihood_profile(cond)
    sizes = policy.size_marginal(cond)
    report = AuditReport()
    cum = cum_weights = 0
    for i in range(policy.K):
        cum += sizes[i]
        cum_weights += profile.size_weights[i]
        ok = cum >= cum_weights
        report.checks.append(
            AuditCheck(
                name=f"size-bound-rank-{i + 1}",
                passed=ok,
                bits=float(cum - cum_weights),
                witness=None if ok else (i + 1, cum, cum_weights),
            )
        )
    return report
