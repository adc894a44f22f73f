"""The two-request protocol: one private and one correlated non-private
retrieval, with exact download accounting.

The private request always runs the full-K retrieval scheme (its cost is
the capacity cost C(N, K) with no room for improvement). The non-private
request samples an obfuscation subset from a policy and runs the same
scheme over that subset, paying C(N, |u|).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .core import (
    ZERO,
    JointDistribution,
    MessageStore,
    SystemConfig,
    WeightedSampler,
    capacity_cost,
    fork_rng,
)
from .errors import InconsistentAnswers, InvalidParams
from .obfuscation import (
    LikelihoodProfile,
    ObfuscationPolicy,
    check_k,
    expected_cost,
    indices_of,
    subset_samplers,
)
from . import pir


@dataclass(frozen=True)
class CostReport:
    """Normalized download cost: downloaded bits over all servers / L."""

    total: Fraction


def local_transport(store: MessageStore):
    """In-process query/answer exchange against a store."""

    def exchange(queries):
        return [pir.pir_answer(q, store) for q in queries]

    return exchange


@dataclass(slots=True)
class RetrievalRecord:
    """One full retrieval: subset, queries, each server's answer bits,
    decoded message."""

    desired: int
    subset: tuple[int, ...]
    queries: list
    answers: list
    decoded: tuple[int, ...]

    @property
    def cost(self) -> CostReport:
        """Downloaded answer bits, normalized by the message length."""
        bits = sum(len(q.combos) for q in self.queries)
        return CostReport(total=_normalized(bits, len(self.decoded)))


@lru_cache(maxsize=4096)
def _normalized(bits: int, L: int) -> Fraction:
    """bits / L, one shared Fraction per pair, as records keep it."""
    return Fraction(bits, L)


@dataclass
class TwoRequestTranscript:
    """One trial's two retrievals: s is ``private.desired``, x is
    ``nonprivate.desired`` and u is ``nonprivate.subset``."""

    private: RetrievalRecord
    nonprivate: RetrievalRecord


@dataclass
class TwoRequestReport:
    cost_s: CostReport
    cost_x_expected: Fraction
    cost_x_empirical: Fraction
    samples: list = field(default_factory=list)  # (s, x, subset) per trial
    transcripts: list | None = None


def retrieve(
    params: pir.SchemeParams,
    desired: int,
    store: MessageStore,
    rng: random.Random,
    transport=None,
) -> RetrievalRecord:
    """Retrieve W_desired privately over ``params.subset`` and check it.

    Opens a session (a fresh key from ``rng``), exchanges the queries once
    through ``transport`` (in process by default), decodes, and compares
    the result with the local store; a mismatch raises InconsistentAnswers.
    """
    transport = transport or local_transport(store)
    session = pir.open_session(params, desired, rng)
    answers = transport(session.queries)
    decoded = session.decode(answers)
    if decoded != store.data[desired]:
        raise InconsistentAnswers(
            f"message {desired} over subset {params.subset}: decode mismatch"
        )
    # the store's tuple equals the decode; sharing it keeps kept records small
    return RetrievalRecord(
        desired=desired,
        subset=params.subset,
        queries=session.queries,
        answers=answers,
        decoded=store.data[desired],
    )


def guaranteed_cost_bound(profile: LikelihoodProfile, n_servers: int) -> Fraction:
    """Cost of the worst size law the construction guarantee permits:
    sum of size_weights[j] * C(N, j+1)."""
    return sum(
        (
            w * capacity_cost(n_servers, j + 1)
            for j, w in enumerate(profile.size_weights)
            if w != 0
        ),
        ZERO,
    )


def run_two_request(
    joint: JointDistribution,
    policy: ObfuscationPolicy,
    config: SystemConfig,
    store: MessageStore,
    trials: int,
    transport=None,
    keep_transcripts: bool = False,
    private_each_trial: bool = True,
) -> TwoRequestReport:
    """Monte-Carlo over (S, X) ~ joint; all randomness flows from config.seed.

    Every trial runs the obfuscated retrieval end to end (sample the subset,
    query, answer, decode, count bits). The private retrieval has a
    deterministic cost, so ``private_each_trial=False`` executes it once per
    distinct s instead of once per trial. That leaves the law of the
    non-private cost, ``cost_s``, ``cost_x_expected`` and every trial's
    (s, x) draw unchanged, but a skipped private key draw shifts the rest
    of that trial's stream, so the sampled subsets, and with them
    ``cost_x_empirical``, differ from a run with the flag on. A ``trials``
    that is not an int (a bool included) or is negative, a policy or config
    whose K is not the joint's (``check_k``), and a store whose K or L
    differs from the config's, raise InvalidParams, a policy with no
    entries at a request pair of positive mass raises UnsupportedPair, and
    a negative policy entry there raises NegativeEntry, all before any draw.
    """
    if type(trials) is not int:
        raise InvalidParams(f"trials must be an int, got {trials!r}")
    if trials < 0:
        raise InvalidParams(f"trials must be >= 0, got {trials}")
    check_k(joint, policy, config)
    config.check_store(store)
    transport = transport or local_transport(store)
    pair_sampler = WeightedSampler(
        ((s, x), w) for s, row in enumerate(joint.weights) for x, w in enumerate(row) if w
    )
    samplers = subset_samplers(policy, joint)
    params_by_mask = {
        mask: pir.pir_setup(config.N, indices_of(mask), config.L)
        for (_, _, mask) in policy.entries
    }
    full_params = pir.pir_setup(config.N, range(config.K), config.L)
    expected = expected_cost(policy, joint, config.N)

    private = None
    private_seen: set[int] = set()
    bits_x_total = 0
    samples = []
    transcripts = [] if keep_transcripts else None
    for trial in range(trials):
        # one named stream per trial, consumed in a fixed order: request
        # pair, private key, subset draw, non-private key
        trial_rng = fork_rng(config.seed, "trial", trial)
        s, x = pair_sampler.draw(trial_rng)

        if private_each_trial or keep_transcripts or s not in private_seen:
            private = retrieve(full_params, s, store, trial_rng, transport)
            private_seen.add(s)

        mask = samplers[(s, x)].draw(trial_rng)
        nonprivate = retrieve(params_by_mask[mask], x, store, trial_rng, transport)
        bits_x_total += sum(len(q.combos) for q in nonprivate.queries)
        samples.append((s, x, nonprivate.subset))
        if keep_transcripts:
            transcripts.append(TwoRequestTranscript(private, nonprivate))

    return TwoRequestReport(
        cost_s=private.cost
        if private is not None
        else CostReport(total=capacity_cost(config.N, config.K)),
        cost_x_expected=expected,
        cost_x_empirical=Fraction(bits_x_total, config.L * trials) if trials else ZERO,
        samples=samples,
        transcripts=transcripts,
    )
