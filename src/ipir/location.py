"""Online location-privacy mechanism over a Markov mobility model.

At private times the user retrieves content for the true location through
the full-K scheme (the subset is constant, so nothing leaks). At other
times the mechanism treats the tracked joint posterior of (current
location, latest private location) given the realized subset history as the
correlation law, solves for an obfuscation policy on the spot, samples a
subset containing the true location, retrieves over it, and conditions the
posterior on the realized subset. Policy construction guarantees the
released subset is exactly independent of the latest private location given
the history, which by the Markov structure protects every earlier private
location as well.

Each new posterior gets one integer law, ``policy_weights`` of its policy
under the transposed posterior, which the subset draw, the online audit
and every conditioning at that posterior read. A walk often comes back to
a posterior it has already seen. ``simulate`` therefore solves and audits
each distinct posterior once per call, keeping the solver used, the
integer law and the online audit in a dict that lives for that call
only; nothing is cached across calls. Reuse moves no random draw, so
a seed gives the same report as solving at every step.

Posterior tracking is the standard exact forward recursion, so the
per-step independence checks are equalities, not approximations. A
``PosteriorState`` holds its law as a ``JointDistribution``: integer
numerators over one common denominator in lowest terms, which the updates
produce directly from the model's transition numerators, scaled once per
matrix. The policy, the online audit and the reuse of solved posteriors
read those integers; the law was validated where it entered, as the
model's initial law and kernels, so no step validates it again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import (
    ZERO,
    JointDistribution,
    MessageStore,
    SystemConfig,
    WeightedSampler,
    as_fraction,
    conditional_from_joint,
    fork_rng,
    parse_rational,
    scale_to_integers,
)
from .errors import (
    DegeneratePosterior,
    DistributionError,
    InvalidParams,
    ScheduleMismatch,
)
from .obfuscation import (
    DEFAULT_LP_CAP,
    ObfuscationPolicy,
    build_lp,
    greedy_policy,
    indices_of,
    policy_weights,
    solve_lp,
    trivial_policy,
)
from . import audit
from . import pir
from .intermittent import retrieve


@dataclass(frozen=True)
class MobilityModel:
    """First-order Markov chain on [K]: initial law and transition matrices.

    ``transitions`` holds one row-stochastic matrix for a time-invariant
    chain, or one matrix per step t -> t+1 for a time-variant chain; more
    than one matrix for a time-invariant chain raises DistributionError.
    ``initial`` holds ``pi0``, and ``kernels`` each matrix, as (integers, D):
    the entries times D, the lcm of their denominators, scaled at build.
    """

    K: int
    pi0: tuple[Fraction, ...]
    transitions: tuple[tuple[tuple[Fraction, ...], ...], ...]
    time_variant: bool = False
    initial: tuple = field(init=False, repr=False, compare=False)
    kernels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self._check()
        except TypeError as exc:
            raise DistributionError(f"a model needs an int K and rational entries: {exc}") from None

    def _check(self):
        if len(self.pi0) != self.K:
            raise DistributionError(f"pi0 has {len(self.pi0)} entries, expected {self.K}")
        if any(v < 0 for v in self.pi0):
            raise DistributionError("pi0 has a negative entry")
        if sum(self.pi0, ZERO) != 1:
            raise DistributionError("pi0 does not sum to 1")
        weights, scale = scale_to_integers(self.pi0)
        object.__setattr__(self, "initial", (tuple(weights), scale))
        if not self.transitions:
            raise DistributionError("no transition matrix given")
        if len(self.transitions) > 1 and not self.time_variant:
            raise DistributionError(
                f"{len(self.transitions)} transition matrices for a time-invariant chain"
            )
        kernels = []
        for matrix in self.transitions:
            if len(matrix) != self.K:
                raise DistributionError("transition matrix is not K x K")
            if any(len(row) != self.K or any(v < 0 for v in row) for row in matrix):
                raise DistributionError("bad transition row")
            flat, scale = scale_to_integers([v for row in matrix for v in row])
            rows = tuple(tuple(flat[i : i + self.K]) for i in range(0, len(flat), self.K))
            if any(sum(row) != scale for row in rows):
                raise DistributionError("transition row does not sum to 1")
            kernels.append((rows, scale))
        object.__setattr__(self, "kernels", tuple(kernels))

    def _index(self, t: int) -> int:
        if not self.time_variant:
            return 0
        if t >= len(self.transitions):
            raise InvalidParams(f"no transition matrix for step {t}")
        return t

    def kernel_at(self, t: int) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The step t -> t+1 matrix as (integer rows, D)."""
        return self.kernels[self._index(t)]

    @classmethod
    def build(cls, pi0, transitions, time_variant=None) -> "MobilityModel":
        K = len(pi0)
        pi = tuple(map(as_fraction, pi0))
        mats = tuple(
            tuple(tuple(map(as_fraction, row)) for row in matrix) for matrix in transitions
        )
        if time_variant is None:
            time_variant = len(mats) > 1
        return cls(K=K, pi0=pi, transitions=mats, time_variant=time_variant)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MobilityModel":
        pi0 = [parse_rational(v) for v in data["pi0"]]
        raw = data["transitions"]
        # a single matrix is a list of rows of scalars; a sequence of
        # matrices nests one level deeper
        if raw and isinstance(raw[0][0], list):
            mats = [[[parse_rational(v) for v in row] for row in m] for m in raw]
            return cls.build(pi0, mats, time_variant=True)
        mats = [[[parse_rational(v) for v in row] for row in raw]]
        return cls.build(pi0, mats, time_variant=False)


def _check_ints(horizon, private):
    if type(horizon) is not int:
        raise InvalidParams(f"horizon must be an int, got {horizon!r}")
    if any(type(t) is not int for t in private):
        raise InvalidParams(f"private instants must be ints, got {private!r}")


@dataclass(frozen=True)
class PrivacySchedule:
    """Horizon and the set of time instants whose location is private. The
    horizon and every instant are ints, not bools or floats."""

    horizon: int
    private: frozenset[int]

    def __post_init__(self):
        _check_ints(self.horizon, self.private)
        if self.horizon < 0:
            raise InvalidParams("horizon must be nonnegative")
        if not self.private:
            raise InvalidParams("the private set is empty; nothing to protect")
        if any(t < 0 or t > self.horizon for t in self.private):
            raise InvalidParams("private instants must lie in [0, horizon]")
        if 0 not in self.private:
            raise InvalidParams(
                "the first instant must be private; use normalized() to shift time"
            )

    @classmethod
    def normalized(cls, horizon: int, private) -> "PrivacySchedule":
        """Shift time so the first private instant becomes t = 0; checks the
        horizon and instants are ints before the shift."""
        private = [*private]
        _check_ints(horizon, private)
        private = sorted(set(private))
        if not private:
            raise InvalidParams("the private set is empty; nothing to protect")
        shift = private[0]
        return cls(
            horizon=horizon - shift, private=frozenset(t - shift for t in private)
        )

    def is_private(self, t: int) -> bool:
        return t in self.private


@dataclass(frozen=True)
class PosteriorState:
    """Tracked joint law of (current location, latest private location)
    given the realized subsets (the step records keep them): ``law`` over
    (current, private), so ``law.table[a][b]`` = P(X_t=a, X_tau=b)."""

    t: int
    tau: int
    law: JointDistribution


def initial_posterior(model: MobilityModel) -> PosteriorState:
    weights, scale = model.initial
    diagonal = [[w if a == b else 0 for b in range(model.K)] for a, w in enumerate(weights)]
    return PosteriorState(t=0, tau=0, law=JointDistribution.over(diagonal, scale))


def advance_posterior(
    state: PosteriorState, model: MobilityModel, schedule: PrivacySchedule
) -> PosteriorState:
    """Push the tracked joint from time t to t+1 under the Markov kernel.

    The current coordinate moves one step while the private coordinate
    rides along. If t+1 is private the pair then collapses to the diagonal
    of the pushed-forward current marginal. The K^3 products and sums run
    on integers: the law's weights over its scale times the kernel's
    numerators over theirs, reduced once to lowest terms.
    """
    K = model.K
    t1 = state.t + 1
    weights = state.law.weights
    trans, trans_scale = model.kernel_at(state.t)
    pushed = [[0] * K for _ in range(K)]
    for a in range(K):
        row = trans[a]
        for b in range(K):
            w = weights[a][b]
            if w != 0:
                for a1 in range(K):
                    pushed[a1][b] += w * row[a1]
    tau = state.tau
    if schedule.is_private(t1):
        tau = t1
        pushed = [[sum(pushed[a1]) if a1 == b else 0 for b in range(K)] for a1 in range(K)]
    law = JointDistribution.over(pushed, state.law.scale * trans_scale)
    return PosteriorState(t=t1, tau=tau, law=law)


def condition_posterior(
    state: PosteriorState, weights: dict, subset_mask: int
) -> PosteriorState:
    """Condition the tracked joint on a realized subset and renormalize.

    ``weights`` is the step's integer law, ``policy_weights`` of its policy
    under the transposed posterior, so ``weights[b, a, subset_mask]`` is
    p(a, b) p(u|a, b) times a common factor, which cancels: the
    conditioned law is these products over their total, in lowest terms.
    """
    K = state.law.K
    conditioned = [[weights.get((b, a, subset_mask), 0) for b in range(K)] for a in range(K)]
    total = sum(map(sum, conditioned))
    if total == 0:
        raise DegeneratePosterior(
            f"step {state.t}: realized subset has zero tracked probability"
        )
    return replace(state, law=JointDistribution.over(conditioned, total))


def policy_for_posterior(
    posterior: JointDistribution, n_servers: int, solver: str = "lp"
) -> tuple[ObfuscationPolicy, str]:
    """Build the step policy from a posterior law over (current, private).

    ``posterior`` is P(current=a, private=b); a caller that holds a raw
    matrix builds it with ``validate_joint``. The private coordinate plays
    the correlated-request role, so the law handed to the optimizer is the
    transpose. ``solver`` is "lp" or "greedy"; the exact LP runs when
    K <= DEFAULT_LP_CAP and either it was asked for or the posterior has a
    private value of zero mass, which the greedy construction cannot take.
    Otherwise the greedy construction runs on full support, and the trivial
    policy on partial support. Returns the policy and which constructor
    produced it; when that is not ``solver``, the fallback is logged at
    INFO on the ``ipir.location`` logger.
    """
    if solver not in ("lp", "greedy"):
        raise InvalidParams(f"unknown solver {solver!r}")
    K = posterior.K
    law = posterior.transposed()
    # the weights are non-negative, so a private value has mass iff its
    # row has a nonzero weight
    full_support = all(any(row) for row in law.weights)
    if K <= DEFAULT_LP_CAP and (solver == "lp" or not full_support):
        policy, used = solve_lp(build_lp(law, n_servers)), "lp"
    elif full_support:
        policy, used = greedy_policy(conditional_from_joint(law)), "greedy"
    else:
        policy, used = trivial_policy(K), "trivial"
    if used != solver:
        # imported here, on a fallback path, because importing logging adds
        # about 0.4 MB to every process using ipir
        import logging

        logging.getLogger(__name__).info(
            "K=%d: solver %r asked, %r ran (LP cap %d, %s support)",
            K,
            solver,
            used,
            DEFAULT_LP_CAP,
            "full" if full_support else "partial",
        )
    return policy, used


@dataclass(slots=True)
class StepRecord:
    """Step ``t``: whether it is private, the true location ``x``, the released
    ``subset``, the ``decoded`` message (the store's own tuple), cost, online
    audit and solver. It keeps no query or answer; to see those, wrap the transport."""

    t: int
    private: bool
    x: int
    subset: tuple[int, ...]
    decoded: tuple[int, ...]
    cost: Fraction
    online_privacy_bits: float
    online_privacy_zero: bool
    solver: str


def _close_step(
    state: PosteriorState,
    x_t: int,
    retrieval,
    model: MobilityModel,
    schedule: PrivacySchedule,
    check: audit.AuditReport | None = None,
    solver: str = "none",
) -> tuple[StepRecord, PosteriorState]:
    """The step's record, and ``state`` advanced to t+1 unless t is the
    horizon. A private step passes no ``check``: its subset, the full set,
    is a constant, so nothing leaks."""
    record = StepRecord(
        t=state.t,
        private=check is None,
        x=x_t,
        subset=retrieval.subset,
        decoded=retrieval.decoded,
        cost=retrieval.cost.total,
        online_privacy_bits=0.0 if check is None else check.checks[0].bits,
        online_privacy_zero=check is None or check.passed,
        solver=solver,
    )
    if state.t < schedule.horizon:
        return record, advance_posterior(state, model, schedule)
    return record, state


def _check_step(state, model, config, store, **locations) -> None:
    """InvalidParams, naming the step, unless the store fits the config, the
    model and posterior have its K, and each location is an int in [K]."""
    config.check_store(store)
    K = config.K
    if model.K != K or state.law.K != K:
        raise InvalidParams(
            f"step {state.t}: model has K={model.K}, posterior K={state.law.K}, config K={K}"
        )
    for name, x in locations.items():
        if type(x) is not int or not 0 <= x < K:
            raise InvalidParams(f"step {state.t}: location {name}={x!r} is not an int in [0, {K})")


def step_private(
    state: PosteriorState,
    x_t: int,
    model: MobilityModel,
    schedule: PrivacySchedule,
    config: SystemConfig,
    store: MessageStore,
    rng: random.Random,
    transport=None,
) -> tuple[StepRecord, PosteriorState]:
    """Private step: full-K retrieval; posterior passes through, then advances."""
    _check_step(state, model, config, store, x_t=x_t)
    if not schedule.is_private(state.t):
        raise ScheduleMismatch(f"t={state.t} is not private")
    params = pir.pir_setup(config.N, range(config.K), config.L)
    retrieval = retrieve(params, x_t, store, rng, transport)
    return _close_step(state, x_t, retrieval, model, schedule)


def step_nonprivate(
    state: PosteriorState,
    x_t: int,
    x_tau: int,
    model: MobilityModel,
    schedule: PrivacySchedule,
    config: SystemConfig,
    store: MessageStore,
    rng: random.Random,
    solver: str = "lp",
    transport=None,
    solved: dict | None = None,
) -> tuple[StepRecord, PosteriorState]:
    """Non-private step: solve a policy for the tracked posterior, sample the
    subset around the true location, retrieve, condition, advance.

    ``x_tau`` is the true latest private location, known to the user; the
    subset is drawn as from ``policy.at(x_tau, x_t)``, over the law's counts.
    ``solved``, if given, holds the (solver used, integer law, online
    audit) of each posterior already met at this ``config.N`` and
    ``solver``; such a posterior is neither solved nor audited again, and a
    new one is added. Its keys are the posteriors' laws, in lowest terms,
    so equal posteriors share a key.
    """
    _check_step(state, model, config, store, x_t=x_t, x_tau=x_tau)
    if schedule.is_private(state.t):
        raise ScheduleMismatch(f"t={state.t} is private")
    if solved is None:
        solved = {}
    entry = solved.get(state.law)
    if entry is None:
        policy, used = policy_for_posterior(state.law, config.N, solver)
        weights, scale = policy_weights(policy, state.law.transposed())
        check = audit.audit_online_privacy(weights, scale)
        entry = solved[state.law] = used, weights, check
    used, weights, check = entry
    counts = sorted((u, w) for (s, x, u), w in weights.items() if s == x_tau and x == x_t)
    if not counts:
        raise DegeneratePosterior(f"step {state.t}: the locations have zero tracked probability")
    subset_mask = WeightedSampler(counts).draw(rng)
    params = pir.pir_setup(config.N, indices_of(subset_mask), config.L)
    retrieval = retrieve(params, x_t, store, rng, transport)
    conditioned = condition_posterior(state, weights, subset_mask)
    return _close_step(conditioned, x_t, retrieval, model, schedule, check, used)


@dataclass
class TraceReport:
    trace: tuple[int, ...]
    steps: list[StepRecord]
    total_cost: Fraction

    def all_private_zero(self) -> bool:
        return all(step.online_privacy_zero for step in self.steps)

    def all_decoded(self, store: MessageStore) -> bool:
        return all(step.decoded == store.data[step.x] for step in self.steps)


def sample_trace(
    model: MobilityModel, horizon: int, rng: random.Random
) -> tuple[int, ...]:
    """x_0 .. x_horizon, drawn over the model's integer laws: ``initial``,
    then row x_t of ``model.kernel_at(t)``, its zero entries left out."""
    x = WeightedSampler(enumerate(model.initial[0])).draw(rng)
    trace = [x]
    for t in range(horizon):
        x = WeightedSampler((v, w) for v, w in enumerate(model.kernel_at(t)[0][x]) if w).draw(rng)
        trace.append(x)
    return tuple(trace)


def simulate(
    model: MobilityModel,
    schedule: PrivacySchedule,
    config: SystemConfig,
    store: MessageStore,
    solver: str = "lp",
    transport=None,
) -> TraceReport:
    """Run the mechanism over a trace sampled from the model; deterministic
    in config.seed. A caller with a trace of its own drives
    ``step_private`` and ``step_nonprivate``."""
    trace = sample_trace(model, schedule.horizon, fork_rng(config.seed, "trace"))

    state = initial_posterior(model)
    steps: list[StepRecord] = []
    total = ZERO
    solved: dict = {}  # posterior -> (solver used, integer law, online audit)
    for t in range(schedule.horizon + 1):
        rng = fork_rng(config.seed, "step", t)
        if schedule.is_private(t):
            record, state = step_private(
                state, trace[t], model, schedule, config, store, rng, transport
            )
        else:
            record, state = step_nonprivate(
                state,
                trace[t],
                trace[state.tau],
                model,
                schedule,
                config,
                store,
                rng,
                solver,
                transport,
                solved,
            )
        steps.append(record)
        total += record.cost
    return TraceReport(trace=trace, steps=steps, total_cost=total)
