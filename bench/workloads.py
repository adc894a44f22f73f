"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), and a run then makes
calls into one public entry point of the library until its time is spent.
A ``Call`` names the input instance, the library seed and the number of
operations, so a traced replay can repeat exactly the same work. Latency
is timed from outside: the workload hands the library its own transport
callable, which stamps the end of every exchange.

Operations: a trial (two-request workloads), a step (``location_lp``) or
a sample, meaning one trial for one supported private value
(``audit_empirical``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from ipir import audit, core, intermittent, location, net, obfuscation


@dataclass(frozen=True)
class Call:
    index: int
    instance: int
    seed: int
    ops: int


@dataclass
class State:
    """Inputs of one set-up, plus the servers and transport it started."""

    instances: list
    store: core.MessageStore
    transport: object = None
    servers: list = field(default_factory=list)


class Stamps:
    """Transport wrapper that records when each exchange ends."""

    def __init__(self, inner):
        self.inner = inner
        self.ends: list[float] = []

    def __call__(self, queries):
        answers = self.inner(queries)
        self.ends.append(perf_counter())
        return answers


def random_row(rng: random.Random, K: int, positive: bool, denmax: int = 60) -> list[Fraction]:
    """A law on [K] that splits a random denominator at K-1 random cuts.

    With ``positive=False`` cuts may coincide, like the rows of the
    acceptance suite's instance stream; with ``positive=True`` they are
    distinct, so every entry is positive.
    """
    if positive:
        d = rng.randrange(K, denmax + 1)
        cuts = sorted(rng.sample(range(1, d), K - 1))
    else:
        d = rng.randrange(1, denmax + 1)
        cuts = sorted(rng.randrange(0, d + 1) for _ in range(K - 1))
    return [Fraction(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]


def relabel(rows, label):
    """A square matrix with its indices renamed by the permutation
    ``label``: entry (i, j) is entry (label[i], label[j]) of ``rows``."""
    return [[rows[a][b] for b in label] for a in label]


def greedy_instance(rows):
    """(joint, greedy policy) for conditional rows and a uniform prior."""
    K = len(rows)
    cond = core.ConditionalMatrix.from_rows(rows)
    joint = core.validate_joint([[v / K for v in row] for row in cond.rows])
    return joint, obfuscation.greedy_policy(cond)


class Workload:
    name = ""
    op = ""  # what one operation is
    latency_name = ""  # what the latency percentiles are called
    instances = 16  # input instances a run cycles through
    ops_per_call = 1
    # seconds between reference slices taken inside a call (see speed.py);
    # 0 for calls short enough to be timed between slices
    slice_every = 0.0
    N = K = L = 0

    def config(self, call: Call) -> core.SystemConfig:
        return core.SystemConfig(N=self.N, K=self.K, L=self.L, seed=call.seed)

    def call(self, seed: int, index: int) -> Call:
        rng = random.Random(f"{self.name}:{seed}:call:{index}")
        return Call(index, index % self.instances, rng.getrandbits(32), self.ops_per_call)

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def invoke(self, state: State, call: Call, stamps: Stamps):
        """Run one call; returns the library's report."""
        raise NotImplementedError

    def done(self, call: Call, stamps: Stamps) -> int:
        """Operations finished when a call aborts."""
        return 0

    def latencies(self, start: float, stamps: Stamps, end: float, raw: float) -> list[float]:
        """Latency samples of one call, in seconds; ``raw`` is the call's
        time without the reference slices taken inside it."""
        return [raw]

    def output(self, report):
        """What a traced replay must reproduce exactly."""
        raise NotImplementedError

    def check(self, state: State, call: Call, report) -> list[str]:
        """Failed output checks of one call."""
        return []

    def check_run(self, state: State, results) -> list[str]:
        """Failed checks that need the whole run."""
        return []

    def teardown(self, state: State) -> float:
        """Stop what set-up started; returns the seconds it took."""
        return 0.0


class TwoRequest(Workload):
    op = "trial"
    latency_name = "trial_ms"
    N = 2

    def __init__(self, name, K, L, ops_per_call, loopback):
        self.name = name
        self.K, self.L = K, L
        self.ops_per_call = ops_per_call
        self.loopback = loopback

    def setup(self, seed):
        # the conditional rows come from a fixed family and the seed
        # renames the messages of each instance, so every seed runs the
        # same mix of subset sizes: random families spread the trial rate
        # by 14-20% between seeds
        family = random.Random(f"{self.name}:family")
        rng = random.Random(f"{self.name}:{seed}:inputs")
        instances = [
            greedy_instance(relabel(
                [random_row(family, self.K, False) for _ in range(self.K)],
                rng.sample(range(self.K), self.K),
            ))
            for _ in range(self.instances)
        ]
        store = core.MessageStore.random(self.K, self.L, rng)
        state = State(instances=instances, store=store)
        if self.loopback:
            state.servers = [net.serve(store, ("127.0.0.1", 0)) for _ in range(self.N)]
            state.transport = net.RemoteTransport(
                addresses=[server.address for server in state.servers]
            )
        else:
            state.transport = intermittent.local_transport(store)
        return state

    def invoke(self, state, call, stamps):
        joint, policy = state.instances[call.instance]
        return intermittent.run_two_request(
            joint, policy, self.config(call), state.store, call.ops, transport=stamps
        )

    def done(self, call, stamps):
        return len(stamps.ends) // 2

    def latencies(self, start, stamps, end, raw):
        # a trial ends with its second exchange; the first trial of a call
        # also pays the call's sampler set-up, so it is left out
        ends = stamps.ends[1::2]
        return [b - a for a, b in zip(ends, ends[1:])]

    def output(self, report):
        return (tuple(report.samples), report.cost_x_empirical, report.cost_s.total)

    def check(self, state, call, report):
        joint, policy = state.instances[call.instance]
        # both costs are recomputed here rather than by the library's own
        # expected_cost, so a wrong formula there is caught too
        expected = sum(
            (
                joint.table[s][x] * p * core.capacity_cost(self.N, mask.bit_count())
                for (s, x, mask), p in policy.entries.items()
            ),
            Fraction(0),
        )
        empirical = sum(
            (core.capacity_cost(self.N, len(u)) for _, _, u in report.samples), Fraction(0)
        ) / call.ops
        failed = []
        if report.cost_s.total != core.capacity_cost(self.N, self.K):
            failed.append(f"call {call.index}: cost_s.total != C(N, K)")
        if report.cost_x_expected != expected:
            failed.append(f"call {call.index}: cost_x_expected != E[C(N, |U|)]")
        if report.cost_x_empirical != empirical:
            failed.append(f"call {call.index}: cost_x_empirical != mean C(N, |u|) of the samples")
        if len(report.samples) != call.ops:
            failed.append(f"call {call.index}: {len(report.samples)} samples for {call.ops} trials")
        return failed

    def check_run(self, state, results):
        if not self.loopback:
            return []
        # the wire must be transparent: an in-process run of the same calls
        # gives the same samples and costs, and the client counted exactly
        # the bits the queries ask for
        failed = []
        expected_bits = 0
        for result in results:
            joint, policy = state.instances[result.call.instance]
            local = intermittent.run_two_request(
                joint, policy, self.config(result.call), state.store,
                result.call.ops, keep_transcripts=True,
            )
            if result.report is not None and (
                local.samples != result.report.samples
                or local.cost_x_empirical != result.report.cost_x_empirical
            ):
                failed.append(f"call {result.call.index}: loopback differs from in-process")
            expected_bits += sum(
                len(q.combos)
                for t in local.transcripts
                for q in t.private.queries + t.nonprivate.queries
            )
        if state.transport.answer_bits != expected_bits:
            failed.append(
                f"answer_bits {state.transport.answer_bits} != sum of combos {expected_bits}"
            )
        return failed

    def teardown(self, state):
        if not self.loopback:
            return 0.0
        start = perf_counter()
        state.transport.close()
        for server in state.servers:
            server.close()
            server.wait()
        return perf_counter() - start


class LocationLp(Workload):
    name = "location_lp"
    op = "step"
    latency_name = "step_ms"  # of non-private steps
    N, K, L = 2, 3, 8
    instances = 32  # more than a run's calls: each simulation gets its own model
    schedule = location.PrivacySchedule(horizon=12, private=frozenset({0, 6}))
    ops_per_call = schedule.horizon + 1

    def setup(self, seed):
        # a fixed family of models with the locations renamed by the seed,
        # as for the two-request workloads
        family = random.Random(f"{self.name}:family")
        rng = random.Random(f"{self.name}:{seed}:inputs")
        models = []
        for _ in range(self.instances):
            # positive rows keep the posterior's support full, so every
            # non-private step solves an LP of the same shape
            pi0 = random_row(family, self.K, True)
            transitions = [random_row(family, self.K, True) for _ in range(self.K)]
            label = rng.sample(range(self.K), self.K)
            models.append(location.MobilityModel.build(
                [pi0[i] for i in label], [relabel(transitions, label)]
            ))
        store = core.MessageStore.random(self.K, self.L, rng)
        return State(
            instances=models, store=store, transport=intermittent.local_transport(store)
        )

    def invoke(self, state, call, stamps):
        return location.simulate(
            state.instances[call.instance], self.schedule, self.config(call),
            state.store, solver="lp", transport=stamps,
        )

    def done(self, call, stamps):
        return len(stamps.ends)

    def latencies(self, start, stamps, end, raw):
        # each step makes exactly one exchange; step t runs from the end of
        # exchange t-1 to the end of exchange t
        ends = stamps.ends
        return [
            ends[t] - ends[t - 1]
            for t in range(1, len(ends))
            if not self.schedule.is_private(t)
        ]

    def output(self, report):
        return (
            report.trace,
            tuple((step.subset, step.solver) for step in report.steps),
            report.total_cost,
        )

    def check(self, state, call, report):
        failed = []
        if not report.all_private_zero():
            failed.append(f"call {call.index}: a step leaks (online privacy not zero)")
        if not report.all_decoded(state.store):
            failed.append(f"call {call.index}: a step decoded the wrong message")
        cost = sum(
            (core.capacity_cost(self.N, len(step.subset)) for step in report.steps),
            Fraction(0),
        )
        if report.total_cost != cost:
            failed.append(f"call {call.index}: total_cost != sum of C(N, |subset|)")
        if len(report.steps) != call.ops:
            failed.append(f"call {call.index}: {len(report.steps)} steps for {call.ops}")
        return failed


class AuditEmpirical(Workload):
    name = "audit_empirical"
    op = "sample"
    latency_name = "audit_ms"  # of whole audit calls
    instances = 2  # one audit call takes more than a run's seconds
    N, K, L = 2, 3, 8
    # the uniform prior supports every private value
    ops_per_call = audit.EMPIRICAL_TRIALS * K
    slice_every = 0.25

    # the acceptance suite's empirical-audit instance; one audit fills a
    # run, and its cost follows the policy's subset-size law, so every run
    # audits this law under a seeded relabelling
    rows = [
        [Fraction(1, 10), Fraction(3, 10), Fraction(6, 10)],
        [Fraction(5, 10), Fraction(4, 10), Fraction(1, 10)],
        [Fraction(2, 10), Fraction(5, 10), Fraction(3, 10)],
    ]

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}:inputs")
        instances = []
        for _ in range(self.instances):
            instances.append(greedy_instance(relabel(self.rows, rng.sample(range(self.K), self.K))))
        return State(instances=instances, store=None)

    def invoke(self, state, call, stamps):
        joint, policy = state.instances[call.instance]
        return audit.audit_query_privacy(
            joint, policy, self.config(call), mode="empirical", seed=call.seed
        )

    def output(self, report):
        return report.to_json_dict()

    def check(self, state, call, report):
        failed = []
        if report.mode != "empirical":
            failed.append(f"call {call.index}: audit ran in mode {report.mode!r}")
        if not report.passed:
            failed.append(f"call {call.index}: audit did not pass: {report.to_json_dict()}")
        return failed


WORKLOADS = {
    w.name: w
    for w in (
        TwoRequest(
            "two_request_bulk", K=4, L=1024, ops_per_call=8, loopback=False,
        ),
        TwoRequest(
            "two_request_loopback", K=3, L=8, ops_per_call=40, loopback=True,
        ),
        LocationLp(),
        AuditEmpirical(),
    )
}

