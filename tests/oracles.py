"""Independent brute-force oracles.

These recompute, by global enumeration over traces, subset histories, and
scheme keys, the quantities the library derives by forward recursion, so
the two routes can be compared exactly. Nothing here reuses the library's
posterior-update code for the reference values. The module also keeps
the slower constructions that library code replaced, as the references
of the equivalence tests.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, groupby, permutations, product
from operator import itemgetter, lt, mul

from ipir.audit import AuditCheck, AuditReport, mutual_information
from ipir.core import (
    ConditionalMatrix,
    JointDistribution,
    SystemConfig,
    WeightedSampler,
    capacity_cost,
    conditional_from_joint,
    fork_rng,
    scale_to_integers,
    validate_joint,
)
from ipir.errors import (
    ConstructionFailed,
    DegeneratePosterior,
    DesiredNotInSubset,
    DistributionError,
    InconsistentAnswers,
    InvalidParams,
    IterationLimit,
    MalformedFrame,
    NegativeEntry,
    OutOfRange,
    PartialSupport,
    TooLarge,
    UnsupportedPair,
)
from ipir.location import (
    MobilityModel,
    PosteriorState,
    PrivacySchedule,
    TraceReport,
    advance_posterior,
    condition_posterior,
    initial_posterior,
    policy_for_posterior,
    sample_trace,
    step_nonprivate,
    step_private,
)
from ipir.obfuscation import (
    DEFAULT_LP_CAP,
    LikelihoodProfile,
    LpInstance,
    ObfuscationPolicy,
    ValidationReport,
    full_mask,
    indices_of,
    likelihood_profile,
    mask_of,
    policy_weights,
)
from ipir.net import ANSWER, ERROR, HELLO, QUERY, _HELLO_REPLY, _TAGGED_WORD, _WORD, _send
from ipir.simplex import SimplexSolution, minimize
from ipir import pir

ZERO = Fraction(0)
ONE = Fraction(1)


def key_count(params: pir.SchemeParams) -> int:
    """How many keys the scheme has: (block!)^(k * blocks)."""
    return math.factorial(params.block) ** (params.k * params.blocks)


def orbit_sizes(params: pir.SchemeParams, desired: int) -> tuple[int, ...]:
    """Each server's query orbit size for ``desired``, read off its label
    of ``pir.query_orbits``, the sorted combo masks of one block: with a_j
    atoms of member j and c_m combos of mask m, a block has
    prod P(N^k, a_j) / prod c_m! queries, and the blocks are independent."""
    sizes = []
    for masks in pir.query_orbits(params, desired):
        per_block = math.prod(
            math.perm(params.block, sum(m >> j & 1 for m in masks)) for j in range(params.k)
        ) // math.prod(math.factorial(len([*run])) for _, run in groupby(masks))
        sizes.append(per_block**params.blocks)
    return tuple(sizes)


def enumerate_keys(params: pir.SchemeParams):
    """All keys of the scheme; ``key_count`` of them."""
    block = params.block
    pools = [
        [tuple(base + p for p in perm) for perm in permutations(range(block))]
        for base in range(0, params.k * params.L, block)
    ]
    for rows in product(*pools):
        yield pir.PirKey([*chain.from_iterable(rows)])


def query_distribution(params: pir.SchemeParams, desired: int, server: int) -> dict:
    """Exact law of the canonical query at one server over a uniform key,
    from its own walk over the key space."""
    total = key_count(params)
    counts: Counter = Counter()
    for key in enumerate_keys(params):
        query = pir.PirSession.from_key(params, desired, key).queries[server]
        counts[query.combos] += 1
    return {combos: Fraction(n, total) for combos, n in counts.items()}


def query_counts(params: pir.SchemeParams, desired: int) -> list[Counter]:
    """Per server, how many keys of the scheme give each canonical query
    (its combos), from one walk over the key space: the query law at
    server n over a uniform key is ``counts[n][q] / key_count(params)``."""
    counts = [Counter() for _ in range(params.n_servers)]
    for key in enumerate_keys(params):
        session = pir.PirSession.from_key(params, desired, key)
        for by_query, query in zip(counts, session.queries):
            by_query[query.combos] += 1
    return counts


def query_laws(
    joint: JointDistribution,
    policy: ObfuscationPolicy,
    config: SystemConfig,
    counts: dict,
) -> tuple[list[dict], int]:
    """The law of (S, Q_n), the private request and the non-private query,
    at every server n, as integer weights over one scale: p(s, x) p(u|x,s)
    times the query law of the scheme over u for a uniform key, summed over
    x and u, query by query; the reference of ``ipir.audit._query_laws``,
    which keeps one entry per query orbit.

    The weight of (s, q) sums W(s, x, u) count_(u,x)(q) T/key_count(u)
    over the (S, X, U) weights W of ``policy_weights``, the key counts of
    ``query_counts`` and T, the lcm of the key counts of the subsets used.
    ``counts`` keeps each (mask, x)'s counts, walked once.
    """
    weights, scale = policy_weights(policy, joint)
    terms = []
    for (s, x, mask), w in weights.items():
        params = pir.pir_setup(config.N, indices_of(mask), config.L)
        if (mask, x) not in counts:
            counts[mask, x] = query_counts(params, x)
        terms.append((s, w, key_count(params), counts[mask, x]))
    T = math.lcm(*(total for _, _, total, _ in terms))
    laws: list[dict] = [{} for _ in range(config.N)]
    for s, w, total, per_server in terms:
        w *= T // total
        for law, by_query in zip(laws, per_server):
            for combos, c in by_query.items():
                key = (s, combos)
                law[key] = law.get(key, 0) + w * c
    return laws, scale * T


@dataclass
class MechanismNode:
    """One realizable subset history, observed just before the step at t."""

    t: int
    tau: int
    history: tuple[tuple[int, ...], ...]
    prob: Fraction  # P(history)
    tracked: PosteriorState
    brute_joint: tuple[tuple[Fraction, ...], ...]  # from trace enumeration
    prefix_weights: dict  # trace prefix -> P(prefix, history)
    policy: object  # policy the mechanism uses at this node (None when private)


def _brute_joint(prefix_weights: dict, t: int, tau: int, K: int):
    total = sum(prefix_weights.values(), ZERO)
    joint = [[ZERO] * K for _ in range(K)]
    for prefix, w in prefix_weights.items():
        joint[prefix[t]][prefix[tau]] += w / total
    return tuple(tuple(row) for row in joint)


def enumerate_mechanism(
    model: MobilityModel,
    schedule: PrivacySchedule,
    config: SystemConfig,
    solver: str = "lp",
    max_nodes: int = 20_000,
) -> list[MechanismNode]:
    """Walk every positive-probability subset history of the mechanism.

    The tracked posterior is advanced with the library's recursion; the
    reference posterior is recomputed at every node by summing over all
    trace prefixes consistent with the history.
    """
    K = model.K
    start_weights = {}
    for x0 in range(K):
        if model.pi0[x0] != 0:
            start_weights[(x0,)] = model.pi0[x0]
    # (tracked posterior, subset history, trace prefix weights, P(history))
    frontier = [(initial_posterior(model), (), start_weights, ONE)]
    nodes: list[MechanismNode] = []

    for t in range(schedule.horizon + 1):
        private = schedule.is_private(t)
        tau = max(i for i in schedule.private if i <= t)  # the latest private instant
        next_frontier = []
        for tracked, history, prefix_weights, prob in frontier:
            policy = None
            if not private:
                policy, _ = policy_for_posterior(tracked.law, config.N, solver)
            nodes.append(
                MechanismNode(
                    t=t,
                    tau=tau,
                    history=history,
                    prob=prob,
                    tracked=tracked,
                    brute_joint=_brute_joint(prefix_weights, t, tau, K),
                    prefix_weights=prefix_weights,
                    policy=policy,
                )
            )
            if len(nodes) > max_nodes:
                raise RuntimeError(f"enumeration exceeded {max_nodes} nodes")

            if private:
                branches = [(full_mask(K), None)]
            else:
                masks = sorted({m for (_, _, m) in policy.entries})
                branches = [(mask, policy) for mask in masks]
            for mask, pol in branches:
                if pol is None:
                    child_weights = dict(prefix_weights)
                    child_prob = prob
                else:
                    child_weights = {}
                    child_prob = ZERO
                    for prefix, w in prefix_weights.items():
                        p = pol.entries.get((prefix[tau], prefix[t], mask), ZERO)
                        if w * p != 0:
                            child_weights[prefix] = w * p
                    if not child_weights:
                        continue
                    total = sum(child_weights.values(), ZERO)
                    child_prob = prob * (total / sum(prefix_weights.values(), ZERO))
                child_tracked = (
                    tracked if pol is None
                    else condition_posterior(tracked, step_law(tracked, pol)[0], mask)
                )
                if t < schedule.horizon:
                    child_tracked = advance_posterior(child_tracked, model, schedule)
                    trans = transition_at(model, t)
                    extended = {}
                    for prefix, w in child_weights.items():
                        row = trans[prefix[t]]
                        for x1 in range(K):
                            if row[x1] != 0:
                                extended[prefix + (x1,)] = w * row[x1]
                    child_weights = extended
                next_frontier.append(
                    (child_tracked, history + (indices_of(mask),), child_weights, child_prob)
                )
        frontier = next_frontier
    return nodes


def node_query_leak(
    node: MechanismNode, schedule: PrivacySchedule, config: SystemConfig, server: int
) -> tuple[bool, float]:
    """I(private locations so far ; this step's query at one server | history),
    by full enumeration of subsets and scheme keys at this node."""
    t = node.t
    private_times = sorted(i for i in schedule.private if i <= t)
    total = sum(node.prefix_weights.values(), ZERO)
    entries: dict = {}
    dist_cache: dict = {}
    for prefix, w in node.prefix_weights.items():
        weight = w / total
        label = tuple(prefix[i] for i in private_times)
        x_t = prefix[t]
        if node.policy is None:
            choices = [(full_mask(config.K), ONE)]
        else:
            choices = node.policy.at(prefix[node.tau], x_t)
        for mask, p in choices:
            if p == 0:
                continue
            cache_key = (mask, x_t)
            if cache_key not in dist_cache:
                params = pir.pir_setup(config.N, indices_of(mask), config.L)
                dist_cache[cache_key] = query_distribution(params, x_t, server)
            for query, q in dist_cache[cache_key].items():
                key = (label, query)
                entries[key] = entries.get(key, ZERO) + weight * p * q
    return mutual_information(entries)


def online_privacy_factorization(state, policy: ObfuscationPolicy) -> tuple[bool, float]:
    """(independent?, bits) of the (latest private location, subset) law that
    a tracked posterior and the step policy induce, factor-checked directly
    over (b, mask) pairs without forming the transposed joint law."""
    K = policy.K
    entries: dict = {}
    for a in range(K):
        for b in range(K):
            w = state.law.table[a][b]
            if w == 0:
                continue
            for mask, p in policy.at(b, a):
                if p != 0:
                    key = (b, mask)
                    entries[key] = entries.get(key, ZERO) + w * p
    return mutual_information(entries)


def query_history_equivalence(
    model: MobilityModel, config: SystemConfig, server: int
) -> bool:
    """Check, for a two-step schedule {0} with horizon 1, that conditioning
    the trace posterior on the realized query history equals conditioning on
    the subset history alone, for every realizable query history."""
    schedule = PrivacySchedule(horizon=1, private=frozenset({0}))
    K = model.K
    full = full_mask(K)
    params_full = pir.pir_setup(config.N, range(K), config.L)
    y0_dist = {
        x0: query_distribution(params_full, x0, server) for x0 in range(K)
    }
    state1 = advance_posterior(initial_posterior(model), model, schedule)
    policy, _ = policy_for_posterior(state1.law, config.N, "lp")

    y1_dist: dict = {}
    for (_, x, mask), _p in policy.entries.items():
        if (mask, x) not in y1_dist:
            params = pir.pir_setup(config.N, indices_of(mask), config.L)
            y1_dist[(mask, x)] = query_distribution(params, x, server)

    # joint over (trace, y0, (mask, y1))
    weights: dict = {}
    trans = transition_at(model, 0)
    for x0 in range(K):
        if model.pi0[x0] == 0:
            continue
        for x1 in range(K):
            base = model.pi0[x0] * trans[x0][x1]
            if base == 0:
                continue
            for y0, w0 in y0_dist[x0].items():
                for mask, p in policy.at(x0, x1):
                    if p == 0:
                        continue
                    for y1, w1 in y1_dist[(mask, x1)].items():
                        key = ((x0, x1), y0, (mask, y1))
                        weights[key] = weights.get(key, ZERO) + base * w0 * p * w1

    # group by query history, compare to the subset-history posterior
    by_history: dict = {}
    for (trace, y0, (mask, y1)), w in weights.items():
        by_history.setdefault((y0, mask, y1), {}).setdefault(trace, ZERO)
        by_history[(y0, mask, y1)][trace] += w

    by_subset: dict = {}
    for (trace, _y0, (mask, _y1)), w in weights.items():
        by_subset.setdefault(mask, {}).setdefault(trace, ZERO)
        by_subset[mask][trace] += w

    for (y0, mask, y1), traces in by_history.items():
        total = sum(traces.values(), ZERO)
        subset_traces = by_subset[mask]
        subset_total = sum(subset_traces.values(), ZERO)
        for trace in set(traces) | set(subset_traces):
            left = traces.get(trace, ZERO) / total
            right = subset_traces.get(trace, ZERO) / subset_total
            if left != right:
                return False
    return True


def block_plan(params: pir.SchemeParams, desired_pos: int, key: pir.PirKey, block: int):
    """Generation-order combos per server plus the desired-bit decode plan.

    Decode entries are (position, server, combo, side_server, side_combo);
    singleton entries carry no side combo.
    """
    n_servers, k, subset = params.n_servers, params.k, params.subset
    offset = block * params.block
    perms = key_perms(params, key)
    streams = [iter(perms[j][block]) for j in range(k)]
    per_server: list[list] = [[] for _ in range(n_servers)]
    decode = []
    side_pool: dict[tuple, list[list]] = {}

    for n in range(n_servers):
        for j in range(k):
            pos = next(streams[j]) + offset
            combo = ((subset[j], pos),)
            per_server[n].append(combo)
            if j == desired_pos:
                decode.append((pos, n, combo, None, None))
            else:
                side_pool.setdefault((j,), [[] for _ in range(n_servers)])[n].append(combo)

    others = [j for j in range(k) if j != desired_pos]
    for size in range(2, k + 1):
        new_pool: dict[tuple, list[list]] = {}
        for n in range(n_servers):
            for side_type in sorted(side_pool):
                for m in range(n_servers):
                    if m == n:
                        continue
                    for side_combo in side_pool[side_type][m]:
                        pos = next(streams[desired_pos]) + offset
                        combo = tuple(sorted(side_combo + ((subset[desired_pos], pos),)))
                        per_server[n].append(combo)
                        decode.append((pos, n, combo, m, side_combo))
            for group in combinations(others, size):
                for _ in range((n_servers - 1) ** (size - 1)):
                    combo = tuple(
                        sorted((subset[j], next(streams[j]) + offset) for j in group)
                    )
                    per_server[n].append(combo)
                    new_pool.setdefault(group, [[] for _ in range(n_servers)])[n].append(combo)
        side_pool = new_pool

    return per_server, decode


def session_plan(params: pir.SchemeParams, desired: int, key: pir.PirKey):
    """Canonical queries and decode plan built combo by combo from the key.

    This is the direct construction that ``PirSession.from_key`` replaces
    with a cached key-free template; both must agree exactly.
    """
    desired_pos = params.subset.index(desired)
    per_server: list[list] = [[] for _ in range(params.n_servers)]
    decode = []
    for block in range(params.blocks):
        block_combos, block_decode = block_plan(params, desired_pos, key, block)
        for n in range(params.n_servers):
            per_server[n].extend(block_combos[n])
        decode.extend(block_decode)
    queries = [pir.PirQuery(tuple(sorted(combos))) for combos in per_server]
    return queries, decode


def key_from_perms(perms) -> pir.PirKey:
    """The key whose permutations are ``perms``: per subset member, one
    permutation of range(N^k) per block. Row (j, b) of its slots is
    ``perms[j][b]`` plus the row's base j * L + b * N^k."""
    rows = [row for member in perms for row in member]
    block = len(rows[0])
    return pir.PirKey([c * block + p for c, row in enumerate(rows) for p in row])


def key_perms(params: pir.SchemeParams, key: pir.PirKey):
    """The permutations of ``key``, per subset member one per block: row
    (j, b) of its slots less the row's base, the inverse of
    ``key_from_perms``."""
    block, slots = params.block, key.slots
    rows = (
        tuple(p - base for p in slots[base : base + block])
        for base in range(0, len(slots), block)
    )
    return tuple(zip(*[rows] * params.blocks))


def shuffle_key(params: pir.SchemeParams, rng) -> pir.PirKey:
    """The key draw that ``PirKey.random`` inlines: one ``rng.shuffle`` of
    the identity per (subset member, block), members outermost."""
    perms = []
    for _ in range(params.k):
        rows = []
        for _ in range(params.blocks):
            row = list(range(params.block))
            rng.shuffle(row)
            rows.append(tuple(row))
        perms.append(tuple(rows))
    return key_from_perms(tuple(perms))


@lru_cache(maxsize=None)
def pooled_template(n_servers: int, k: int, desired_pos: int):
    """Key-free shape of one block, built once per (N, k, desired position).

    This is the block template that ``PirSession.from_key`` compiled into
    flat gather tables over the key's slots; ``pooled_session`` fills it
    block by block.

    A key only fills in bit positions, and every block has the same shape.
    Atom j * N^k + t stands for message subset[j] at the t-th position drawn
    from its block's permutation, key_perms(params, key)[j][b][t] + b * N^k.
    Each combo is a tuple of atom indices in ascending order, which is
    ascending message order, so its first atom has the smallest subset
    position.

    Returns ``(singles, getters, plan, shapes)``. A block's pool is its atom
    list followed by the shared 1-tuple of each atom j * N^k + t, listed as
    (j, t) in ``singles``. ``getters[n]`` holds one ``(getter, j)`` pair per
    combo of server n, in generation order: the getter reads the combo off
    the pool, and j is the subset position of its first atom. Plan entries
    are (atom, server, first, side server, side first), where first is the
    pool index of the first atom of the combo that carries the desired
    atom, and side first that of the side combo it is XORed with;
    singletons have no side. ``shapes[n]`` lists the same combos as
    ``getters[n]``, each as its atoms' (j, t) pairs.

    Raises ``ConstructionFailed`` if two combos of one server share a first
    atom: the canonical order and the decode lookup both key on it.
    """
    block = n_servers**k
    drawn = [0] * k

    def atom(j):
        t = drawn[j]
        drawn[j] = t + 1
        return j * block + t

    per_server: list[list] = [[] for _ in range(n_servers)]
    decode = []
    side_pool: dict[tuple, list[list]] = {}
    for n in range(n_servers):
        for j in range(k):
            a = atom(j)
            if j == desired_pos:
                decode.append((a, n, a, None, None))
            else:
                side_pool.setdefault((j,), [[] for _ in range(n_servers)])[n].append(
                    len(per_server[n])
                )
            per_server[n].append((a,))

    others = [j for j in range(k) if j != desired_pos]
    for size in range(2, k + 1):
        new_pool: dict[tuple, list[list]] = {}
        for n in range(n_servers):
            for side_type in sorted(side_pool):
                for m in range(n_servers):
                    if m == n:
                        continue
                    for side in side_pool[side_type][m]:
                        a = atom(desired_pos)
                        combo = tuple(sorted(per_server[m][side] + (a,)))
                        decode.append((a, n, combo[0], m, per_server[m][side][0]))
                        per_server[n].append(combo)
            for group in combinations(others, size):
                for _ in range((n_servers - 1) ** (size - 1)):
                    new_pool.setdefault(group, [[] for _ in range(n_servers)])[n].append(
                        len(per_server[n])
                    )
                    per_server[n].append(tuple(atom(j) for j in group))
        side_pool = new_pool

    for n, combos in enumerate(per_server):
        if len({c[0] for c in combos}) != len(combos):
            raise ConstructionFailed(
                f"server {n} repeats a first atom at N={n_servers}, k={k}, "
                f"desired position {desired_pos}"
            )
    singles = [c[0] for combos in per_server for c in combos if len(c) == 1]
    slot = {a: k * block + i for i, a in enumerate(singles)}
    getters = tuple(
        tuple(
            (itemgetter(slot[c[0]]) if len(c) == 1 else itemgetter(*c), c[0] // block)
            for c in combos
        )
        for combos in per_server
    )
    shapes = tuple(
        tuple(tuple(divmod(a, block) for a in c) for c in combos) for combos in per_server
    )
    return tuple(divmod(a, block) for a in singles), getters, tuple(decode), shapes


@lru_cache(maxsize=None)
def _pooled_cells(subset: tuple[int, ...], L: int):
    """Per subset member, its (message, position) atoms and their 1-tuple
    combos."""
    atoms = tuple(tuple((msg, pos) for pos in range(L)) for msg in subset)
    return atoms, tuple(tuple((atom,) for atom in row) for row in atoms)


def _pools(params: pir.SchemeParams, desired: int, key: pir.PirKey):
    """Per block, the key's atoms of every subset member followed by the
    1-tuples of the template's singletons: the pools the template's getters
    read."""
    singles, *_ = pooled_template(params.n_servers, params.k, params.subset.index(desired))
    cells, units = _pooled_cells(params.subset, params.L)
    pools = []
    for offset, rows in zip(range(0, params.L, params.block), zip(*key_perms(params, key))):
        pool = [atoms[p + offset] for atoms, row in zip(cells, rows) for p in row]
        pool += [units[j][rows[j][t] + offset] for j, t in singles]
        pools.append(pool)
    return pools


@dataclass
class PooledSession:
    """Queries and decode of one retrieval built from per-block pools.

    This is the construction that ``PirSession.from_key`` and
    ``PirSession.decode`` replaced with gathers through the key's flat
    slots: per block, a pool of the key's atoms feeds the template's
    per-combo getters, each combo goes to slot j * L + p of its first atom
    (subset[j], p), and decode looks each combo's answer bit up by its
    first atom. Both must agree exactly.
    """

    params: pir.SchemeParams
    queries: list
    plan: list  # (position, server, first atom, side server, side first atom)

    def decode(self, answers) -> tuple[int, ...]:
        if len(answers) != len(self.queries):
            raise InconsistentAnswers(
                f"{len(answers)} answers for {len(self.queries)} queries"
            )
        lookup = []
        for n, (query, answer) in enumerate(zip(self.queries, answers)):
            if len(answer) != len(query.combos):
                raise InconsistentAnswers(
                    f"server {n} answered {len(answer)} bits "
                    f"for {len(query.combos)} combos"
                )
            lookup.append(dict(zip([c[0] for c in query.combos], answer)))
        bits = [0] * self.params.L
        for pos, n, first, side_server, side_first in self.plan:
            value = lookup[n][first]
            if side_first is not None:
                value ^= lookup[side_server][side_first]
            bits[pos] = value
        return tuple(bits)


def pooled_session(params: pir.SchemeParams, desired: int, key: pir.PirKey) -> PooledSession:
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    _, getters, plan, _ = pooled_template(
        params.n_servers, params.k, params.subset.index(desired)
    )
    pools = _pools(params, desired, key)
    L = params.L
    queries = []
    for n, combos in enumerate(getters):
        slots = [None] * (params.k * L)
        placed = [(get, j * L) for get, j in combos]
        for pool in pools:
            for get, base in placed:
                combo = get(pool)
                slots[base + combo[0][1]] = combo
        queries.append(pir.PirQuery(tuple(filter(None, slots))))
    decode = [
        (pool[a][1], n, pool[first], m, None if m is None else pool[side])
        for pool in pools
        for a, n, first, m, side in plan
    ]
    return PooledSession(params, queries, decode)


def checked_answer(query: pir.PirQuery, store) -> tuple[int, ...]:
    """XOR-evaluate each combo, checking every atom before reading it.

    This is the loop that ``pir.pir_answer`` replaced with one sign test
    per atom; both must give the same bits, and raise the same exception
    with the same message.
    """
    data = store.data
    K, L = store.K, store.L
    bits = []
    for combo in query.combos:
        acc = 0
        for msg, pos in combo:
            if not (0 <= msg < K) or not (0 <= pos < L):
                raise OutOfRange(f"combo references ({msg}, {pos})")
            acc ^= data[msg][pos]
        bits.append(acc)
    return tuple(bits)


def sorted_queries(params: pir.SchemeParams, desired: int, key: pir.PirKey):
    """Canonical queries by a lexicographic sort of the template's combos.

    This is the construction that placing each combo by its first atom
    replaced; both must agree exactly.
    """
    _, getters, _, _ = pooled_template(
        params.n_servers, params.k, params.subset.index(desired)
    )
    pools = _pools(params, desired, key)
    return [
        pir.PirQuery(tuple(sorted([get(pool) for pool in pools for get, _ in combos])))
        for combos in getters
    ]


def sample_orders(params: pir.SchemeParams, desired: int, rng):
    """The N servers' canonical combo orders of one fresh session, without
    the session.

    This is the sampler that ``sample_order_key``, with
    ``pir.slot_orders`` run once per distinct key, replaced in the
    empirical audit; on the same rng the orders are equal and the stream
    moves alike. Draws the key's slots as ``PirKey.random`` does, so the
    stream moves exactly as in ``open_session``. Each combo goes to the
    slot of its first atom, as in ``PirSession.from_key``, as the id
    ``b << k | m`` (positive) of the cells its atoms fall in: block b,
    subset positions in the mask m. Server n's order is its ids in slot
    order; ``order_pattern`` turns it into that server's
    ``query_pattern``.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    servers = pir._tables(params.n_servers, params.k, params.blocks, params.subset.index(desired))[0]
    slots = pir.PirKey.random(params, rng).slots
    orders = []
    for firsts, ids, _, _, _ in servers:
        placed = [0] * len(slots)
        for slot, cid in zip(firsts(slots), ids):
            placed[slot] = cid
        orders.append(tuple(filter(None, placed)))
    return orders


def keyed_sample_orders(params: pir.SchemeParams, desired: int, rng):
    """The N servers' canonical combo orders of one fresh session, from a
    drawn key.

    This is the sampler that ``sample_orders`` replaced with a read of the
    key rows from one flat list: it draws the key with ``PirKey.random``,
    so the stream moves exactly as in ``open_session``, and scatters each
    combo of server n by its first atom (j, t) to slot
    j * L + b * N^k + ``perms[j][b][t]``, as the id ``b << k | m`` of the
    cells its atoms fall in, m the mask of their subset positions. Both must
    agree exactly, and leave the stream at the same place.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    perms = key_perms(params, pir.PirKey.random(params, rng))
    *_, shapes = pooled_template(params.n_servers, params.k, params.subset.index(desired))
    orders = []
    for combos in shapes:
        slots = [0] * (params.k * params.L)
        for b in range(params.blocks):
            for combo in combos:
                j, t = combo[0]
                slot = j * params.L + b * params.block + perms[j][b][t]
                slots[slot] = b << params.k | sum(1 << i for i, _ in combo)
        orders.append(tuple(filter(None, slots)))
    return orders


def order_pattern(params: pir.SchemeParams, order: tuple[int, ...]):
    """The ``query_pattern`` of the query whose combos ``pir.slot_orders``
    gave as ``order``.

    This is the map that the empirical audit dropped when it began to count
    orders, the patterns' one-to-one labels within a subset. Within one
    server's query every atom appears at most once, so an atom's
    first-appearance rank in its (message, block) cell is the number of
    that cell's atoms met before it in canonical order.
    """
    k, subset = params.k, params.subset
    seen = [0] * (k * params.blocks)
    pattern = []
    for cid in order:
        b = cid >> k
        out = []
        for j in range(k):
            if cid >> j & 1:
                c = j * params.blocks + b
                out.append((subset[j], b, seen[c]))
                seen[c] += 1
        pattern.append(tuple(out))
    return tuple(pattern)


def sample_patterns(params: pir.SchemeParams, desired: int, rng):
    """The N servers' ``query_pattern`` of one fresh session, without the
    session, built pattern by pattern.

    This is the sampler that ``sample_orders`` replaced in the empirical
    audit, which counts orders instead; on the same rng the orders mapped
    through ``order_pattern`` give the same patterns. Draws the key with
    ``PirKey.random``, so the stream moves exactly as in ``open_session``.
    Each combo of server n goes to the slot of its first atom, as in
    ``PirSession.from_key``. Within one server's query every atom appears
    at most once, so an atom's first-appearance rank in its (message,
    block) cell is the number of that cell's atoms met before it in
    canonical order: scanning the slots gives the pattern.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    rows = [row for perms in key_perms(params, pir.PirKey.random(params, rng)) for row in perms]
    servers, labels, size = _cell_plan(
        params.n_servers, params.subset, params.L, params.subset.index(desired)
    )
    patterns = []
    for placed in servers:
        slots = [None] * size
        for r, t, base, cells in placed:
            slots[base + rows[r][t]] = cells
        ranks = [iter(cell).__next__ for cell in labels]
        patterns.append(
            tuple(
                tuple([ranks[c]() for c in cells])
                for cells in slots
                if cells is not None
            )
        )
    return patterns


@lru_cache(maxsize=None)
def _cell_plan(n_servers: int, subset: tuple[int, ...], L: int, desired_pos: int):
    """Key-free placement for ``sample_patterns``.

    Cell c = j * blocks + b is message subset[j] in block b, and key row c
    is ``key_perms(params, key)[j][b]``. Returns ``(servers, labels, size)``:
    ``servers[n]`` holds one ``(row, t, base, cells)`` entry per combo of
    server n and block: its first atom (j, t) lands at slot base plus item
    t of key row ``row``, base = j * L + b * N^k, and its atoms fall in
    ``cells`` in combo order. ``labels[c]`` lists the pattern entries
    (subset[j], b, rank) of cell c by rank, and ``size`` is k * L slots.
    """
    k = len(subset)
    block = n_servers**k
    blocks = L // block
    *_, shapes = pooled_template(n_servers, k, desired_pos)
    servers = tuple(
        tuple(
            (
                combo[0][0] * blocks + b,
                combo[0][1],
                combo[0][0] * L + b * block,
                tuple(j * blocks + b for j, _ in combo),
            )
            for b in range(blocks)
            for combo in combos
        )
        for combos in shapes
    )
    labels = tuple(
        tuple((subset[j], b, rank) for rank in range(block))
        for j in range(k)
        for b in range(blocks)
    )
    return servers, labels, k * L


def sample_order_key(params: pir.SchemeParams, desired: int, rng):
    """``(key, slots)``: a fresh key's slots, drawn as ``PirKey.random``
    draws them, and a bytes key that fixes every server's
    ``pir.slot_orders``.

    This is the sampler that ``pir.order_key_plan`` replaced with a draw
    set up once per (params, desired): it checks the desired message, reads
    the cached ``pir._order_key`` gathers and shuffles through
    ``pir.PirKey.random`` on every call. On copies of one stream both
    give the same key and slots and leave the stream at the same place.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    left, right = pir._order_key(
        params.n_servers, params.k, params.blocks, params.subset.index(desired)
    )
    slots = pir.PirKey.random(params, rng).slots
    return bytes(map(lt, left(slots), right(slots))), slots


def keyed_order_counts(
    joint: JointDistribution,
    samplers: dict,
    config: SystemConfig,
    trials: int,
    seed: int,
):
    """``counts[server][s][mask]`` of the empirical query-privacy audit,
    one ``sample_order_key`` call per sample.

    This is the loop that ``audit._order_counts`` replaced with plans set
    up once per (s, x, mask): per sample it probes a per-s map of masks,
    calls ``sample_order_key`` and probes the audit-wide map of keys. Both
    must give the same Counters, with masks and orders in the same
    first-seen order.
    """
    counts: list[dict[int, dict[int, Counter]]] = [{} for _ in range(config.N)]
    by_key: dict = {}  # (mask, x, key) -> each server's order, over the whole audit
    interned: dict = {}  # order -> itself, so equal orders are one object
    for s in joint.support():
        x_sampler = WeightedSampler((x, w) for x, w in enumerate(joint.weights[s]) if w)
        rng = fork_rng(seed, "audit-empirical", s)
        by_mask: dict[int, tuple] = {}
        for _ in range(trials):
            x = x_sampler.draw(rng)
            mask = samplers[(s, x)].draw(rng)
            if mask not in by_mask:
                by_mask[mask] = (pir.pir_setup(config.N, indices_of(mask), config.L), {})
            params, seen = by_mask[mask]
            key, slots = sample_order_key(params, x, rng)
            key = mask, x, key
            if key not in by_key:
                scattered = pir.slot_orders(params, x, slots)
                by_key[key] = tuple(interned.setdefault(order, order) for order in scattered)
            seen[key] = seen.get(key, 0) + 1
        for by_s in counts:
            by_s[s] = {mask: Counter() for mask in by_mask}
        for mask, (_, seen) in by_mask.items():
            for key, n in seen.items():
                for by_s, order in zip(counts, by_key[key]):
                    by_s[s][mask][order] += n
    return counts


def session_pattern_counts(
    joint: JointDistribution,
    policy: ObfuscationPolicy,
    config: SystemConfig,
    trials: int,
    seed: int,
):
    """``counts[server][s][mask]`` of the empirical query-privacy audit,
    counted from full sessions.

    This is the loop that ``audit._order_counts`` replaced with counting
    the order keys of ``sample_order_key`` and mapping each distinct
    one to its orders once: it opens every PIR session and keeps
    ``query_pattern`` of each query. Each counted order mapped through
    ``order_pattern`` must give these counts exactly, down to the order in
    which each Counter first sees its patterns.
    """
    cond = conditional_from_joint(joint)
    samplers = {
        (s, x): fraction_sampler(policy.at(s, x))
        for s, x in sorted({(s, x) for s, x, _ in policy.entries})
        if s in cond.support and cond.rows[s][x] != 0
    }
    params_cache: dict[int, pir.SchemeParams] = {}
    pattern_counts: list[dict[int, dict[int, Counter]]] = [
        {s: {} for s in cond.support} for _ in range(config.N)
    ]
    for s in cond.support:
        x_sampler = fraction_sampler(
            (x, cond.rows[s][x]) for x in range(config.K) if cond.rows[s][x] != 0
        )
        rng = fork_rng(seed, "audit-empirical", s)
        for _ in range(trials):
            x = x_sampler.draw(rng)
            mask = samplers[(s, x)].draw(rng)
            params = params_cache.get(mask)
            if params is None:
                params = pir.pir_setup(config.N, indices_of(mask), config.L)
                params_cache[mask] = params
            session = pir.open_session(params, x, rng)
            for server, query in enumerate(session.queries):
                by_mask = pattern_counts[server][s]
                counts = by_mask.get(mask)
                if counts is None:
                    counts = by_mask[mask] = Counter()
                counts[pir.query_pattern(params, query)] += 1
    return pattern_counts


# The two-phase simplex for equality rows that ipir.simplex.minimize
# replaced with a one-phase solve from the slack basis: the solver of the
# (s, x, u) LP, of the equality-form covering LP and of the simplex routing.

# consecutive non-improving pivots tolerated before switching to Bland
STALL_LIMIT = 12


class _Unbounded(Exception):
    """Raised by ``_two_phase_run`` and ``_fraction_run``; ``args[0]`` is
    the pivot count so far."""


def _solution(status: str, x, pivots: int) -> SimplexSolution:
    """A ``SimplexSolution`` from its x as Fractions (None if there is none)."""
    numerators, denominator = (None, 1) if x is None else scale_to_integers(x)
    return SimplexSolution(status, numerators, denominator, pivots)


def objective(costs, solution: SimplexSolution) -> Fraction | None:
    """c·x of a solution, None if it has no x."""
    x = solution.x
    return None if x is None else sum(map(mul, costs, x), ZERO)


def two_phase_minimize(costs, rows, rhs, max_pivots: int = 200_000) -> SimplexSolution:
    """Two-phase simplex for min c.x s.t. A x = b, x >= 0 (equalities only)."""
    n = len(costs)
    costs = [Fraction(c) for c in costs]
    tableau = []
    b = []
    for row, value in zip(rows, rhs):
        row = [Fraction(v) for v in row]
        value = Fraction(value)
        if value < 0:
            row = [-v for v in row]
            value = -value
        tableau.append(row)
        b.append(value)
    m = len(tableau)

    # phase 1: one artificial variable per row, basis = artificials;
    # reduced costs r_j = -sum_i A_ij for original columns, 0 for artificials
    for i in range(m):
        tableau[i].extend(ONE if i == j else ZERO for j in range(m))
        tableau[i].append(b[i])
    basis = [n + i for i in range(m)]
    z = [-sum(tableau[i][j] for i in range(m)) for j in range(n)]
    z += [ZERO] * m + [-sum(b)]

    pivots = _two_phase_run(tableau, z, basis, max_pivots)
    if z[-1] != 0:
        return _solution("infeasible", None, pivots)

    # drive leftover artificials out of the basis; all-zero rows are redundant
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                continue
            _two_phase_pivot(tableau, z, basis, i, col)
            pivots += 1
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: original objective expressed over the current basis
    z = costs + [ZERO]
    for i, var in enumerate(basis):
        coeff = z[var]
        if coeff != 0:
            row = tableau[i]
            for j in range(n):
                z[j] -= coeff * row[j]
            z[-1] -= coeff * row[-1]

    try:
        pivots += _two_phase_run(tableau, z, basis, max_pivots - pivots)
    except _Unbounded as exc:
        return _solution("unbounded", None, pivots + exc.args[0])

    x = [ZERO] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return _solution("optimal", x, pivots)


def _two_phase_run(tableau, z, basis, budget: int) -> int:
    """Pivot to optimality in place; returns the pivot count."""
    m = len(tableau)
    n = len(z) - 1
    pivots = 0
    stall = 0
    bland = False
    while True:
        entering = None
        if bland:
            for j in range(n):
                if z[j] < 0:
                    entering = j
                    break
        else:
            best = ZERO
            for j in range(n):
                if z[j] < best:
                    best = z[j]
                    entering = j
        if entering is None:
            return pivots

        leaving = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise _Unbounded(pivots)
        if pivots >= budget:
            raise IterationLimit(f"no optimum within {budget} pivots")

        before = z[-1]
        _two_phase_pivot(tableau, z, basis, leaving, entering)
        pivots += 1
        if z[-1] == before:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False


def _two_phase_pivot(tableau, z, basis, row: int, col: int):
    pivot_row = tableau[row]
    inv = ONE / pivot_row[col]
    tableau[row] = [v * inv for v in pivot_row]
    pivot_row = tableau[row]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            factor = other[col]
            tableau[i] = [v - factor * p for v, p in zip(other, pivot_row)]
    if z[col] != 0:
        factor = z[col]
        for j in range(len(z)):
            z[j] -= factor * pivot_row[j]
    basis[row] = col


# The one-phase dictionary-form simplex in Fraction arithmetic that
# ipir.simplex.minimize replaced with an integer tableau under one common
# denominator: the same pivots, with a gcd on every operation.


def fraction_minimize(costs, rows, rhs, max_pivots: int = 200_000) -> SimplexSolution:
    """Simplex for min c.x s.t. A x <= b, x >= 0, started from the slack basis.

    Variable j < n is column j of A; variable n + i is the slack of row i.
    A negative entry of b raises InvalidParams.
    """
    n = len(costs)
    b = [Fraction(v) for v in rhs]
    if any(v < 0 for v in b):
        raise InvalidParams(f"rhs must be >= 0, got {min(b)}")
    tableau = [[Fraction(v) for v in row] + [value] for row, value in zip(rows, b)]
    z = [Fraction(c) for c in costs] + [ZERO]
    basis = [n + i for i in range(len(tableau))]
    nonbasic = list(range(n))

    try:
        pivots = _fraction_run(tableau, z, basis, nonbasic, max_pivots)
    except _Unbounded as exc:
        return _solution("unbounded", None, exc.args[0])

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return _solution("optimal", x, pivots)


def _fraction_run(tableau, z, basis, nonbasic, budget: int) -> int:
    """Pivot to optimality in place; returns the pivot count."""
    m = len(tableau)
    n = len(nonbasic)
    pivots = 0
    stall = 0
    bland = False
    while True:
        entering = None
        if bland:
            # the smallest variable, not column, with a negative reduced cost
            for j in range(n):
                if z[j] < 0 and (entering is None or nonbasic[j] < nonbasic[entering]):
                    entering = j
        else:
            best = ZERO
            for j in range(n):
                if z[j] < best:
                    best = z[j]
                    entering = j
        if entering is None:
            return pivots

        leaving = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise _Unbounded(pivots)
        if pivots >= budget:
            raise IterationLimit(f"no optimum within {budget} pivots")

        before = z[-1]
        _fraction_pivot(tableau, z, basis, nonbasic, leaving, entering)
        pivots += 1
        if z[-1] == before:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False


def _fraction_pivot(tableau, z, basis, nonbasic, row: int, col: int):
    """Swap basis[row] and nonbasic[col]; the leaving variable takes over
    column ``col``, whose entries become 1/p in the pivot row and -a/p
    elsewhere (p the pivot, a the row's old entry in the column)."""
    pivot_row = tableau[row]
    inv = ONE / pivot_row[col]
    pivot_row[col] = ONE
    pivot_row = tableau[row] = [v * inv for v in pivot_row]
    for i, other in enumerate(tableau):
        factor = other[col]
        if i != row and factor != 0:
            other[col] = ZERO
            tableau[i] = [v - factor * p for v, p in zip(other, pivot_row)]
    factor = z[col]
    if factor != 0:
        z[col] = ZERO
        for j in range(len(z)):
            z[j] -= factor * pivot_row[j]
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


# The (s, x, u) formulation of the obfuscation LP, the reference for the
# covering LP in ipir.obfuscation: one variable p(u|x,s) per triple with
# x in u, a normalization row per (s, x) and a marginal-matching row per
# (s, u) against the first supported s.


@dataclass(frozen=True)
class SxuLpInstance:
    """Explicit LP over the decision variables p(u|x,s), x in u.

    Equality rows are normalizations (one per (s, x) with s supported) and
    marginal-matching rows against the first supported s (one per other
    supported s and non-empty subset). Non-negativity is implicit.
    """

    K: int
    n_servers: int
    support: tuple[int, ...]
    variables: tuple[tuple[int, int, int], ...]  # (s, x, mask)
    costs: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


def sxu_build_lp(
    joint: JointDistribution, n_servers: int, cap: int = DEFAULT_LP_CAP
) -> SxuLpInstance:
    if joint.K > cap:
        raise TooLarge(f"K={joint.K} exceeds the LP cap {cap}")
    K = joint.K
    cond = conditional_from_joint(joint)
    support = cond.support
    variables = []
    costs = []
    for s in support:
        for x in range(K):
            for mask in range(1, 1 << K):
                if mask >> x & 1:
                    variables.append((s, x, mask))
                    costs.append(joint.table[s][x] * capacity_cost(n_servers, mask.bit_count()))
    index = {v: j for j, v in enumerate(variables)}
    n = len(variables)

    rows = []
    rhs = []
    for s in support:
        for x in range(K):
            row = [ZERO] * n
            for mask in range(1, 1 << K):
                if mask >> x & 1:
                    row[index[(s, x, mask)]] = ONE
            rows.append(row)
            rhs.append(ONE)
    ref = support[0]
    for s in support[1:]:
        for mask in range(1, 1 << K):
            row = [ZERO] * n
            for x in indices_of(mask):
                row[index[(s, x, mask)]] += cond.rows[s][x]
                row[index[(ref, x, mask)]] -= cond.rows[ref][x]
            rows.append(row)
            rhs.append(ZERO)

    return SxuLpInstance(
        K=K,
        n_servers=n_servers,
        support=support,
        variables=tuple(variables),
        costs=tuple(costs),
        rows=tuple(tuple(r) for r in rows),
        rhs=tuple(rhs),
    )


def sxu_solve_lp(instance: SxuLpInstance) -> ObfuscationPolicy:
    """Vertex-optimal policy for the instance, in exact rationals."""
    solution = two_phase_minimize(instance.costs, instance.rows, instance.rhs)
    # the full-set policy is always feasible, so the LP cannot be infeasible
    # or unbounded for well-formed instances
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    entries = {
        var: value
        for var, value in zip(instance.variables, solution.x)
        if value != 0
    }
    return ObfuscationPolicy(K=instance.K, entries=entries)


# The covering LP in equality form, which ipir.obfuscation.build_lp
# replaced with the <= form that leaves out m([K]): a variable m(u) for
# every nonempty mask u, then a slack per proper mask b. Solved by the
# two-phase simplex, its optimum is the least expected cost itself.


def equality_build_lp(
    joint: JointDistribution, n_servers: int, cap: int = DEFAULT_LP_CAP
) -> LpInstance:
    """Variables ("m", u) for every nonempty mask u, then ("slack", b) for
    every proper nonempty mask b. Equality rows: sum_u m(u) = 1, and per b
    sum_{u within b} m(u) + slack_b = min_s p(b|s) over the supported s."""
    if joint.K > cap:
        raise TooLarge(f"K={joint.K} exceeds the LP cap {cap}")
    K = joint.K
    cond = conditional_from_joint(joint)
    masks = range(1, 1 << K)
    proper = masks[:-1]
    variables = [("m", u) for u in masks] + [("slack", b) for b in proper]
    costs = [capacity_cost(n_servers, u.bit_count()) for u in masks] + [ZERO] * len(proper)
    rows = [[ONE] * len(masks) + [ZERO] * len(proper)]
    rhs = [ONE]
    for j, b in enumerate(proper):
        rows.append(
            [ONE if u & b == u else ZERO for u in masks]
            + [ONE if i == j else ZERO for i in range(len(proper))]
        )
        rhs.append(min(sum((cond.rows[s][x] for x in indices_of(b)), ZERO) for s in cond.support))
    return LpInstance(
        K=K,
        n_servers=n_servers,
        joint=joint,
        variables=tuple(variables),
        costs=tuple(costs),
        rows=tuple(tuple(r) for r in rows),
        rhs=tuple(rhs),
    )


def equality_lp_marginal(instance: LpInstance) -> tuple[dict[int, Fraction], Fraction]:
    """The equality-form covering LP's optimal subset marginal (nonzero
    masks, in mask order) and its optimal cost, by the two-phase simplex."""
    solution = two_phase_minimize(instance.costs, instance.rows, instance.rhs)
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    marginal = {
        u: value
        for (kind, u), value in zip(instance.variables, solution.x)
        if kind == "m" and value != 0
    }
    return marginal, objective(instance.costs, solution)


# The simplex routing that ipir.obfuscation.solve_lp replaced with an exact
# flow: the covering LP's marginal, then one zero-cost transport solve per
# supported s.


def rhs_fractions(instance: LpInstance) -> list[Fraction]:
    """The covering LP's rhs as Fractions: its ints over ``rhs[0]``."""
    return [Fraction(v, instance.rhs[0]) for v in instance.rhs]


def lp_marginal(instance: LpInstance) -> tuple[dict[int, Fraction], Fraction]:
    """The covering LP's optimal subset marginal (nonzero masks, in mask
    order, the full set's remainder last) and its optimal expected cost."""
    solution = minimize(instance.costs, instance.rows, rhs_fractions(instance))
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    marginal = {u: value for u, value in zip(instance.variables, solution.x) if value != 0}
    rest = ONE - sum(marginal.values(), ZERO)
    if rest != 0:
        marginal[full_mask(instance.K)] = rest
    return marginal, objective(instance.costs, solution) + capacity_cost(
        instance.n_servers, instance.K
    )


def simplex_route(instance: LpInstance, marginal: dict[int, Fraction]) -> ObfuscationPolicy:
    """Split each supported row p(.|s) over ``marginal`` by a zero-cost
    transport simplex solve (supply p(x|s) at each x, demand m(u) at each
    u, arcs x in u); p(u|x,s) = f(x,u) / p(x|s)."""
    cond = conditional_from_joint(instance.joint)
    entries = {}
    for s in cond.support:
        row = cond.rows[s]
        xs = [x for x in range(instance.K) if row[x] != 0]
        arcs = [(x, u) for x in xs for u in marginal if u >> x & 1]
        flow = two_phase_minimize(
            [ZERO] * len(arcs),
            [[ONE if ax == x else ZERO for ax, _ in arcs] for x in xs]
            + [[ONE if au == u else ZERO for _, au in arcs] for u in marginal],
            [row[x] for x in xs] + list(marginal.values()),
        )
        if flow.status != "optimal":
            raise ConstructionFailed(f"row {s} cannot be routed onto the subset marginal")
        entries.update(
            ((s, x, u), f / row[x]) for (x, u), f in zip(arcs, flow.x) if f != 0
        )
    return ObfuscationPolicy(K=instance.K, entries=entries)


def simulate_stepwise(
    model: MobilityModel,
    schedule: PrivacySchedule,
    config: SystemConfig,
    store,
    solver: str = "lp",
    posteriors: list | None = None,
    transport=None,
) -> TraceReport:
    """``location.simulate`` as it was before it kept the solved posteriors:
    every non-private step solves and audits its posterior afresh. The
    posterior of each non-private step is appended to ``posteriors``, and
    every exchange goes through ``transport``, in process by default."""
    trace = sample_trace(model, schedule.horizon, fork_rng(config.seed, "trace"))
    state = initial_posterior(model)
    steps = []
    total = ZERO
    for t in range(schedule.horizon + 1):
        rng = fork_rng(config.seed, "step", t)
        if schedule.is_private(t):
            record, state = step_private(
                state, trace[t], model, schedule, config, store, rng, transport
            )
        else:
            if posteriors is not None:
                posteriors.append(state.law.table)
            record, state = step_nonprivate(
                state, trace[t], trace[state.tau], model, schedule, config, store,
                rng, solver, transport,
            )
        steps.append(record)
        total += record.cost
    return TraceReport(trace=trace, steps=steps, total_cost=total)


def step_law(state: PosteriorState, policy: ObfuscationPolicy) -> tuple[dict, int]:
    """The integer (S, X, U) law that a location step at ``state`` reads:
    ``policy_weights`` of the policy under the transposed posterior."""
    return policy_weights(policy, state.law.transposed())


def state_of(t: int, tau: int, joint) -> PosteriorState:
    """A tracked posterior whose law is the Fraction matrix ``joint``
    (``joint[a][b]`` = P(current=a, private=b)), in lowest terms over the
    lcm of its denominators; not validated, so it may be all zeros."""
    K = len(joint)
    flat, scale = scale_to_integers([v for row in joint for v in row])
    law = JointDistribution(tuple(tuple(flat[i : i + K]) for i in range(0, K * K, K)), scale)
    return PosteriorState(t=t, tau=tau, law=law)


# The Fraction arithmetic that the library's step layers replaced with
# integer numerators over one common denominator: the flow of
# ipir.obfuscation.solve_lp, the factorization of ipir.audit, the
# posterior updates of ipir.location, and the sampler's Fraction weights.


def fraction_sampler(items) -> WeightedSampler:
    """The sampler over (value, Fraction-weight) pairs summing to 1 that
    ``WeightedSampler`` was before it took integer counts: the weights
    scaled over the lcm of their denominators, that lcm the denominator.
    A negative weight raises NegativeEntry, and weights that do not sum to
    1 raise DistributionError, when the sampler is built."""
    items = list(items)
    if not items:
        raise InvalidParams("nothing to sample from")
    sampler = WeightedSampler.__new__(WeightedSampler)
    sampler.values, weights = zip(*items)
    numerators, sampler.denominator = scale_to_integers(weights)
    least = min(numerators)
    if least < 0:
        raise NegativeEntry(f"weight {Fraction(least, sampler.denominator)} is negative")
    sampler.thresholds = list(accumulate(numerators))
    sampler.width = sampler.denominator.bit_length()
    if sampler.thresholds[-1] != sampler.denominator:
        total = Fraction(sampler.thresholds[-1], sampler.denominator)
        raise DistributionError(f"weights sum to {total}, expected 1")
    return sampler


def fraction_subset_samplers(policy: ObfuscationPolicy, joint: JointDistribution) -> dict:
    """``obfuscation.subset_samplers`` as it was before it scaled each
    pair's shares itself: a ``fraction_sampler`` over ``policy.at(s, x)``
    per pair of positive mass, whose checks refuse a bad policy."""
    samplers = {}
    for s, row in enumerate(joint.table):
        for x, p in enumerate(row):
            if p != 0:
                choices = policy.at(s, x)
                if not choices:
                    raise UnsupportedPair(f"policy has no entries at (s={s}, x={x})")
                samplers[(s, x)] = fraction_sampler(choices)
    return samplers


def recording_sampler(built: list):
    """A ``WeightedSampler`` that appends each sampler it builds to
    ``built``: patched into a module, it keeps what the module builds."""

    class Recording(WeightedSampler):
        def __init__(self, items):
            super().__init__(items)
            built.append(self)

    return Recording


def assert_same_sampler(sampler, reference, draws: int, seed) -> None:
    """``sampler`` has the denominator, thresholds and values of
    ``reference``, makes the same ``draws`` draws from one stream, and
    leaves the stream where ``reference`` leaves it."""
    assert sampler.denominator == reference.denominator
    assert sampler.thresholds == reference.thresholds
    assert sampler.values == reference.values
    fast, slow = fork_rng(seed, "sampler"), fork_rng(seed, "sampler")
    assert [sampler.draw(fast) for _ in range(draws)] == [
        reference.draw(slow) for _ in range(draws)
    ]
    assert fast.getstate() == slow.getstate()


def transition_at(model: MobilityModel, t: int):
    """The step t -> t+1 matrix of ``model`` as its Fraction rows."""
    return model.transitions[t if model.time_variant else 0]


def fraction_sample_trace(model: MobilityModel, horizon: int, rng) -> tuple[int, ...]:
    """``location.sample_trace`` as it was before it read the model's
    integer laws: each draw a ``fraction_sampler`` over ``pi0``, then over
    the nonzero entries of row x_t of the step's Fraction matrix."""
    values = list(range(model.K))
    x = fraction_sampler(zip(values, model.pi0)).draw(rng)
    trace = [x]
    for t in range(horizon):
        row = transition_at(model, t)[x]
        x = fraction_sampler(((v, w) for v, w in zip(values, row) if w != 0)).draw(rng)
        trace.append(x)
    return tuple(trace)


def fraction_route(s: int, row, marginal: dict[int, Fraction]) -> dict[tuple[int, int], Fraction]:
    """Exact flow f(x, u) from supplies row[x] = p(x|s) onto demands
    marginal[u] along the arcs x in u, by the Edmonds-Karp rounds of
    ``ipir.obfuscation._route`` in Fractions; raises ConstructionFailed
    when some demand cannot be met."""
    supply = list(row)
    demand = dict(marginal)
    flow: dict[tuple[int, int], Fraction] = {}
    xs = range(len(row))
    while any(demand.values()):
        queue = [x for x in xs if supply[x] != 0]
        back = dict.fromkeys(queue)
        forward: dict[int, int] = {}
        end = None
        for x in queue:
            for u in demand:
                if u >> x & 1 and u not in forward:
                    forward[u] = x
                    if demand[u] != 0:
                        end = u
                        break
                    for y in xs:
                        if y not in back and flow.get((y, u), ZERO) != 0:
                            back[y] = u
                            queue.append(y)
            if end is not None:
                break
        if end is None:
            raise ConstructionFailed(f"row {s} cannot be routed onto the subset marginal")
        path = []
        u = end
        while u is not None:
            x = forward[u]
            path.append((x, u))
            u = back[x]
            if u is not None:
                path.append((x, u))
        delta = min([demand[end], supply[path[-1][0]]] + [flow[a] for a in path[1::2]])
        for i, arc in enumerate(path):
            flow[arc] = flow.get(arc, ZERO) + (delta if i % 2 == 0 else -delta)
        supply[path[-1][0]] -= delta
        demand[end] -= delta
    return flow


# ipir.obfuscation.solve_lp before it kept its flow's integer law: the
# covering LP solved on the rhs as Fractions, each entry one Fraction
# F(x, u) / (W(s, x) D), and the flow found by the search alone, before
# _route pushed the direct arcs without one.


def search_route(s: int, supply: list[int], demand: dict[int, int]) -> dict[tuple[int, int], int]:
    """``ipir.obfuscation._route`` by its Edmonds-Karp search alone: every
    augmentation, a direct push included, is found by breadth-first search
    from the x with supply left (ascending), stepping x -> u forward in the
    demands' order and u -> x' backward along positive flow (x'
    ascending)."""
    supply = list(supply)
    demand = dict(demand)
    flow: dict[tuple[int, int], int] = {}
    xs = range(len(supply))
    while any(demand.values()):
        queue = [x for x in xs if supply[x] != 0]
        back = dict.fromkeys(queue)  # x -> u it was reached from, None at a source
        forward: dict[int, int] = {}  # u -> x it was reached from
        end = None
        for x in queue:  # the queue grows while it is scanned
            for u in demand:
                if u >> x & 1 and u not in forward:
                    forward[u] = x
                    if demand[u] != 0:
                        end = u
                        break
                    for y in xs:
                        if y not in back and flow.get((y, u), 0) != 0:
                            back[y] = u
                            queue.append(y)
            if end is not None:
                break
        if end is None:
            raise ConstructionFailed(f"row {s} cannot be routed onto the subset marginal")
        # forward arcs (x, u) gain delta, backward arcs (y, u) lose it
        path = []
        u = end
        while u is not None:
            x = forward[u]
            path.append((x, u))
            u = back[x]
            if u is not None:
                path.append((x, u))
        delta = min([demand[end], supply[path[-1][0]]] + [flow[a] for a in path[1::2]])
        for i, arc in enumerate(path):
            flow[arc] = flow.get(arc, 0) + (delta if i % 2 == 0 else -delta)
        supply[path[-1][0]] -= delta
        demand[end] -= delta
    return flow


def fraction_solve_lp(instance: LpInstance) -> ObfuscationPolicy:
    """The covering LP's policy with Fraction entries: a cold simplex solve
    on the rhs as Fractions, the marginal's numerators M(u) over its
    denominator D, and per supported s the search flow of supplies
    W(s, x) D onto demands M(u) W_s, each entry F(x, u) / (W(s, x) D)."""
    solution = minimize(instance.costs, instance.rows, rhs_fractions(instance))
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    scale = solution.denominator
    marginal = {u: m for u, m in zip(instance.variables, solution.numerators) if m != 0}
    rest = scale - sum(marginal.values())
    if rest != 0:
        marginal[full_mask(instance.K)] = rest
    entries = {}
    for s, row in enumerate(instance.joint.weights):
        mass = sum(row)
        if mass == 0:
            continue
        supply = [w * scale for w in row]
        flow = search_route(s, supply, {u: m * mass for u, m in marginal.items()})
        entries.update(
            ((s, x, u), Fraction(f, supply[x])) for (x, u), f in sorted(flow.items()) if f != 0
        )
    return ObfuscationPolicy(K=instance.K, entries=entries)


def fraction_marginals(entries: dict):
    pa: dict = {}
    pb: dict = {}
    for (a, b), p in entries.items():
        if p != 0:
            pa[a] = pa.get(a, ZERO) + p
            pb[b] = pb.get(b, ZERO) + p
    return pa, pb


def fraction_mutual_information(entries: dict) -> tuple[bool, float]:
    """(p(a,b) == p(a) p(b) over the product of the marginal supports,
    bits), with the marginals and every product in Fractions."""
    pa, pb = fraction_marginals(entries)
    exact_zero = True
    for a, wa in pa.items():
        for b, wb in pb.items():
            if entries.get((a, b), ZERO) != wa * wb:
                exact_zero = False
                break
        if not exact_zero:
            break
    bits = 0.0
    if not exact_zero:
        for (a, b), p in entries.items():
            if p != 0:
                bits += float(p) * math.log2(float(p) / (float(pa[a]) * float(pb[b])))
        bits = max(bits, 0.0)
    return exact_zero, bits


def fraction_independence_witness(entries: dict):
    pa, pb = fraction_marginals(entries)
    for a, wa in sorted(pa.items(), key=str):
        for b, wb in sorted(pb.items(), key=str):
            if entries.get((a, b), ZERO) != wa * wb:
                return (a, b)
    return None


def fraction_policy_independence(policy: ObfuscationPolicy, joint: JointDistribution):
    """(passed, bits, witness) of ``audit_policy_independence``, from the
    (S, U) law summed in Fractions."""
    entries: dict = {}
    for (s, x, mask), p in policy.entries.items():
        w = joint.table[s][x] * p
        if w != 0:
            key = (s, indices_of(mask))
            entries[key] = entries.get(key, ZERO) + w
    zero, bits = fraction_mutual_information(entries)
    return zero, bits, None if zero else fraction_independence_witness(entries)


# The Fraction policy checks that obfuscation.policy_weights replaced:
# each reads p(x|s) off the conditional rows and sums the policy's entries
# in Fractions.


def fraction_subset_marginal(
    policy: ObfuscationPolicy, cond: ConditionalMatrix, s: int
) -> dict[int, Fraction]:
    """P(U=u | S=s) for one supported s."""
    out: dict[int, Fraction] = {}
    for (es, x, mask), p in policy.entries.items():
        if es == s:
            w = cond.rows[s][x] * p
            if w != 0:
                out[mask] = out.get(mask, ZERO) + w
    return out


def fraction_validate_policy(
    policy: ObfuscationPolicy, joint: JointDistribution
) -> ValidationReport:
    """``validate_policy`` on the conditional matrix, in Fractions: the
    same checks in the same order, with the same witnesses. An entry whose
    x lies at or past K makes it index past a row."""
    cond = conditional_from_joint(joint)
    witness = None

    K = policy.K
    support_ok = True
    for (s, x, mask), p in sorted(policy.entries.items()):
        in_range = 0 <= s < K and 0 <= x < K and mask >> K == 0
        if not in_range or not (mask >> x & 1) or p < 0:
            support_ok = False
            witness = witness or ("support", s, x, indices_of(mask))
            break

    totals: dict[tuple[int, int], Fraction] = {}
    for (s, x, _), p in policy.entries.items():
        totals[s, x] = totals.get((s, x), ZERO) + p
    normalization_ok = True
    for s in cond.support:
        for x in range(policy.K):
            if cond.rows[s][x] == 0:
                continue
            total = totals.get((s, x), ZERO)
            if total != 1:
                normalization_ok = False
                witness = witness or ("normalization", s, x, total)
                break
        if not normalization_ok:
            break

    independence_ok = True
    if cond.support:
        ref = cond.support[0]
        ref_marginal = fraction_subset_marginal(policy, cond, ref)
        for s in cond.support[1:]:
            marginal = fraction_subset_marginal(policy, cond, s)
            for mask in sorted(set(ref_marginal) | set(marginal)):
                if ref_marginal.get(mask, ZERO) != marginal.get(mask, ZERO):
                    independence_ok = False
                    witness = witness or ("independence", s, ref, indices_of(mask))
                    break
            if not independence_ok:
                break

    return ValidationReport(
        support_ok=support_ok,
        normalization_ok=normalization_ok,
        independence_ok=independence_ok,
        witness=witness,
    )


def fraction_expected_cost(
    policy: ObfuscationPolicy, joint: JointDistribution, n_servers: int
) -> Fraction:
    """E[C(N, |U|)] summed in Fractions over the policy's entries."""
    total = ZERO
    for (s, x, mask), p in policy.entries.items():
        weight = joint.table[s][x]
        if weight != 0:
            total += weight * p * capacity_cost(n_servers, mask.bit_count())
    return total


def fraction_query_law(
    joint: JointDistribution, policy: ObfuscationPolicy, config: SystemConfig, server: int
) -> dict:
    """The (S, Q_server) law of the exact query audit, summed in Fractions
    from ``query_distribution``, one walk over the keys per server."""
    dists: dict = {}
    entries: dict = {}
    for (s, x, mask), p in policy.entries.items():
        weight = joint.table[s][x] * p
        if weight == 0:
            continue
        if (mask, x) not in dists:
            params = pir.pir_setup(config.N, indices_of(mask), config.L)
            dists[(mask, x)] = query_distribution(params, x, server)
        for combos, q in dists[(mask, x)].items():
            key = (s, combos)
            entries[key] = entries.get(key, ZERO) + weight * q
    return entries


def fraction_query_privacy(
    joint: JointDistribution, policy: ObfuscationPolicy, config: SystemConfig
) -> AuditReport:
    """The exact-mode report of ``audit_query_privacy``, in Fractions."""
    report = AuditReport(mode="exact")
    for server in range(config.N):
        entries = fraction_query_law(joint, policy, config, server)
        zero, bits = fraction_mutual_information(entries)
        report.checks.append(
            AuditCheck(
                name=f"query-privacy-server-{server}",
                passed=zero,
                bits=bits,
                witness=None if zero else fraction_independence_witness(entries)[0],
            )
        )
    return report


def fraction_leak_equivalence(
    joint: JointDistribution, policy: ObfuscationPolicy, config: SystemConfig
) -> AuditReport:
    """The report of ``audit_leak_equivalence``, with every law summed and
    every conditional row normalized in Fractions."""
    full_params = pir.pir_setup(config.N, range(config.K), config.L)
    support = conditional_from_joint(joint).support
    report = AuditReport()
    for server in range(config.N):
        qs_dist = {s: query_distribution(full_params, s, server) for s in support}
        s_qx = fraction_query_law(joint, policy, config, server)
        s_qs = {
            (s, qs): Fraction(sum(joint.weights[s]), joint.scale) * ws
            for s in support
            for qs, ws in qs_dist[s].items()
        }
        s_qx_qs = {
            (s, (qx, qs)): w * ws
            for (s, qx), w in s_qx.items()
            for qs, ws in qs_dist[s].items()
        }
        zero_qs, bits_qs = fraction_mutual_information(s_qs)
        report.checks.append(
            AuditCheck(
                name=f"server-{server}: private query independent of request",
                passed=zero_qs,
                bits=bits_qs,
            )
        )
        cond_zero = True
        cond_bits = 0.0
        for s in support:
            pairs = {pair: w for (es, pair), w in s_qx_qs.items() if es == s}
            mass = sum(pairs.values(), ZERO)
            if mass == 0:
                continue
            z, b = fraction_mutual_information({k: v / mass for k, v in pairs.items()})
            cond_zero = cond_zero and z
            cond_bits += float(Fraction(sum(joint.weights[s]), joint.scale)) * b
        report.checks.append(
            AuditCheck(
                name=f"server-{server}: queries conditionally independent given request",
                passed=cond_zero,
                bits=cond_bits,
            )
        )
        zero_qx, bits_qx = fraction_mutual_information(s_qx)
        zero_pair, bits_pair = fraction_mutual_information(s_qx_qs)
        report.checks.append(
            AuditCheck(
                name=f"server-{server}: joint-leak zero iff single-leak zero",
                passed=zero_pair == zero_qx,
                bits=abs(bits_pair - bits_qx),
                witness=(zero_pair, zero_qx) if zero_pair != zero_qx else None,
            )
        )
        report.checks.append(
            AuditCheck(name=f"server-{server}: single-query leak", passed=zero_qx, bits=bits_qx)
        )
        report.checks.append(
            AuditCheck(name=f"server-{server}: joint-query leak", passed=zero_pair, bits=bits_pair)
        )
    return report


def fraction_advance_posterior(
    state: PosteriorState, model: MobilityModel, schedule: PrivacySchedule
) -> PosteriorState:
    """``ipir.location.advance_posterior`` with every product and sum in
    Fractions."""
    K = model.K
    t1 = state.t + 1
    trans = transition_at(model, state.t)
    joint = [[ZERO] * K for _ in range(K)]
    for a in range(K):
        row = trans[a]
        for b in range(K):
            w = state.law.table[a][b]
            if w != 0:
                for a1 in range(K):
                    joint[a1][b] += w * row[a1]
    tau = state.tau
    if schedule.is_private(t1):
        tau = t1
        joint = [
            [sum(joint[a1], ZERO) if a1 == b else ZERO for b in range(K)]
            for a1 in range(K)
        ]
    return state_of(t1, tau, joint)


def fraction_condition_posterior(
    state: PosteriorState, policy: ObfuscationPolicy, subset_mask: int
) -> PosteriorState:
    """``ipir.location.condition_posterior`` with every product, the total
    and the renormalization in Fractions."""
    K = len(state.law.table)
    conditioned = [[ZERO] * K for _ in range(K)]
    total = ZERO
    for a in range(K):
        for b in range(K):
            w = state.law.table[a][b]
            if w != 0:
                p = policy.entries.get((b, a, subset_mask), ZERO)
                if p != 0:
                    conditioned[a][b] = w * p
                    total += w * p
    if total == 0:
        raise DegeneratePosterior(
            f"step {state.t}: realized subset has zero tracked probability"
        )
    return state_of(state.t, state.tau, [[v / total for v in row] for row in conditioned])


# What the library did before a location posterior carried one exact
# integer law: each new posterior was re-validated as a Fraction matrix,
# the covering LP's rhs was summed over the conditional rows in Fractions,
# and each advance rescaled the joint and the model's kernel to integers.


def posterior_law(joint_matrix) -> JointDistribution:
    """The validated law P(private=b, current=a) of a location posterior
    ``joint_matrix[a][b]`` = P(current=a, private=b): its transpose, in
    which the latest private location plays the private request's role."""
    K = len(joint_matrix)
    return validate_joint([[joint_matrix[a][b] for a in range(K)] for b in range(K)])


def fraction_build_lp(
    joint: JointDistribution, n_servers: int, cap: int = DEFAULT_LP_CAP
) -> LpInstance:
    """``ipir.obfuscation.build_lp`` with the rhs min_s p(b|s) summed over
    the rows of ``conditional_from_joint`` and compared in Fractions, then
    scaled to ints over the lcm of their denominators."""
    if joint.K > cap:
        raise TooLarge(f"K={joint.K} exceeds the LP cap {cap}")
    K = joint.K
    cond = conditional_from_joint(joint)
    proper = range(1, full_mask(K))
    # p(b|s) for every mask b, each from b less its lowest bit
    mass = []
    for s in cond.support:
        row = cond.rows[s]
        sums = [ZERO]
        for b in proper:
            low = b & -b
            sums.append(sums[b ^ low] + row[low.bit_length() - 1])
        mass.append(sums)
    full_cost = capacity_cost(n_servers, K)
    return LpInstance(
        K=K,
        n_servers=n_servers,
        joint=joint,
        variables=tuple(proper),
        costs=tuple(capacity_cost(n_servers, u.bit_count()) - full_cost for u in proper),
        rows=((1,) * len(proper), *(tuple(int(u & b == u) for u in proper) for b in proper)),
        rhs=tuple(scale_to_integers([ONE, *(min(sums[b] for sums in mass) for b in proper)])[0]),
    )


def _numerators(matrix) -> tuple[list[list[int]], int]:
    """A square matrix over one common denominator D: (numerators, D)."""
    K = len(matrix)
    flat, scale = scale_to_integers([v for row in matrix for v in row])
    return [flat[i : i + K] for i in range(0, K * K, K)], scale


def _over(numerator: int, denominator: int) -> Fraction:
    return Fraction(numerator, denominator) if numerator else ZERO


def numerator_advance_posterior(
    state: PosteriorState, model: MobilityModel, schedule: PrivacySchedule
) -> PosteriorState:
    """``ipir.location.advance_posterior`` on the joint's Fractions and the
    kernel rescaled to integers at every step: the K^3 products and sums
    over the product of the two common denominators, each entry built as
    its own Fraction."""
    K = model.K
    t1 = state.t + 1
    weights, joint_scale = _numerators(state.law.table)
    trans, trans_scale = _numerators(transition_at(model, state.t))
    scale = joint_scale * trans_scale
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
        joint = [
            [_over(sum(pushed[a1]), scale) if a1 == b else ZERO for b in range(K)]
            for a1 in range(K)
        ]
    else:
        joint = [[_over(n, scale) for n in row] for row in pushed]
    return state_of(t1, tau, joint)


def branching_size_weights(profile: LikelihoodProfile) -> tuple[Fraction, ...]:
    """The size weights ``likelihood_profile`` derived, case by case, before
    they became the steps of (0, r_1, ..., r_unit_rank, 1) padded to K."""
    rank_sums, unit_rank = profile.rank_sums, profile.unit_rank
    weights = []
    for j in range(1, profile.K + 1):
        if j <= unit_rank:
            prev = rank_sums[j - 2] if j >= 2 else ZERO
            weights.append(rank_sums[j - 1] - prev)
        elif j == unit_rank + 1:
            weights.append(1 - rank_sums[unit_rank - 1])
        else:
            weights.append(ZERO)
    return tuple(weights)


def recomputing_greedy_policy(cond: ConditionalMatrix) -> ObfuscationPolicy:
    """``ipir.obfuscation.greedy_policy`` as it was before it kept a
    free-mass table: each companion's headroom is its residual less the
    mass its own rounds after the decision point will take, re-summed for
    every candidate column through a rank table."""
    if not cond.full_support():
        raise PartialSupport(
            f"greedy construction needs all {cond.K} rows, got support {cond.support}"
        )
    profile = likelihood_profile(cond)
    K = cond.K
    order = profile.order
    sigma = profile.unit_rank
    leftover = 1 - profile.rank_sums[sigma - 1]
    last_round = sigma + 1 if leftover > 0 else sigma
    increments = []
    for c in range(1, last_round + 1):
        row = []
        for i in range(K):
            high = cond.rows[order[i][c - 1]][i]
            low = cond.rows[order[i][c - 2]][i] if c >= 2 else ZERO
            row.append(high - low)
        if c == sigma + 1:
            budget = leftover
            for i in range(K):
                row[i] = min(row[i], budget)
                budget -= row[i]
        increments.append(row)
    # rank_of[l][s]: 1-based rank of row s in column l's order
    rank_of = [[0] * K for _ in range(K)]
    for l in range(K):
        for j, s in enumerate(order[l]):
            rank_of[l][s] = j + 1

    residual = [list(row) for row in cond.rows]
    assigned: dict[tuple[int, int, int], Fraction] = {}

    def future_self_use(s: int, l: int, c: int, i: int) -> Fraction:
        # mass column l will still place at row s via its own (x = l)
        # assignments in rounds not yet applied at this decision point
        total = ZERO
        for cc in range(c, last_round + 1):
            if rank_of[l][s] >= cc and (cc > c or l > i):
                total += increments[cc - 1][l]
        return total

    def place(c: int, i: int, amount: Fraction) -> None:
        remaining = amount
        while remaining > 0:
            members = {i}
            placement = []  # (row s, column to charge)
            fragment = remaining
            for j in range(1, c):
                s = order[i][j - 1]
                best_l = None
                best_headroom = None
                for l in range(K):
                    if l == i:
                        continue
                    headroom = residual[s][l] - future_self_use(s, l, c, i)
                    if headroom <= 0:
                        continue
                    if best_headroom is None or headroom > best_headroom:
                        best_headroom = headroom
                        best_l = l
                if best_l is None:
                    raise ConstructionFailed(
                        f"no companion with residual headroom left at row {s} "
                        f"in round {c} for column {i}"
                    )
                members.add(best_l)
                placement.append((s, best_l))
                fragment = min(fragment, best_headroom)
            for j in range(c, K + 1):
                placement.append((order[i][j - 1], i))
            mask = mask_of(members)
            for s, col in placement:
                if residual[s][col] < fragment:
                    raise ConstructionFailed(
                        f"residual underflow at row {s}, column {col} in round {c}"
                    )
            for s, col in placement:
                residual[s][col] -= fragment
                key = (s, col, mask)
                assigned[key] = assigned.get(key, ZERO) + fragment
            remaining -= fragment

    for c in range(1, last_round + 1):
        for i in range(K):
            if increments[c - 1][i] > 0:
                place(c, i, increments[c - 1][i])

    if any(v != 0 for row in residual for v in row):
        raise ConstructionFailed("construction ended with nonzero residual mass")

    entries = {
        (s, x, mask): joint_mass / cond.rows[s][x]
        for (s, x, mask), joint_mass in assigned.items()
        if joint_mass != 0
    }
    return ObfuscationPolicy(K=K, entries=entries)


# The dict-message wire codec that ipir.net replaced with one parser per
# side: the replica parses queries and the bare hello, the client answers
# and errors. Tests build and read frames through it, and compare it with
# the two parsers.


def _query_body(session: int, combos) -> bytes:
    words = [session, len(combos), *map(len, combos)]
    for combo in combos:
        for atom in combo:
            words += atom
    try:
        return struct.pack(f"!B{len(words)}I", QUERY, *words)
    except struct.error as exc:
        raise OutOfRange(f"a query word is not a u32: {exc}") from exc


def _answer_body(session: int, bits) -> bytes:
    return _TAGGED_WORD.pack(ANSWER, session) + bytes(bits)


def _decode_query(body: bytes) -> dict:
    count, rest = divmod(len(body) - 1, 4)
    if rest:
        raise MalformedFrame(f"query of {len(body) - 1} bytes is not whole u32 words")
    if count < 2:
        raise MalformedFrame("query lacks its session or its combo count")
    words = struct.unpack_from(f"!{count}I", body, 1)
    start = 2 + words[1]
    if start > count:
        raise MalformedFrame(f"{words[1]} combo sizes run past the end of the query")
    sizes = words[2:start]
    if start + 2 * sum(sizes) != count:
        raise MalformedFrame(f"combo sizes name {sum(sizes)} atoms in "
                             f"{count - start} words")
    atoms = iter(words[start:])
    pairs = list(zip(atoms, atoms))
    combos = []
    first = 0
    for size in sizes:
        combos.append(tuple(pairs[first:first + size]))
        first += size
    return {"type": "query", "session": words[0], "combos": tuple(combos)}


def encode(message: dict) -> bytes:
    """The body of one frame: a message as ``decode`` returns it."""
    kind = message["type"]
    if kind == "query":
        return _query_body(message["session"], message["combos"])
    if kind == "answer":
        return _answer_body(message["session"], message["bits"])
    if kind == "hello":
        if "K" not in message:
            return bytes((HELLO,))
        return _HELLO_REPLY.pack(HELLO, message["proto_version"], message["K"], message["L"])
    if kind == "error":
        code = message["code"].encode("ascii")
        return bytes((ERROR, len(code))) + code + message["detail"].encode("utf-8")
    raise InvalidParams(f"no frame type {kind!r}")


def decode(body: bytes) -> dict:
    """One frame body as a message: a query's combos are tuples of
    (msg, pos) pairs, an answer's bits are bytes."""
    if not body:
        raise MalformedFrame("empty frame")
    tag = body[0]
    if tag == QUERY:
        return _decode_query(body)
    if tag == ANSWER:
        if len(body) < 5:
            raise MalformedFrame("answer shorter than its session id")
        return {"type": "answer", "session": _WORD.unpack_from(body, 1)[0], "bits": body[5:]}
    if tag == HELLO:
        if len(body) == 1:
            return {"type": "hello"}
        if len(body) != _HELLO_REPLY.size:
            raise MalformedFrame(f"hello of {len(body)} bytes")
        _, version, K, L = _HELLO_REPLY.unpack(body)
        return {"type": "hello", "proto_version": version, "K": K, "L": L}
    if tag == ERROR:
        end = 2 + body[1] if len(body) > 1 else 0
        if not 2 <= end <= len(body):
            raise MalformedFrame("error frame shorter than its code")
        try:
            code, detail = body[2:end].decode("ascii"), body[end:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFrame(f"undecodable error frame: {exc}") from exc
        return {"type": "error", "code": code, "detail": detail}
    raise MalformedFrame(f"unknown frame tag 0x{tag:02x}")


def send_frame(sock, message: dict) -> int:
    """Send one frame; returns the number of bytes written."""
    return _send(sock, encode(message))
