"""Independent brute-force oracles.

These recompute, by global enumeration over traces, subset histories, and
scheme keys, the quantities the library derives by forward recursion, so
the two routes can be compared exactly. Nothing here reuses the library's
posterior-update code for the reference values. The module also keeps
the slower constructions that library code replaced, as the references
of the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ipir.audit import DiscreteJoint, mutual_information, query_distribution
from ipir.core import (
    JointDistribution,
    SystemConfig,
    capacity_cost,
    conditional_from_joint,
)
from ipir.errors import ConstructionFailed, IterationLimit, TooLarge
from ipir.location import (
    MobilityModel,
    PosteriorState,
    PrivacySchedule,
    advance_posterior,
    condition_posterior,
    initial_posterior,
    latest_private,
    policy_for_posterior,
)
from ipir.obfuscation import (
    DEFAULT_LP_CAP,
    LpInstance,
    ObfuscationPolicy,
    full_mask,
    indices_of,
)
from ipir.simplex import SimplexSolution, minimize
from ipir import pir

ZERO = Fraction(0)
ONE = Fraction(1)


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
    frontier = [(initial_posterior(model), start_weights, ONE)]
    nodes: list[MechanismNode] = []

    for t in range(schedule.horizon + 1):
        private = schedule.is_private(t)
        tau = latest_private(t, schedule)
        next_frontier = []
        for tracked, prefix_weights, prob in frontier:
            policy = None
            if not private:
                policy, _ = policy_for_posterior(tracked.joint, config.N, solver)
            nodes.append(
                MechanismNode(
                    t=t,
                    tau=tau,
                    history=tracked.history,
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
                    PosteriorState(
                        t=tracked.t,
                        tau=tracked.tau,
                        joint=tracked.joint,
                        history=tracked.history + (indices_of(mask),),
                    )
                    if pol is None
                    else condition_posterior(tracked, pol, mask)
                )
                if t < schedule.horizon:
                    child_tracked = advance_posterior(child_tracked, model, schedule)
                    trans = model.transition_at(t)
                    extended = {}
                    for prefix, w in child_weights.items():
                        row = trans[prefix[t]]
                        for x1 in range(K):
                            if row[x1] != 0:
                                extended[prefix + (x1,)] = w * row[x1]
                    child_weights = extended
                next_frontier.append((child_tracked, child_weights, child_prob))
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
    return mutual_information(DiscreteJoint(entries=entries))


def online_privacy_factorization(state, policy: ObfuscationPolicy) -> tuple[bool, float]:
    """(independent?, bits) of the (latest private location, subset) law that
    a tracked posterior and the step policy induce, factor-checked directly
    over (b, mask) pairs without forming the transposed joint law."""
    K = policy.K
    entries: dict = {}
    for a in range(K):
        for b in range(K):
            w = state.joint[a][b]
            if w == 0:
                continue
            for mask, p in policy.at(b, a):
                if p != 0:
                    key = (b, mask)
                    entries[key] = entries.get(key, ZERO) + w * p
    return mutual_information(DiscreteJoint(entries=entries))


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
    policy, _ = policy_for_posterior(state1.joint, config.N, "lp")

    y1_dist: dict = {}
    for (_, x, mask), _p in policy.entries.items():
        if (mask, x) not in y1_dist:
            params = pir.pir_setup(config.N, indices_of(mask), config.L)
            y1_dist[(mask, x)] = query_distribution(params, x, server)

    # joint over (trace, y0, (mask, y1))
    weights: dict = {}
    trans = model.transition_at(0)
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
    streams = [iter(key.perms[j][block]) for j in range(k)]
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
    queries = [
        pir.PirQuery(server=n, combos=tuple(sorted(per_server[n])))
        for n in range(params.n_servers)
    ]
    return queries, decode


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
    return pir.PirKey(perms=tuple(perms))


def sorted_queries(params: pir.SchemeParams, desired: int, key: pir.PirKey):
    """Canonical queries by a lexicographic sort of the template's combos.

    This is the construction that ``PirSession.from_key`` replaced with
    placing each combo by its first atom; both must agree exactly.
    """
    singles, getters, _ = pir._template(
        params.n_servers, params.k, params.subset.index(desired)
    )
    cells, units = pir._cells(params.subset, params.L)
    pools = []
    for offset, rows in zip(range(0, params.L, params.block), zip(*key.perms)):
        pool = [atoms[p + offset] for atoms, row in zip(cells, rows) for p in row]
        pool += [units[j][rows[j][t] + offset] for j, t in singles]
        pools.append(pool)
    return [
        pir.PirQuery(n, tuple(sorted([get(pool) for pool in pools for get, _ in combos])))
        for n, combos in enumerate(getters)
    ]


# The two-phase simplex for equality rows that ipir.simplex.minimize
# replaced with a one-phase solve from the slack basis: the solver of the
# (s, x, u) LP, of the equality-form covering LP and of the simplex routing.

# consecutive non-improving pivots tolerated before switching to Bland
STALL_LIMIT = 12


class _Unbounded(Exception):
    """Raised by ``_two_phase_run``; ``args[0]`` is the pivot count so far."""


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
        return SimplexSolution(status="infeasible", objective=None, x=None, pivots=pivots)

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
        return SimplexSolution(
            status="unbounded", objective=None, x=None, pivots=pivots + exc.args[0]
        )

    x = [ZERO] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return SimplexSolution(status="optimal", objective=-z[-1], x=x, pivots=pivots)


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

        before = z[-1]
        _two_phase_pivot(tableau, z, basis, leaving, entering)
        pivots += 1
        if pivots >= budget:
            raise IterationLimit(f"no optimum within {budget} pivots")
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
        cond=cond,
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
    return marginal, solution.objective


# The simplex routing that ipir.obfuscation.solve_lp replaced with an exact
# flow: the covering LP's marginal, then one zero-cost transport solve per
# supported s.


def lp_marginal(instance: LpInstance) -> tuple[dict[int, Fraction], Fraction]:
    """The covering LP's optimal subset marginal (nonzero masks, in mask
    order, the full set's remainder last) and its optimal expected cost."""
    solution = minimize(instance.costs, instance.rows, instance.rhs)
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    marginal = {u: value for u, value in zip(instance.variables, solution.x) if value != 0}
    rest = ONE - sum(marginal.values(), ZERO)
    if rest != 0:
        marginal[full_mask(instance.K)] = rest
    return marginal, solution.objective + capacity_cost(instance.n_servers, instance.K)


def simplex_route(instance: LpInstance, marginal: dict[int, Fraction]) -> ObfuscationPolicy:
    """Split each supported row p(.|s) over ``marginal`` by a zero-cost
    transport simplex solve (supply p(x|s) at each x, demand m(u) at each
    u, arcs x in u); p(u|x,s) = f(x,u) / p(x|s)."""
    entries = {}
    for s in instance.cond.support:
        row = instance.cond.rows[s]
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
