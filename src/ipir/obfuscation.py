"""Obfuscation-set policies p(U | X, S).

A policy maps the pair (private request s, current request x) to a random
subset u of message indices that always contains x and whose marginal law
is identical for every s, so observing u reveals nothing about s. Two
constructors are provided:

* an exact covering linear program over the subset marginal P(U=u)
  minimizing the expected retrieval cost E[C(N, |U|)] over all valid
  policies (optimal; one variable per proper subset, 2^K - 2 of them, with
  the full set taking the rest of the mass, and 2^K - 1 rows),
  with each private value's row p(.|s) then routed onto the optimal
  marginal by an exact augmenting-path flow, and
* a polynomial-time greedy construction driven by the sorted-likelihood
  profile of p(x|s), which guarantees P(|U| <= i) >= sum of the first i
  size weights (and therefore a matching cost bound) without solving the LP.

Subsets are encoded as K-bit masks; bit x set means message x is in the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .core import (
    ZERO,
    ConditionalMatrix,
    JointDistribution,
    WeightedSampler,
    capacity_cost,
    format_rational,
    parse_rational,
    scale_to_integers,
)
from .errors import (
    ConstructionFailed,
    DistributionError,
    InvalidParams,
    NegativeEntry,
    PartialSupport,
    TooLarge,
    UnsupportedPair,
)
from .simplex import BasisCache, minimize

DEFAULT_LP_CAP = 6
# the covering LP's certified optimal bases, one cache per (K, N)
_BASES: dict[tuple[int, int], BasisCache] = {}


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def full_mask(K: int) -> int:
    return (1 << K) - 1


@dataclass(frozen=True)
class LikelihoodProfile:
    """Sorted-likelihood profile of a conditional matrix.

    ``order[x]`` lists the rows s by increasing p(x|s) (ties by smaller s).
    ``rank_sums[j-1]`` is the sum over x of the j-th smallest likelihood;
    ``unit_rank`` is the largest j whose rank sum is still <= 1; and
    ``size_weights[j-1]`` is the guaranteed probability weight for
    obfuscation sets of size j.
    """

    K: int
    order: tuple[tuple[int, ...], ...]
    rank_sums: tuple[Fraction, ...]
    unit_rank: int
    size_weights: tuple[Fraction, ...]


def likelihood_profile(cond: ConditionalMatrix) -> LikelihoodProfile:
    if not cond.full_support():
        raise PartialSupport(
            f"profile needs all {cond.K} rows, got support {cond.support}"
        )
    K = cond.K
    order = tuple(
        tuple(sorted(range(K), key=lambda s: (cond.rows[s][x], s))) for x in range(K)
    )
    rank_sums = tuple(
        sum((cond.rows[order[x][j]][x] for x in range(K)), ZERO) for j in range(K)
    )
    unit_rank = max(j + 1 for j in range(K) if rank_sums[j] <= 1)
    points = (ZERO, *rank_sums[:unit_rank], 1)
    steps = [high - low for low, high in zip(points, points[1:])]
    return LikelihoodProfile(
        K=K,
        order=order,
        rank_sums=rank_sums,
        unit_rank=unit_rank,
        size_weights=tuple((steps + [ZERO] * K)[:K]),
    )


@dataclass(frozen=True)
class ObfuscationPolicy:
    """Sparse conditional law p(U=u | X=x, S=s); absent entries are zero.

    Keys are (s, x, mask). Invariants (checked by validate_policy on the
    integer (S, X, U) law of ``policy_weights``): every stored mask
    contains x, probabilities at each (s, x) of positive mass sum to 1, and
    P(U=u | S=s) is the same for every supported s.

    A ``solve_lp`` policy keeps its law (joint, read-only weights, scale)
    in ``_law`` and builds ``entries`` from it on first read.
    """

    K: int
    entries: dict[tuple[int, int, int], Fraction]
    _law = None  # a class attribute, not a field: only ``solve_lp`` sets it

    def __getattr__(self, name):
        # reached only when normal lookup fails
        if name != "entries" or self._law is None:
            raise AttributeError(name)
        joint, weights, scale = self._law
        D, table = scale // joint.scale, joint.weights
        self.__dict__[name] = {k: Fraction(f, table[k[0]][k[1]] * D) for k, f in weights.items()}
        return self.entries

    def at(self, s: int, x: int) -> list[tuple[int, Fraction]]:
        """(mask, probability) choices at one (s, x) pair, mask-ascending."""
        found = [
            (mask, p) for (es, ex, mask), p in self.entries.items() if es == s and ex == x
        ]
        return sorted(found)

    def size_marginal(self, cond: ConditionalMatrix) -> tuple[Fraction, ...]:
        """P(|U| = j) for j = 1..K, computed at the first supported s.

        Identical for every supported s whenever the policy is valid.
        """
        s = cond.support[0]
        sizes = [ZERO] * self.K
        for (es, x, mask), p in self.entries.items():
            if es == s:
                sizes[mask.bit_count() - 1] += cond.rows[s][x] * p
        return tuple(sizes)

    def to_json_dict(self) -> dict:
        entries = [
            {"s": s, "x": x, "u": list(indices_of(mask)), "p": format_rational(p)}
            for (s, x, mask), p in sorted(self.entries.items())
        ]
        return {"K": self.K, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ObfuscationPolicy":
        """Raises DistributionError when K, or an entry's s or x, is not an
        int, or an entry's u is not a list of non-negative ints (no bools)."""
        K = data["K"]
        if type(K) is not int:
            raise DistributionError(f"policy K must be an int, got {K!r}")
        entries: dict[tuple[int, int, int], Fraction] = {}
        for item in data["entries"]:
            s, x, u = item["s"], item["x"], item["u"]
            if type(s) is not int or type(x) is not int or type(u) is not list or any(
                type(i) is not int or i < 0 for i in u
            ):
                raise DistributionError(
                    f"policy entry {item!r} needs ints s and x and a list u of non-negative ints"
                )
            p = parse_rational(item["p"])
            if p != 0:
                entries[(s, x, mask_of(u))] = p
        return cls(K=K, entries=entries)


def trivial_policy(K: int) -> ObfuscationPolicy:
    """The always-feasible policy that hides every request in the full set;
    InvalidParams unless K is an int of at least 1."""
    if type(K) is not int or K < 1:
        raise InvalidParams(f"need an int K of at least 1, got {K!r}")
    mask = full_mask(K)
    return ObfuscationPolicy(
        K=K, entries={(s, x, mask): Fraction(1) for s in range(K) for x in range(K)}
    )


def greedy_policy(cond: ConditionalMatrix) -> ObfuscationPolicy:
    """Poly(K) constructive policy meeting the size-weight guarantee.

    Works in rounds c = 1..unit_rank. Round c moves, for every column i, the
    increment between the c-th and (c-1)-th smallest likelihood of i onto a
    subset of size at most c: rows ranked >= c contribute the mass at x = i,
    while each lower-ranked row hides the same mass behind the first other
    column with the most free mass, the residual that column's own later
    rounds will not take, kept in one table. A final capped round places
    the leftover per-row mass on subsets of size at most unit_rank + 1.
    Every row receives identical per-fragment mass for the same subset, so
    the subset marginal P(U|S=s) is constant in s by construction, and the
    cumulative size law dominates the size weights.
    """
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
    # increments[c-1][i]: fresh mass column i contributes in round c, the
    # step from its (c-1)-th to its c-th smallest likelihood
    ranked = [[ZERO] + [cond.rows[s][i] for s in order[i]] for i in range(K)]
    increments = [
        [ranked[i][c] - ranked[i][c - 1] for i in range(K)] for c in range(1, last_round + 1)
    ]
    if leftover > 0:
        # round sigma+1 is capped to the per-row leftover budget, keeping
        # every subset at size <= sigma + 1
        budget = leftover
        for i in range(K):
            increments[sigma][i] = min(increments[sigma][i], budget)
            budget -= increments[sigma][i]

    residual = [list(row) for row in cond.rows]
    # free[s][l]: the residual at (s, l) that column l's own rounds not yet
    # applied will not take; a companion may take only this. A row ranked
    # <= sigma in column l gives its whole likelihood to those rounds (their
    # increments sum to it); a row ranked above it takes part in every round
    free = [[ZERO] * K for _ in range(K)]
    for l in range(K):
        taken = sum((row[l] for row in increments), ZERO)
        for s in order[l][sigma:]:
            free[s][l] = cond.rows[s][l] - taken
    assigned: dict[tuple[int, int, int], Fraction] = {}

    def place(c: int, i: int, amount: Fraction) -> None:
        """Move ``amount`` of column i's round-c increment, splitting into
        fragments when a single companion lacks the headroom."""
        remaining = amount
        while remaining > 0:
            members = {i}
            placement = []  # (row s, column to charge)
            fragment = remaining
            for s in order[i][: c - 1]:
                best_l = max(
                    (l for l in range(K) if l != i and free[s][l] > 0),
                    key=free[s].__getitem__,
                    default=None,
                )
                if best_l is None:
                    raise ConstructionFailed(
                        f"no companion with residual headroom left at row {s} "
                        f"in round {c} for column {i}"
                    )
                members.add(best_l)
                placement.append((s, best_l))
                fragment = min(fragment, free[s][best_l])
            placement += [(s, i) for s in order[i][c - 1:]]
            mask = mask_of(members)
            for s, col in placement:
                if residual[s][col] < fragment:
                    raise ConstructionFailed(
                        f"residual underflow at row {s}, column {col} in round {c}"
                    )
            for s, col in placement:
                residual[s][col] -= fragment
                if col != i:
                    # a placement at x = i lowers the residual and the mass
                    # column i still owes alike, so only a companion's free
                    # mass moves
                    free[s][col] -= fragment
                key = (s, col, mask)
                assigned[key] = assigned.get(key, ZERO) + fragment
            remaining -= fragment

    for c, row in enumerate(increments, 1):
        for i in range(K):
            if row[i] > 0:
                place(c, i, row[i])

    if any(v != 0 for row in residual for v in row):
        raise ConstructionFailed("construction ended with nonzero residual mass")

    entries = {
        (s, x, mask): joint_mass / cond.rows[s][x]
        for (s, x, mask), joint_mass in assigned.items()
        if joint_mass != 0
    }
    return ObfuscationPolicy(K=K, entries=entries)


@dataclass(frozen=True)
class LpInstance:
    """Covering LP over the subset marginal m(u) = P(U=u), in <= form.

    The variables are the masks u of every nonempty proper subset; the
    full set's mass is the remainder m([K]) = 1 - sum_u m(u). Rows: the sum
    of all variables is at most 1, and per proper nonempty mask b,
    sum_{u within b} m(u) <= min_s p(b|s) over the supported s. Costs are
    C(N, |u|) - C(N, K), so the optimum plus C(N, K) is the least expected
    cost. By Gale's supply-demand theorem these rows admit exactly the
    marginals onto which every supported row p(.|s) can be routed along
    the arcs x in u, so any feasible m is the subset law of some valid
    policy. Non-negativity is implicit, and m = 0 (all mass on the full
    set) is the feasible vertex the simplex starts from. Only the rhs, ints
    in lowest terms in units of 1/``rhs[0]`` (which scales the optimum by
    ``rhs[0]`` and changes no pivot), depends on the law: the 0/1 rows are
    built once per K and the costs once per (K, N), and instances share
    them, so every optimal basis of one law is dual feasible for all (see
    ``solve_lp``). ``joint`` is the law the instance was built from, whose
    rows ``solve_lp`` routes.
    """

    K: int
    n_servers: int
    joint: JointDistribution
    variables: tuple[int, ...]
    costs: tuple[Fraction, ...]
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


def build_lp(
    joint: JointDistribution, n_servers: int, cap: int = DEFAULT_LP_CAP
) -> LpInstance:
    if joint.K > cap:
        raise TooLarge(f"K={joint.K} exceeds the LP cap {cap}")
    K = joint.K
    proper = range(1, full_mask(K))
    # min_s p(b|s) over the rows of mass W_s > 0, as the ratio (W_s(b), W_s)
    # of the row's integer subset sum, built from b less its lowest bit, to
    # its mass; ratios are compared by cross-multiplication, from p <= 1
    least = dict.fromkeys(proper, (1, 1))
    for row in joint.weights:
        mass = sum(row)
        if mass:
            sums = [0]
            for b in proper:
                low = b & -b
                sums.append(sums[b ^ low] + row[low.bit_length() - 1])
                n, d = least[b]
                if sums[b] * d < n * mass:
                    least[b] = sums[b], mass
    unit = lcm(*(d for _, d in least.values()))
    rhs = [unit, *(n * (unit // d) for n, d in least.values())]
    g = gcd(*rhs)
    return LpInstance(
        K=K,
        n_servers=n_servers,
        joint=joint,
        variables=tuple(proper),
        costs=_covering_costs(K, n_servers),
        rows=_covering_rows(K),
        rhs=tuple(v // g for v in rhs),
    )


@lru_cache(maxsize=None)
def _covering_rows(K: int) -> tuple[tuple[int, ...], ...]:
    """The covering LP's 0/1 rows, which depend on K alone: the sum of
    every variable, then per proper mask b the sum of those within b."""
    proper = range(1, full_mask(K))
    return ((1,) * len(proper), *(tuple(int(u & b == u) for u in proper) for b in proper))


@lru_cache(maxsize=None, typed=True)
def _covering_costs(K: int, n_servers: int) -> tuple[Fraction, ...]:
    """C(N, |u|) - C(N, K) per proper mask u."""
    full_cost = capacity_cost(n_servers, K)
    proper = range(1, full_mask(K))
    return tuple(capacity_cost(n_servers, u.bit_count()) - full_cost for u in proper)


def solve_lp(instance: LpInstance) -> ObfuscationPolicy:
    """Vertex-optimal policy for the instance, in exact rationals.

    The covering LP gives the subset marginal m over the proper subsets;
    it is the one simplex solve, started from the certified bases that
    earlier solves at the same (K, N) left in ``_BASES``, which never change
    its result. The full set takes the rest of the mass, appended last so
    the marginal stays in mask order. Each supported s then splits p(x|s)
    over the subsets u with m(u) > 0 by an exact feasibility flow (supply
    p(x|s) at each x, demand m(u) at each u, arcs x in u), and p(u|x,s) =
    f(x,u) / p(x|s). Pairs with p(x|s) = 0 get no entries. The flow runs on
    integers: with the law's row weights W(s, x) of mass W_s and the
    solver's numerators M(u) over D (its denominator times ``rhs[0]``),
    both sides are scaled by D W_s, to supplies W(s, x) D and demands
    M(u) W_s, so that p(s, x, u) is F(x, u) / (S_J D), S_J the law's scale.
    The policy keeps that law, s ascending, then sorted (x, u).
    An instance whose costs or rows are not the covering LP's at its
    (K, N) raises InvalidParams.
    """
    K, N = instance.K, instance.n_servers
    bases = _BASES.get((K, N)) or _BASES.setdefault(
        (K, N), BasisCache(_covering_costs(K, N), _covering_rows(K))
    )
    solution = minimize(instance.costs, instance.rows, instance.rhs, bases=bases)
    # every variable is bounded by the first row, so the LP cannot be
    # unbounded for well-formed instances
    if solution.status != "optimal":
        raise ConstructionFailed(f"LP solve ended with status {solution.status}")
    scale = solution.denominator * instance.rhs[0]
    marginal = {u: m for u, m in zip(instance.variables, solution.numerators) if m != 0}
    rest = scale - sum(marginal.values())
    if rest != 0:
        marginal[full_mask(instance.K)] = rest
    joint = instance.joint
    weights = {}
    for s, row in enumerate(joint.weights):
        mass = sum(row)
        if mass == 0:
            continue
        flow = _route(s, [w * scale for w in row], {u: m * mass for u, m in marginal.items()})
        weights.update(((s, x, u), f) for (x, u), f in sorted(flow.items()) if f != 0)
    policy = object.__new__(ObfuscationPolicy)
    law = joint, MappingProxyType(weights), joint.scale * scale
    policy.__dict__.update(K=instance.K, _law=law)
    return policy


def _route(s: int, supply: list[int], demand: dict[int, int]) -> dict[tuple[int, int], int]:
    """Exact flow f(x, u) from supplies ``supply[x]`` onto demands
    ``demand[u]`` along the arcs x in u; raises ConstructionFailed when some
    demand cannot be met.

    ``solve_lp`` passes p(x|s) and m(u) times one common multiple of their
    denominators, so every amount is an integer and the flow is that
    multiple times the rational one: the search reads only which amounts
    are nonzero and each augmentation adds the least amount along its path,
    and scaling changes neither.

    Edmonds-Karp: each round augments along a shortest residual path found
    by breadth-first search from the x with supply left (ascending), which
    steps x -> u forward in the demands' mask order and u -> x' backward
    along positive flow (x' ascending), so the flow is deterministic; its
    rounds before the first backward step are direct pushes, which a first
    pass over x, then u, makes without a search. By Gale's theorem it meets
    every demand whenever m satisfies the covering rows and both sides sum
    to 1.
    """
    supply = list(supply)
    demand = dict(demand)
    flow: dict[tuple[int, int], int] = {}
    xs = range(len(supply))
    for x in xs:
        for u, wanted in demand.items():
            if wanted and supply[x] and u >> x & 1:
                flow[x, u] = delta = min(supply[x], wanted)
                demand[u] -= delta
                supply[x] -= delta
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


def policy_weights(policy: ObfuscationPolicy, joint: JointDistribution) -> tuple[dict, int]:
    """The law of (S, X, U) in integers: p(s, x) p(u|x,s) is
    ``weights[s, x, u] / scale``, each weight W(s, x)·n(s, x, u), the law's
    weights times the policy's entries as numerators over their common
    denominator. Weights come in the policy's entry order; zero weights,
    and entries whose s or x lies outside the law's [K], are left out.
    A policy ``solve_lp`` kept as its law under ``joint`` gives that law,
    this one times a constant, as a read-only mapping.
    """
    law = policy._law
    if law is not None and law[0] == joint:
        return law[1], law[2]
    table, K = joint.weights, joint.K
    numerators, scale = scale_to_integers(policy.entries.values())
    weights = {}
    for key, n in zip(policy.entries, numerators):
        s, x, _ = key
        if 0 <= s < K and 0 <= x < K and n and table[s][x]:
            weights[key] = table[s][x] * n
    return weights, joint.scale * scale


@dataclass(frozen=True)
class ValidationReport:
    support_ok: bool
    normalization_ok: bool
    independence_ok: bool
    witness: tuple | None = None

    @property
    def all_ok(self) -> bool:
        return self.support_ok and self.normalization_ok and self.independence_ok


def validate_policy(policy: ObfuscationPolicy, joint: JointDistribution) -> ValidationReport:
    """Exact check of the three policy invariants against a joint law.

    The support check rejects an entry whose s, x or subset lies outside
    [K], whose subset lacks x, or whose probability is negative. The other
    two read the weights W of ``policy_weights``, entries over their common
    denominator D: the weights at each (s, x) with W(s, x) > 0 sum to
    W(s, x)·D, and each supported row's W(s, u) / W_s equals the first
    one's, cross-multiplied, at every mask. The first failing check records
    a witness: (s, x, u) for support, (s, x, sum of p) for normalization,
    (s, s_ref, u) for a marginal mismatch.
    """
    K = policy.K
    support = next(
        (("support", s, x, indices_of(mask))
         for (s, x, mask), p in sorted(policy.entries.items())
         if not (0 <= s < K and 0 <= x < K and mask >> K == 0 and mask >> x & 1) or p < 0),
        None,
    )
    weights, scale = policy_weights(policy, joint)
    D = scale // joint.scale
    totals: dict[tuple[int, int], int] = {}
    marginals: dict[int, dict[int, int]] = {}  # s -> u -> W(s, u)
    for (s, x, mask), w in weights.items():
        totals[s, x] = totals.get((s, x), 0) + w
        row = marginals.setdefault(s, {})
        row[mask] = row.get(mask, 0) + w
    unnormalized = next(
        (("normalization", s, x, Fraction(totals.get((s, x), 0), w * D))
         for s, row in enumerate(joint.weights)
         for x, w in enumerate(row)
         if w and totals.get((s, x), 0) != w * D),
        None,
    )
    rows = [(s, sum(row), marginals.get(s, {})) for s, row in enumerate(joint.weights) if any(row)]
    ref, ref_mass, ref_marginal = rows[0]
    leak = next(
        (("independence", s, ref, indices_of(u))
         for s, mass, marginal in rows[1:]
         for u in sorted(ref_marginal.keys() | marginal.keys())
         if marginal.get(u, 0) * ref_mass != ref_marginal.get(u, 0) * mass),
        None,
    )
    return ValidationReport(
        support_ok=support is None,
        normalization_ok=unnormalized is None,
        independence_ok=leak is None,
        witness=support or unnormalized or leak,
    )


def expected_cost(
    policy: ObfuscationPolicy, joint: JointDistribution, n_servers: int
) -> Fraction:
    """E[C(N, |U|)] under the joint law and the policy: the sum of
    W·C(N, |u|) over the weights W of ``policy_weights``, over its scale."""
    weights, scale = policy_weights(policy, joint)
    costs = (w * capacity_cost(n_servers, u.bit_count()) for (_, _, u), w in weights.items())
    return sum(costs, ZERO) / scale


def subset_samplers(
    policy: ObfuscationPolicy, joint: JointDistribution
) -> dict[tuple[int, int], WeightedSampler]:
    """A subset sampler per pair (s, x) of positive mass under the joint,
    over ``policy.at(s, x)`` scaled to integers. Before any draw, the first
    such pair in (s, x) order with no entries raises UnsupportedPair, a
    negative one NegativeEntry, entries not summing to 1 DistributionError."""
    samplers = {}
    for s, x in [(s, x) for s, row in enumerate(joint.weights) for x, w in enumerate(row) if w]:
        choices = policy.at(s, x)
        if not choices:
            raise UnsupportedPair(f"policy has no entries at (s={s}, x={x})")
        masks, shares = zip(*choices)
        counts, scale = scale_to_integers(shares)
        if min(counts) < 0:
            raise NegativeEntry(f"weight {Fraction(min(counts), scale)} is negative")
        if sum(counts) != scale:
            raise DistributionError(f"weights sum to {Fraction(sum(counts), scale)}, expected 1")
        samplers[(s, x)] = WeightedSampler(zip(masks, counts))
    return samplers
