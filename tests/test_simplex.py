"""The one-phase integer-tableau solver of ipir.simplex, checked against
scipy and, pivot for pivot, against the Fraction solver it replaced
(tests/oracles.py ``fraction_minimize``), cold and warm-started from a
``BasisCache``; and the two-phase equality-form solver before that, kept in
tests/oracles.py as the reference of the covering-LP equivalence tests."""

import random
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ipir import simplex
from ipir.errors import InvalidParams, IterationLimit
from ipir.obfuscation import build_lp
from ipir.simplex import BasisCache, minimize

from oracles import fraction_minimize, objective, two_phase_minimize
from test_obfuscation import positive_joint, sparse_joint

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def cold_minimize(costs, rows, rhs):
    """``minimize`` on a fresh cache of the LP: a cold solve."""
    return minimize(BasisCache(costs, rows), rhs)


# the two-phase oracle: min c.x s.t. A x = b, x >= 0


def test_known_small_lp():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    costs = [-1, -1, 0, 0]
    rows = [[1, 1, 1, 0], [1, 3, 0, 1]]
    rhs = [4, 6]
    sol = two_phase_minimize(costs, rows, rhs)
    assert sol.status == "optimal"
    assert objective(costs, sol) == -4
    assert sum(sol.x[0:2]) == 4


def test_pivot_count_covers_both_phases():
    # phase 1 brings y in (Dantzig, reduced cost -4), then s1, which makes
    # the artificials zero; phase 2 then brings x in for s1: x=3, y=1
    sol = two_phase_minimize([-1, -1, 0, 0], [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6])
    assert sol.x == [F(3), F(1), F(0), F(0)]
    assert sol.pivots == 3


def test_equality_only_instance():
    # min x + 2y  s.t.  x + y = 3, x - y = 1  ->  x=2, y=1
    sol = two_phase_minimize([1, 2], [[1, 1], [1, -1]], [3, 1])
    assert sol.status == "optimal"
    assert sol.x == [F(2), F(1)]
    assert objective([1, 2], sol) == 4


def test_infeasible():
    # x = 1 and x = 2 cannot both hold
    sol = two_phase_minimize([1], [[1], [1]], [1, 2])
    assert sol.status == "infeasible"


def test_unbounded():
    # min -x with only x - y = 0: x can grow without limit
    sol = two_phase_minimize([-1, 0], [[1, -1]], [0])
    assert sol.status == "unbounded"


def test_redundant_rows_are_dropped():
    sol = two_phase_minimize([1, 1], [[1, 1], [2, 2]], [2, 4])
    assert sol.status == "optimal"
    assert objective([1, 1], sol) == 2


def test_degenerate_vertex_terminates():
    # several constraints meet at the optimum; Bland fallback must not cycle
    costs = [-F(3, 4), 150, -F(1, 50), 6, 0, 0, 0]
    rows = [
        [F(1, 4), -60, -F(1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, -F(1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    rhs = [0, 0, 1]
    sol = two_phase_minimize(costs, rows, rhs)
    assert sol.status == "optimal"
    assert objective(costs, sol) == -F(1, 20)


def test_matches_float_solver_on_random_instances():
    rng = random.Random(5)
    for trial in range(40):
        n, m = 6, 3
        costs = [F(rng.randrange(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randrange(0, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randrange(1, 6)) for _ in range(m)]
        exact = two_phase_minimize(costs, rows, rhs)
        ref = scipy_linprog(
            [float(c) for c in costs],
            A_eq=[[float(v) for v in row] for row in rows],
            b_eq=[float(v) for v in rhs],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if exact.status == "optimal":
            assert ref.success
            assert abs(float(objective(costs, exact)) - ref.fun) < 1e-8
        elif exact.status == "infeasible":
            assert not ref.success
        else:
            assert ref.status in (3, 4)  # unbounded family


# the one-phase solver: min c.x s.t. A x <= b, x >= 0, b >= 0


def test_slack_basis_needs_no_phase_one():
    # min -x - y  s.t.  x + y <= 4, x + 3y <= 6: from x = y = 0, x enters
    # (Dantzig, first of the tied -1s) for the first slack, and y's reduced
    # cost is then 0
    sol = cold_minimize([-1, -1], [[1, 1], [1, 3]], [4, 6])
    assert sol.status == "optimal"
    assert objective([-1, -1], sol) == -4
    assert sol.x == [F(4), F(0)]
    assert sol.pivots == 1


def test_one_phase_unbounded():
    # min -x - y  s.t.  x - y <= 2: y, and then x with it, grows without limit
    sol = cold_minimize([-1, -1], [[1, -1]], [2])
    assert sol.status == "unbounded"
    assert sol.x is None
    assert sol.pivots == 1


BEALE = (
    [-F(3, 4), 150, -F(1, 50), 6],
    [[F(1, 4), -60, -F(1, 25), 9], [F(1, 2), -90, -F(1, 50), 3], [0, 0, 1, 0]],
    [0, 0, 1],
)


def test_one_phase_degenerate_start_needs_bland(monkeypatch):
    # Beale's example: the zero rhs makes the slack basis degenerate, and
    # Dantzig's rule with smallest-index ties cycles through it
    sol = cold_minimize(*BEALE)
    assert sol.status == "optimal"
    assert objective(BEALE[0], sol) == -F(1, 20)
    assert sol.x == [F(1, 25), F(0), F(1), F(0)]
    monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 200)
    with pytest.raises(IterationLimit):
        cold_minimize(*BEALE)


def test_negative_rhs_rejected():
    with pytest.raises(InvalidParams, match="rhs must be >= 0"):
        cold_minimize([1, 1], [[1, 0], [0, 1]], [1, -1])
    # the offending entry is named as a rational whatever its type
    for rhs in ([1, F(-1, 2)], [1, -0.5], [F(1), F(-1, 2)]):
        with pytest.raises(InvalidParams, match="rhs must be >= 0, got -1/2$"):
            cold_minimize([1, 1], [[1, 0], [0, 1]], rhs)


@pytest.mark.parametrize(
    "rhs",
    [
        ([4, 6, 3], [F(4), F(6), F(3)], [4, F(12, 2), 3]),
        ([F(7, 2), 5, F(9, 4)], [F(7, 2), F(5), F(9, 4)], [F(14, 4), F(5), F(9, 4)]),
        ([0, 0, 1], [F(0), F(0), F(1)], [F(0), 0, F(1)]),
    ],
)
def test_int_fraction_and_mixed_rhs_give_equal_solutions(rhs):
    # the rhs is read as it is: an int and the equal Fraction are one value
    costs = [-1, -2, F(-1, 2)]
    rows = [[1, 1, 0], [F(1, 2), 2, 1], [0, 1, 3]]
    solutions = [cold_minimize(costs, rows, b) for b in rhs]
    assert solutions[0].status == "optimal"
    assert solutions[1:] == solutions[:1] * 2
    assert solutions[0] == fraction_minimize(costs, rows, rhs[1])


def test_zero_variable_lp():
    # the covering LP at K=1: no proper subset, one row 0 <= 1
    sol = cold_minimize([], [[]], [1])
    assert sol.status == "optimal"
    assert (objective([], sol), sol.x, sol.pivots) == (0, [], 0)


def test_one_phase_matches_float_solver_on_random_instances():
    rng = random.Random(11)
    statuses = set()
    for trial in range(80):
        n, m = rng.randrange(1, 7), rng.randrange(1, 5)
        costs = [F(rng.randrange(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randrange(-2, 4), rng.randrange(1, 3)) for _ in range(n)] for _ in range(m)]
        # about a third of the rhs entries are zero: degenerate starts
        rhs = [F(rng.choice((0, rng.randrange(1, 6)))) for _ in range(m)]
        exact = cold_minimize(costs, rows, rhs)
        ref = scipy_linprog(
            [float(c) for c in costs],
            A_ub=[[float(v) for v in row] for row in rows],
            b_ub=[float(v) for v in rhs],
            bounds=[(0, None)] * n,
            method="highs",
        )
        statuses.add(exact.status)
        if exact.status == "optimal":
            assert ref.success
            assert abs(float(objective(costs, exact)) - ref.fun) < 1e-8
            assert all(v >= 0 for v in exact.x)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, exact.x)) <= b
        else:
            assert ref.status == 3  # unbounded
    assert statuses == {"optimal", "unbounded"}


# the integer tableau against the Fraction solver: same status, x and
# pivot count, with every Bareiss division exact


@contextmanager
def exact_divisions():
    """Run ``minimize`` with a twin of its row update that takes every
    division by divmod and fails on a nonzero remainder; yields a list
    whose length is the number of divisions made."""
    divisions = []

    def eliminate(other, pivot_row, p, col, d):
        a = other[col]
        new = []
        for v, q in zip(other, pivot_row):
            quotient, remainder = divmod(p * v - a * q, d)
            assert remainder == 0, (p * v - a * q, d)
            new.append(quotient)
            divisions.append(d)
        new[col] = -a
        return new

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_eliminate", eliminate)
        yield divisions


def assert_matches_fraction_solver(costs, rows, rhs) -> tuple[str, int]:
    """Both integer runs (plain, and with every division checked) equal
    the oracle's solution; returns its status and the divisions checked."""
    expected = fraction_minimize(costs, rows, rhs)
    solution = cold_minimize(costs, rows, rhs)
    assert solution == expected
    if solution.status == "optimal":
        assert all(type(v) is F for v in solution.x)
    with exact_divisions() as divisions:
        assert cold_minimize(costs, rows, rhs) == expected
    return solution.status, len(divisions)


def random_instance(rng):
    n, m = rng.randrange(1, 8), rng.randrange(1, 6)
    costs = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
    rows = [[F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)] for _ in range(m)]
    # about a third of the rhs entries are zero: degenerate starts
    rhs = [F(rng.choice((0, 0, rng.randrange(1, 6))), rng.randrange(1, 5)) for _ in range(m)]
    return costs, rows, rhs


def test_integer_tableau_matches_fraction_solver_on_random_instances():
    rng = random.Random(17)
    statuses = set()
    divisions = 0
    for _ in range(600):
        status, checked = assert_matches_fraction_solver(*random_instance(rng))
        statuses.add(status)
        divisions += checked
    assert statuses == {"optimal", "unbounded"}
    assert divisions > 0


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5),
        )
    ),
    st.data(),
)
def test_integer_tableau_matches_fraction_solver_on_hypothesis_instances(shape, data):
    costs, rows = shape
    rhs = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=5, max_denominator=6),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    assert_matches_fraction_solver(costs, rows, rhs)


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(BEALE, id="beale"),
        pytest.param(([], [[]], [1]), id="zero-variables"),
        pytest.param(([-1, -1], [[1, -1]], [2]), id="unbounded"),
        pytest.param(([-1, -1], [[1, 1], [1, 3]], [4, 6]), id="int-entries"),
        # int rows next to Fraction rows (an integral Fraction entry among
        # them); the int rows with rhs 7/4 and 9/4 bind at the optimum
        pytest.param(
            (
                [-1, -2, F(-1, 2)],
                [[1, 1, 0], [F(1, 2), 2, 1], [0, 1, 3], [F(2), 1, 1], [1, 0, 2]],
                [F(7, 4), 5, F(9, 4), 4, 0.5],
            ),
            id="int-and-fraction-rows",
        ),
    ],
)
def test_integer_tableau_matches_fraction_solver_on_named_instances(instance):
    assert_matches_fraction_solver(*instance)


# Beale's example behind a first pivot (x0 <= 1 at cost -1000) that leaves
# the objective at -1000 while it cycles: the stall check must see equal
# objectives under different denominators d
BEALE_OFFSET = (
    [-1000, *BEALE[0]],
    [[0, *row] for row in BEALE[1]] + [[1, 0, 0, 0, 0]],
    [*BEALE[2], 1],
)


def test_stall_check_compares_objectives_across_denominators(monkeypatch):
    # the cycle only ends through the Bland fallback
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 200)
    assert cold_minimize(*BEALE_OFFSET) == fraction_minimize(*BEALE_OFFSET)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
    with pytest.raises(IterationLimit):
        cold_minimize(*BEALE_OFFSET)


@pytest.mark.parametrize("K, count", [(2, 40), (3, 30), (4, 10), (5, 3)])
def test_integer_tableau_matches_fraction_solver_on_covering_lps(K, count):
    rng = random.Random(f"integer-tableau:{K}")
    for i in range(count):
        instance = build_lp(sparse_joint(rng, K, zero_row=i % 2 == 1), 2 + i % 2)
        assert_matches_fraction_solver(instance.costs, instance.rows, instance.rhs)


# the pivot budget: MAX_PIVOTS pivots may be made (the oracles' max_pivots),
# and IterationLimit is raised only when one more is needed


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(([-1], [[1]], [1]), id="one-pivot"),
        pytest.param(([-1, -1], [[1, 1], [1, 3]], [4, 6]), id="int-entries"),
        pytest.param(BEALE, id="beale"),
        pytest.param(BEALE_OFFSET, id="beale-offset"),
    ],
)
def test_budget_of_exactly_the_pivots_needed(instance, monkeypatch):
    solution = cold_minimize(*instance)
    needed = solution.pivots
    assert needed > 0
    monkeypatch.setattr(simplex, "MAX_PIVOTS", needed)
    assert cold_minimize(*instance) == fraction_minimize(*instance, max_pivots=needed) == solution
    monkeypatch.setattr(simplex, "MAX_PIVOTS", needed - 1)
    message = f"no optimum within {needed - 1} pivots"
    with pytest.raises(IterationLimit, match=message):
        cold_minimize(*instance)
    with pytest.raises(IterationLimit, match=message):
        fraction_minimize(*instance, max_pivots=needed - 1)


def test_two_phase_budget_of_exactly_the_pivots_needed():
    instance = ([-1, -1, 0, 0], [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6])
    needed = two_phase_minimize(*instance).pivots  # 3, over both phases
    assert two_phase_minimize(*instance, max_pivots=needed).pivots == needed
    with pytest.raises(IterationLimit):
        two_phase_minimize(*instance, max_pivots=needed - 1)


def test_a_solve_that_needs_no_pivot_fits_a_zero_budget(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
    assert cold_minimize([1], [[1]], [1]).pivots == 0


# warm starts: certified bases of one rhs answer another with no pivot, and
# a warm solve equals the cold one in status, objective and x


def assert_warm_matches_fraction_solver(costs, rows, warm, rhs) -> bool:
    """Warm a cache on ``warm``, then solve ``rhs`` with it: the result
    equals the oracle's but for the pivot count; returns whether it hit."""
    bases = BasisCache(costs, rows)
    assert minimize(bases, warm) == fraction_minimize(costs, rows, warm)
    expected = fraction_minimize(costs, rows, rhs)
    solution = minimize(bases, rhs)
    assert (solution.status, objective(costs, solution), solution.x) == (
        expected.status, objective(costs, expected), expected.x
    )
    return solution.pivots == 0 < expected.pivots


def test_warm_start_matches_fraction_solver_on_random_instances():
    rng = random.Random(23)
    hits = 0
    for _ in range(300):
        costs, rows, rhs = random_instance(rng)
        other = random_instance(rng)[2][: len(rhs)]
        other += [F(1)] * (len(rhs) - len(other))
        # twice the rhs keeps every basis feasible; another rhs may not
        hits += assert_warm_matches_fraction_solver(costs, rows, rhs, [2 * v for v in rhs])
        hits += assert_warm_matches_fraction_solver(costs, rows, rhs, other)
    assert hits > 50


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5),
        )
    ),
    st.data(),
)
def test_warm_start_matches_fraction_solver_on_hypothesis_instances(shape, data):
    costs, rows = shape
    warm, rhs = (
        data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=5, max_denominator=6),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        for _ in range(2)
    )
    assert_warm_matches_fraction_solver(costs, rows, warm, rhs)


@pytest.mark.parametrize(
    "instance, rhs",
    [
        pytest.param(BEALE, [1, 2, 3], id="beale"),
        pytest.param(([], [[]], [1]), [F(5, 2)], id="zero-variables"),
        pytest.param(([-1, -1], [[1, -1]], [2]), [0], id="unbounded"),
        pytest.param(([-1, -2], [[1, 1], [1, 3]], [4, 6]), [F(9, 2), 12], id="int-entries"),
    ],
)
def test_warm_start_matches_fraction_solver_on_named_instances(instance, rhs):
    costs, rows, warm = instance
    assert_warm_matches_fraction_solver(costs, rows, warm, rhs)


@pytest.mark.parametrize("K, count", [(3, 30), (4, 12), (5, 3)])
def test_warm_start_matches_fraction_solver_on_covering_lps(K, count):
    # random positive laws certify a basis at K = 3; at K = 4 and 5 the
    # costs, which depend on |u| alone, tend to leave zero reduced costs,
    # which the certificate refuses
    rng = random.Random(f"warm-start:{K}")
    hits = 0
    for i in range(count):
        law, other = (positive_joint(rng, K) for _ in range(2))
        warm, instance = build_lp(law, 2 + i % 2), build_lp(other, 2 + i % 2)
        hits += assert_warm_matches_fraction_solver(
            instance.costs, instance.rows, warm.rhs, instance.rhs
        )
        warm = build_lp(sparse_joint(rng, K, zero_row=i % 2 == 1), 2 + i % 2)
        assert_warm_matches_fraction_solver(instance.costs, instance.rows, warm.rhs, instance.rhs)
    if K == 3:
        assert hits > 0


# min -2y - 2z s.t. 2y + z <= b0, x + 2y <= b1: x costs nothing, so at
# b = (4, 1) the whole edge y = 0, z = 4, 0 <= x <= 1 is optimal. The
# basis that the degenerate b = (0, 0) ends in is optimal there too but
# keeps x = 0, while a cold solve ends at x = 1.
DUAL_DEGENERATE = ([0, -2, -2], [[0, 2, 1], [1, 2, 0]])


def test_dual_degenerate_basis_is_not_cached():
    bases = BasisCache(*DUAL_DEGENERATE)
    minimize(bases, [0, 0])
    assert len(bases._bases) == 0  # x's reduced cost is 0: no certificate
    solution = minimize(bases, [4, 1])
    assert solution == fraction_minimize(*DUAL_DEGENERATE, [4, 1])
    assert solution.x == [F(1), F(0), F(4)] and solution.pivots > 0


def test_cache_without_the_certificate_returns_another_vertex(monkeypatch):
    # the mutant that stores every optimal basis answers b = (4, 1) from
    # the basis of b = (0, 0), an optimum but not the cold solve's
    monkeypatch.setattr(simplex, "_certified", lambda z: True)
    bases = BasisCache(*DUAL_DEGENERATE)
    minimize(bases, [0, 0])
    solution = minimize(bases, [4, 1])
    expected = fraction_minimize(*DUAL_DEGENERATE, [4, 1])
    assert solution.pivots == 0
    assert objective(DUAL_DEGENERATE[0], solution) == objective(DUAL_DEGENERATE[0], expected)
    assert solution.x == [F(0), F(0), F(4)] != expected.x


def test_cache_is_tried_most_recent_hit_first_and_bounded(monkeypatch):
    monkeypatch.setattr(simplex, "BASIS_CAP", 2)
    # min -x - 2y s.t. x <= b0, y <= b1, x + y <= b2 has three certified
    # optimal bases: {x, y, s2}, {y, s0, s1} and {x, y, s0} (x, y are
    # variables 0, 1 and s_i is variable 2 + i)
    costs, rows = [-1, -2], [[1, 0], [0, 1], [1, 1]]
    bases = BasisCache(costs, rows)

    def held():
        return [set(basis) for basis, _, _ in bases._bases]

    for rhs in ([1, 1, 3], [1, 3, 2], [3, 1, 2]):
        assert minimize(bases, rhs).pivots > 0
    assert held() == [{0, 1, 2}, {1, 2, 3}]  # {x, y, s2} was dropped
    assert minimize(bases, [2, 3, 2]).pivots == 0
    assert held() == [{1, 2, 3}, {0, 1, 2}]  # the hit moves to the front
    assert minimize(bases, [2, 2, 9]).pivots > 0
    assert held() == [{0, 1, 4}, {1, 2, 3}]


def test_cache_holds_at_most_its_cap(monkeypatch):
    # a dense 6 x 6 LP whose random rhs reach 28 certified optimal bases
    rng = random.Random(0)
    costs = [-rng.randrange(1, 9) for _ in range(6)]
    rows = [[rng.randrange(0, 5) for _ in range(6)] for _ in range(6)]
    stored = []
    add = BasisCache._add
    monkeypatch.setattr(BasisCache, "_add", lambda self, *args: stored.append(add(self, *args)))
    bases = BasisCache(costs, rows)
    rng = random.Random(31)
    for _ in range(200):
        rhs = [rng.randrange(1, 20) for _ in range(6)]
        solution = minimize(bases, rhs)
        expected = fraction_minimize(costs, rows, rhs)
        assert (objective(costs, solution), solution.x) == (
            objective(costs, expected), expected.x
        )
        assert len(bases._bases) <= simplex.BASIS_CAP
    assert len(stored) > simplex.BASIS_CAP


def test_concurrent_solves_share_one_cache():
    # threads that hit, reorder, store and drop bases of one cache at once
    # (28 certified bases over a cap of 16) still get the cold solutions
    rng = random.Random(0)
    costs = [-rng.randrange(1, 9) for _ in range(6)]
    rows = [[rng.randrange(0, 5) for _ in range(6)] for _ in range(6)]
    rng = random.Random(37)
    cases = [[rng.randrange(1, 20) for _ in range(6)] for _ in range(60)]
    expected = [cold_minimize(costs, rows, rhs) for rhs in cases]
    bases = BasisCache(costs, rows)
    wrong = []

    def solve(offset):
        try:
            for i in range(3 * len(cases)):
                j = (offset + 7 * i) % len(cases)
                solution = minimize(bases, cases[j])
                if solution.x != expected[j].x:
                    wrong.append(j)
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(bases._bases) <= simplex.BASIS_CAP

