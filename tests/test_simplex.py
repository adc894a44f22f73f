"""The one-phase integer-tableau solver of ipir.simplex, checked against
scipy and, pivot for pivot, against the Fraction solver it replaced
(tests/oracles.py ``fraction_minimize``); and the two-phase equality-form
solver before that, kept in tests/oracles.py as the reference of the
covering-LP equivalence tests."""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ipir import simplex
from ipir.errors import InvalidParams, IterationLimit
from ipir.obfuscation import build_lp
from ipir.simplex import minimize

from oracles import fraction_minimize, two_phase_minimize
from test_obfuscation import sparse_joint

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


# the two-phase oracle: min c.x s.t. A x = b, x >= 0


def test_known_small_lp():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    costs = [-1, -1, 0, 0]
    rows = [[1, 1, 1, 0], [1, 3, 0, 1]]
    rhs = [4, 6]
    sol = two_phase_minimize(costs, rows, rhs)
    assert sol.status == "optimal"
    assert sol.objective == -4
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
    assert sol.objective == 4


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
    assert sol.objective == 2


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
    assert sol.objective == -F(1, 20)


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
            assert abs(float(exact.objective) - ref.fun) < 1e-8
        elif exact.status == "infeasible":
            assert not ref.success
        else:
            assert ref.status in (3, 4)  # unbounded family


# the one-phase solver: min c.x s.t. A x <= b, x >= 0, b >= 0


def test_slack_basis_needs_no_phase_one():
    # min -x - y  s.t.  x + y <= 4, x + 3y <= 6: from x = y = 0, x enters
    # (Dantzig, first of the tied -1s) for the first slack, and y's reduced
    # cost is then 0
    sol = minimize([-1, -1], [[1, 1], [1, 3]], [4, 6])
    assert sol.status == "optimal"
    assert sol.objective == -4
    assert sol.x == [F(4), F(0)]
    assert sol.pivots == 1


def test_one_phase_unbounded():
    # min -x - y  s.t.  x - y <= 2: y, and then x with it, grows without limit
    sol = minimize([-1, -1], [[1, -1]], [2])
    assert sol.status == "unbounded"
    assert sol.objective is None and sol.x is None
    assert sol.pivots == 1


BEALE = (
    [-F(3, 4), 150, -F(1, 50), 6],
    [[F(1, 4), -60, -F(1, 25), 9], [F(1, 2), -90, -F(1, 50), 3], [0, 0, 1, 0]],
    [0, 0, 1],
)


def test_one_phase_degenerate_start_needs_bland(monkeypatch):
    # Beale's example: the zero rhs makes the slack basis degenerate, and
    # Dantzig's rule with smallest-index ties cycles through it
    sol = minimize(*BEALE)
    assert sol.status == "optimal"
    assert sol.objective == -F(1, 20)
    assert sol.x == [F(1, 25), F(0), F(1), F(0)]
    monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
    with pytest.raises(IterationLimit):
        minimize(*BEALE, max_pivots=200)


def test_negative_rhs_rejected():
    with pytest.raises(InvalidParams, match="rhs must be >= 0"):
        minimize([1, 1], [[1, 0], [0, 1]], [1, -1])
    # the offending entry is named as a rational whatever its type
    for rhs in ([1, F(-1, 2)], [1, -0.5], [F(1), F(-1, 2)]):
        with pytest.raises(InvalidParams, match="rhs must be >= 0, got -1/2$"):
            minimize([1, 1], [[1, 0], [0, 1]], rhs)


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
    solutions = [minimize(costs, rows, b) for b in rhs]
    assert solutions[0].status == "optimal"
    assert solutions[1:] == solutions[:1] * 2
    assert solutions[0] == fraction_minimize(costs, rows, rhs[1])


def test_zero_variable_lp():
    # the covering LP at K=1: no proper subset, one row 0 <= 1
    sol = minimize([], [[]], [1])
    assert sol.status == "optimal"
    assert (sol.objective, sol.x, sol.pivots) == (0, [], 0)


def test_one_phase_matches_float_solver_on_random_instances():
    rng = random.Random(11)
    statuses = set()
    for trial in range(80):
        n, m = rng.randrange(1, 7), rng.randrange(1, 5)
        costs = [F(rng.randrange(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randrange(-2, 4), rng.randrange(1, 3)) for _ in range(n)] for _ in range(m)]
        # about a third of the rhs entries are zero: degenerate starts
        rhs = [F(rng.choice((0, rng.randrange(1, 6)))) for _ in range(m)]
        exact = minimize(costs, rows, rhs)
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
            assert abs(float(exact.objective) - ref.fun) < 1e-8
            assert exact.objective == sum(c * v for c, v in zip(costs, exact.x))
            assert all(v >= 0 for v in exact.x)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, exact.x)) <= b
        else:
            assert ref.status == 3  # unbounded
    assert statuses == {"optimal", "unbounded"}


# the integer tableau against the Fraction solver: same status, objective,
# x and pivot count, with every Bareiss division exact


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
    solution = minimize(costs, rows, rhs)
    assert solution == expected
    if solution.status == "optimal":
        assert all(type(v) is F for v in [solution.objective, *solution.x])
    with exact_divisions() as divisions:
        assert minimize(costs, rows, rhs) == expected
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
    assert minimize(*BEALE_OFFSET, max_pivots=200) == fraction_minimize(*BEALE_OFFSET)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
    with pytest.raises(IterationLimit):
        minimize(*BEALE_OFFSET, max_pivots=200)


@pytest.mark.parametrize("K, count", [(2, 40), (3, 30), (4, 10), (5, 3)])
def test_integer_tableau_matches_fraction_solver_on_covering_lps(K, count):
    rng = random.Random(f"integer-tableau:{K}")
    for i in range(count):
        instance = build_lp(sparse_joint(rng, K, zero_row=i % 2 == 1), 2 + i % 2)
        assert_matches_fraction_solver(instance.costs, instance.rows, instance.rhs)
