from fractions import Fraction as F

import pytest

from ipir.simplex import minimize

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def test_known_small_lp():
    # min -x - y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6
    costs = [-1, -1, 0, 0]
    rows = [[1, 1, 1, 0], [1, 3, 0, 1]]
    rhs = [4, 6]
    sol = minimize(costs, rows, rhs)
    assert sol.status == "optimal"
    assert sol.objective == -4
    assert sum(sol.x[0:2]) == 4


def test_pivot_count_covers_both_phases():
    # phase 1 brings y in (Dantzig, reduced cost -4), then s1, which makes
    # the artificials zero; phase 2 then brings x in for s1: x=3, y=1
    sol = minimize([-1, -1, 0, 0], [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6])
    assert sol.x == [F(3), F(1), F(0), F(0)]
    assert sol.pivots == 3


def test_equality_only_instance():
    # min x + 2y  s.t.  x + y = 3, x - y = 1  ->  x=2, y=1
    sol = minimize([1, 2], [[1, 1], [1, -1]], [3, 1])
    assert sol.status == "optimal"
    assert sol.x == [F(2), F(1)]
    assert sol.objective == 4


def test_infeasible():
    # x = 1 and x = 2 cannot both hold
    sol = minimize([1], [[1], [1]], [1, 2])
    assert sol.status == "infeasible"


def test_unbounded():
    # min -x with only x - y = 0: x can grow without limit
    sol = minimize([-1, 0], [[1, -1]], [0])
    assert sol.status == "unbounded"


def test_redundant_rows_are_dropped():
    sol = minimize([1, 1], [[1, 1], [2, 2]], [2, 4])
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
    sol = minimize(costs, rows, rhs)
    assert sol.status == "optimal"
    assert sol.objective == -F(1, 20)


def test_matches_float_solver_on_random_instances():
    import random

    rng = random.Random(5)
    for trial in range(40):
        n, m = 6, 3
        costs = [F(rng.randrange(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randrange(0, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randrange(1, 6)) for _ in range(m)]
        exact = minimize(costs, rows, rhs)
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
