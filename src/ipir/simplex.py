"""Exact primal simplex over rationals.

Solves   minimize c.x  subject to  A x = b,  x >= 0   with every pivot in
Fraction arithmetic, so optima are exact vertices. Pivoting uses Dantzig's
rule for speed and falls back to Bland's rule whenever the objective stalls,
which rules out cycling while keeping typical runs short. Problem sizes in
this package are tiny (the covering LP has 2^K - 1 rows), so a dense
tableau is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IterationLimit

ZERO = Fraction(0)
ONE = Fraction(1)

# consecutive non-improving pivots tolerated before switching to Bland
STALL_LIMIT = 12


class _Unbounded(Exception):
    """Raised by ``_run``; ``args[0]`` is the pivot count so far."""


@dataclass
class SimplexSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None
    pivots: int  # every tableau pivot, phase 1 and phase 2


def minimize(costs, rows, rhs, max_pivots: int = 200_000) -> SimplexSolution:
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

    pivots = _run(tableau, z, basis, max_pivots)
    if z[-1] != 0:
        return SimplexSolution(status="infeasible", objective=None, x=None, pivots=pivots)

    # drive leftover artificials out of the basis; all-zero rows are redundant
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                continue
            _pivot(tableau, z, basis, i, col)
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
        pivots += _run(tableau, z, basis, max_pivots - pivots)
    except _Unbounded as exc:
        return SimplexSolution(
            status="unbounded", objective=None, x=None, pivots=pivots + exc.args[0]
        )

    x = [ZERO] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return SimplexSolution(status="optimal", objective=-z[-1], x=x, pivots=pivots)


def _run(tableau, z, basis, budget: int) -> int:
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
        _pivot(tableau, z, basis, leaving, entering)
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


def _pivot(tableau, z, basis, row: int, col: int):
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
