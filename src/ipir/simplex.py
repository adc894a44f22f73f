"""Exact primal simplex over rationals.

Solves   minimize c.x  subject to  A x <= b,  x >= 0,  b >= 0   with every
pivot in Fraction arithmetic, so optima are exact vertices. Each row has an
implicit slack, and since b >= 0 the slacks form a feasible first basis
(x = 0), so a single phase suffices. The tableau is kept in dictionary form
(Chvatal, Linear Programming, 1983, ch. 2-3): one column per nonbasic
variable, and a pivot swaps the entering and the leaving variable, so no
slack or artificial column is ever stored. Pivoting uses Dantzig's rule for
speed and falls back to Bland's rule whenever the objective stalls, which
rules out cycling while keeping typical runs short. Problem sizes in this
package are tiny (the covering LP has 2^K - 2 columns and 2^K - 1 rows), so
a dense tableau is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams, IterationLimit

ZERO = Fraction(0)
ONE = Fraction(1)

# consecutive non-improving pivots tolerated before switching to Bland
STALL_LIMIT = 12


class _Unbounded(Exception):
    """Raised by ``_run``; ``args[0]`` is the pivot count so far."""


@dataclass
class SimplexSolution:
    status: str  # "optimal" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None
    pivots: int  # every tableau pivot


def minimize(costs, rows, rhs, max_pivots: int = 200_000) -> SimplexSolution:
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
        pivots = _run(tableau, z, basis, nonbasic, max_pivots)
    except _Unbounded as exc:
        return SimplexSolution(status="unbounded", objective=None, x=None, pivots=exc.args[0])

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return SimplexSolution(status="optimal", objective=-z[-1], x=x, pivots=pivots)


def _run(tableau, z, basis, nonbasic, budget: int) -> int:
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

        before = z[-1]
        _pivot(tableau, z, basis, nonbasic, leaving, entering)
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


def _pivot(tableau, z, basis, nonbasic, row: int, col: int):
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
