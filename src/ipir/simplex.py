"""Exact primal simplex over an integer tableau.

Solves   minimize c.x  subject to  A x <= b,  x >= 0,  b >= 0   exactly, so
optima are exact vertices. Each row has an implicit slack, and since b >= 0
the slacks form a feasible first basis (x = 0), so a single phase suffices.
The tableau is kept in dictionary form (Chvatal, Linear Programming, 1983,
ch. 2-3): one column per nonbasic variable, and a pivot swaps the entering
and the leaving variable, so no slack or artificial column is ever stored.

The arithmetic is fraction-free. Row i of [A | b] is scaled by lambda_i, the
lcm of its denominators, which amounts to measuring its slack in units of
1/lambda_i; the costs are scaled by one common mu. The solver keeps an
integer tableau T and one common denominator d (at first 1), so that the
dictionary is T/d, and pivots with Edmonds' integer-preserving rule
(Bareiss, Math. Comp. 22, 1968; Azulay and Pique, ACM TOMS 27(3), 2001):
every other entry becomes (p T[i][j] - T[i][c] T[r][j]) / d, an exact
integer division, and d becomes the pivot p. No gcd is taken on the way.

Pivoting uses Dantzig's rule for speed and falls back to Bland's rule
whenever the objective stalls, which rules out cycling while keeping typical
runs short. Dantzig compares reduced costs per unit of the original
variable (a slack column's entry times its lambda), and the ratio test and
the stall check compare by cross-multiplication, so the pivots are those of
the same simplex run in rationals. Problem sizes in this package are tiny
(the covering LP has 2^K - 2 columns and 2^K - 1 rows), so a dense tableau
is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import scale_to_integers
from .errors import InvalidParams, IterationLimit

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
    Entries are ints or Fractions, read as they are (anything else goes
    through Fraction). A negative entry of b raises InvalidParams.
    """
    n = len(costs)
    if any(v < 0 for v in rhs):
        raise InvalidParams(f"rhs must be >= 0, got {Fraction(min(rhs))}")
    tableau = []
    scale = [1] * n  # per variable: the factor its reduced cost is compared at
    for row, value in zip(rows, rhs):
        scaled, factor = scale_to_integers([*row, value])
        tableau.append(scaled)
        scale.append(factor)
    z, mu = scale_to_integers([*costs, 0])
    basis = [n + i for i in range(len(tableau))]
    nonbasic = list(range(n))

    try:
        pivots, d = _run(tableau, z, basis, nonbasic, scale, max_pivots)
    except _Unbounded as exc:
        return SimplexSolution(status="unbounded", objective=None, x=None, pivots=exc.args[0])

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], d)
    return SimplexSolution(
        status="optimal", objective=Fraction(-z[-1], d * mu), x=x, pivots=pivots
    )


def _run(tableau, z, basis, nonbasic, scale, budget: int) -> tuple[int, int]:
    """Pivot to optimality in place; returns the pivot count and the final
    common denominator d."""
    m = len(tableau)
    n = len(nonbasic)
    d = 1
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
            best = 0
            for j in range(n):
                if z[j] < 0:
                    cost = z[j] * scale[nonbasic[j]]
                    if cost < best:
                        best = cost
                        entering = j
        if entering is None:
            return pivots, d

        # least b_i / a_i over a_i > 0, ties to the smaller basic variable
        leaving = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                if leaving is None:
                    leaving, best_b, best_a = i, tableau[i][-1], a
                    continue
                lhs = tableau[i][-1] * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_b, best_a = i, tableau[i][-1], a
        if leaving is None:
            raise _Unbounded(pivots)

        before = z[-1]
        p = _pivot(tableau, z, basis, nonbasic, leaving, entering, d)
        pivots += 1
        if pivots >= budget:
            raise IterationLimit(f"no optimum within {budget} pivots")
        # objective before: -before/(d mu); after: -z[-1]/(p mu)
        if z[-1] * d == before * p:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        d = p


def _pivot(tableau, z, basis, nonbasic, row: int, col: int, d: int) -> int:
    """Swap basis[row] and nonbasic[col] by one integer-preserving pivot on
    p = T[row][col] > 0 under the common denominator d; returns p, the new
    common denominator. The pivot row keeps its entries except T[row][col],
    which becomes d; in every other row (the z row too) the column entry
    changes sign and each other entry becomes (p v - a q) // d, where a is
    the row's entry in the column and q the pivot row's entry. Each
    division is exact: the results are minors of the scaled [A | I | b]."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, other in enumerate(tableau):
        if i != row:
            tableau[i] = _eliminate(other, pivot_row, p, col, d)
    z[:] = _eliminate(z, pivot_row, p, col, d)
    pivot_row[col] = d
    basis[row], nonbasic[col] = nonbasic[col], basis[row]
    return p


def _eliminate(other, pivot_row, p: int, col: int, d: int) -> list[int]:
    a = other[col]
    if a == 0:
        new = [v * p // d for v in other] if p != d else other
    else:
        new = [(p * v - a * q) // d for v, q in zip(other, pivot_row)]
        new[col] = -a
    return new
