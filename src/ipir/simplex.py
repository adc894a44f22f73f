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

A ``BasisCache`` warm-starts LPs that differ only in b: an optimal basis B
stays dual feasible, so it is optimal whenever B^-1 b >= 0 (Chvatal 1983,
ch. 10), and unique, the cold solve's x, if no reduced cost is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import scale_to_integers
from .errors import InvalidParams, IterationLimit

# consecutive non-improving pivots tolerated before switching to Bland
STALL_LIMIT = 12
# certified bases a BasisCache keeps, the least recently hit dropped first
BASIS_CAP = 16


class _Unbounded(Exception):
    """Raised by ``_run``; ``args[0]`` is the pivot count so far."""


@dataclass
class SimplexSolution:
    """x is ``numerators`` / ``denominator`` in lowest terms, or None."""

    status: str  # "optimal" | "unbounded"
    numerators: list[int] | None
    denominator: int
    pivots: int  # every tableau pivot; 0 on a cache hit

    @property
    def x(self) -> list[Fraction] | None:
        numerators, d = self.numerators, self.denominator
        return None if numerators is None else [Fraction(v, d) for v in numerators]


class BasisCache:
    """Certified optimal bases of the LPs with these costs and rows.

    A basis is its basic variable per row and the integer inverse G / delta
    of its matrix in [A | I], so the basic values at b = beta / D are
    G beta / (delta D). Only bases whose nonbasic reduced costs, slacks
    included, are all > 0 are kept, at most ``BASIS_CAP``. At the covering
    LP's largest size, K = ``DEFAULT_LP_CAP`` = 6 (63 rows), that is at most
    16 inverses of 63 x 63 ints: 0.6 MB of tuples and 64k int objects, under
    3 MB while entries fit in 30 bits. Lookups read a snapshot and updates
    rebind the list, so concurrent solves stay correct; a lost update costs
    at most one miss.
    """

    def __init__(self, costs, rows):
        self.costs, self.rows = tuple(costs), tuple(map(tuple, rows))
        self._rows = [scale_to_integers(row) for row in self.rows]
        self._costs = scale_to_integers([*costs, 0])[0]
        self._bases = []  # (basic variable per row, G, delta), most recently hit first

    def _add(self, basis, nonbasic, tableau, d: int, scale) -> None:
        """Store the final basis of a cold run. Column k of its inverse is
        the tableau column of slack k, or a unit column if k is basic; each
        row is read back in the rows' own units and reduced."""
        m, n = len(basis), len(nonbasic)
        column = {v - n: j for j, v in enumerate(nonbasic) if v >= n}
        rows = []
        for var, row in zip(basis, tableau):
            inverse = [
                (row[column[k]] if k in column else d * (var == n + k)) * scale[n + k]
                for k in range(m)
            ]
            g = gcd(d * scale[var], *inverse)
            rows.append(([v // g for v in inverse], d * scale[var] // g))
        delta = lcm(*[den for _, den in rows])
        inverse = tuple(tuple(v * (delta // den) for v in row) for row, den in rows)
        self._bases = [(tuple(basis), inverse, delta), *self._bases[: BASIS_CAP - 1]]


def minimize(
    costs, rows, rhs, max_pivots: int = 200_000, bases: BasisCache | None = None
) -> SimplexSolution:
    """Simplex for min c.x s.t. A x <= b, x >= 0, started from the slack basis.

    Variable j < n is column j of A; variable n + i is the slack of row i.
    Entries are ints or Fractions, read as they are (anything else goes
    through Fraction). A negative entry of b raises InvalidParams.

    ``bases``, built for these costs and rows (else InvalidParams), is
    tried first: the first basis with B^-1 b >= 0 gives the optimum with
    ``pivots == 0``. Otherwise the cold solve runs on the cache's integer
    rows and stores its final basis if certified. The result never
    depends on what the cache holds.
    """
    n = len(costs)
    ratios = [
        (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in rhs
    ]
    if any(p < 0 for p, _ in ratios):
        raise InvalidParams(f"rhs must be >= 0, got {Fraction(min(rhs))}")
    if bases is None:
        bases = BasisCache(costs, rows)
    elif tuple(costs) != bases.costs or tuple(map(tuple, rows)) != bases.rows:
        raise InvalidParams("the basis cache was built for other costs or rows")
    scale_b = lcm(*[q for _, q in ratios])
    beta = [p * (scale_b // q) for p, q in ratios]
    snapshot = bases._bases
    for k, (basis, inverse, delta) in enumerate(snapshot):
        values = [sum(map(mul, row, beta)) for row in inverse]
        if all(v >= 0 for v in values):
            if k:
                bases._bases = [snapshot[k], *snapshot[:k], *snapshot[k + 1 :]]
            denominator, pivots = delta * scale_b, 0
            break
    else:
        tableau = []
        scale = [1] * n  # per variable: the factor its reduced cost is compared at
        for (row, row_scale), (p, q) in zip(bases._rows, ratios):
            factor = lcm(row_scale, q)
            tableau.append([a * (factor // row_scale) for a in row] + [p * (factor // q)])
            scale.append(factor)
        z = list(bases._costs)
        basis = [n + i for i in range(len(tableau))]
        nonbasic = list(range(n))
        try:
            pivots, denominator = _run(tableau, z, basis, nonbasic, scale, max_pivots)
        except _Unbounded as exc:
            return SimplexSolution("unbounded", None, 1, exc.args[0])
        if _certified(z):
            bases._add(basis, nonbasic, tableau, denominator, scale)
        values = [row[-1] for row in tableau]

    numerators = [0] * n
    for var, v in zip(basis, values):
        if var < n:
            numerators[var] = v
    g = gcd(denominator, *numerators)
    return SimplexSolution("optimal", [v // g for v in numerators], denominator // g, pivots)


def _certified(z) -> bool:
    """All nonbasic reduced costs, slacks included, are > 0: x is unique."""
    return all(v > 0 for v in z[:-1])


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
        if pivots >= budget:
            raise IterationLimit(f"no optimum within {budget} pivots")

        before = z[-1]
        p = _pivot(tableau, z, basis, nonbasic, leaving, entering, d)
        pivots += 1
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
