"""Exact simplex for equality-form linear programs, in integer arithmetic.

Solves ``min c.x  s.t.  A x = b, x >= 0`` exactly.  The caller supplies a
starting basis whose columns form the identity (the capacity LP always has
one: the singleton-subset columns), so no phase-1 is needed.  Entering and
leaving variables follow Bland's rule, which rules out cycling;
termination is therefore guaranteed.

The pivots are fraction-free (Edmonds 1967, Bareiss 1968).  Rational input
is cleared once: with ``D`` the lcm of the row and rhs denominators, the
integer matrix ``D·[A|b]`` has the basis ``D·I`` of determinant ``D^m``.
The tableau is then held as Python ints over one shared denominator ``d``,
the absolute value of the current basis determinant: row ``i`` stores
``d·B^-1·D[A|b]``, which is ``adj(B)·D[A|b]`` up to sign and therefore
integral, and the reduced-cost row stores ``d·L`` times the reduced costs,
where ``L`` clears the cost denominators.  A pivot on the positive entry
``p`` updates every other row, the reduced-cost row included, by
``x' = (x·p - f·y) // d`` and sets ``d = p``; by Sylvester's identity each
division is exact, because the quotient is an entry of the next integral
tableau.  Since ``d·L > 0``, the sign tests and the cross-multiplied ratio
test pick exactly the pivots a rational tableau would, so the path, the
optimal basis and the solution are those of the textbook method.
Fractions appear again only in the returned ``solution`` and ``value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    solution: tuple[Fraction, ...]
    basis: tuple[int, ...]


def _rational(value) -> int | Fraction:
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def solve_lp(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    basis: Sequence[int],
) -> SimplexResult:
    """Minimize ``costs . x`` over ``rows x = rhs, x >= 0``.

    Entries may be ints or Fractions (anything ``Fraction`` accepts).
    ``basis[i]`` names the variable whose column is the i-th identity
    column in ``rows``; ``rhs`` must be nonnegative so the start is a
    basic feasible solution.  Raises on an unbounded problem (cannot
    happen for the bounded polytopes used here).
    """
    m = len(rows)
    n = len(costs)
    if len(rhs) != m or len(basis) != m:
        raise ValueError("inconsistent LP dimensions")
    cost = [_rational(c) for c in costs]
    table = [[_rational(v) for v in row] + [_rational(rhs[i])]
             for i, row in enumerate(rows)]
    for i, row in enumerate(table):
        if len(row) != n + 1:
            raise ValueError(f"row {i} has wrong length")
        if row[n] < 0:
            raise ValueError("starting basis is not feasible (negative rhs)")
    base = list(basis)

    # Clear denominators: T = D^(m-1)·(D·[rows|rhs]) over d = D^m, and
    # integer costs C = L·cost.
    scale = math.lcm(*(v.denominator for row in table for v in row))
    d = scale ** m
    lift = d // scale
    tableau = [
        [v.numerator * (scale // v.denominator) * lift for v in row]
        for row in table
    ]
    cost_scale = math.lcm(*(c.denominator for c in cost))
    cost_int = [c.numerator * (cost_scale // c.denominator) for c in cost]
    for i, var in enumerate(base):
        if not 0 <= var < n or any(
            row[var] != (d if k == i else 0) for k, row in enumerate(tableau)
        ):
            raise ValueError(f"basis variable {var} is not identity column {i}")

    # Reduced-cost row over d·L; its rhs cell tracks minus the objective.
    reduced = [c * d for c in cost_int] + [0]
    for i, var in enumerate(base):
        coeff = cost_int[var]
        if coeff:
            reduced = [r - coeff * t for r, t in zip(reduced, tableau[i])]

    while True:
        enter = -1
        for j in range(n):
            if reduced[j] < 0:  # Bland: least-index negative reduced cost
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio_i < ratio_leave, cross-multiplied (both coeffs > 0)
                lhs = tableau[i][n] * tableau[leave][enter]
                rhs_best = tableau[leave][n] * coeff
                if lhs < rhs_best or (lhs == rhs_best and base[i] < base[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("LP is unbounded")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for i, row in enumerate(tableau):
            if i != leave:
                tableau[i] = _eliminate(row, pivot_row, pivot, row[enter], d)
        reduced = _eliminate(reduced, pivot_row, pivot, reduced[enter], d)
        d = pivot
        base[leave] = enter

    solution = [Fraction(0)] * n
    for i, var in enumerate(base):
        solution[var] = Fraction(tableau[i][n], d)
    return SimplexResult(
        value=Fraction(-reduced[n], d * cost_scale),
        solution=tuple(solution),
        basis=tuple(base),
    )


def _eliminate(row: list[int], pivot_row: list[int], pivot: int, factor: int,
               d: int) -> list[int]:
    """One fraction-free row update: ``(x·pivot - factor·y) // d``."""
    if not factor:
        if pivot == d:
            return row
        return [x * pivot // d for x in row]
    return [(x * pivot - factor * y) // d for x, y in zip(row, pivot_row)]
