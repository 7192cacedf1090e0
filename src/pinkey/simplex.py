"""Exact simplex for equality-form linear programs, in integer arithmetic.

Solves ``min c.x  s.t.  A x = b, x >= 0`` exactly.  The caller supplies a
starting basis whose columns form the identity (the capacity LP always has
one: the singleton-subset columns), so no phase-1 is needed.  Entering and
leaving variables follow Bland's rule, which rules out cycling;
termination is therefore guaranteed.

The method is the revised simplex, kept fraction-free (Edmonds 1967,
Bareiss 1968).  Rational input is cleared once: with ``D`` the lcm of the
row and rhs denominators, the integer matrix ``Â = D·A`` has the basis
``D·I`` of determinant ``D^m``, and ``L`` clears the cost denominators
into integer costs ``C``.  Over one shared denominator ``d``, the absolute
value of the current basis determinant, the solver holds only

* ``R = d·B^-1`` (m × m, integral: it is ``adj(B)`` up to sign),
* the basic values ``β = R·D·b``,
* the duals ``y = C_B·R`` and the objective ``C_B·β``.

The columns of ``Â`` stay fixed, as sparse (row, value) nonzeros.  Pricing
scans j = 0, 1, … and enters the first column whose reduced cost
``d·C_j - y·Â_j`` is negative (Bland).  The entering column's tableau
entries ``α = R·Â_j`` feed the cross-multiplied ratio test, ties going to
the lower basic index.  A pivot on the positive entry ``p = α_r`` updates
every row ``i != r`` of ``R`` and ``β`` by ``x' = (x·p - α_i·x_r) // d``
and sets ``d = p``; by Sylvester's identity each division is exact,
because the quotient is an entry of the next integral tableau.  The duals
update the same way: ``-y_k`` is the reduced cost of an artificial
identity column ``e_k``, whose tableau column is ``R·e_k``, so ``y`` is
one more row of the reduced-cost tableau and follows the same rule with
the entering reduced cost as its factor; so does the objective.

These are the quantities a dense tableau over the same denominator would
hold (its row i is ``R_i·[Â|D·b]``, its reduced-cost row is
``d·C - y·Â``), so the sign tests and the ratio test pick exactly the
pivots a rational tableau would: the path, the optimal basis and the
solution are those of the textbook method, at O(m²) per pivot plus the
priced columns instead of O(m·n).  Fractions appear again only in the
returned ``solution`` and ``value``.
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
    table = [[_rational(v) for v in row] for row in rows]
    right = [_rational(b) for b in rhs]
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has wrong length")
        if right[i] < 0:
            raise ValueError("starting basis is not feasible (negative rhs)")
    base = list(basis)
    for i, var in enumerate(base):
        if not 0 <= var < n or any(
            row[var] != (1 if k == i else 0) for k, row in enumerate(table)
        ):
            raise ValueError(f"basis variable {var} is not identity column {i}")

    # Clear denominators: columns of Â = D·rows as (row, value) nonzeros,
    # R = D^(m-1)·I over d = D^m, β = R·D·rhs, and integer costs C = L·cost.
    scale = math.lcm(*(v.denominator for row in table for v in row),
                     *(b.denominator for b in right))
    d = scale ** m
    lift = d // scale
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if v:
                columns[j].append((i, v.numerator * (scale // v.denominator)))
    inverse = [[lift if k == i else 0 for k in range(m)] for i in range(m)]
    values = [b.numerator * (scale // b.denominator) * lift for b in right]
    cost_scale = math.lcm(*(c.denominator for c in cost))
    cost_int = [c.numerator * (cost_scale // c.denominator) for c in cost]
    duals = [cost_int[var] * lift for var in base]
    objective = sum(cost_int[var] * v for var, v in zip(base, values))

    while True:
        enter = -1
        for j, column in enumerate(columns):
            reduced = d * cost_int[j]
            for i, v in column:
                reduced -= duals[i] * v
            if reduced < 0:  # Bland: least-index negative reduced cost
                enter = j
                break
        if enter < 0:
            break
        column = columns[enter]
        alpha = []
        for r in inverse:
            a = 0
            for i, v in column:
                a += r[i] * v
            alpha.append(a)
        leave = -1
        for i, coeff in enumerate(alpha):
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio_i < ratio_leave, cross-multiplied (both coeffs > 0)
                lhs = values[i] * alpha[leave]
                rhs_best = values[leave] * coeff
                if lhs < rhs_best or (lhs == rhs_best and base[i] < base[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("LP is unbounded")
        pivot = alpha[leave]
        pivot_row = inverse[leave]
        pivot_value = values[leave]
        for i, factor in enumerate(alpha):
            if i == leave:
                continue
            if factor:
                inverse[i] = [(x * pivot - factor * y) // d
                              for x, y in zip(inverse[i], pivot_row)]
            elif pivot != d:
                inverse[i] = [x * pivot // d for x in inverse[i]]
            values[i] = (values[i] * pivot - factor * pivot_value) // d
        # y and the objective are rows of the reduced-cost tableau (with
        # signs flipped), so the entering reduced cost is their factor
        duals = [(x * pivot + reduced * y) // d
                 for x, y in zip(duals, pivot_row)]
        objective = (objective * pivot + reduced * pivot_value) // d
        d = pivot
        base[leave] = enter

    solution = [Fraction(0)] * n
    for var, v in zip(base, values):
        solution[var] = Fraction(v, d)
    return SimplexResult(
        value=Fraction(objective, d * cost_scale),
        solution=tuple(solution),
        basis=tuple(base),
    )
