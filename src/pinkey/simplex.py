"""Exact simplex for the subset-cover LP, in integer arithmetic.

Solves ``min C.x  s.t.  Σ_{j : t ∈ masks[j]} x_j = 1 for every terminal t,
x >= 0`` exactly: column j is the subset of the m terminals given by the
bitmask ``masks[j]``, and row t says that the subsets holding terminal t
sum to one.  The costs ``C`` are integers (the capacity LP states them
over the model's base scale).  The singleton columns form the identity,
so they are the starting basis and no phase-1 is needed.  Entering and
leaving variables follow Bland's rule, which rules out cycling;
termination is therefore guaranteed.

The method is the revised simplex, kept fraction-free (Edmonds 1967,
Bareiss 1968).  Over one shared denominator ``d``, the absolute value of
the current basis determinant, the solver holds only

* ``R = d·B^-1`` (m × m, integral: it is ``adj(B)`` up to sign),
* the basic values ``β = R·1``,
* the duals ``y = C_B·R`` and the objective ``C_B·β``.

The start is the singleton basis: ``d = 1``, ``R = I`` and ``β = 1``.
Pricing scans j = 0, 1, … and enters the first column whose reduced cost
``d·C_j - Σ_{t ∈ masks[j]} y_t`` is negative (Bland).  The entering
column's tableau entries ``α_i = Σ_{t ∈ masks[j]} R_it`` feed the
cross-multiplied ratio test, ties going to the lower basic index.  A
pivot on the positive entry ``p = α_r`` updates every row ``i != r`` of
``R`` and ``β`` by ``x' = (x·p - α_i·x_r) // d`` and sets ``d = p``; by
Sylvester's identity each division is exact, because the quotient is an
entry of the next integral tableau.  The duals update the same way:
``-y_k`` is the reduced cost of an artificial identity column ``e_k``,
whose tableau column is ``R·e_k``, so ``y`` is one more row of the
reduced-cost tableau and follows the same rule with the entering reduced
cost as its factor; so does the objective.

These are the quantities a dense tableau over the same denominator would
hold (its row i is ``R_i·[A|1]`` for the 0/1 matrix ``A``, its
reduced-cost row is ``d·C - y·A``), so the sign tests and the ratio test
pick exactly the pivots a rational tableau would: the path, the optimal
basis and the solution are those of the textbook method, at O(m²) per
pivot plus the priced columns instead of O(m·n).  Fractions appear only
in the returned ``solution`` and ``value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    solution: tuple[Fraction, ...]
    basis: tuple[int, ...]


def solve_lp(costs: Sequence[int], masks: Sequence[int], m: int) -> SimplexResult:
    """Minimize ``costs . x`` over the subset-cover polytope of ``masks``.

    ``masks[j]`` is the nonempty subset of terminals 0..m-1 that column j
    covers; every singleton must be among them (the first occurrence of
    each is the starting basis).  ``value`` is in the units of ``costs``.
    """
    n = len(costs)
    if len(masks) != n:
        raise ValueError(f"{n} costs but {len(masks)} masks")
    full = (1 << m) - 1
    for mask in masks:
        if not 0 < mask <= full:
            raise ValueError(f"mask {mask} is not a nonempty subset of {m} terminals")
    try:
        base = [masks.index(1 << t) for t in range(m)]
    except ValueError:
        raise ValueError("every singleton subset must be a column") from None
    columns = [[t for t in range(mask.bit_length()) if mask >> t & 1]
               for mask in masks]

    d = 1
    inverse = [[int(k == i) for k in range(m)] for i in range(m)]
    values = [1] * m
    duals = [costs[var] for var in base]
    objective = sum(duals)

    while True:
        enter = -1
        for j, column in enumerate(columns):
            reduced = d * costs[j]
            for t in column:
                reduced -= duals[t]
            if reduced < 0:  # Bland: least-index negative reduced cost
                enter = j
                break
        if enter < 0:
            break
        column = columns[enter]
        alpha = []
        for r in inverse:
            a = 0
            for t in column:
                a += r[t]
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
        value=Fraction(objective, d),
        solution=tuple(solution),
        basis=tuple(base),
    )
