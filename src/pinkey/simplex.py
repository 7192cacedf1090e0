"""Exact simplex for the capacity LP, in integer arithmetic.

Solves ``min C.x  s.t.  Σ_{j : t ∈ masks[j]} x_j = 1 for every terminal t,
x >= 0`` exactly over the columns of a ``SubsetFamily``: column j is the
qualifying subset ``masks[j]`` of the m terminals for the target set A,
the masks ascending, and the int costs ``C`` are the capacity LP's over
the model's base scale.  The singleton columns form the identity, a
feasible basis, so no phase-1 LP is needed; but the solver starts nearer
the optimum.  It partitions the terminals into one atom P_a per target
a ∈ A: each non-target u, in ascending order, joins the atom whose
co-atom's cost falls most when u leaves it, the least
``c(M∖(P_a ∪ {u})) - c(M∖P_a)``, ties to the lowest a.  The basis holds
the co-atom ``C_a = M∖P_a`` at position a and, at each non-target u of
P_a, the co-atom P_a had just before u joined,
``C_a ∪ {v ∈ P_a∖{a} : v >= u}``.  Its basic values are 1/(|A| - 1) on
the co-atoms and 0 on that chain, and the capacity's optimum is often
the co-atoms of such a partition, so phase 1 takes about one pivot where
the singletons take five or six (m = 6 capacity LPs, |A| = 2 or 3).  At
m = 2 the co-atoms are the two singletons.

The method is the revised simplex, kept fraction-free (Edmonds 1967,
Bareiss 1968).  Over one shared denominator ``d``, the absolute value of
the current basis determinant, the solver holds only ``R = d·B^-1``
(integral: ``adj(B)`` up to sign), the basic values ``β = R·1``, the duals
``y = C_B·R`` and the objective ``C_B·β``.  The singleton start is
``d = 1``, ``R = I``, ``β = 1``.  The co-atom start has ``d = |A| - 1``;
with ``u_1 < .. < u_r`` the non-targets of P_a and ``u_0 = a``, its rows
are ``R[a] = 1_A - d·e_{u_r}`` and ``R[u_s] = d·(e_{u_s} - e_{u_(s-1)})``,
``β = 1_A``, ``y = C_B·R`` and the objective ``Σ_a c(C_a)``; at A = M it
is ``R = J - (m - 1)·I``.  Column j's reduced cost ``d·C_j - y(masks[j])``
reads the dual sum ``y(S)`` from two subset-sum tables, over the low and
the high half of the terminals (O(2^(m/2)) per pricing pass).  The
entering column's entries ``α_i = Σ_{t ∈ masks[j]} R_it`` feed the
cross-multiplied ratio test, ties going to the lower basic index.  A
pivot on ``p = α_r`` updates every row ``i != r`` of ``R`` and ``β`` by
``x' = (x·p - α_i·x_r) // d`` and sets ``d = p``; by Sylvester's identity
each division is exact.  ``-y_k`` is the reduced cost of an artificial
column ``e_k`` (tableau column ``R·e_k``), so the duals and the objective
follow the same rule with the entering reduced cost as their factor.  The
sign and ratio tests thus pick exactly the pivots a rational tableau would.

The result is the optimal vertex that Bland's rule (enter the least-index
column with a negative reduced cost) reaches from the singleton basis.
Three phases share the one pivot routine:

1. From the co-atom basis, enter the most negative reduced cost, ties
   to the lowest index; after m degenerate pivots in a row (leaving value
   0), Bland's rule enters until a pivot moves, so it cannot cycle.  This
   ends at an optimal basis B₀ and vertex x*, in about m pivots from the
   singletons.
2. With Z the nonbasic columns of zero reduced cost, the optima are the
   feasible points on B₀ ∪ Z, and x* is the one with ``x_Z = 0``; so x*
   is unique iff ``max Σ_{j ∈ Z} x_j`` over them is 0.  Bland's rule on
   a copy of the tableau, over the columns B₀ ∪ Z with costs -1 on Z and
   0 on B₀, decides it: a pivot that moves shows a second optimum, and
   optimality after degenerate pivots only (or an empty Z) shows none.
3. If x* is not unique, Bland's rule runs from the singleton basis.

So ``value`` and ``solution`` are always Bland's, while ``basis`` is only
a basis of that vertex: at a degenerate vertex phase 1's may differ.

The result holds the final tableau's integers ``d``, ``beta`` (``β``,
aligned with ``basis``) and ``objective`` (``C_B·β``), so a caller can
check the vertex without Fractions; ``value`` and ``solution`` are built
from them only when read.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .value import Value


class SimplexResult(Value):
    """An optimal vertex over ``columns`` columns, in the solver's integers:
    ``beta[i] / d`` is the value of column ``basis[i]``, whose m columns are
    independent and hold the vertex's support, and ``objective / d`` is its
    cost.  The rational ``value`` and ``solution`` are built when first
    read.  Equality compares ``value``, ``solution`` and ``basis``."""

    basis: tuple[int, ...]
    d: int
    beta: tuple[int, ...]
    objective: int
    columns: int

    def __init__(self, basis: tuple[int, ...], d: int, beta: tuple[int, ...],
                 objective: int, columns: int) -> None:
        self._store(basis=tuple(basis), d=d, beta=tuple(beta), objective=objective,
                    columns=columns)

    @cached_property
    def value(self) -> Fraction:
        return Fraction(self.objective, self.d)

    @cached_property
    def solution(self) -> tuple[Fraction, ...]:
        solution = [Fraction(0)] * self.columns
        for var, b in zip(self.basis, self.beta):
            solution[var] = Fraction(b, self.d)
        return tuple(solution)

    def _key(self) -> tuple:
        return self.value, self.solution, self.basis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplexResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class _Tableau:
    """``d``, then ``R``, ``β``, ``y`` and ``C_B·β`` times ``d``, and the basis."""

    __slots__ = ("d", "inverse", "values", "duals", "objective", "base")

    def __init__(self, d, inverse, values, duals, objective, base):
        self.d, self.inverse, self.values = d, inverse, values
        self.duals, self.objective, self.base = duals, objective, base

    @classmethod
    def singletons(cls, costs: Sequence[int], base: list[int]) -> _Tableau:
        m, duals = len(base), [costs[var] for var in base]
        return cls(1, [[int(k == i) for k in range(m)] for i in range(m)],
                   [1] * m, duals, sum(duals), list(base))

    @classmethod
    def co_atoms(cls, costs: Sequence[int], masks: Sequence[int], m: int,
                 targets: Sequence[int]) -> _Tableau:
        """The co-atom start over the ascending capacity-LP columns
        ``masks`` for the targets A (``targets``, ascending, 0-based)."""
        full, d = (1 << m) - 1, len(targets) - 1
        # per target a: the mask and the column of M∖P_a, and P_a's last member
        co_mask = {a: full ^ 1 << a for a in targets}
        co = {a: bisect_left(masks, mask) for a, mask in co_mask.items()}
        last = dict(zip(targets, targets))
        base, inverse, duals = [0] * m, [None] * m, [0] * m
        for u in range(m):
            if u in co:
                continue
            bit, least = 1 << u, None
            for a in targets:
                j = bisect_left(masks, co_mask[a] ^ bit)
                fall = costs[j] - costs[co[a]]
                if least is None or fall < least:  # ties to the lowest a
                    least, join, column = fall, a, j
            # position u holds M∖P_join before u joins, in row d·(e_u - e_last)
            prev, c = last[join], d * costs[co[join]]
            row = [0] * m
            row[u], row[prev] = d, -d
            inverse[u], base[u] = row, co[join]
            duals[u] += c
            duals[prev] -= c
            co_mask[join] ^= bit
            co[join], last[join] = column, u
        total = sum(costs[j] for j in co.values())
        ones = [int(t in co) for t in range(m)]
        for a, j in co.items():
            row = list(ones)
            row[last[a]] -= d
            inverse[a], base[a] = row, j
            duals[a] += total
            duals[last[a]] -= d * costs[j]
        return cls(d, inverse, ones, duals, total, base)

    def result(self, n: int) -> SimplexResult:
        return SimplexResult(tuple(self.base), self.d, tuple(self.values),
                             self.objective, n)


def _pivot(tableau: _Tableau, enter: int, mask: int, reduced: int) -> int:
    """Enter column ``enter`` (subset ``mask``, reduced cost ``reduced < 0``) by
    the ratio test; returns the leaving value, 0 iff the pivot is degenerate."""
    inverse, values, base, d = tableau.inverse, tableau.values, tableau.base, tableau.d
    column = [t for t in range(mask.bit_length()) if mask >> t & 1]
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
    tableau.duals = [(x * pivot + reduced * y) // d
                     for x, y in zip(tableau.duals, pivot_row)]
    tableau.objective = (tableau.objective * pivot + reduced * pivot_value) // d
    tableau.d = pivot
    base[leave] = enter
    return pivot_value


def _dual_sums(duals: list[int]) -> tuple[int, list[int], list[int]]:
    """h and tables with ``y(mask) = low[mask & (2^h - 1)] + high[mask >> h]``."""
    h = (len(duals) + 1) // 2
    low, high = [0], [0]
    for y in duals[:h]:
        low += [s + y for s in low]
    for y in duals[h:]:
        high += [s + y for s in high]
    return h, low, high


def _reduced_costs(tableau: _Tableau, costs: Sequence[int],
                   masks: Sequence[int]) -> list[int]:
    d, (h, low, high) = tableau.d, _dual_sums(tableau.duals)
    cut = (1 << h) - 1
    return [d * cost - low[mask & cut] - high[mask >> h]
            for cost, mask in zip(costs, masks)]


def _bland(tableau: _Tableau, costs: Sequence[int], masks: Sequence[int],
           order: Sequence[int]) -> bool:
    """Bland's rule over the columns ``order`` (ascending); returns True
    at the first pivot that moves, False at optimality."""
    while True:
        d, (h, low, high) = tableau.d, _dual_sums(tableau.duals)
        cut = (1 << h) - 1
        for j in order:
            mask = masks[j]
            reduced = d * costs[j] - low[mask & cut] - high[mask >> h]
            if reduced < 0:
                break
        else:
            return False
        if _pivot(tableau, j, mask, reduced):
            return True


def _most_negative(tableau: _Tableau, costs: Sequence[int],
                   masks: Sequence[int]) -> list[int]:
    """Phase 1; returns the final reduced costs."""
    m, stalled = len(tableau.base), 0
    while True:
        reduced = _reduced_costs(tableau, costs, masks)
        lowest = min(reduced, default=0)
        if lowest >= 0:
            return reduced
        if stalled < m:
            enter = reduced.index(lowest)  # ties to the lowest index
            moved = _pivot(tableau, enter, masks[enter], lowest)
        else:  # at optimality Bland's rule does not move, and the next pass returns
            moved = _bland(tableau, costs, masks, range(len(masks)))
        stalled = 0 if moved else stalled + 1


def _unique(tableau: _Tableau, reduced: list[int], masks: Sequence[int]) -> bool:
    """Phase 2: whether the optimal ``tableau``, with final reduced costs
    ``reduced``, holds the only optimal solution."""
    basic = set(tableau.base)
    ties = {j for j, r in enumerate(reduced) if r == 0 and j not in basic}
    if not ties:
        return True
    copy = _Tableau(tableau.d, [list(r) for r in tableau.inverse], list(tableau.values),
                    [0] * len(tableau.base), 0, list(tableau.base))
    secondary = [-(j in ties) for j in range(len(masks))]
    return not _bland(copy, secondary, masks, sorted(basic | ties))


def _bland_lp(costs: Sequence[int], masks: Sequence[int],
              base: list[int]) -> SimplexResult:
    """Phase 3: Bland's rule from the singleton basis ``base``."""
    tableau = _Tableau.singletons(costs, base)
    while _bland(tableau, costs, masks, range(len(masks))):
        pass
    return tableau.result(len(masks))


def solve_lp(costs: Sequence[int], family) -> SimplexResult:
    """Minimize ``costs . x`` over the weight polytope of ``family``, a
    ``SubsetFamily``: its ascending ``subsets`` are the columns, and
    ``costs[j]`` is the int cost of column j.  The result is the optimal
    vertex Bland's rule reaches from the singletons; ``value`` is in the
    units of ``costs``.  Phase 1 starts from the co-atoms of a partition
    with one atom per target of ``family.target``.
    """
    masks, m = family.subsets, family.m
    if len(costs) != len(masks):
        raise ValueError(f"{len(costs)} costs but {len(masks)} columns")
    # bisect_left finds every column either start prices: a co-atom
    # M∖(P_a ∪ {u}) leaves out a and keeps every other target, so it
    # qualifies, and a singleton never holds all of A (|A| >= 2)
    tableau = _Tableau.co_atoms(costs, masks, m, [t - 1 for t in family.target])
    if _unique(tableau, _most_negative(tableau, costs, masks), masks):
        return tableau.result(len(masks))
    return _bland_lp(costs, masks, [bisect_left(masks, 1 << t) for t in range(m)])
