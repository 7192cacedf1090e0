"""Secret-key capacity as an exact LP over the subset-weight polytope.

The qualifying subsets for a target set A are the nonempty strict subsets
of the terminals that do not contain all of A; as bitmasks, they are the
LP's columns.  A weight assignment puts a fractional weight on each subset
so that the weights covering any given terminal sum to one; the capacity is
the minimum, over assignments, of the weighted sum of pairwise correlations
separated by the subsets.  With rational weights the minimum is rational
and is attained at a polytope vertex: the exact simplex returns the one
Bland's rule reaches, whatever its pricing.  An assignment's ``weights``
map subset bitmasks to the nonzero weights only, at most m at a vertex.

The LP's integer costs come from one table over all masks, built from
the model's ``base_weights`` by a recurrence on each mask's lowest
terminal in O(2^m) additions.  Assignments are checked and priced as
integers ``β`` over a denominator ``d`` by one cover check and one
separation routine: on the solver's vertex in ``solve_capacity``, and on
an assignment over its least common denominator in the library calls,
which take A from the assignment.  Fractions are built only for what is
returned.

The vertex also certifies the partition upper bound whenever its support
is the co-atoms of a qualifying partition whose ratio is the capacity:
``certified_bound`` checks that in integers, so the partition search runs
only when the vertex has another shape.

A second, entropy-based form of the same objective is available for
pmf-backed models; agreement between the two (within
``CONSISTENCY_TOLERANCE``) is a strong end-to-end check of the entropy
bookkeeping.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping

from .errors import InvalidAssignmentError, SizeLimitError, UnsupportedModeError
from .model import Pair, PinModel, TerminalSet, all_pairs, base_scale
from . import partitions
from .simplex import SimplexResult, solve_lp
from .value import Value

CONSISTENCY_TOLERANCE = 1e-9


class SubsetFamily(Value):
    """The qualifying subsets for (m, A), every nonempty strict subset of
    1..m not containing A, as bitmasks in ascending order: the columns of
    the capacity LP, enumerated up to ``partitions.TERMINAL_CAP`` terminals."""

    m: int
    target: TerminalSet
    subsets: tuple[int, ...]

    def __init__(self, m: int, target: TerminalSet) -> None:
        target.validate_within(m)
        if m > partitions.TERMINAL_CAP:
            raise SizeLimitError(
                f"m={m} exceeds the subset-enumeration cap {partitions.TERMINAL_CAP}")
        amask = target.mask()
        self._store(m=m, target=target, subsets=tuple(
            mask for mask in range(1, (1 << m) - 1) if (mask & amask) != amask))


def subset_family(m: int, target: TerminalSet) -> SubsetFamily:
    """The qualifying subsets for (m, A): ``SubsetFamily(m, target)``."""
    return SubsetFamily(m, target)


class WeightAssignment(Value):
    """Fractional weights on the qualifying subsets for (m, A), held as
    their support: ``weights`` maps each subset bitmask with a nonzero
    weight to that weight, in ascending mask order (zeros are dropped)."""

    m: int
    target: TerminalSet
    weights: Mapping[int, Fraction]

    def __init__(self, m: int, target: TerminalSet, weights: Mapping[int, Fraction]) -> None:
        target.validate_within(m)
        full, amask = (1 << m) - 1, target.mask()
        for mask, value in weights.items():
            if type(mask) is not int or not 0 < mask < full or mask & amask == amask:
                raise InvalidAssignmentError(
                    f"subset mask {mask!r} is not a qualifying subset for "
                    f"m={m}, A={target.members}")
            if type(value) is not int and type(value) is not Fraction:
                raise InvalidAssignmentError(
                    f"weight {value!r} of subset mask {mask} is not an int or a Fraction")
        self._store(m=m, target=target, weights={
            mask: value for mask, value in sorted(weights.items()) if value})

    def validate(self) -> None:
        _check_cover(self.m, *self._integers())

    def _integers(self) -> tuple[dict[int, int], int]:
        """Mask to ``β``, and ``d``: the weights over their least common denominator."""
        d = math.lcm(*(v.denominator for v in self.weights.values()))
        return {mask: v.numerator * (d // v.denominator)
                for mask, v in self.weights.items()}, d

    def support(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Nonzero weights as (subset members, value) pairs."""
        return tuple(
            (tuple(t + 1 for t in range(mask.bit_length()) if mask >> t & 1), v)
            for mask, v in self.weights.items()
        )


def _check_cover(m: int, support: Mapping[int, int], d: int) -> None:
    """The cover check on ``β`` over ``d``: each in ``[0, d]``, and the
    ``β`` of the subsets holding each terminal summing to ``d``."""
    for b in support.values():
        if not 0 <= b <= d:
            raise InvalidAssignmentError(f"weight {Fraction(b, d)} outside [0, 1]")
    for t in range(m):
        total = sum(b for mask, b in support.items() if mask >> t & 1)
        if total != d:
            raise InvalidAssignmentError(
                f"weights covering terminal {t + 1} sum to {Fraction(total, d)}, "
                "expected exactly 1")


def _separations(m: int, support: Mapping[int, int]) -> dict[Pair, int]:
    """Per pair, the ``β`` of the subsets separating it (lower terminal
    inside, higher outside)."""
    columns, seps = list(support.items()), {}
    for i, j in all_pairs(m):
        inside, outside = 1 << (i - 1), 1 << (j - 1)
        sep = 0
        for mask, b in columns:
            if mask & inside and not mask & outside:
                sep += b
        seps[(i, j)] = sep
    return seps


def _checked(model: PinModel, assignment: WeightAssignment) -> tuple[dict[int, int], int]:
    """The assignment over its least common denominator, once it is built
    for the model's m and passes the cover check."""
    if assignment.m != model.m:
        raise InvalidAssignmentError(
            f"assignment built for m={assignment.m}, model has m={model.m}")
    support, d = assignment._integers()
    _check_cover(model.m, support, d)
    return support, d


def pair_coefficients(assignment: WeightAssignment) -> dict[Pair, Fraction]:
    """For each pair, the total weight of subsets separating it (lower
    terminal inside, higher outside)."""
    support, d = assignment._integers()
    return {pair: Fraction(sep, d) for pair, sep in _separations(assignment.m, support).items()}


def capacity_objective(model: PinModel, assignment: WeightAssignment):
    """Weighted-separation objective at a valid assignment, for the target
    the assignment was built for.

    Returns a Fraction on exact models, a float on pmf-backed ones.
    """
    support, d = _checked(model, assignment)
    seps = _separations(model.m, support)
    if model.exact:
        base = model.base_weights
        return Fraction(sum(base[pair] * sep for pair, sep in seps.items()),
                        d * base_scale(model))
    return sum(sep / d * model.mi(i, j) for (i, j), sep in seps.items())


def _lp_costs(model: PinModel, family: SubsetFamily) -> tuple[list[int], int]:
    """Per subset, the base weights of the pairs it separates (lower
    terminal inside, higher outside); returns the costs and the base
    scale they are over.

    One table holds the cost of every mask.  With t the lowest terminal of
    B, ``c(B) = c(B - t) + Σ_{j > t, j ∉ B} w_tj``, and the row sum is
    ``w_t(above t) - w_t(B above t)``, read from a subset-sum table of
    row t over the terminals above t; so the table costs O(2^m) additions."""
    scale, base = model.require_exact("capacity LP costs")
    m = family.m
    rows = [[0] * (m - 1 - t) for t in range(m)]
    for (i, j), w in base.items():
        if w:
            rows[i - 1][j - i - 1] = w
    table = [0] * (1 << m)
    for t in range(m - 1, -1, -1):
        sums = [0]  # sums[H]: row t's weight on the terminals t + 1 + (bits of H)
        for w in rows[t]:
            sums += [s + w for s in sums] if w else sums
        total, step = sums[-1], 2 << t
        # the masks H << (t + 1), then the same masks with t added
        table[1 << t::step] = [c + total - s for c, s in zip(table[::step], sums)]
    return [table[mask] for mask in family.subsets], scale


def _vertex(family: SubsetFamily,
            result: SimplexResult) -> tuple[WeightAssignment, dict[int, int]]:
    """The LP's vertex as an assignment, with its support as integers
    (mask to ``β``, over the denominator ``result.d``), after the cover
    check.  Only the m basic columns can carry a nonzero weight."""
    support = {family.subsets[var]: b for var, b in zip(result.basis, result.beta) if b}
    _check_cover(family.m, support, result.d)
    return WeightAssignment(family.m, family.target, {
        mask: Fraction(b, result.d) for mask, b in support.items()}), support


class CapacityResult(Value):
    """Exact capacity value with one optimal vertex assignment.  The
    assignment fixes ``coefficients``, each pair's total separating
    weight, built on first read and kept read-only."""

    value: Fraction
    assignment: WeightAssignment

    def __init__(self, value: Fraction, assignment: WeightAssignment) -> None:
        self._store(value=value, assignment=assignment)

    @property
    def coefficients(self) -> Mapping[Pair, Fraction]:
        if "_coefficients" not in self.__dict__:
            self._store(_coefficients=pair_coefficients(self.assignment))
        return self._coefficients


def solve_capacity(model: PinModel, target: TerminalSet) -> CapacityResult:
    """Exact minimum of the capacity objective over all valid assignments.

    Besides the cover check, the objective recomputed from the base
    weights, ``Σ_pairs (w_ij·n0) · sep_ij`` with ``sep_ij`` the ``β`` of the
    basic subsets holding i but not j, must equal the LP's ``C_B·β``."""
    model.require_exact("capacity LP")
    family = SubsetFamily(model.m, target)
    costs, scale = _lp_costs(model, family)
    result = solve_lp(costs, family)
    assignment, support = _vertex(family, result)
    d, base = result.d, model.base_weights
    seps = _separations(family.m, support)
    objective = sum(base[pair] * sep for pair, sep in seps.items())
    if objective != result.objective:
        raise ArithmeticError(
            f"simplex value {Fraction(result.objective, d * scale)} disagrees "
            f"with the objective {Fraction(objective, d * scale)}"
        )
    return CapacityResult(value=Fraction(objective, d * scale), assignment=assignment)


def certified_bound(model: PinModel, result: CapacityResult) -> Fraction | None:
    """The partition upper bound ``C^ub(A)`` read off the optimal vertex,
    or None when the vertex does not certify it.

    The complements of the support masks are taken as the atoms of a
    partition P.  When they are pairwise disjoint and cover the terminals,
    P qualifies for the bound: a qualifying subset is neither empty nor
    everything, so there are k >= 2 atoms, and it leaves out a target
    terminal, so each atom meets A.  When moreover their crossing on the
    base weights over (k - 1) times the base scale equals ``result.value``,
    then ``C^ub <= ratio(P) = C <= C^ub``, the last step because weight
    1 / (k - 1) on each co-atom is a valid assignment whose objective is
    P's ratio."""
    full, seen = (1 << model.m) - 1, 0
    atoms = [full ^ mask for mask in result.assignment.weights]
    for atom in atoms:
        if atom & seen:
            return None
        seen |= atom
    if seen != full:
        return None
    crossing = sum(w for (i, j), w in model.base_weights.items()
                   if not any(atom >> (i - 1) & atom >> (j - 1) & 1 for atom in atoms))
    value, parts = result.value, len(atoms) - 1
    if crossing * value.denominator != value.numerator * parts * base_scale(model):
        return None
    return value


def sample_vertex(
    family: SubsetFamily, rng: random.Random
) -> WeightAssignment:
    """A random vertex of the weight polytope, exactly feasible.

    Per-terminal normalization of random numbers does not respect the
    coupled constraints, so instead the LP is solved with a random rational
    objective p/q (q <= 6), scaled by 60 to integers; the optimal basic
    solution is a vertex.
    """
    draws = [(rng.randint(-24, 24), rng.randint(1, 6)) for _ in family.subsets]
    costs = [p * 60 // q for p, q in draws]
    return _vertex(family, solve_lp(costs, family))[0]


def entropy_objective(model: PinModel, assignment: WeightAssignment) -> float:
    """Same objective computed from per-pair entropies (float bits).

    Expands the global-entropy form: total joint entropy minus the weighted
    conditional entropies of each subset given its complement, using the
    per-pair additivity of the source.  Every pair must carry a pmf.
    """
    _checked(model, assignment)
    pmfs = {}
    for pair in all_pairs(model.m):
        pmf = model.pmf(*pair)
        if pmf is None:
            raise UnsupportedModeError(
                f"pair {pair} has no pmf; the entropy objective needs one "
                "per pair (use a 1x1 table for uncorrelated pairs)"
            )
        pmfs[pair] = pmf

    total = sum(pmf.joint_entropy() for pmf in pmfs.values())
    penalty = 0.0
    for mask, weight in assignment.weights.items():
        conditional = 0.0
        for (i, j), pmf in pmfs.items():
            i_in = bool(mask >> (i - 1) & 1)
            j_in = bool(mask >> (j - 1) & 1)
            if i_in and j_in:
                conditional += pmf.joint_entropy()
            elif i_in:
                # H(lower-terminal component | its reciprocal)
                conditional += pmf.row_given_col_entropy()
            elif j_in:
                conditional += pmf.col_given_row_entropy()
        penalty += float(weight) * conditional
    return total - penalty


class ConsistencyReport(Value):
    """The gaps between the two objective forms, one per random vertex;
    ``trials`` counts them and ``max_discrepancy`` is the largest (0.0 with
    none).  The repr shows those two and leaves the gaps out."""

    discrepancies: tuple[float, ...]

    def __init__(self, discrepancies: tuple[float, ...]) -> None:
        self._store(discrepancies=tuple(discrepancies))

    @property
    def trials(self) -> int:
        return len(self.discrepancies)

    @property
    def max_discrepancy(self) -> float:
        return max(self.discrepancies, default=0.0)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(trials={self.trials!r}, "
                f"max_discrepancy={self.max_discrepancy!r})")

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= CONSISTENCY_TOLERANCE


def check_objective_consistency(
    model: PinModel, target: TerminalSet, trials: int, seed: int = 0
) -> ConsistencyReport:
    """Compare the two objective forms at ``trials`` random vertices of the
    polytope, a positive int: no comparison would pass having checked nothing."""
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    rng = random.Random(seed)
    family = SubsetFamily(model.m, target)
    gaps = []
    for _ in range(trials):
        assignment = sample_vertex(family, rng)
        direct = capacity_objective(model, assignment)
        entropic = entropy_objective(model, assignment)
        gaps.append(abs(float(direct) - entropic))
    return ConsistencyReport(gaps)
