"""Secret-key capacity as an exact LP over the subset-weight polytope.

The qualifying subsets for a target set A are the nonempty strict subsets
of the terminals that do not contain all of A; as bitmasks, they are the
LP's columns.  A weight assignment puts a fractional weight on each subset
so that the weights covering any given terminal sum to one; the capacity is
the minimum, over assignments, of the weighted sum of pairwise correlations
separated by the subsets.  With rational weights the minimum is rational
and is attained at a polytope vertex, which the exact simplex returns.
An assignment's ``weights`` map subset bitmasks to the nonzero weights
only, so a vertex holds at most m entries, one per basic variable.

A second, entropy-based form of the same objective is available for
pmf-backed models; agreement between the two (within 1e-9) is a strong
end-to-end check of the entropy bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import InvalidAssignmentError, SizeLimitError, UnsupportedModeError
from .model import Pair, PinModel, TerminalSet, all_pairs, base_scale
from .partitions import DEFAULT_TERMINAL_CAP
from .simplex import SimplexResult, solve_lp

CONSISTENCY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SubsetFamily:
    """All qualifying subsets for (m, A), as bitmasks in ascending order:
    the columns of the capacity LP."""

    m: int
    target: TerminalSet
    subsets: tuple[int, ...]


def subset_family(
    m: int, target: TerminalSet, cap: int = DEFAULT_TERMINAL_CAP
) -> SubsetFamily:
    """Enumerate every nonempty strict subset of 1..m not containing A."""
    target.validate_within(m)
    if m > cap:
        raise SizeLimitError(
            f"m={m} exceeds the subset-enumeration cap {cap} "
            f"(2^{m} - ... subsets); raise cap explicitly to proceed"
        )
    amask = target.mask()
    subsets = tuple(
        mask for mask in range(1, (1 << m) - 1) if (mask & amask) != amask
    )
    return SubsetFamily(m=m, target=target, subsets=subsets)


@dataclass(frozen=True)
class WeightAssignment:
    """Fractional weights on the qualifying subsets for (m, A), held as
    their support: ``weights`` maps each subset bitmask with a nonzero
    weight to that weight, in ascending mask order (zeros are dropped)."""

    m: int
    target: TerminalSet
    weights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        self.target.validate_within(self.m)
        full, amask = (1 << self.m) - 1, self.target.mask()
        for mask, value in self.weights.items():
            if type(mask) is not int or not 0 < mask < full or mask & amask == amask:
                raise InvalidAssignmentError(
                    f"subset mask {mask!r} is not a qualifying subset for "
                    f"m={self.m}, A={self.target.members}")
            if type(value) is not int and type(value) is not Fraction:
                raise InvalidAssignmentError(
                    f"weight {value!r} of subset mask {mask} is not an int or a Fraction")
        object.__setattr__(self, "weights", {
            mask: value for mask, value in sorted(self.weights.items()) if value})

    def validate(self) -> None:
        weights = self.weights
        for value in weights.values():
            if value < 0 or value > 1:
                raise InvalidAssignmentError(f"weight {value} outside [0, 1]")
        for t in range(self.m):
            total = sum((v for mask, v in weights.items() if mask >> t & 1),
                        Fraction(0))
            if total != 1:
                raise InvalidAssignmentError(
                    f"weights covering terminal {t + 1} sum to {total}, "
                    "expected exactly 1"
                )

    def support(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Nonzero weights as (subset members, value) pairs."""
        return tuple(
            (tuple(t + 1 for t in range(mask.bit_length()) if mask >> t & 1), v)
            for mask, v in self.weights.items()
        )


def pair_coefficients(assignment: WeightAssignment) -> dict[Pair, Fraction]:
    """For each pair, the total weight of subsets separating it (lower
    terminal inside, higher outside)."""
    coeffs = {pair: Fraction(0) for pair in all_pairs(assignment.m)}
    for mask, value in assignment.weights.items():
        for (i, j) in coeffs:
            if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1:
                coeffs[(i, j)] += value
    return coeffs


def capacity_objective(
    model: PinModel, target: TerminalSet, assignment: WeightAssignment
):
    """Weighted-separation objective at a valid assignment.

    Returns a Fraction on exact models, a float on pmf-backed ones.
    """
    target.validate_within(model.m)
    if (assignment.m, assignment.target) != (model.m, target):
        raise InvalidAssignmentError("assignment built for a different (m, A)")
    assignment.validate()
    return _objective(model, pair_coefficients(assignment))


def _objective(model: PinModel, coeffs: Mapping[Pair, Fraction]):
    if model.exact:
        return sum(
            (c * model.weight(i, j) for (i, j), c in coeffs.items()),
            Fraction(0),
        )
    return sum(float(c) * model.mi(i, j) for (i, j), c in coeffs.items())


def _lp_costs(model: PinModel, family: SubsetFamily) -> tuple[list[int], int]:
    """Per subset, the weight of the pairs it separates (lower terminal
    inside, higher outside), as integers over the base scale; returns the
    costs and that scale."""
    weights = model.require_exact("capacity LP costs")
    scale = base_scale(model)
    terms = [
        (1 << (i - 1), 1 << (j - 1), w.numerator * (scale // w.denominator))
        for (i, j), w in weights.items()
        if w
    ]
    costs = [
        sum(w for inside, outside, w in terms
            if mask & inside and not mask & outside)
        for mask in family.subsets
    ]
    return costs, scale


def _basic_assignment(family: SubsetFamily, result: SimplexResult) -> WeightAssignment:
    """The LP's basic solution as a checked assignment: only the m basic
    columns can carry a nonzero weight."""
    assignment = WeightAssignment(family.m, family.target, {
        family.subsets[var]: result.solution[var] for var in result.basis})
    assignment.validate()
    return assignment


@dataclass(frozen=True)
class CapacityResult:
    """Exact capacity value with one optimal vertex assignment."""

    value: Fraction
    assignment: WeightAssignment
    coefficients: Mapping[Pair, Fraction]


def solve_capacity(
    model: PinModel, target: TerminalSet, cap: int = DEFAULT_TERMINAL_CAP
) -> CapacityResult:
    """Exact minimum of the capacity objective over all valid assignments."""
    model.require_exact("capacity LP")
    target.validate_within(model.m)
    family = subset_family(model.m, target, cap=cap)
    costs, scale = _lp_costs(model, family)
    result = solve_lp(costs, family.subsets, family.m)
    value = result.value / scale
    assignment = _basic_assignment(family, result)
    coeffs = pair_coefficients(assignment)
    check = _objective(model, coeffs)
    if check != value:
        raise ArithmeticError(
            f"simplex value {value} disagrees with the objective {check}"
        )
    return CapacityResult(value=value, assignment=assignment, coefficients=coeffs)


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
    return _basic_assignment(family, solve_lp(costs, family.subsets, family.m))


def entropy_objective(
    model: PinModel, target: TerminalSet, assignment: WeightAssignment
) -> float:
    """Same objective computed from per-pair entropies (float bits).

    Expands the global-entropy form: total joint entropy minus the weighted
    conditional entropies of each subset given its complement, using the
    per-pair additivity of the source.  Every pair must carry a pmf.
    """
    target.validate_within(model.m)
    if (assignment.m, assignment.target) != (model.m, target):
        raise InvalidAssignmentError("assignment built for a different (m, A)")
    assignment.validate()
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


@dataclass(frozen=True)
class ConsistencyReport:
    trials: int
    max_discrepancy: float
    tolerance: float = CONSISTENCY_TOLERANCE
    discrepancies: tuple[float, ...] = field(repr=False, default=())

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def check_objective_consistency(
    model: PinModel,
    target: TerminalSet,
    trials: int,
    seed: int = 0,
    tolerance: float = CONSISTENCY_TOLERANCE,
) -> ConsistencyReport:
    """Compare the two objective forms at random vertices of the polytope."""
    rng = random.Random(seed)
    family = subset_family(model.m, target)
    gaps = []
    for _ in range(trials):
        assignment = sample_vertex(family, rng)
        direct = capacity_objective(model, target, assignment)
        entropic = entropy_objective(model, target, assignment)
        gaps.append(abs(float(direct) - entropic))
    return ConsistencyReport(
        trials=trials,
        max_discrepancy=max(gaps, default=0.0),
        tolerance=tolerance,
        discrepancies=tuple(gaps),
    )
