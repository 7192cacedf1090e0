"""Secret-key capacity as an exact LP over the subset-weight polytope.

The qualifying subsets for a target set A are the nonempty strict subsets
of the terminals that do not contain all of A.  A weight assignment puts
a fractional weight on each subset so that the weights covering any given
terminal sum to one; the capacity is the minimum, over assignments, of the
weighted sum of pairwise correlations separated by the subsets.  With
rational weights the minimum is rational and is attained at a polytope
vertex, which the exact simplex returns.

A second, entropy-based form of the same objective is available for
pmf-backed models; agreement between the two (within 1e-9) is a strong
end-to-end check of the entropy bookkeeping.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import InvalidAssignmentError, SizeLimitError, UnsupportedModeError
from .model import Pair, PinModel, TerminalSet, all_pairs, base_scale
from .partitions import DEFAULT_TERMINAL_CAP
from .simplex import solve_lp

CONSISTENCY_TOLERANCE = 1e-9


def _mask_members(mask: int) -> tuple[int, ...]:
    return tuple(t + 1 for t in range(mask.bit_length()) if mask >> t & 1)


@dataclass(frozen=True)
class SubsetFamily:
    """All qualifying subsets for (m, A), as bitmasks in ascending order."""

    m: int
    target: TerminalSet
    subsets: tuple[int, ...]
    per_terminal: tuple[tuple[int, ...], ...]  # indices of subsets holding i

    def index_of(self, mask: int) -> int:
        index = bisect_left(self.subsets, mask)
        if index == len(self.subsets) or self.subsets[index] != mask:
            raise KeyError(f"subset mask {mask:#x} is not in the family")
        return index

    def members(self, index: int) -> tuple[int, ...]:
        return _mask_members(self.subsets[index])

    def __len__(self) -> int:
        return len(self.subsets)


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
    per_terminal = tuple(
        tuple(k for k, mask in enumerate(subsets) if mask >> t & 1)
        for t in range(m)
    )
    return SubsetFamily(m=m, target=target, subsets=subsets,
                        per_terminal=per_terminal)


@dataclass(frozen=True)
class WeightAssignment:
    """Fractional weights on a subset family, one value per subset."""

    family: SubsetFamily
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.family):
            raise InvalidAssignmentError(
                f"expected {len(self.family)} weights, got {len(self.values)}"
            )

    def validate(self) -> None:
        one = Fraction(1)
        for value in self.values:
            if value < 0 or value > 1:
                raise InvalidAssignmentError(f"weight {value} outside [0, 1]")
        values = self.values
        for t, indices in enumerate(self.family.per_terminal):
            total = sum((values[k] for k in indices if values[k]), Fraction(0))
            if total != one:
                raise InvalidAssignmentError(
                    f"weights covering terminal {t + 1} sum to {total}, "
                    "expected exactly 1"
                )

    def support(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Nonzero weights as (subset members, value) pairs."""
        return tuple(
            (self.family.members(k), v)
            for k, v in enumerate(self.values)
            if v
        )


def pair_coefficients(assignment: WeightAssignment) -> dict[Pair, Fraction]:
    """For each pair, the total weight of subsets separating it (lower
    terminal inside, higher outside)."""
    family = assignment.family
    coeffs = {pair: Fraction(0) for pair in all_pairs(family.m)}
    for k, mask in enumerate(family.subsets):
        value = assignment.values[k]
        if not value:
            continue
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
    if assignment.family.m != model.m or assignment.family.target != target:
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
    assignment = WeightAssignment(family, result.solution)
    assignment.validate()
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
    result = solve_lp(costs, family.subsets, family.m)
    assignment = WeightAssignment(family, result.solution)
    assignment.validate()
    return assignment


def entropy_objective(
    model: PinModel, target: TerminalSet, assignment: WeightAssignment
) -> float:
    """Same objective computed from per-pair entropies (float bits).

    Expands the global-entropy form: total joint entropy minus the weighted
    conditional entropies of each subset given its complement, using the
    per-pair additivity of the source.  Every pair must carry a pmf.
    """
    target.validate_within(model.m)
    if assignment.family.m != model.m or assignment.family.target != target:
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
    for k, mask in enumerate(assignment.family.subsets):
        weight = float(assignment.values[k])
        if not weight:
            continue
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
        penalty += weight * conditional
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
