import random
from fractions import Fraction

import pytest

from pinkey import (
    InvalidAssignmentError,
    PinModel,
    SizeLimitError,
    TerminalSet,
    UnsupportedModeError,
    WeightAssignment,
    capacity_objective,
    check_objective_consistency,
    entropy_objective,
    min_cut,
    pair_coefficients,
    realize_multigraph,
    sample_vertex,
    solve_capacity,
    subset_family,
    upper_bound,
)
from pinkey.model import PairPmf

from helpers import (
    brute_min_cut,
    random_exact_model,
    random_pmf_model,
    random_terminal_set,
    singleton_assignment,
)

TRIANGLE = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
PATH = PinModel.from_weights(3, {(1, 2): 2, (2, 3): 1})
FULL3 = TerminalSet.full(3)


def members_of(family):
    return {family.members(k) for k in range(len(family))}


class TestSubsetFamily:
    def test_two_terminals(self):
        family = subset_family(2, TerminalSet.of(1, 2))
        assert members_of(family) == {(1,), (2,)}

    def test_three_terminals_full_target(self):
        family = subset_family(3, FULL3)
        assert len(family) == 6
        assert members_of(family) == {
            (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        }

    def test_three_terminals_pair_target(self):
        family = subset_family(3, TerminalSet.of(1, 2))
        assert members_of(family) == {(1,), (2,), (3,), (1, 3), (2, 3)}

    def test_per_terminal_lists(self):
        family = subset_family(3, FULL3)
        for t in range(3):
            for k in family.per_terminal[t]:
                assert t + 1 in family.members(k)

    def test_index_of(self):
        family = subset_family(3, TerminalSet.of(1, 2))
        for k, mask in enumerate(family.subsets):
            assert family.index_of(mask) == k
        for miss in (0, 0b011, 0b111, 0b1000):  # empty, holds A, full, too big
            with pytest.raises(KeyError, match="not in the family"):
                family.index_of(miss)

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            subset_family(13, TerminalSet.of(1, 2))
        # raising the cap explicitly lets larger families through
        family = subset_family(13, TerminalSet.of(1, 2), cap=13)
        assert len(family) == 2**13 - 1 - 2**11


def _assignment(family, weights: dict[tuple[int, ...], Fraction]):
    values = [Fraction(0)] * len(family)
    for members, value in weights.items():
        mask = 0
        for t in members:
            mask |= 1 << (t - 1)
        values[family.index_of(mask)] = value
    return WeightAssignment(family, tuple(values))


class TestObjective:
    def test_two_terminal_forced(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        family = subset_family(2, TerminalSet.of(1, 2))
        lam = _assignment(family, {(1,): Fraction(1), (2,): Fraction(1)})
        assert capacity_objective(model, TerminalSet.of(1, 2), lam) == Fraction(3, 2)

    def test_triangle_pairs_half(self):
        family = subset_family(3, FULL3)
        half = Fraction(1, 2)
        lam = _assignment(family, {(1, 2): half, (1, 3): half, (2, 3): half})
        assert capacity_objective(TRIANGLE, FULL3, lam) == Fraction(3, 2)

    def test_triangle_singletons(self):
        family = subset_family(3, FULL3)
        lam = singleton_assignment(family)
        assert capacity_objective(TRIANGLE, FULL3, lam) == 3

    def test_invalid_assignment_rejected(self):
        family = subset_family(3, FULL3)
        bad = _assignment(family, {(1, 2): Fraction(1)})  # terminal 3 uncovered
        with pytest.raises(InvalidAssignmentError):
            capacity_objective(TRIANGLE, FULL3, bad)

    def test_out_of_range_weight_rejected(self):
        family = subset_family(2, TerminalSet.of(1, 2))
        bad = WeightAssignment(family, (Fraction(2), Fraction(-1)))
        with pytest.raises(InvalidAssignmentError):
            bad.validate()


class TestSolveCapacity:
    def test_single_pair(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        assert solve_capacity(model, TerminalSet.of(1, 2)).value == Fraction(3, 2)

    def test_triangle_full_set(self):
        result = solve_capacity(TRIANGLE, FULL3)
        assert result.value == Fraction(3, 2)
        # independently confirmed by the partition bound
        assert upper_bound(TRIANGLE, FULL3) == Fraction(3, 2)

    def test_path_pair_equals_min_cut(self):
        target = TerminalSet.of(1, 3)
        result = solve_capacity(PATH, target)
        graph = realize_multigraph(PATH, 1)
        assert brute_min_cut(graph, 1, 3) == 1
        assert min_cut(graph, 1, 3) == 1
        assert result.value == 1

    def test_float_mode_rejected(self):
        model = PinModel.from_pmfs(2, {(1, 2): PairPmf.from_rows([[1.0]])})
        with pytest.raises(UnsupportedModeError):
            solve_capacity(model, TerminalSet.of(1, 2))

    def test_result_invariant(self):
        result = solve_capacity(TRIANGLE, FULL3)
        assert capacity_objective(TRIANGLE, FULL3, result.assignment) == result.value
        assert result.coefficients == pair_coefficients(result.assignment)


class TestPolytopeProperties:
    def test_coefficient_symmetry_at_random_vertices(self):
        rng = random.Random(0)
        for _ in range(25):
            m = rng.randint(2, 5)
            target = random_terminal_set(rng, m)
            family = subset_family(m, target)
            lam = sample_vertex(family, rng)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    forward = sum(
                        lam.values[k]
                        for k, mask in enumerate(family.subsets)
                        if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1
                    )
                    backward = sum(
                        lam.values[k]
                        for k, mask in enumerate(family.subsets)
                        if mask >> (j - 1) & 1 and not mask >> (i - 1) & 1
                    )
                    both = sum(
                        lam.values[k]
                        for k, mask in enumerate(family.subsets)
                        if mask >> (i - 1) & 1 and mask >> (j - 1) & 1
                    )
                    assert forward == backward == 1 - both

    def test_minimality_against_random_points(self):
        rng = random.Random(1)
        for _ in range(10):
            model = random_exact_model(rng, m=rng.randint(2, 5))
            target = random_terminal_set(rng, model.m)
            best = solve_capacity(model, target).value
            family = subset_family(model.m, target)
            vertices = [sample_vertex(family, rng) for _ in range(4)]
            for lam in vertices:
                assert best <= capacity_objective(model, target, lam)
            # rational convex combinations stay exactly feasible
            mixed = WeightAssignment(
                family,
                tuple(
                    (a + b) / 2
                    for a, b in zip(vertices[0].values, vertices[1].values)
                ),
            )
            assert best <= capacity_objective(model, target, mixed)

    def test_monotone_in_weights(self):
        rng = random.Random(2)
        for _ in range(8):
            model = random_exact_model(rng, m=4)
            target = random_terminal_set(rng, 4)
            base = solve_capacity(model, target).value
            assert model.weights is not None
            bumped = dict(model.weights)
            pair = rng.choice(sorted(bumped))
            bumped[pair] += Fraction(1, 2)
            bigger = solve_capacity(PinModel.from_weights(4, bumped), target).value
            assert bigger >= base

    def test_scaling(self):
        rng = random.Random(3)
        for _ in range(8):
            model = random_exact_model(rng, m=4)
            target = random_terminal_set(rng, 4)
            factor = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = model.scaled(factor)
            assert (
                solve_capacity(scaled, target).value
                == factor * solve_capacity(model, target).value
            )

    def test_tightness_for_pairs_and_full_set(self):
        rng = random.Random(4)
        for _ in range(12):
            model = random_exact_model(rng, m=rng.randint(2, 5))
            full = TerminalSet.full(model.m)
            assert solve_capacity(model, full).value == upper_bound(model, full)
            pair = random_terminal_set(rng, model.m, size=2)
            assert solve_capacity(model, pair).value == upper_bound(model, pair)

    def test_upper_bound_dominates_everywhere(self):
        rng = random.Random(5)
        for _ in range(10):
            model = random_exact_model(rng, m=rng.randint(3, 6))
            target = random_terminal_set(rng, model.m)
            assert solve_capacity(model, target).value <= upper_bound(model, target)


class TestEntropyObjective:
    def test_singletons_reproduce_total_mi(self):
        rng = random.Random(6)
        model = random_pmf_model(rng, m=3)
        family = subset_family(3, FULL3)
        lam = singleton_assignment(family)
        total = sum(model.mi(i, j) for (i, j) in model.pairs())
        assert entropy_objective(model, FULL3, lam) == pytest.approx(total, abs=1e-9)
        assert capacity_objective(model, FULL3, lam) == pytest.approx(total, abs=1e-12)

    def test_correlated_bit_pair(self):
        pmf = PairPmf.from_rows([[0.5, 0.0], [0.0, 0.5]])
        model = PinModel.from_pmfs(2, {(1, 2): pmf})
        target = TerminalSet.of(1, 2)
        family = subset_family(2, target)
        lam = singleton_assignment(family)
        assert entropy_objective(model, target, lam) == pytest.approx(1.0, abs=1e-12)
        assert capacity_objective(model, target, lam) == pytest.approx(1.0, abs=1e-12)

    def test_missing_pmf_rejected(self):
        model = PinModel.from_pmfs(3, {(1, 2): PairPmf.from_rows([[1.0]])})
        family = subset_family(3, FULL3)
        lam = singleton_assignment(family)
        with pytest.raises(UnsupportedModeError):
            entropy_objective(model, FULL3, lam)

    def test_consistency_check(self):
        rng = random.Random(7)
        model = random_pmf_model(rng, m=3)
        report = check_objective_consistency(model, FULL3, trials=30, seed=11)
        assert report.passed, f"max discrepancy {report.max_discrepancy}"
        assert report.trials == 30
