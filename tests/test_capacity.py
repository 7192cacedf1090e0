import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pinkey import (
    InvalidAssignmentError,
    PinModel,
    SizeLimitError,
    SubsetFamily,
    TerminalSet,
    UnsupportedModeError,
    WeightAssignment,
    base_scale,
    best_partition,
    capacity_objective,
    certified_bound,
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
import pinkey.capacity as capacity_module
import pinkey.partitions
from pinkey.capacity import _lp_costs
from pinkey.model import PairPmf
from pinkey.simplex import solve_lp
from pinkey.value import replace

from helpers import (
    brute_min_cut,
    dense_entropy_objective,
    dense_pair_coefficients,
    dense_support,
    dense_validate,
    dense_values,
    pairwise_lp_costs,
    random_exact_model,
    random_pmf_model,
    random_terminal_set,
    reference_objective,
    reference_pair_coefficients,
    reference_validate,
    singleton_assignment,
)

TRIANGLE = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
PATH = PinModel.from_weights(3, {(1, 2): 2, (2, 3): 1})
FULL3 = TerminalSet.full(3)


def members_of(family):
    return {tuple(t + 1 for t in range(family.m) if mask >> t & 1)
            for mask in family.subsets}


class TestSubsetFamily:
    def test_two_terminals(self):
        family = subset_family(2, TerminalSet.of(1, 2))
        assert members_of(family) == {(1,), (2,)}

    def test_three_terminals_full_target(self):
        family = subset_family(3, FULL3)
        assert len(family.subsets) == 6
        assert members_of(family) == {
            (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        }

    def test_three_terminals_pair_target(self):
        family = subset_family(3, TerminalSet.of(1, 2))
        assert members_of(family) == {(1,), (2,), (3,), (1, 3), (2, 3)}

    def test_cap(self, monkeypatch):
        with pytest.raises(SizeLimitError, match="^m=13 exceeds the subset-enumeration cap 12$"):
            subset_family(13, TerminalSet.of(1, 2))
        # raising the one terminal cap lets larger families through
        monkeypatch.setattr(pinkey.partitions, "TERMINAL_CAP", 13)
        family = subset_family(13, TerminalSet.of(1, 2))
        assert len(family.subsets) == 2**13 - 1 - 2**11

    @pytest.mark.parametrize("target", [TerminalSet.of(1, 2), TerminalSet.of(2, 3), FULL3])
    def test_constructor_enumerates_the_subsets(self, target):
        family = SubsetFamily(3, target)
        assert family == subset_family(3, target)
        assert family.subsets == subset_family(3, target).subsets
        assert replace(family, target=FULL3).subsets == subset_family(3, FULL3).subsets

    def test_constructor_checks_the_target_and_the_cap(self):
        with pytest.raises(ValueError):
            SubsetFamily(2, TerminalSet.of(1, 3))
        with pytest.raises(SizeLimitError, match="^m=13 exceeds the subset-enumeration cap 12$"):
            SubsetFamily(13, TerminalSet.of(1, 2))


def _assignment(m, target, weights: dict[tuple[int, ...], Fraction]):
    return WeightAssignment(m, target, {
        sum(1 << (t - 1) for t in members): value
        for members, value in weights.items()})


class TestObjective:
    def test_two_terminal_forced(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        lam = _assignment(2, TerminalSet.of(1, 2), {(1,): Fraction(1), (2,): Fraction(1)})
        assert capacity_objective(model, lam) == Fraction(3, 2)

    def test_triangle_pairs_half(self):
        half = Fraction(1, 2)
        lam = _assignment(3, FULL3, {(1, 2): half, (1, 3): half, (2, 3): half})
        assert capacity_objective(TRIANGLE, lam) == Fraction(3, 2)

    def test_triangle_singletons(self):
        lam = singleton_assignment(3, FULL3)
        assert capacity_objective(TRIANGLE, lam) == 3

    def test_rejects_an_assignment_for_another_m(self):
        lam = singleton_assignment(2, TerminalSet.of(1, 2))
        model = PinModel.from_pmfs(3, {})
        for objective in (capacity_objective, entropy_objective):
            with pytest.raises(InvalidAssignmentError, match=re.escape(
                    "assignment built for m=2, model has m=3")):
                objective(model, lam)

    def test_invalid_assignment_rejected(self):
        bad = _assignment(3, FULL3, {(1, 2): Fraction(1)})  # terminal 3 uncovered
        with pytest.raises(InvalidAssignmentError):
            capacity_objective(TRIANGLE, bad)

    def test_out_of_range_weight_rejected(self):
        bad = WeightAssignment(2, TerminalSet.of(1, 2), {0b01: Fraction(2), 0b10: Fraction(-1)})
        with pytest.raises(InvalidAssignmentError, match=r"^weight 2 outside \[0, 1\]$"):
            bad.validate()
        # masks that are no qualifying subset for m = 3, A = {1, 2}: empty,
        # every terminal, all of A, a terminal past m, not an int
        for mask in (0, 0b111, 0b011, 0b1011, 0b1000, 1.0, True):
            with pytest.raises(InvalidAssignmentError, match="not a qualifying subset"):
                WeightAssignment(3, TerminalSet.of(1, 2), {0b100: Fraction(1), mask: Fraction(0)})
        # weights that are neither an int nor a Fraction, zero ones included
        for value in (1.0, 0.0, "1", True, False, None):
            with pytest.raises(InvalidAssignmentError,
                               match=f"^weight {re.escape(repr(value))} of subset mask 2 "
                                     "is not an int or a Fraction$"):
                WeightAssignment(2, TerminalSet.of(1, 2), {0b01: Fraction(1), 0b10: value})

    def test_zero_weights_dropped_and_masks_sorted(self):
        lam = WeightAssignment(3, FULL3, {0b110: Fraction(1), 0b010: Fraction(0),
                                          0b001: Fraction(1)})
        assert list(lam.weights.items()) == [(0b001, Fraction(1)), (0b110, Fraction(1))]
        assert lam == WeightAssignment(3, FULL3, {0b001: 1, 0b110: 1})
        assert lam.support() == (((1,), Fraction(1)), ((2, 3), Fraction(1)))
        lam.validate()


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
        assert capacity_objective(TRIANGLE, result.assignment) == result.value
        assert result.coefficients == pair_coefficients(result.assignment)

    def test_coefficients_follow_the_assignment(self):
        result = solve_capacity(TRIANGLE, FULL3)
        assert result.coefficients == {pair: Fraction(1, 2) for pair in result.coefficients}
        singletons = replace(result, assignment=singleton_assignment(3, FULL3))
        assert singletons.coefficients == {(1, 2): 1, (1, 3): 1, (2, 3): 1}

    def test_weights_are_the_lp_solution_support(self):
        rng = random.Random(12)
        for _ in range(20):
            model = random_exact_model(rng, m=rng.randint(2, 6))
            target = random_terminal_set(rng, model.m)
            family = subset_family(model.m, target)
            costs, _ = _lp_costs(model, family)
            solution = solve_lp(costs, family).solution
            assignment = solve_capacity(model, target).assignment
            assert (assignment.m, assignment.target) == (model.m, target)
            assert assignment.weights == {
                mask: value for mask, value in zip(family.subsets, solution) if value}
            assert len(assignment.weights) <= model.m


# Models for the certificate: exact random weights, dense or sparse, and
# the tie-heavy unit shapes, terminals relabeled at random, with a target
# of any size from 2 to m.
_SHAPES = ("dense", "sparse", "cycle", "path", "star", "complete")


def _shaped_case(rng: random.Random, shape: str, m: int) -> tuple[PinModel, TerminalSet]:
    if shape in ("dense", "sparse"):
        model = random_exact_model(rng, m=m, zero_chance=0.25 if shape == "dense" else 0.7)
    else:
        label = [0] + rng.sample(range(1, m + 1), m)
        if shape == "complete":
            pairs = list(itertools.combinations(range(1, m + 1), 2))
        elif shape == "star":
            pairs = [(1, j) for j in range(2, m + 1)]
        else:
            pairs = [(i, i + 1) for i in range(1, m)]
            if shape == "cycle" and m > 2:
                pairs.append((1, m))
        model = PinModel.from_weights(
            m, {tuple(sorted((label[i], label[j]))): 1 for i, j in pairs})
    return model, random_terminal_set(rng, m)


def _hand_built(m, target, weights: dict[tuple[int, ...], Fraction], value):
    """A result that only ``certified_bound`` reads: no LP produced it."""
    return capacity_module.CapacityResult(
        value=Fraction(value), assignment=_assignment(m, target, weights))


class TestCertifiedBound:
    """Each hand-built result below fails one of the certificate's checks
    and passes the others, so dropping that check would certify it."""

    def test_partition_shaped_vertex_certifies_its_value(self):
        result = solve_capacity(TRIANGLE, FULL3)
        assert result.assignment.weights == {0b011: Fraction(1, 2), 0b101: Fraction(1, 2),
                                             0b110: Fraction(1, 2)}
        assert certified_bound(TRIANGLE, result) == Fraction(3, 2)

    # every ratio a shape check's failure could be misread as on the triangle
    _VALUES = (0, 1, Fraction(3, 2), 2, 3)

    @pytest.mark.parametrize("value", _VALUES)
    def test_overlapping_complements(self, value):
        # the singletons' complements {2,3}, {1,3}, {1,2} overlap
        result = _hand_built(3, FULL3, {(1,): 1, (2,): 1, (3,): 1}, value)
        assert certified_bound(TRIANGLE, result) is None

    @pytest.mark.parametrize("value", _VALUES)
    def test_complements_that_miss_a_terminal(self, value):
        # complements {3} and {2} leave terminal 1 out
        result = _hand_built(3, FULL3, {(1, 2): 1, (1, 3): 1}, value)
        assert certified_bound(TRIANGLE, result) is None

    @pytest.mark.parametrize("value", _VALUES)
    def test_single_support_mask(self, value):
        # one complement never covers the terminals
        result = _hand_built(3, FULL3, {(1, 2): 1}, value)
        assert certified_bound(TRIANGLE, result) is None

    def test_no_atom_without_a_target_terminal(self):
        # an atom missing A has a co-atom holding all of A, which no
        # assignment can carry: the certificate needs no check of its own
        with pytest.raises(InvalidAssignmentError, match="not a qualifying subset"):
            _hand_built(3, TerminalSet.of(1, 2), {(2, 3): 1, (1, 3): 1, (1, 2): 1}, 1)

    def test_crossing_ratio_other_than_the_capacity(self):
        co_atoms = {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2), (2, 3): Fraction(1, 2)}
        for value in (1, Fraction(7, 4), 3):
            assert certified_bound(TRIANGLE, _hand_built(3, FULL3, co_atoms, value)) is None
        # the crossing is over the base scale: halved weights, halved bound
        halved = PinModel.from_weights(3, dict.fromkeys(TRIANGLE.weights, Fraction(1, 2)))
        assert base_scale(halved) == 2
        assert certified_bound(halved, _hand_built(3, FULL3, co_atoms, Fraction(3, 2))) is None
        assert certified_bound(halved, solve_capacity(halved, FULL3)) == Fraction(3, 4)

    @given(st.sampled_from(_SHAPES), st.integers(2, 8), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_certified_bound_is_the_searched_bound(self, shape, m, seed):
        model, target = _shaped_case(random.Random(seed), shape, m)
        bound = certified_bound(model, solve_capacity(model, target))
        assert bound is None or bound == best_partition(model, target)[0]

    def test_seeded_sweep_meets_both_branches(self):
        # the property above would pass vacuously if either branch never ran
        rng, outcomes = random.Random(31), Counter()
        for shape in _SHAPES:
            for _ in range(20):
                model, target = _shaped_case(rng, shape, rng.randint(2, 8))
                bound = certified_bound(model, solve_capacity(model, target))
                if bound is not None:
                    assert bound == best_partition(model, target)[0]
                outcomes[bound is not None] += 1
        assert outcomes[True] and outcomes[False]


class TestIntegerPath:
    """The cost recurrence and the checks on the LP's integers against
    the per-pair cost sum and the Fraction objective."""

    @given(st.integers(2, 9), st.integers(0, 2**32), st.sampled_from([0.0, 0.25, 0.75]))
    @settings(max_examples=60, deadline=None)
    def test_cost_recurrence_matches_pairwise_sum(self, m, seed, zero_chance):
        rng = random.Random(seed)
        model = random_exact_model(rng, m=m, zero_chance=zero_chance)
        family = subset_family(m, random_terminal_set(rng, m))
        costs, scale = _lp_costs(model, family)
        assert scale == base_scale(model)
        assert costs == pairwise_lp_costs(model, family)

    def test_cost_recurrence_on_dense_twelve_terminals(self):
        model = random_exact_model(random.Random(12), m=12, zero_chance=0.0)
        family = subset_family(12, TerminalSet.full(12))
        assert _lp_costs(model, family)[0] == pairwise_lp_costs(model, family)

    def test_all_zero_weights_cost_nothing(self):
        model = PinModel.from_weights(5, {})
        family = subset_family(5, TerminalSet.of(2, 4))
        assert _lp_costs(model, family) == ([0] * len(family.subsets), 1)

    @given(st.integers(2, 7), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_integer_checks_agree_with_the_fraction_objective(self, m, seed):
        rng = random.Random(seed)
        model = random_exact_model(rng, m=m)
        target = random_terminal_set(rng, m)
        result = solve_capacity(model, target)
        # the library calls share the solver's integer routines, so the
        # vertex is checked against the Fraction forms they replaced
        reference_validate(result.assignment)
        assert reference_objective(model, result.assignment) == result.value
        assert result.coefficients == reference_pair_coefficients(result.assignment)

    def test_wrong_costs_fail_the_objective_check(self, monkeypatch):
        real_lp_costs = capacity_module._lp_costs

        def costs_off_by_one(*args):
            costs, scale = real_lp_costs(*args)
            return [c + 1 for c in costs], scale

        monkeypatch.setattr(capacity_module, "_lp_costs", costs_off_by_one)
        with pytest.raises(ArithmeticError, match="^simplex value 3 disagrees "
                                                  "with the objective 3/2$"):
            solve_capacity(TRIANGLE, FULL3)

    def test_negative_basic_value_fails_the_range_check(self, monkeypatch):
        real_solve_lp = capacity_module.solve_lp

        def first_basic_value_negative(*args):
            result = real_solve_lp(*args)
            return replace(result, beta=(-1,) + result.beta[1:])

        monkeypatch.setattr(capacity_module, "solve_lp", first_basic_value_negative)
        # the triangle's vertex is 1/2 on each pair, so d = 2
        with pytest.raises(InvalidAssignmentError, match=r"^weight -1/2 outside \[0, 1\]$"):
            solve_capacity(TRIANGLE, FULL3)


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
                        value
                        for mask, value in lam.weights.items()
                        if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1
                    )
                    backward = sum(
                        value
                        for mask, value in lam.weights.items()
                        if mask >> (j - 1) & 1 and not mask >> (i - 1) & 1
                    )
                    both = sum(
                        value
                        for mask, value in lam.weights.items()
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
                assert best <= capacity_objective(model, lam)
            # rational convex combinations stay exactly feasible
            first, second = vertices[0].weights, vertices[1].weights
            mixed = WeightAssignment(model.m, target, {
                mask: (first.get(mask, 0) + second.get(mask, 0)) / 2
                for mask in first.keys() | second.keys()})
            assert best <= capacity_objective(model, mixed)

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
        lam = singleton_assignment(3, FULL3)
        total = sum(model.mi(i, j) for (i, j) in model.pairs())
        assert entropy_objective(model, lam) == pytest.approx(total, abs=1e-9)
        assert capacity_objective(model, lam) == pytest.approx(total, abs=1e-12)

    def test_correlated_bit_pair(self):
        pmf = PairPmf.from_rows([[0.5, 0.0], [0.0, 0.5]])
        model = PinModel.from_pmfs(2, {(1, 2): pmf})
        target = TerminalSet.of(1, 2)
        lam = singleton_assignment(2, target)
        assert entropy_objective(model, lam) == pytest.approx(1.0, abs=1e-12)
        assert capacity_objective(model, lam) == pytest.approx(1.0, abs=1e-12)

    def test_missing_pmf_rejected(self):
        model = PinModel.from_pmfs(3, {(1, 2): PairPmf.from_rows([[1.0]])})
        lam = singleton_assignment(3, FULL3)
        with pytest.raises(UnsupportedModeError):
            entropy_objective(model, lam)

    def test_consistency_check(self):
        rng = random.Random(7)
        model = random_pmf_model(rng, m=3)
        report = check_objective_consistency(model, FULL3, trials=30, seed=11)
        assert report.passed, f"max discrepancy {report.max_discrepancy}"
        assert report.trials == len(report.discrepancies) == 30
        assert report.max_discrepancy == max(report.discrepancies)

    @pytest.mark.parametrize("trials", [-3, 0, 2.0, True, "3", None])
    def test_consistency_check_refuses_a_count_that_is_not_a_positive_int(self, trials):
        model = random_pmf_model(random.Random(7), m=3)
        with pytest.raises(ValueError, match="trials must be a positive int"):
            check_objective_consistency(model, FULL3, trials=trials)

    def test_consistency_figures_follow_the_gaps(self):
        report = check_objective_consistency(random_pmf_model(random.Random(7), m=3),
                                             FULL3, trials=3, seed=11)
        empty = replace(report, discrepancies=())
        assert (empty.trials, empty.max_discrepancy, empty.passed) == (0, 0.0, True)
        wide = replace(report, discrepancies=(0.0, 1e-3))
        assert (wide.trials, wide.max_discrepancy, wide.passed) == (2, 1e-3, False)


def _rejection(check):
    """The message of the ``InvalidAssignmentError`` a check raises, or None."""
    try:
        check()
    except InvalidAssignmentError as exc:
        return str(exc)
    return None


class TestSupportFormAgainstDenseOracle:
    """The support form against the dense one-value-per-subset oracle."""

    @given(st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_vertices_mixes_and_perturbed_mixes(self, m, seed):
        rng = random.Random(seed)
        target = random_terminal_set(rng, m)
        family = subset_family(m, target)
        model = random_pmf_model(rng, m=m, max_alpha=2)
        first = dense_values(family, sample_vertex(family, rng))
        second = dense_values(family, sample_vertex(family, rng))
        share = Fraction(rng.randint(0, 4), 4)
        mixed = tuple(share * a + (1 - share) * b for a, b in zip(first, second))
        perturbed = list(mixed)
        for k in rng.sample(range(len(perturbed)), rng.randint(1, 2)):
            perturbed[k] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                                     rng.randint(1, 4))
        for values in (first, second, mixed, tuple(perturbed)):
            assignment = WeightAssignment(m, target, dict(zip(family.subsets, values)))
            assert dense_values(family, assignment) == values
            assert assignment.support() == dense_support(family, values)
            assert pair_coefficients(assignment) == dense_pair_coefficients(family, values)
            rejected = _rejection(assignment.validate)
            assert rejected == _rejection(lambda: dense_validate(family, values))
            if rejected is None:
                assert entropy_objective(model, assignment) == \
                    dense_entropy_objective(model, family, values)
            else:
                with pytest.raises(InvalidAssignmentError, match="^" + re.escape(rejected)):
                    entropy_objective(model, assignment)

    @given(st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_sample_vertex_is_the_dense_lp_solution(self, m, seed):
        # the support read from the basis holds every nonzero of the dense
        # solution the same draws give
        rng = random.Random(seed)
        family = subset_family(m, random_terminal_set(rng, m))
        vertex = sample_vertex(family, random.Random(seed))
        replay = random.Random(seed)
        draws = [(replay.randint(-24, 24), replay.randint(1, 6)) for _ in family.subsets]
        solution = solve_lp([p * 60 // q for p, q in draws], family).solution
        assert dense_values(family, vertex) == solution


def _outcome(call):
    """("value", what the call returned), or the type and message of what it raised."""
    try:
        return "value", call()
    except Exception as exc:  # the oracle must raise the same
        return type(exc), str(exc)


class TestIntegerFormAgainstFractionOracle:
    """``validate``, ``pair_coefficients`` and ``capacity_objective`` run the
    solver's integer cover check and separation sums on the assignment over
    its least common denominator; the Fraction forms they replaced are the
    oracle, on valid and invalid assignments alike."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_values_or_same_errors(self, data):
        m = data.draw(st.integers(2, 6), label="m")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        target = random_terminal_set(rng, m)
        family = subset_family(m, target)
        if data.draw(st.booleans(), label="exact"):
            model = random_exact_model(rng, m=m)
        else:
            model = random_pmf_model(rng, m=m, max_alpha=2)
        kind = data.draw(st.sampled_from(
            ["vertex", "mix", "perturbed", "random", "ints"]), label="kind")
        some = rng.sample(family.subsets, rng.randint(0, min(5, len(family.subsets))))
        if kind == "random":  # any weights, in or out of [0, 1], on any subsets
            weights = {mask: Fraction(rng.randint(-2, 6), rng.randint(1, 4)) for mask in some}
        elif kind == "ints":  # int weights, mostly 0 and 1, sometimes 2 or -1
            weights = {mask: rng.choice((0, 1, 1, 1, 2, -1)) for mask in some}
        else:
            weights = dict(sample_vertex(family, rng).weights)
            if kind == "mix":
                other, share = sample_vertex(family, rng).weights, Fraction(rng.randint(0, 4), 4)
                weights = {mask: share * weights.get(mask, 0) + (1 - share) * other.get(mask, 0)
                           for mask in weights.keys() | other.keys()}
            elif kind == "perturbed":  # a bad cover, and sometimes a weight outside [0, 1]
                mask = rng.choice(family.subsets)
                weights[mask] = weights.get(mask, Fraction(0)) + Fraction(
                    rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4))
        assignment = WeightAssignment(m, target, weights)
        assert _outcome(assignment.validate) == _outcome(lambda: reference_validate(assignment))
        coefficients = pair_coefficients(assignment)
        assert coefficients == reference_pair_coefficients(assignment)
        assert all(type(c) is Fraction for c in coefficients.values())
        found = _outcome(lambda: capacity_objective(model, assignment))
        assert found == _outcome(lambda: reference_objective(model, assignment))
        if found[0] == "value":
            assert type(found[1]) is (Fraction if model.exact else float)
