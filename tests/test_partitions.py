import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinkey import (
    Multigraph,
    Partition,
    PinModel,
    SizeLimitError,
    TerminalSet,
    base_scale,
    best_partition,
    crossing_weight,
    enumerate_partitions,
    nash_williams_count,
    realize_multigraph,
    spanning_rate,
    upper_bound,
)
from pinkey.partitions import min_ratio, pruned_partitions

from helpers import (
    brute_nash_williams,
    brute_partitions,
    random_exact_model,
    random_multigraph,
    random_terminal_set,
)

TRIANGLE = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
PATH = PinModel.from_weights(3, {(1, 2): 2, (2, 3): 1})
FULL3 = TerminalSet.full(3)


def atoms_as_sets(partition: Partition) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(atom) for atom in partition.atoms())


class TestPartitionType:
    def test_atoms_by_first_appearance(self):
        partition = Partition((0, 1, 0, 2))
        assert partition.atoms() == ((1, 3), (2,), (4,))
        assert partition.size == 3

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Partition((1, 0))
        with pytest.raises(ValueError):
            Partition((0, 2))

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError):
            Partition((0, 0, 0))


class TestEnumeration:
    def test_two_terminals(self):
        out = list(enumerate_partitions(2, TerminalSet.of(1, 2)))
        assert len(out) == 1
        assert atoms_as_sets(out[0]) == {frozenset({1}), frozenset({2})}

    def test_three_full(self):
        out = list(enumerate_partitions(3, FULL3))
        assert len(out) == 4  # Bell(3) = 5 minus the one-atom partition

    def test_three_pair_target(self):
        out = [atoms_as_sets(p) for p in enumerate_partitions(3, TerminalSet.of(1, 2))]
        assert len(out) == 2
        assert {frozenset({1, 3}), frozenset({2})} in out
        assert {frozenset({1}), frozenset({2, 3})} in out

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            list(enumerate_partitions(13, TerminalSet.of(1, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        target = random_terminal_set(rng, m)
        partitions = list(enumerate_partitions(m, target))
        assignments = [p.assignment for p in partitions]
        # RGS order, strictly increasing: this order fixes the first minimizer
        assert all(a < b for a, b in zip(assignments, assignments[1:]))
        streamed = [atoms_as_sets(p) for p in partitions]
        assert len(set(streamed)) == len(streamed)  # duplicate-free
        expected = set()
        for partition in brute_partitions(m):
            if len(partition) < 2:
                continue
            if all(any(v in target for v in atom) for atom in partition):
                expected.add(frozenset(frozenset(a) for a in partition))
        assert set(streamed) == expected


class TestCrossingWeight:
    def test_triangle_singletons(self):
        assert crossing_weight(TRIANGLE, Partition((0, 1, 2))) == 3

    def test_triangle_two_atoms(self):
        assert crossing_weight(TRIANGLE, Partition((0, 0, 1))) == 2

    def test_path_middle_isolated(self):
        # atoms {1,3} | {2}: pairs (1,2) and (2,3) cross
        assert crossing_weight(PATH, Partition((0, 1, 0))) == 3


class TestUpperBound:
    def test_single_pair(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        assert upper_bound(model, TerminalSet.of(1, 2)) == Fraction(3, 2)

    def test_triangle(self):
        value, partition = best_partition(TRIANGLE, FULL3)
        assert value == Fraction(3, 2)
        assert partition.size == 3  # the all-singletons partition wins

    def test_path_full_set(self):
        value, partition = best_partition(PATH, FULL3)
        assert value == 1
        assert atoms_as_sets(partition) == {frozenset({1, 2}), frozenset({3})}

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        model = random_exact_model(rng, m=rng.randint(2, 6))
        target = random_terminal_set(rng, model.m)
        candidates = []
        for atoms in brute_partitions(model.m):
            if len(atoms) < 2 or not all(atom & set(target) for atom in atoms):
                continue
            atom_of = {v: k for k, atom in enumerate(atoms) for v in atom}
            # restricted-growth form: atoms numbered by first appearance, so
            # the least assignment is the first in enumeration order
            first_seen: dict[int, int] = {}
            assignment = tuple(
                first_seen.setdefault(atom_of[t], len(first_seen))
                for t in range(1, model.m + 1)
            )
            crossing = sum(
                w for (i, j), w in model.weights.items() if atom_of[i] != atom_of[j]
            )
            candidates.append((crossing / (len(atoms) - 1), assignment))
        value, assignment = min(candidates)
        assert best_partition(model, target) == (value, Partition(assignment))

    def test_no_partition_is_an_error(self):
        with pytest.raises(ValueError):
            min_ratio(TRIANGLE.weights, [])


class TestSpanningRate:
    def test_triangle(self):
        assert spanning_rate(TRIANGLE) == Fraction(3, 2)

    def test_star(self):
        star = PinModel.from_weights(4, {(1, 2): 1, (1, 3): 1, (1, 4): 1})
        assert spanning_rate(star) == 1

    def test_path(self):
        assert spanning_rate(PATH) == 1


class TestNashWilliamsCount:
    def test_unit_triangle(self):
        graph = Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert nash_williams_count(graph) == 1

    def test_doubled_triangle(self):
        graph = Multigraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})
        assert nash_williams_count(graph) == 3

    def test_isolated_vertex(self):
        graph = Multigraph(3, {(1, 2): 4})
        assert nash_williams_count(graph) == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        graph = random_multigraph(random.Random(seed), max_m=5, max_mult=4)
        assert nash_williams_count(graph) == brute_nash_williams(graph)

    def test_floor_consistency(self):
        # floor(min x_P) <= min floor(x_P) <= min x_P, and the count is the
        # floor at some minimizing partition
        rng = random.Random(77)
        for _ in range(10):
            graph = random_multigraph(rng, max_m=5, max_mult=4)
            count = nash_williams_count(graph)
            ratios = [
                Fraction(
                    sum(
                        c
                        for (i, j), c in graph.multiplicities.items()
                        if p.assignment[i - 1] != p.assignment[j - 1]
                    ),
                    p.size - 1,
                )
                for p in enumerate_partitions(graph.m, TerminalSet.full(graph.m))
            ]
            unfloored = min(ratios)
            assert int(unfloored) <= count <= unfloored
            assert any(int(r) == count for r in ratios)


class TestRateConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_counts_approach_rate(self, seed):
        rng = random.Random(seed)
        model = random_exact_model(rng, m=rng.randint(2, 5), max_num=4)
        rate = spanning_rate(model)
        n0 = base_scale(model)
        for k in (1, 2, 4, 8):
            n = k * n0
            count = nash_williams_count(realize_multigraph(model, n))
            assert Fraction(count, n) <= rate
            assert rate - Fraction(count, n) < Fraction(model.m - 1, n)


# Weight tables for the pruned search: random ones and the tie-heavy shapes
# (many partitions share the optimal ratio, so only the RGS order picks the
# reported one), each with its terminals relabeled at random.
_SHAPES = ("random", "path", "cycle", "two_triangles", "zero_rows")


@st.composite
def _shaped_models(draw):
    shape = draw(st.sampled_from(_SHAPES))
    m = draw(st.integers(6 if shape == "two_triangles" else 2, 8))
    label = [0] + draw(st.permutations(range(1, m + 1)))
    value = draw(st.sampled_from([1, 2, Fraction(1, 2), Fraction(5, 3)]))
    if shape == "random":
        edges = {(i, j): draw(st.sampled_from([0, 0, 1, 2, 3, Fraction(1, 2)]))
                 for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    elif shape in ("path", "cycle"):
        edges = {(i, i + 1): value for i in range(1, m)}
        if shape == "cycle" and m > 2:
            edges[(1, m)] = value
    elif shape == "two_triangles":
        edges = {pair: value for pair in
                 [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)]}
    else:  # random weights, some terminals with no correlated pair at all
        silent = draw(st.sets(st.integers(1, m), max_size=m - 1))
        edges = {(i, j): draw(st.sampled_from([0, 1, 2]))
                 for i in range(1, m + 1) for j in range(i + 1, m + 1)
                 if i not in silent and j not in silent}
    weights = {tuple(sorted((label[i], label[j]))): w for (i, j), w in edges.items()}
    size = draw(st.sampled_from([2, m, draw(st.integers(2, m))]))
    target = TerminalSet(tuple(draw(st.permutations(range(1, m + 1)))[:size]))
    return PinModel.from_weights(m, weights), target


class TestPrunedSearch:
    @settings(max_examples=250, deadline=None)
    @given(_shaped_models())
    def test_best_partition_matches_full_scan(self, case):
        model, target = case
        value, partition = best_partition(model, target)
        expected = min_ratio(model.weights, enumerate_partitions(model.m, target))
        assert (value, partition.assignment) == (expected[0], expected[1].assignment)

    @settings(max_examples=150, deadline=None)
    @given(_shaped_models(), st.integers(1, 6))
    def test_nash_williams_count_matches_full_scan(self, case, scale):
        model, _ = case
        graph = realize_multigraph(model, scale * base_scale(model))
        full = TerminalSet.full(graph.m)
        expected = math.floor(
            min_ratio(graph.multiplicities, enumerate_partitions(graph.m, full))[0])
        assert nash_williams_count(graph) == expected

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            pruned_partitions(13, TerminalSet.of(1, 2))
