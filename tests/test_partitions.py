import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinkey.partitions
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
from pinkey.partitions import _search, min_ratio

from helpers import (
    brute_nash_williams,
    brute_partitions,
    random_exact_model,
    random_multigraph,
    random_terminal_set,
    reference_min_ratio,
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
        # a negative atom would be counted as its own atom by crossing_weight,
        # and a bool or float compares as a number
        for assignment in ((0, 1, -1), (0, 1, True), (0, True), (0, 1.0), (0, 1, "1")):
            with pytest.raises(ValueError, match="restricted-growth"):
                Partition(assignment)

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

    def test_stream_is_pinned(self):
        # one SHA-256 over every stream for m = 2..8 and every target of
        # two or more terminals: the order and content must not move
        digest = hashlib.sha256()
        count = 0
        for m in range(2, 9):
            for size in range(2, m + 1):
                for members in itertools.combinations(range(1, m + 1), size):
                    for partition in enumerate_partitions(m, TerminalSet(members)):
                        digest.update(bytes(partition.assignment))
                        count += 1
        assert (count, digest.hexdigest()[:16]) == (299_883, "837be19ad0bea3de")

    @pytest.mark.parametrize("m", range(2, 8))
    def test_bound_free_search_matches_the_never_cutting_bound(self, m):
        # enumerate_partitions skips the crossing bound; walking the same
        # search with a bound that never cuts must give the same stream,
        # each partition with its own crossing
        rng = random.Random(m)
        for target in (TerminalSet.full(m), random_terminal_set(rng, m)):
            items = [(i, j, rng.randint(0, 5)) for i in range(m) for j in range(i + 1, m)]
            streamed = list(enumerate_partitions(m, target))
            assert [p for _, p in _search(m, target, [], None)] == streamed
            walked = list(_search(m, target, items, lambda crossing, parts: False))
            assert [p for _, p in walked] == streamed
            for crossing, p in walked:
                side = p.assignment
                assert crossing == sum(w for i, j, w in items if side[i] != side[j])


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

    def test_no_partition_is_an_error(self, monkeypatch):
        # every target has a two-atom partition, so the raise is an
        # invariant check: only a search that yields nothing reaches it
        monkeypatch.setattr(pinkey.partitions, "_search", lambda *args: iter(()))
        with pytest.raises(ValueError):
            min_ratio(TRIANGLE.base_weights, 3, TerminalSet.full(3))


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
        expected = reference_min_ratio(model.weights, enumerate_partitions(model.m, target))
        assert (value, partition.assignment) == (expected[0], expected[1].assignment)

    @settings(max_examples=150, deadline=None)
    @given(_shaped_models(), st.integers(1, 6))
    def test_nash_williams_count_matches_full_scan(self, case, scale):
        model, _ = case
        graph = realize_multigraph(model, scale * base_scale(model))
        full = TerminalSet.full(graph.m)
        expected = math.floor(
            reference_min_ratio(graph.multiplicities, enumerate_partitions(graph.m, full))[0])
        assert nash_williams_count(graph) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, 4), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2),
        st.sets(st.integers(1, m), min_size=2),
        st.integers(1, 5))))
    def test_threshold_query_matches_the_oracle_minimum(self, case):
        m, values, members, below = case
        table = dict(zip(itertools.combinations(range(1, m + 1), 2), values))
        target = TerminalSet(tuple(sorted(members)))
        found = min_ratio(table, m, target, below=below)
        oracle = reference_min_ratio(table, enumerate_partitions(m, target))[0]
        if oracle >= below:
            assert found is None
        else:
            assert found in set(enumerate_partitions(m, target))
            side = found.assignment
            crossing = sum(w for (i, j), w in table.items() if side[i - 1] != side[j - 1])
            assert Fraction(crossing, found.size - 1) < below

    def test_cap(self, monkeypatch):
        # each entry point that walks a model's or a graph's partitions, on
        # 13 terminals of which 13 meets no weight: the first leaf has
        # crossing 0, so each runs at once when the cap allows it
        full = TerminalSet.full(13)
        entry_points = [
            lambda: next(enumerate_partitions(13, full)),
            lambda: best_partition(PinModel.from_weights(13, {(1, 2): 1}), full),
            lambda: nash_williams_count(Multigraph(13, {(1, 2): 1})),
        ]
        for entry in entry_points:
            with pytest.raises(SizeLimitError,
                               match=r"^m=13 exceeds the partition-enumeration cap 12$"):
                entry()
        monkeypatch.setattr(pinkey.partitions, "TERMINAL_CAP", 13)
        assert [entry() for entry in entry_points] == [
            Partition((0,) * 12 + (1,)),
            (0, Partition((0,) * 12 + (1,))),
            0,
        ]

    def test_threshold_query_takes_no_cap(self):
        # the exact Steiner search's edge cap bounds its queries instead
        path = {(t, t + 1): 1 for t in range(1, 14)}
        target = TerminalSet.of(1, 14)
        assert min_ratio(path, 14, target, below=1) is None
        del path[(7, 8)]
        found = min_ratio(path, 14, target, below=1)
        assert found.assignment == (0,) * 7 + (1,) * 7
