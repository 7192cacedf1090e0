import itertools
import random
import re
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinkey.partitions
from pinkey import (
    InvalidPackingError,
    InvalidTreeError,
    Multigraph,
    PinModel,
    SizeLimitError,
    TerminalSet,
    Tree,
    TreePacking,
    base_scale,
    max_disjoint_paths,
    min_cut,
    nash_williams_count,
    realize_multigraph,
    solve_capacity,
    spanning_packing,
    steiner_packing,
    steiner_rate_lower_bound,
)
from pinkey.packing import SPANNING_WORK_CAP, _bound_partitions, _Forest, _max_flow

from helpers import (
    _ReferenceForest,
    bitmask_splits,
    brute_min_cut,
    brute_steiner_packing_count,
    random_multigraph,
    reference_spanning_packing,
    random_small_model,
    random_terminal_set,
    random_tree_edges,
    reference_tree_check,
    unit_walk_path_edges,
)


def complete_multigraph(m: int, copies: int) -> Multigraph:
    pairs = itertools.combinations(range(1, m + 1), 2)
    return Multigraph(m, {pair: copies for pair in pairs})


UNIT_TRIANGLE = Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
DOUBLED_TRIANGLE = Multigraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})
TRIANGLE_MODEL = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
PATH_MODEL = PinModel.from_weights(3, {(1, 2): 2, (2, 3): 1})
# many equal-weight pairs, a heavy pair beside a light star, disconnected
# graphs: ties decide which forest each copy joins
TIE_HEAVY_GRAPHS = {
    f"K{m}x{copies}": complete_multigraph(m, copies)
    for m in range(3, 7) for copies in (1, 2, 3, 8, 40)
} | {
    "heavy_pair_light_star": Multigraph(
        5, {(1, 2): 30, (1, 3): 1, (1, 4): 2, (1, 5): 1, (3, 4): 1}),
    "heavy_pair_light_fan": Multigraph(
        4, {(2, 3): 25, (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 4): 2}),
    "two_triangles": Multigraph(
        6, {(1, 2): 40, (1, 3): 2, (2, 3): 2, (4, 5): 9, (4, 6): 9, (5, 6): 9}),
    "isolated_vertex": Multigraph(4, {(1, 2): 12, (1, 3): 12, (2, 3): 12}),
}


def assert_valid_packing(packing: TreePacking) -> None:
    # TreePacking validates at construction; re-assert the pieces explicitly
    seen = set()
    for tree in packing.trees:
        assert set(packing.target).issubset(tree.vertices())
        for edge in tree.edges:
            assert edge not in seen
            seen.add(edge)
            assert edge[2] < packing.graph.multiplicity(edge[0], edge[1])


class TestTreeType:
    def test_normalizes_order(self):
        tree = Tree(((2, 3, 0), (1, 2, 0)))
        assert tree.edges == ((1, 2, 0), (2, 3, 0))
        assert tree.vertices() == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(InvalidTreeError):
            Tree(())

    def test_rejects_cycle(self):
        with pytest.raises(InvalidTreeError):
            Tree(((1, 2, 0), (2, 3, 0), (1, 3, 0)))

    def test_rejects_parallel_pair(self):
        with pytest.raises(InvalidTreeError):
            Tree(((1, 2, 0), (1, 2, 1)))

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidTreeError):
            Tree(((1, 2, 0), (3, 4, 0)))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidTreeError):
            Tree(((1, 2, 0), (1, 2, 0)))

    def test_equality_hash_and_repr_follow_edges_only(self):
        a = Tree(((2, 3, 0), (1, 2, 1), (2, 4, 0)))
        b = Tree(((1, 2, 1), (2, 4, 0), (2, 3, 0)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Tree(edges=((1, 2, 1), (2, 3, 0), (2, 4, 0)))"
        assert a.walk == ((2, (2, 3, 0)), (2, (2, 4, 0)))

    @given(st.integers(0, 10_000))
    def test_accepts_and_rejects_like_the_reference_check(self, seed):
        rng = random.Random(seed)
        edges = _random_edge_list(rng)
        try:
            expected_edges, expected_vertices = reference_tree_check(edges)
        except InvalidTreeError as exc:
            with pytest.raises(InvalidTreeError, match=f"^{re.escape(str(exc))}$"):
                Tree(tuple(edges))
            return
        tree = Tree(tuple(edges))
        assert tree.edges == expected_edges
        assert tree.vertices() == expected_vertices


def _random_edge_list(rng: random.Random) -> list:
    """A tree, or a tree spoiled into a forest, a cycle, a cycle beside a
    second tree (as many vertices as a tree would have), a repeated edge or
    a malformed edge, or a few arbitrary edges; in shuffled order."""
    kind = rng.choice(("tree", "forest", "cycle", "cycle_forest", "duplicate",
                       "malformed", "arbitrary"))
    edges = random_tree_edges(rng, rng.randint(2, 9))
    if kind in ("cycle", "cycle_forest"):
        u, v = sorted(rng.sample(sorted({x for e in edges for x in e[:2]}), 2))
        edges.append((u, v, 4))
    if kind in ("forest", "cycle_forest"):
        edges += random_tree_edges(rng, rng.randint(2, 4), base=20)
    elif kind == "duplicate":
        edges.append(rng.choice(edges))
    elif kind == "malformed":
        i, j, copy = rng.choice(((0, 2, 0), (3, 3, 0), (4, 2, 0), (1, 2, -1)))
        edges.append((i, j, copy))
    elif kind == "arbitrary":
        edges = [(rng.randint(0, 5), rng.randint(0, 5), rng.randint(-1, 1))
                 for _ in range(rng.randint(0, 6))]
    rng.shuffle(edges)
    return edges


class TestForest:
    @given(st.integers(0, 10_000))
    def test_paths_and_edges_match_the_reference_forest(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 8)
        forest, reference = _Forest(), _ReferenceForest()
        for _ in range(rng.randint(1, 40)):
            held = reference.edges()
            if held and rng.random() < 0.3:
                edge = rng.choice(held)
                forest.remove(edge)
                reference.remove(edge)
            else:
                i, j = sorted(rng.sample(range(1, m + 1), 2))
                edge = (i, j, rng.randint(0, 2))
                if reference.path_edges(i, j) is not None:
                    with pytest.raises(AssertionError, match="close a cycle"):
                        forest.add(edge)
                    continue
                forest.add(edge)
                reference.add(edge)
            assert sorted(forest.edges()) == sorted(reference.edges())
            for u, v in itertools.permutations(range(1, m + 1), 2):
                path = reference.path_edges(u, v)
                assert forest.path_edges(u, v) == path
                assert forest.joins(u, v) == (path is not None)

    def test_remove_rejects_an_absent_edge(self):
        forest = _Forest()
        forest.add((1, 2, 0))
        with pytest.raises(AssertionError, match="not in this forest"):
            forest.remove((1, 2, 1))
        with pytest.raises(AssertionError, match="not in this forest"):
            forest.remove((2, 3, 0))


class TestPackingType:
    def test_rejects_missing_terminal(self):
        with pytest.raises(InvalidPackingError):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.full(3),
                trees=(Tree(((1, 2, 0),)),),
            )

    def test_rejects_copy_overflow(self):
        with pytest.raises(InvalidPackingError):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.of(1, 2),
                trees=(Tree(((1, 2, 1),)),),
            )

    def test_rejects_shared_edge(self):
        tree = Tree(((1, 2, 0), (2, 3, 0)))
        with pytest.raises(InvalidPackingError):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.of(1, 3),
                trees=(tree, tree),
            )


class TestMinCut:
    def test_unit_triangle(self):
        assert min_cut(UNIT_TRIANGLE, 1, 2) == 2
        assert brute_min_cut(UNIT_TRIANGLE, 1, 2) == 2

    def test_path_bottleneck(self):
        graph = Multigraph(3, {(1, 2): 2, (2, 3): 1})
        assert min_cut(graph, 1, 3) == 1

    def test_disconnected(self):
        graph = Multigraph(3, {(1, 2): 3})
        assert min_cut(graph, 1, 3) == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            min_cut(UNIT_TRIANGLE, 2, 2)


class TestMaxDisjointPaths:
    def test_unit_triangle(self):
        packing = max_disjoint_paths(UNIT_TRIANGLE, 1, 2)
        assert packing.count == 2
        assert_valid_packing(packing)
        # one direct edge, one two-hop path through 3
        sizes = sorted(len(t.edges) for t in packing.trees)
        assert sizes == [1, 2]

    def test_single_bottleneck(self):
        graph = Multigraph(3, {(1, 2): 2, (2, 3): 1})
        packing = max_disjoint_paths(graph, 1, 3)
        assert packing.count == 1

    def test_parallel_edges(self):
        graph = Multigraph(2, {(1, 2): 4})
        packing = max_disjoint_paths(graph, 1, 2)
        assert packing.count == 4
        assert all(len(t.edges) == 1 for t in packing.trees)

    def test_disconnected_gives_empty(self):
        graph = Multigraph(3, {(1, 2): 3})
        assert max_disjoint_paths(graph, 1, 3).count == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_menger_equality(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=7, max_mult=5)
        s, t = rng.sample(range(1, graph.m + 1), 2)
        packing = max_disjoint_paths(graph, s, t)
        assert_valid_packing(packing)
        assert packing.count == min_cut(graph, s, t) == brute_min_cut(graph, s, t)

    def test_deterministic(self):
        graph = random_multigraph(random.Random(11), max_m=6, max_mult=4)
        first = max_disjoint_paths(graph, 1, 2)
        second = max_disjoint_paths(graph, 1, 2)
        assert first == second


def cyclic_flow(rng: random.Random) -> tuple[int, int, dict]:
    """(m, value, flow): a net 1->m flow summed from random paths
    and from directed cycles that avoid 1 and m, each cycle carrying 2-5
    units, with opposite directions netted."""
    m = rng.randint(5, 8)
    inner = list(range(2, m))
    sent: Counter = Counter()
    value = 0

    def add(walk, units):
        for a, b in zip(walk, walk[1:]):
            sent[(a, b)] += units

    for _ in range(rng.randint(1, 4)):
        units = rng.randint(1, 4)
        add([1, *rng.sample(inner, rng.randint(0, len(inner))), m], units)
        value += units
    for _ in range(rng.randint(1, 3)):
        cycle = rng.sample(inner, rng.randint(3, len(inner)))
        add(cycle + cycle[:1], rng.randint(2, 5))
    flow: dict = {v: {} for v in range(1, m + 1)}
    for (a, b) in list(sent):
        net = sent[(a, b)] - sent[(b, a)]
        if net > 0:
            flow[a][b] = net
    return m, value, flow


class TestPathDecomposition:
    """max_disjoint_paths walks each distinct path once and expands its
    copies; the walk one unit at a time that it replaced is the oracle."""

    @given(st.integers(0, 10_000))
    def test_same_trees_as_unit_walk(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=7, max_mult=6)
        s, t = rng.sample(range(1, graph.m + 1), 2)
        value, flow = _max_flow(graph, s, t)
        expected = unit_walk_path_edges(value, flow, s, t)
        assert [tree.edges for tree in max_disjoint_paths(graph, s, t).trees] == expected

    @given(st.integers(0, 10_000))
    def test_same_trees_as_unit_walk_on_cyclic_flows(self, seed):
        # max flows from _max_flow rarely hold a cycle, so the cycles here
        # are built by hand: the graph has exactly the flow's edges
        m, value, flow = cyclic_flow(random.Random(seed))
        graph = Multigraph(m, {(min(a, b), max(a, b)): units
                               for a in flow for b, units in flow[a].items()})
        expected = unit_walk_path_edges(value, flow, 1, m)
        with mock.patch.object(pinkey.packing, "_max_flow",
                               return_value=(value, flow)):
            packing = max_disjoint_paths(graph, 1, m)
        assert [tree.edges for tree in packing.trees] == expected

    def test_cycle_cancelled_by_its_bottleneck(self, monkeypatch):
        # from 2 the least neighbor is 3, on the cycle 2-3-4 with 2 units
        flow = {1: {2: 3}, 2: {3: 2, 5: 3}, 3: {4: 2}, 4: {2: 2}, 5: {}}
        graph = Multigraph(5, {(1, 2): 3, (2, 3): 2, (3, 4): 2, (2, 4): 2,
                               (2, 5): 3})
        expected = unit_walk_path_edges(3, flow, 1, 5)
        assert expected == [((1, 2, c), (2, 5, c)) for c in range(3)]
        walks = []
        walk_path = pinkey.packing._walk_path
        monkeypatch.setattr(pinkey.packing, "_max_flow", lambda *args: (3, flow))
        monkeypatch.setattr(pinkey.packing, "_walk_path",
                            lambda *args: walks.append(args) or walk_path(*args))
        packing = max_disjoint_paths(graph, 1, 5)
        assert [tree.edges for tree in packing.trees] == expected
        assert len(walks) == 1
        assert flow == {1: {2: 0}, 2: {3: 0, 5: 0}, 3: {4: 0}, 4: {2: 0}, 5: {}}

    def test_one_walk_per_distinct_path(self, monkeypatch):
        walks = []
        walk_path = pinkey.packing._walk_path
        monkeypatch.setattr(pinkey.packing, "_walk_path",
                            lambda *args: walks.append(args) or walk_path(*args))
        graph = Multigraph(3, {(1, 2): 5, (2, 3): 5, (1, 3): 2})
        packing = max_disjoint_paths(graph, 1, 3)
        assert packing.count == 7
        assert len(walks) == 2

    def test_units_beyond_the_flow_value_raise(self, monkeypatch):
        flow = {1: {2: 3}, 2: {}}
        monkeypatch.setattr(pinkey.packing, "_max_flow", lambda *args: (1, flow))
        with pytest.raises(AssertionError, match="paths carry 3 units, the flow 1"):
            max_disjoint_paths(Multigraph(2, {(1, 2): 3}), 1, 2)


class TestSpanningPacking:
    def test_unit_triangle(self):
        packing = spanning_packing(UNIT_TRIANGLE)
        assert packing.count == 1
        assert_valid_packing(packing)

    def test_doubled_triangle(self):
        packing = spanning_packing(DOUBLED_TRIANGLE)
        assert packing.count == 3
        assert_valid_packing(packing)
        for tree in packing.trees:
            assert tree.vertices() == (1, 2, 3)

    def test_parallel_pair(self):
        graph = Multigraph(2, {(1, 2): 5})
        packing = spanning_packing(graph)
        assert packing.count == 5
        assert all(len(t.edges) == 1 for t in packing.trees)

    def test_disconnected_empty(self):
        graph = Multigraph(3, {(1, 2): 2})
        assert spanning_packing(graph).count == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_count_matches_partition_formula(self, seed):
        graph = random_multigraph(random.Random(seed), max_m=7, max_mult=5)
        packing = spanning_packing(graph)
        assert_valid_packing(packing)
        assert packing.count == nash_williams_count(graph)
        for tree in packing.trees:
            assert len(tree.vertices()) == graph.m  # genuinely spanning

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_same_trees_as_reference_search(self, seed):
        # up to 25 parallel copies: exchange chains and dead pairs are common
        graph = random_multigraph(random.Random(seed), max_m=7, max_mult=25)
        assert spanning_packing(graph) == reference_spanning_packing(graph)

    @pytest.mark.parametrize("name", TIE_HEAVY_GRAPHS)
    def test_same_trees_as_reference_search_on_ties(self, name):
        graph = TIE_HEAVY_GRAPHS[name]
        packing = spanning_packing(graph)
        assert packing == reference_spanning_packing(graph)
        assert packing.count == nash_williams_count(graph)

    @pytest.mark.parametrize("seed", range(40))
    def test_forest_components_only_coarsen(self, seed, monkeypatch):
        # the per-pair resume pointer of _augment relies on this
        graph = random_multigraph(random.Random(seed), max_m=7, max_mult=25)
        augment = pinkey.packing._augment
        vertices = range(1, graph.m + 1)

        def roots(forest):
            # each vertex's least fellow in its tree stands for the tree
            return {v: min(x for x in vertices if forest.joins(v, x)) for v in vertices}

        def checked(forests, new_edge, open_from):
            before = [roots(f) for f in forests]
            fitted = augment(forests, new_edge, open_from)
            for forest, was in zip(forests, before):
                now = roots(forest)
                for u, v in itertools.combinations(vertices, 2):
                    assert was[u] != was[v] or now[u] == now[v]
            return fitted

        monkeypatch.setattr(pinkey.packing, "_augment", checked)
        assert spanning_packing(graph).count == nash_williams_count(graph)

    def test_work_cap(self):
        # k trees over |E| edges: 1414 * 1414 is just under the cap
        assert 1414 * 1414 <= SPANNING_WORK_CAP < 1415 * 1415
        assert spanning_packing(Multigraph(2, {(1, 2): 1414})).count == 1414
        with pytest.raises(SizeLimitError, match=r"k = 1415 .* k\*\|E\| = 2002225$"):
            spanning_packing(Multigraph(2, {(1, 2): 1415}))

    def test_k4_times_300_packs_quickly(self):
        graph = complete_multigraph(4, 300)
        start = time.perf_counter()
        packing = spanning_packing(graph)
        elapsed = time.perf_counter() - start
        assert packing.count == 600
        assert elapsed < 2.0, f"K4 x 300 took {elapsed:.2f} s"


class TestSteinerPacking:
    def test_pair_target_delegates_to_paths(self):
        packing = steiner_packing(UNIT_TRIANGLE, TerminalSet.of(1, 2))
        assert packing.count == min_cut(UNIT_TRIANGLE, 1, 2)

    def test_full_target_delegates_to_spanning(self):
        packing = steiner_packing(DOUBLED_TRIANGLE, TerminalSet.full(3))
        assert packing.count == nash_williams_count(DOUBLED_TRIANGLE)

    def test_unit_k4_three_of_four(self):
        k4 = Multigraph(4, {p: 1 for p in itertools.combinations(range(1, 5), 2)})
        target = TerminalSet.of(1, 2, 3)
        oracle = brute_steiner_packing_count(k4, target)
        exact = steiner_packing(k4, target, mode="exact")
        greedy = steiner_packing(k4, target, mode="greedy")
        assert_valid_packing(exact)
        assert_valid_packing(greedy)
        assert exact.count == oracle == 2
        assert 1 <= greedy.count <= exact.count

    @pytest.mark.parametrize("seed", range(15))
    def test_exact_matches_brute_force(self, seed):
        rng = random.Random(seed)
        m = rng.randint(4, 5)
        graph = random_multigraph(rng, max_m=m, max_mult=2)
        while graph.m < 4 or graph.total_edges() > 12:
            graph = random_multigraph(rng, max_m=m, max_mult=2)
        target = random_terminal_set(rng, graph.m, size=3)
        exact = steiner_packing(graph, target, mode="exact")
        greedy = steiner_packing(graph, target, mode="greedy")
        assert_valid_packing(exact)
        assert_valid_packing(greedy)
        assert exact.count == brute_steiner_packing_count(graph, target)
        assert greedy.count <= exact.count

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_unchanged_without_pruning_bound(self, seed, monkeypatch):
        rng = random.Random(seed)
        m = rng.randint(4, 10)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        counts = dict.fromkeys(pairs, 0)
        for _ in range(rng.randint(m, 16)):
            counts[rng.choice(pairs)] += 1
        graph = Multigraph(m, counts)
        target = random_terminal_set(rng, m, size=rng.randint(3, m - 1))
        pruned = steiner_packing(graph, target, mode="exact")
        monkeypatch.setattr(pinkey.partitions, "min_ratio",
                            lambda table, partitions: (Fraction(10**9), None))
        assert steiner_packing(graph, target, mode="exact") == pruned

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_bound_splits_match_bitmask(self, seed):
        rng = random.Random(seed)
        m = rng.randint(9, 11)
        target = random_terminal_set(rng, m)
        splits = [p.assignment for p in _bound_partitions(m, target)]
        assert len(set(splits)) == len(splits)
        assert sorted(splits) == sorted(bitmask_splits(m, target))

    @given(st.integers(0, 10_000))
    def test_greedy_tree_leaves_are_targets(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=7, max_mult=3)
        if graph.m < 4:
            return
        target = random_terminal_set(rng, graph.m, size=rng.randint(3, graph.m - 1))
        for tree in steiner_packing(graph, target, mode="greedy").trees:
            degree = Counter(v for edge in tree.edges for v in edge[:2])
            assert all(v in target for v, d in degree.items() if d == 1)

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    @pytest.mark.parametrize("counts", [
        {(1, 2): 2, (2, 3): 2, (1, 3): 1},  # target 4 is isolated
        {(2, 3): 3, (2, 4): 2},  # the root, 1, is isolated
    ])
    def test_unreachable_target_gives_no_trees(self, mode, counts):
        graph = Multigraph(4, counts)
        packing = steiner_packing(graph, TerminalSet.of(1, 2, 4), mode=mode)
        assert packing.count == 0

    def test_exact_cap(self):
        heavy = Multigraph(5, {p: 3 for p in itertools.combinations(range(1, 6), 2)})
        with pytest.raises(SizeLimitError):
            steiner_packing(heavy, TerminalSet.of(1, 2, 3), mode="exact")
        # greedy still works above the cap
        packing = steiner_packing(heavy, TerminalSet.of(1, 2, 3), mode="greedy")
        assert packing.count >= 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            steiner_packing(UNIT_TRIANGLE, TerminalSet.of(1, 2), mode="best")

    @pytest.mark.parametrize("target", [(1, 3), (1, 2, 3), (1, 2, 3, 4)])
    def test_edge_cap_on_every_route(self, target, monkeypatch):
        monkeypatch.setattr(pinkey.packing, "PACKING_EDGE_CAP", 8)
        at_cap = Multigraph(4, {(1, 2): 3, (2, 3): 3, (3, 4): 1, (2, 4): 1})
        over = Multigraph(4, {(1, 2): 3, (2, 3): 3, (3, 4): 1, (2, 4): 2})
        for mode in ("exact", "greedy"):
            steiner_packing(at_cap, TerminalSet(target), mode=mode)
            with pytest.raises(SizeLimitError,
                               match=r"capped at \|E\| = 8 edges; this graph has \|E\| = 9$"):
                steiner_packing(over, TerminalSet(target), mode=mode)


class TestSteinerRate:
    def test_triangle_full_scale_two(self):
        rate = steiner_rate_lower_bound(TRIANGLE_MODEL, TerminalSet.full(3), 2)
        assert rate == Fraction(3, 2)

    def test_path_pair(self):
        rate = steiner_rate_lower_bound(PATH_MODEL, TerminalSet.of(1, 3), 1)
        assert rate == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich_and_divisibility_monotonicity(self, seed):
        rng = random.Random(seed)
        m = rng.randint(4, 5)
        model = random_small_model(rng, m)
        target = random_terminal_set(rng, m, size=3)
        n0 = base_scale(model)
        if realize_multigraph(model, 2 * n0).total_edges() > 20:
            pytest.skip("instance too large for exact packing")
        capacity = solve_capacity(model, target).value
        rates = {}
        for k in (1, 2):
            n = k * n0
            graph = realize_multigraph(model, n)
            exact = steiner_packing(graph, target, mode="exact")
            greedy = steiner_packing(graph, target, mode="greedy")
            assert greedy.count <= exact.count <= n * capacity
            rates[k] = Fraction(exact.count, n)
        assert rates[1] <= rates[2]  # packing rate grows along divisibility
