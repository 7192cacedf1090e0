import itertools
import random
import re
import runpy
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
from pinkey.packing import (
    SPANNING_WORK_CAP, STEINER_EXACT_EDGE_CAP, _Forest, _ForestRuns, _approx_steiner_tree,
    _max_flow, _neighbours, _reduced_graph, _steiner_tree_candidates, is_edge_ref)

from helpers import (
    _ReferenceForest,
    brute_min_cut,
    brute_partitions,
    brute_steiner_packing_count,
    one_tree_greedy_steiner,
    random_multigraph,
    reference_approx_steiner_tree,
    reference_exact_steiner,
    reference_max_flow,
    reference_spanning_packing,
    random_small_model,
    random_terminal_set,
    random_tree_edges,
    reference_tree_check,
    subtree_steiner_candidates,
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
    "two_triangles_joined": Multigraph(
        6, {(1, 2): 40, (1, 3): 2, (2, 3): 2, (3, 4): 9, (4, 5): 9, (4, 6): 9,
            (5, 6): 9}),
    "isolated_vertex": Multigraph(4, {(1, 2): 12, (1, 3): 12, (2, 3): 12}),
}


# 9 times a 5-terminal graph: one exchange search per copy made 20 here,
# in sequences of one swap, each the one before shifted by one forest
TRACE_GRAPH = Multigraph(5, {(1, 2): 18, (1, 3): 27, (1, 4): 18, (1, 5): 18, (2, 3): 27,
                             (2, 4): 18, (2, 5): 36, (3, 4): 9, (3, 5): 9, (4, 5): 9})


# vertices 1..16 row by row, 24 unit edges; its corners are 1, 4, 13 and 16
GRID_4X4 = Multigraph(16, {(v, v + step): 1 for v in range(1, 17) for step in (1, 4)
                           if (step == 1 and v % 4) or (step == 4 and v <= 12)})


@st.composite
def steiner_instances(draw):
    """A multigraph with multiplicities up to 4 within the exact edge cap,
    and a target A with 3 <= |A| < m, its least terminal isolated in a
    quarter of the draws; sparse supports often leave the target
    disconnected."""
    m = draw(st.integers(4, 7))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    counts = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 4),
                                  min_size=m - 1, max_size=2 * m))
    members = draw(st.lists(st.integers(1, m), min_size=3, max_size=m - 1, unique=True))
    if draw(st.integers(0, 3)) == 0:
        counts = {pair: c for pair, c in counts.items() if min(members) not in pair}
    assume(sum(counts.values()) <= STEINER_EXACT_EDGE_CAP)
    return Multigraph(m, counts), TerminalSet(tuple(members))


@st.composite
def bridged_multigraphs(draw):
    """Two clusters, 1..cut and the rest (each of two vertices or more
    from m = 4 on), with 1 to 12 copies of each pair inside and at most
    one across, in a quarter of the draws with one vertex's row all zeros:
    the degree bound min(least degree, floor(|E| / (m - 1))) then often
    exceeds the tree count, or is 0."""
    m = draw(st.integers(2, 8))
    cut = draw(st.integers(min(2, m - 1), max(2, m - 2)))
    isolated = draw(st.integers(1, m)) if draw(st.integers(0, 3)) == 0 else None
    counts = {}
    for i, j in itertools.combinations(range(1, m + 1), 2):
        inside = (i <= cut) == (j <= cut)
        counts[(i, j)] = draw(st.integers(1, 12) if inside else st.integers(0, 1))
        if isolated in (i, j):
            counts[(i, j)] = 0
    return Multigraph(m, counts)


@st.composite
def scaled_multigraphs(draw):
    """n times a base graph with pair weights 0..4 on m <= 6 vertices, n
    <= 40 and at most 200 edges, the sizes of the ``span`` requests: the
    runs of shifted forests are long, so one exchange search often places
    many copies."""
    m = draw(st.integers(2, 6))
    base = {pair: draw(st.integers(0, 4)) for pair in itertools.combinations(range(1, m + 1), 2)}
    n = draw(st.integers(1, max(1, min(40, 200 // max(1, sum(base.values()))))))
    return Multigraph(m, {pair: w * n for pair, w in base.items()})


def _ladder() -> dict:
    # the instances as scripts/ladder.py builds them, so both measure the same graph
    return runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"))


def ladder_graph(row: str) -> Multigraph:
    return dict(_ladder()["spanning_rows"]())[row]


def ladder_steiner_case(row: str) -> tuple[Multigraph, TerminalSet]:
    (case,) = next(cases for name, cases, _, _ in _ladder()["steiner_rows"]() if name == row)
    return case


def assert_maximal_runs(packing: TreePacking) -> None:
    # no group continues the shift of the group before it
    for (tree, copies), (after, _) in zip(packing.groups, packing.groups[1:]):
        assert after.edges != tuple((i, j, c + copies) for i, j, c in tree.edges)


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

    def test_rejects_entries_that_are_not_ints(self):
        for edge in ((1, 2, 0.5), (1.0, 2, 0), (True, 2, 0), (1, 2, False), (1, 2, None)):
            with pytest.raises(InvalidTreeError, match=r"^malformed edge \("):
                Tree(((2, 3, 0), edge))
        # edges that are not 3-tuples fail the same way, not in unpacking
        for edge, shown in (((1, 2), r"\(1, 2\)"), ((1, 2, 0, 0), r"\(1, 2, 0, 0\)"),
                            (5, "5")):
            with pytest.raises(InvalidTreeError, match=f"^malformed edge {shown}$"):
                Tree((edge,))
        # one of them used to pack: the check runs before any packing
        with pytest.raises(InvalidTreeError, match=r"^malformed edge \(1\.0, 2, 0\)$"):
            TreePacking(Multigraph(2, {(1, 2): 1}), TerminalSet.of(1, 2),
                        ((Tree(((1.0, 2, 0),)), 1),))

    @pytest.mark.parametrize("edge,shaped", [
        ((1, 2, 0), True),
        ((1, 2, True), False),  # a bool is no copy number
        ((1.0, 2, 0), False),
        ((2, 1, 0), False),
        ((1, 1, 0), False),
        ((0, 2, 0), False),
        ((1, 2, -1), False),
        ((1, 2), False),
        ((1, 2, 0, 0), False),
        ([1, 2, 0], False),
        (5, False),
        (type("EdgeTuple", (tuple,), {})((1, 2, 0)), True),
    ])
    def test_edge_shape_rule(self, edge, shaped):
        assert is_edge_ref(edge) is shaped

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
    a malformed edge (out of range, an entry that is a float or a bool, or
    not a 3-tuple), or a few arbitrary edges; in shuffled order."""
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
        edges.append(rng.choice(((0, 2, 0), (3, 3, 0), (4, 2, 0), (1, 2, -1),
                                 (1, 2, 0.5), (1.0, 2, 0), (True, 2, 0), (1, 2, False),
                                 (1, 2), (1, 2, 0, 0), 5)))
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
        index = rng.randint(0, 5)
        forest, reference = _Forest(), _ReferenceForest()
        for _ in range(rng.randint(1, 40)):
            held = reference.edges()
            if held and rng.random() < 0.3:
                edge = rng.choice(held)
                forest.remove(edge[:2])
                reference.remove(edge)
            else:
                i, j = sorted(rng.sample(range(1, m + 1), 2))
                edge = (i, j, rng.randint(0, 2))
                if reference.path_edges(i, j) is not None:
                    with pytest.raises(AssertionError, match="close a cycle"):
                        forest.add((i, j), edge[2] - index)
                    continue
                forest.add((i, j), edge[2] - index)
                reference.add(edge)
            assert sorted(forest.edges(index)) == sorted(reference.edges())
            assert forest.rel == {(i, j): c - index for i, j, c in reference.edges()}
            # a copy equals the forest and shares no map with it
            twin = forest.copy()
            assert (twin.parent, twin.rel) == (forest.parent, forest.rel)
            assert twin.parent is not forest.parent and twin.rel is not forest.rel
            for u, v in itertools.permutations(range(1, m + 1), 2):
                path = reference.path_edges(u, v)
                assert forest.path(u, v) == (
                    None if path is None else [(a, b) for a, b, _ in path])
                assert forest.joins(u, v) == (path is not None)
            if forest.rel:
                pair = next(iter(forest.rel))
                twin.remove(pair)
                assert pair in forest.rel and forest.joins(*pair)

    def test_remove_rejects_an_absent_edge(self):
        forest = _Forest()
        forest.add((1, 2), 0)
        with pytest.raises(AssertionError, match="not in this forest"):
            forest.remove((2, 3))
        with pytest.raises(AssertionError, match="not in this forest"):
            forest.remove((1, 3))


class TestPackingType:
    def test_rejects_missing_terminal(self):
        with pytest.raises(InvalidPackingError):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.full(3),
                groups=((Tree(((1, 2, 0),)), 1),),
            )
        # every missing terminal is named
        with pytest.raises(InvalidPackingError, match=re.escape(
                "tree 0 with reference edge (1, 2, 0) misses target terminals [3, 4]")):
            TreePacking(Multigraph(4, {(1, 2): 1, (3, 4): 1}), TerminalSet.full(4),
                        ((Tree(((1, 2, 0),)), 1),))

    def test_rejects_copy_overflow(self):
        with pytest.raises(InvalidPackingError):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.of(1, 2),
                groups=((Tree(((1, 2, 1),)), 1),),
            )

    def test_rejects_shared_edge(self):
        tree = Tree(((1, 2, 0), (2, 3, 0)))
        with pytest.raises(InvalidPackingError, match=re.escape("edge (1, 2, 0) used twice")):
            TreePacking(
                graph=UNIT_TRIANGLE,
                target=TerminalSet.of(1, 3),
                groups=((tree, 1), (tree, 1)),
            )

    # a group's copy k raises every edge's copy number by k
    PARALLEL_PATH = Multigraph(3, {(1, 2): 4, (2, 3): 3})

    def test_rejects_copy_ranges_overlapping_on_one_pair(self):
        # 1-2 copies 0..1 and then 1: only pair (1, 2) clashes
        with pytest.raises(InvalidPackingError,
                           match=re.escape("edge (1, 2, 1) used twice")):
            TreePacking(
                graph=self.PARALLEL_PATH,
                target=TerminalSet.of(1, 3),
                groups=((Tree(((1, 2, 0), (2, 3, 0))), 2),
                        (Tree(((1, 2, 1), (2, 3, 2))), 1)),
            )

    def test_rejects_copies_past_the_multiplicity(self):
        # copies 1..3 of 1-2 fit its 4; copy 3 of 2-3 is one past its 3
        with pytest.raises(InvalidPackingError, match=re.escape(
                "tree 2 uses edge (2, 3, 3) but the graph has 3 copies of pair (2, 3)")):
            TreePacking(
                graph=self.PARALLEL_PATH,
                target=TerminalSet.of(1, 3),
                groups=((Tree(((1, 2, 1), (2, 3, 1))), 3),),
            )

    def test_rejects_a_multi_copy_group_missing_a_terminal(self):
        with pytest.raises(InvalidPackingError, match=re.escape(
                "tree 1 with reference edge (1, 2, 1) misses target terminals [3]")):
            TreePacking(
                graph=self.PARALLEL_PATH,
                target=TerminalSet.of(1, 3),
                groups=((Tree(((1, 2, 0), (2, 3, 0))), 1), (Tree(((1, 2, 1),)), 2)),
            )

    @pytest.mark.parametrize("copies", [0, -1, 1.0, True])
    def test_rejects_a_copy_count_that_is_not_a_positive_int(self, copies):
        with pytest.raises(InvalidPackingError, match="positive copy count"):
            TreePacking(
                graph=self.PARALLEL_PATH,
                target=TerminalSet.of(1, 3),
                groups=((Tree(((1, 2, 0), (2, 3, 0))), copies),),
            )

    def test_trees_expand_each_group_by_copy(self):
        packing = TreePacking(
            graph=self.PARALLEL_PATH,
            target=TerminalSet.of(1, 3),
            groups=((Tree(((1, 2, 1), (2, 3, 0))), 2), (Tree(((1, 2, 0), (2, 3, 2))), 1)),
        )
        expected = [((1, 2, 1), (2, 3, 0)), ((1, 2, 2), (2, 3, 1)),
                    ((1, 2, 0), (2, 3, 2))]
        trees = packing.trees
        assert packing.count == len(trees) == 3
        assert [tree.edges for tree in trees] == expected
        assert [trees[k].edges for k in (-3, -2, -1)] == expected
        assert [tree.edges for tree in trees[1:]] == expected[1:]
        with pytest.raises(IndexError):
            trees[3]


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

    @pytest.mark.parametrize("vertex", [1.5, True, "1", 0, 4])
    def test_malformed_vertex_rejected(self, vertex):
        # the same check as max_disjoint_paths, through TerminalSet
        graph = Multigraph(3, {(1, 3): 1, (2, 3): 2})
        for s, t in ((vertex, 3), (3, vertex)):
            with pytest.raises(ValueError):
                min_cut(graph, s, t)
            with pytest.raises(ValueError):
                max_disjoint_paths(graph, s, t)


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
        value, flow = _max_flow(_neighbours(graph.multiplicities), s, t)
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


class TestFlowCore:
    """``_max_flow`` on a pair table: its multigraph form before the limit
    and the cut mode is the oracle on the path route's instances, and the
    brute-force cut checks the limit and the cut side."""

    @given(st.integers(0, 10_000))
    def test_same_flow_as_the_multigraph_form(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=7, max_mult=6)
        s, t = rng.sample(range(1, graph.m + 1), 2)
        value, flow = _max_flow(_neighbours(graph.multiplicities), s, t)
        expected_value, expected_flow = reference_max_flow(graph, s, t)
        assert value == expected_value
        assert ({u: row for u, row in flow.items() if row}
                == {u: row for u, row in expected_flow.items() if row})

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_limit_and_cut_side(self, seed, limit):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=7, max_mult=6)
        s, t = rng.sample(range(1, graph.m + 1), 2)
        cut = brute_min_cut(graph, s, t)
        value, side = _max_flow(_neighbours(graph.multiplicities), s, t, cut=True)
        assert value == cut and s in side and t not in side
        assert sum(c for (i, j), c in graph.multiplicities.items()
                   if (i in side) != (j in side)) == cut
        limited = _max_flow(_neighbours(graph.multiplicities), s, t, limit=limit, cut=True)
        if cut < limit:
            assert limited == (value, side)
        else:
            assert limited[0] >= limit and limited[1] is None

    @given(st.integers(0, 10_000))
    def test_neighbour_rows_hold_the_positive_pairs(self, seed):
        graph = random_multigraph(random.Random(seed), max_m=7, max_mult=3)
        rows = _neighbours(graph.multiplicities)
        assert {(v, w): c for v, row in rows.items() for w, c in row.items()} == {
            arc: c for (i, j), c in graph.multiplicities.items() if c
            for arc in ((i, j), (j, i))}
        assert all(list(row) == sorted(row) for row in rows.values())

    def test_any_vertex_set(self):
        # the unit triangle on vertices 10, 20, 30, and 40 hung from 30 by
        # two edges: the least min-cut side toward 40 is {10}
        rows = _neighbours({(10, 20): 1, (10, 30): 1, (20, 30): 1, (30, 40): 2})
        assert _max_flow(rows, 10, 20) == (2, {10: {20: 1, 30: 1}, 20: {}, 30: {20: 1}, 40: {}})
        assert _max_flow(rows, 10, 40, cut=True) == (2, {10})
        assert _max_flow(rows, 10, 50, cut=True) == (0, {10, 20, 30, 40})


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
        packing = spanning_packing(graph)
        reference = reference_spanning_packing(graph)  # one group per tree
        assert tuple(packing.trees) == tuple(reference.trees)
        assert packing.count == reference.count
        assert_maximal_runs(packing)

    @pytest.mark.parametrize("name", TIE_HEAVY_GRAPHS)
    def test_same_trees_as_reference_search_on_ties(self, name):
        graph = TIE_HEAVY_GRAPHS[name]
        packing = spanning_packing(graph)
        reference = reference_spanning_packing(graph)
        assert tuple(packing.trees) == tuple(reference.trees)
        assert packing.count == reference.count == nash_williams_count(graph)
        assert_maximal_runs(packing)

    @given(scaled_multigraphs())
    @example(TRACE_GRAPH)
    @settings(deadline=None)
    def test_same_trees_as_reference_search_on_scaled_graphs(self, graph):
        packing = spanning_packing(graph)
        assert tuple(packing.trees) == tuple(reference_spanning_packing(graph).trees)
        assert packing.count == nash_williams_count(graph)
        assert_maximal_runs(packing)

    @pytest.mark.parametrize("graph, searches, trees, groups", [
        (complete_multigraph(4, 300), 1, 600, 2),
        (complete_multigraph(6, 210), 3, 630, 3),
        (TRACE_GRAPH, 5, 47, 9),
    ], ids=["K4x300", "K6x210", "trace"])
    def test_one_exchange_search_per_shifted_run_of_copies(
            self, graph, searches, trees, groups, monkeypatch):
        # a search that ends in one swap places every copy that the swap,
        # shifted, places; one search per copy made 300, 630 and 20 here
        augment = _ForestRuns._augment
        calls = []

        def counted(runs, edge, most):
            calls.append(edge)
            return augment(runs, edge, most)

        monkeypatch.setattr(_ForestRuns, "_augment", counted)
        packing = spanning_packing(graph)
        assert (len(calls), packing.count, len(packing.groups)) == (searches, trees, groups)

    @pytest.mark.parametrize("seed", range(40))
    def test_forest_components_only_coarsen(self, seed, monkeypatch):
        # the per-pair resume pointer of _ForestRuns.open_run relies on this
        graph = random_multigraph(random.Random(seed), max_m=7, max_mult=25)
        insert = _ForestRuns.insert
        vertices = range(1, graph.m + 1)

        def member_roots(runs):
            # per forest of the packing, each vertex's least fellow in its
            # tree stands for the tree; a run's members share their forest's
            roots = []
            for forest, start, end in zip(runs.forests, runs.starts, runs.starts[1:]):
                of = {v: min(x for x in vertices if forest.joins(v, x)) for v in vertices}
                roots += [of] * (end - start)
            return roots

        def checked(runs, edge, most):
            before = member_roots(runs)
            placed = insert(runs, edge, most)
            after = member_roots(runs)
            assert len(before) == len(after) == runs.starts[-1]
            for was, now in zip(before, after):
                for u, v in itertools.combinations(vertices, 2):
                    assert was[u] != was[v] or now[u] == now[v]
            return placed

        monkeypatch.setattr(_ForestRuns, "insert", checked)
        assert spanning_packing(graph).count == nash_williams_count(graph)

    @pytest.mark.parametrize("graph", [
        random_multigraph(random.Random(seed), max_m=7, max_mult=25) for seed in range(30)
    ] + list(TIE_HEAVY_GRAPHS.values()))
    def test_runs_stay_maximal_after_every_insert(self, graph, monkeypatch):
        # after each insert, no two neighbouring runs may continue one
        # shift, checked on the edges themselves rather than by _merge's
        # rel comparison
        insert = _ForestRuns.insert
        inserts = []

        def checked(runs, edge, most):
            placed = insert(runs, edge, most)
            forests, starts = runs.forests, runs.starts
            for r in range(1, len(forests)):
                by = starts[r] - starts[r - 1]
                assert set(forests[r].edges(starts[r])) != {
                    (i, j, c + by) for i, j, c in forests[r - 1].edges(starts[r - 1])}
            inserts.append(placed)
            return placed

        monkeypatch.setattr(_ForestRuns, "insert", checked)
        packing = spanning_packing(graph)
        assert len(inserts) > 0 or packing.count == 0
        assert tuple(packing.trees) == tuple(reference_spanning_packing(graph).trees)

    def test_work_follows_forest_shapes(self, monkeypatch):
        # the 9-terminal graph has k = 490 trees in few runs; the search
        # asks each run's first forest and made 51,145 path queries here,
        # one forest per tree 799,666
        graph = ladder_graph("found9")
        calls = []
        path = _Forest.path

        def counted(forest, u, v):
            calls.append(None)
            return path(forest, u, v)

        monkeypatch.setattr(_Forest, "path", counted)
        packing = spanning_packing(graph)
        assert packing.count == 490
        assert len(calls) <= 80_000
        assert len(packing.groups) == 34
        assert_maximal_runs(packing)
        assert len(spanning_packing(complete_multigraph(6, 40)).groups) == 3

    @given(bridged_multigraphs())
    @example(Multigraph(6, {(1, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 1, (4, 5): 3,
                            (4, 6): 3, (5, 6): 3}))
    @example(Multigraph(4, {(1, 2): 5, (1, 3): 5, (2, 3): 5, (1, 4): 0}))
    @settings(deadline=None)
    def test_same_trees_as_reference_when_the_degree_bound_is_not_met(self, graph):
        packing = spanning_packing(graph)
        assert tuple(packing.trees) == tuple(reference_spanning_packing(graph).trees)
        assert packing.count == nash_williams_count(graph)
        assert_maximal_runs(packing)

    def test_degree_bound_certifies_without_the_partition_count(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("the partition count was asked")

        monkeypatch.setattr(pinkey.packing, "nash_williams_count", refuse)
        assert spanning_packing(complete_multigraph(4, 300)).count == 600
        # b = 2: the third copy of (1, 2) is blocked, and then the two
        # copies still to come are exactly the two edges missing
        assert spanning_packing(Multigraph(3, {(1, 2): 3, (1, 3): 1, (2, 3): 1})).count == 2
        assert spanning_packing(Multigraph(3, {(1, 2): 4})).count == 0  # b = 0

    def test_union_stops_once_the_bound_is_out_of_reach(self, monkeypatch):
        # two K6 x 20 joined by one edge: b = 54, one tree in fact; the
        # first cluster alone shows 54 trees cannot be reached
        graph = ladder_graph("bridge_K6x20")
        events = []
        insert, count = _ForestRuns.insert, pinkey.packing.nash_williams_count

        def recorded_insert(runs, edge, most):
            events.append(edge[:2])
            return insert(runs, edge, most)

        def recorded_count(graph):
            events.append("count")
            return count(graph)

        monkeypatch.setattr(_ForestRuns, "insert", recorded_insert)
        monkeypatch.setattr(pinkey.packing, "nash_williams_count", recorded_count)
        packing = spanning_packing(graph)
        assert packing.count == 1
        assert events.count("count") == 1
        assert all(max(pair) <= 6 for pair in events[:events.index("count")])

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
        m = rng.randint(4, 14)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        counts = dict.fromkeys(pairs, 0)
        for _ in range(rng.randint(m, 16)):
            counts[rng.choice(pairs)] += 1
        graph = Multigraph(m, counts)
        target = random_terminal_set(rng, m, size=rng.randint(3, m - 1))
        pruned = steiner_packing(graph, target, mode="exact")
        # no partition below any threshold: the bound never cuts
        monkeypatch.setattr(pinkey.partitions, "min_ratio",
                            lambda table, m, target, below: None)
        assert steiner_packing(graph, target, mode="exact") == pruned

    @given(steiner_instances())
    @example((Multigraph(5, {(2, 3): 4, (3, 4): 2, (4, 5): 3}), TerminalSet.of(1, 3, 5)))
    @example((Multigraph(6, {(1, 2): 3, (2, 3): 2, (1, 3): 1, (4, 5): 4, (5, 6): 2}),
              TerminalSet.of(1, 3, 5)))
    @settings(max_examples=150, deadline=None)
    def test_candidates_and_packing_match_the_oracles(self, instance):
        # the first example isolates the root, the second splits the target
        graph, target = instance
        assert _steiner_tree_candidates(_neighbours(graph.multiplicities), target) == (
            subtree_steiner_candidates(graph.support_pairs(), target))
        assert steiner_packing(graph, target, mode="exact") == (
            reference_exact_steiner(graph, target))

    @pytest.mark.parametrize("members, count", [
        ((1, 4, 13, 16), 2728), ((1, 4, 6, 13, 16), 4528)])
    def test_grid_candidate_counts(self, members, count):
        candidates = _steiner_tree_candidates(_neighbours(GRID_4X4.multiplicities),
                                              TerminalSet(members))
        assert len(candidates) == len(set(candidates)) == count
        assert candidates == sorted(candidates)

    def test_grid_corners_pack_two_trees(self):
        packing = steiner_packing(GRID_4X4, TerminalSet.of(1, 4, 13, 16), mode="exact")
        assert_valid_packing(packing)
        assert packing.count == 2

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

    def test_exact_long_unit_path_is_bounded_by_the_partition_search(self):
        # 20 terminals: every node asks whether a partition goes below the
        # needed tree count, and the flow from 1 to 2, the split {1} | rest,
        # answers at once
        path = Multigraph(20, {(i, i + 1): 1 for i in range(1, 20)})
        start = time.perf_counter()
        packing = steiner_packing(path, TerminalSet.of(1, 2, 3), mode="exact")
        assert time.perf_counter() - start < 1.0
        assert packing.count == 1
        assert packing.trees[0].pairs() == ((1, 2), (2, 3))

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
        routes = [lambda graph, mode=mode: steiner_packing(graph, TerminalSet(target), mode=mode)
                  for mode in ("exact", "greedy")]
        # the public routes that steiner_packing dispatches to check it too
        if len(target) == 2:
            routes.append(lambda graph: max_disjoint_paths(graph, *target))
        if len(target) == at_cap.m:
            routes.append(spanning_packing)
        for route in routes:
            route(at_cap)
            with pytest.raises(SizeLimitError,
                               match=r"capped at \|E\| = 8 edges; this graph has \|E\| = 9$"):
                route(over)


@st.composite
def threshold_queries(draw):
    """(m, caps, A, need): caps on m = 4..7 vertices, most pairs zero so
    that pendant and series non-targets are common, 3 <= |A| < m, and a
    tree count 1..4 to ask about."""
    m = draw(st.integers(4, 7))
    caps = {pair: draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))
            for pair in itertools.combinations(range(1, m + 1), 2)}
    members = draw(st.lists(st.integers(1, m), min_size=3, max_size=m - 1, unique=True))
    return m, caps, TerminalSet(tuple(members)), draw(st.integers(1, 4))


def least_excess(m: int, caps, target: TerminalSet, need: int) -> int:
    """The least crossing - need * (atoms - 1) over the partitions of 1..m
    with two atoms or more, each meeting the target, by brute force."""
    excess = []
    for partition in brute_partitions(m):
        if len(partition) > 1 and all(atom & set(target) for atom in partition):
            atom_of = {v: k for k, atom in enumerate(partition) for v in atom}
            crossing = sum(c for (i, j), c in caps.items() if atom_of[i] != atom_of[j])
            excess.append(crossing - need * (len(partition) - 1))
    return min(excess)


class TestSteinerBound:
    """The exact search's threshold question, whether some partition holds
    fewer than ``need`` more trees: flows from the least target answer its
    two-atom cases, and the partition search runs on the reduced graph."""

    @given(threshold_queries())
    @example((6, {(1, 2): 2, (2, 3): 1, (3, 4): 3, (4, 5): 1, (5, 6): 1, (1, 6): 0},
              TerminalSet.of(1, 3, 5), 1))
    @settings(max_examples=120, deadline=None)
    def test_reduced_query_answers_as_the_full_one(self, query):
        # the example splices the series vertices 2, 4 and deletes 6
        m, caps, target, need = query
        reduced_m, table, reduced_target = _reduced_graph(_neighbours(caps), target)
        assert reduced_target.members == tuple(range(1, len(target) + 1))
        assert least_excess(reduced_m, table, reduced_target, need) == (
            least_excess(m, caps, target, need))
        full = pinkey.partitions.min_ratio(caps, m, target, below=need)
        reduced = pinkey.partitions.min_ratio(table, reduced_m, reduced_target, below=need)
        assert (full is None) == (reduced is None)

    def test_reduction_shrinks_the_example(self):
        caps = {(1, 2): 2, (2, 3): 1, (3, 4): 3, (4, 5): 1, (5, 6): 1}
        assert _reduced_graph(_neighbours(caps), TerminalSet.of(1, 3, 5)) == (
            3, {(1, 2): 1, (2, 3): 1}, TerminalSet.of(1, 2, 3))

    @given(threshold_queries())
    @settings(max_examples=120, deadline=None)
    def test_pre_check_never_says_yes_where_the_search_finds_nothing(self, query):
        m, caps, target, need = query
        root, *others = target.members
        full = pinkey.partitions.min_ratio(caps, m, target, below=need)
        for t in others:
            value, side = _max_flow(_neighbours(caps), root, t, limit=need, cut=True)
            if value < need:
                # the cut is a two-atom partition below the threshold
                assert root in side and t not in side
                assert sum(c for (i, j), c in caps.items()
                           if (i in side) != (j in side)) == value
                assert full is not None


@st.composite
def greedy_rows(draw):
    """Neighbour rows of a random support on up to 12 vertices, each pair
    present with a drawn probability, and a target of 2 or more terminals:
    sparse draws leave the root isolated or a target unreachable."""
    m = draw(st.integers(3, 12))
    density = draw(st.sampled_from((0.15, 0.3, 0.6, 1.0)))
    counts = {pair: draw(st.integers(1, 3)) for pair in itertools.combinations(range(1, m + 1), 2)
              if draw(st.floats(0, 1)) < density}
    members = draw(st.lists(st.integers(1, m), min_size=2, max_size=m, unique=True))
    return counts, TerminalSet(tuple(sorted(members)))


# root 1; a path 1-2-..-8 to target 8, a star on 9 with leaves 10..16 hung
# from 8, and a second way 1-17-..-22-9 to the star as long as the path:
# attaching the path lowers the star and half the second way at once
PATH_BESIDE_STAR = ({(v, v + 1): 1 for v in range(1, 8)} | {(8, 9): 1}
                    | {(9, leaf): 1 for leaf in range(10, 17)}
                    | {(1, 17): 1, (9, 22): 1} | {(v, v + 1): 1 for v in range(17, 22)})


class TestGreedySteiner:
    """Each greedy tree is taken as many times as its pairs allow; the loop
    that took one tree per search is the oracle."""

    @given(greedy_rows())
    @example(({(2, 3): 1, (3, 4): 2}, TerminalSet.of(1, 3, 4)))  # isolated root
    @example(({(1, 2): 1, (2, 3): 1, (4, 5): 1}, TerminalSet.of(1, 3, 5)))  # unreachable
    @example((PATH_BESIDE_STAR, TerminalSet.of(1, 8, 16)))
    @example((PATH_BESIDE_STAR, TerminalSet.of(1, 8, 12, 16, 20)))
    @settings(max_examples=300, deadline=None)
    def test_tree_matches_a_fresh_bfs_after_each_path(self, case):
        counts, target = case
        rows = _neighbours(counts)
        assert _approx_steiner_tree(rows, target) == reference_approx_steiner_tree(rows, target)

    def test_k96_packs_in_seconds(self):
        # 138,351 edges and 971 groups, A = 1..48; one BFS from the whole tree
        # after each attached path takes 12-14 s on a 2-core Xeon
        graph, target = ladder_steiner_case("greedy_K96")
        start = time.perf_counter()
        packing = steiner_packing(graph, target, mode="greedy")
        elapsed = time.perf_counter() - start
        assert (packing.count, len(packing.groups)) == (1272, 971)
        assert elapsed < 5.0, f"greedy K96 took {elapsed:.2f} s"

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_same_groups_as_one_tree_per_search(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=8, max_mult=rng.choice((2, 9, 40)))
        if graph.m < 4:
            return
        target = random_terminal_set(rng, graph.m, size=rng.randint(3, graph.m - 1))
        packing = steiner_packing(graph, target, mode="greedy")
        assert packing == one_tree_greedy_steiner(graph, target)

    def test_searches_follow_support_changes(self, monkeypatch):
        graph = Multigraph(4, {(1, 2): 50_000, (2, 3): 40_000, (3, 4): 30_000,
                               (1, 4): 20_000, (2, 4): 10_000})
        searches = []
        search = pinkey.packing._approx_steiner_tree
        monkeypatch.setattr(pinkey.packing, "_approx_steiner_tree",
                            lambda caps, target: searches.append(1) or search(caps, target))
        packing = steiner_packing(graph, TerminalSet.of(1, 3, 4), mode="greedy")
        # 20,000 trees 1-4-3, then 10,000 of 1-2-{3, 4} and of 1-2-3-4, each
        # run ending when (1, 4), (2, 4) and (3, 4) run out; then 4 is cut off
        assert [(tree.pairs(), copies) for tree, copies in packing.groups] == [
            (((1, 4), (3, 4)), 20_000), (((1, 2), (2, 3), (2, 4)), 10_000),
            (((1, 2), (2, 3), (3, 4)), 10_000)]
        assert len(searches) == 4


class TestSteinerRate:
    def test_triangle_full_scale_two(self):
        rate = steiner_rate_lower_bound(TRIANGLE_MODEL, TerminalSet.full(3), 2)
        assert rate == Fraction(3, 2)

    def test_path_pair(self):
        rate = steiner_rate_lower_bound(PATH_MODEL, TerminalSet.of(1, 3), 1)
        assert rate == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich_and_divisibility_monotonicity(self, seed, monkeypatch):
        rng = random.Random(seed)
        m = rng.randint(4, 5)
        model = random_small_model(rng, m)
        target = random_terminal_set(rng, m, size=3)
        n0 = base_scale(model)
        # the exact search takes every instance here, the largest in a few ms
        monkeypatch.setattr(pinkey.packing, "STEINER_EXACT_EDGE_CAP",
                            realize_multigraph(model, 2 * n0).total_edges())
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
