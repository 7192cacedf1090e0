"""Explicit tree packings in multigraphs.

Three packing routes, each certified by an independent count:

* edge-disjoint paths between two vertices, from a max-flow whose value is
  the minimum cut (augmenting-path search on the collapsed integer-capacity
  graph, then flow decomposition into distinct paths with multiplicities);
* edge-disjoint spanning trees via matroid-union augmentation (grow k
  forests simultaneously, swapping along exchange chains), with k taken
  from the partition-count formula as the termination certificate; each
  forest is a set of parent pointers, so "does this forest join u and v"
  is two root climbs and a forest path is two climbs toward the root.
  Forest components only merge, so each vertex pair keeps, for the whole
  packing, the least forest that may still separate it; the exchange
  search checks each edge when it is labeled and asks each forest about
  a pair at most once.  The work k·|E| is capped;
* Steiner packings for intermediate target sets: exact by depth-first
  search over edge-disjoint trees, pruned by the partition bound
  ``partitions.min_ratio`` on the remaining capacities (capped, the
  problem is NP-hard), or a deterministic shortest-path greedy that
  lower-bounds the optimum.

Edge copies are assigned canonically (sorted pair, then 0..e_ij-1), so
packings are reproducible run to run.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidPackingError, InvalidTreeError, SizeLimitError
from .model import EdgeRef, Multigraph, Pair, PinModel, TerminalSet, realize_multigraph
from . import partitions
from .partitions import nash_williams_count

STEINER_EXACT_EDGE_CAP = 24
# realized edges on every route, since each route builds one tree per copy
PACKING_EDGE_CAP = 300_000
# trees times edges: each of the |E| insertions may ask all k forests
SPANNING_WORK_CAP = 2 * 10**6


@dataclass(frozen=True)
class Tree:
    """A tree subgraph, edges named as (i, j, copy) into the parallel edges;
    ``walk`` holds (speaker, edge) per further edge, breadth-first from the
    least edge, the speaker being the endpoint reached first."""

    edges: tuple[EdgeRef, ...]
    walk: tuple[tuple[int, EdgeRef], ...] = field(init=False, compare=False, repr=False)
    _vertices: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        edges = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise InvalidTreeError("a tree needs at least one edge")
        if len(set(edges)) != len(edges):
            raise InvalidTreeError("duplicate edge in tree")
        incident: dict[int, list[EdgeRef]] = {}
        for edge in edges:
            i, j, copy = edge
            if not (1 <= i < j) or copy < 0:
                raise InvalidTreeError(f"malformed edge ({i}, {j}, {copy})")
            incident.setdefault(i, []).append(edge)
            incident.setdefault(j, []).append(edge)
        order = list(edges[0][:2])
        seen = set(order)
        walk = []
        for speaker in order:  # grows while read: breadth-first
            for edge in incident[speaker]:
                listener = edge[1] if edge[0] == speaker else edge[0]
                if listener not in seen:
                    seen.add(listener)
                    order.append(listener)
                    walk.append((speaker, edge))
        if len(incident) != len(edges) + 1 or len(walk) != len(edges) - 1:
            raise InvalidTreeError("edges do not form a connected acyclic graph")
        object.__setattr__(self, "walk", tuple(walk))
        object.__setattr__(self, "_vertices", tuple(sorted(incident)))

    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def pairs(self) -> tuple[Pair, ...]:
        return tuple((i, j) for (i, j, _) in self.edges)


@dataclass(frozen=True)
class TreePacking:
    """Pairwise edge-disjoint trees, each spanning the target set."""

    graph: Multigraph
    target: TerminalSet
    trees: tuple[Tree, ...]

    def __post_init__(self) -> None:
        self.target.validate_within(self.graph.m)
        used: set[EdgeRef] = set()
        for index, tree in enumerate(self.trees):
            vertices = tree.vertices()
            missing = [t for t in self.target if t not in vertices]
            if missing:
                raise InvalidPackingError(
                    f"tree {index} misses target terminals {missing}"
                )
            for edge in tree.edges:
                i, j, copy = edge
                if copy >= self.graph.multiplicity(i, j):
                    raise InvalidPackingError(
                        f"tree {index} uses copy {copy} of pair ({i}, {j}) "
                        f"but the graph has {self.graph.multiplicity(i, j)}"
                    )
                if edge in used:
                    raise InvalidPackingError(f"edge {edge} used twice")
                used.add(edge)

    @property
    def count(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# Paths between two terminals (max-flow / min-cut)
# ---------------------------------------------------------------------------


def _max_flow(graph: Multigraph, s: int, t: int) -> tuple[int, dict]:
    """Integer max flow s->t; returns (value, {u: {v: net units u->v > 0}})."""
    residual: dict[int, dict[int, int]] = {v: {} for v in range(1, graph.m + 1)}
    for (i, j), count in graph.multiplicities.items():
        if count:
            residual[i][j] = count
            residual[j][i] = count
    value = 0
    while True:
        parent: dict[int, int | None] = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in sorted(residual[u]):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            break
        path = []
        v = t
        while parent[v] is not None:
            u = parent[v]
            path.append((u, v))
            v = u
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        value += push
    flow: dict[int, dict[int, int]] = {v: {} for v in range(1, graph.m + 1)}
    for (i, j), count in graph.multiplicities.items():
        if count:
            sent = count - residual[i][j]
            if sent > 0:
                flow[i][j] = sent
            elif sent < 0:
                flow[j][i] = -sent
    return value, flow


def min_cut(graph: Multigraph, s: int, t: int) -> int:
    """Minimum number of edges whose removal separates s from t."""
    if s == t:
        raise ValueError("cut endpoints must differ")
    for v in (s, t):
        if not 1 <= v <= graph.m:
            raise ValueError(f"vertex {v} outside 1..{graph.m}")
    return _max_flow(graph, s, t)[0]


def _walk_path(flow: dict[int, dict[int, int]], s: int, t: int) -> tuple[list, int]:
    """(path, units): the next s->t path along positive flow, taken off it by
    its bottleneck, after cancelling each cycle met by the cycle's bottleneck.
    No step's choice changes while its edge keeps flow, so a walk one unit at
    a time would repeat each cycle and the path that many times."""
    path = [s]
    position = {s: 0}
    while path[-1] != t:
        v = path[-1]
        w = min(u for u, units in flow[v].items() if units > 0)
        if w in position:
            _cancel(flow, path[position[w]:] + [w])
            for dropped in path[position[w] + 1:]:
                del position[dropped]
            del path[position[w] + 1:]
            continue
        position[w] = len(path)
        path.append(w)
    return path, _cancel(flow, path)


def _cancel(flow: dict[int, dict[int, int]], walk: list[int]) -> int:
    """Take the walk's bottleneck off each of its edges and return it."""
    units = min(flow[a][b] for a, b in zip(walk, walk[1:]))
    for a, b in zip(walk, walk[1:]):
        flow[a][b] -= units
    return units


def max_disjoint_paths(graph: Multigraph, s: int, t: int) -> TreePacking:
    """A maximum collection of edge-disjoint s-t paths; its size equals
    the minimum cut."""
    if s == t:
        raise ValueError("path endpoints must differ")
    target = TerminalSet.of(s, t)
    target.validate_within(graph.m)
    value, flow = _max_flow(graph, s, t)
    chosen = []
    walked = 0
    while walked < value:
        path, units = _walk_path(flow, s, t)
        chosen.append((tuple((a, b) if a < b else (b, a)
                             for a, b in zip(path, path[1:])), units))
        walked += units
    if walked != value:
        raise AssertionError(f"paths carry {walked} units, the flow {value}")
    return _assign_copies(graph, target, chosen)


# ---------------------------------------------------------------------------
# Spanning trees (matroid union)
# ---------------------------------------------------------------------------


class _Forest:
    """Mutable forest on 1..m: parent[v] = (next vertex toward v's root, edge)."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[int, tuple[int, EdgeRef]] = {}

    def edges(self) -> list[EdgeRef]:
        return [edge for _, edge in self.parent.values()]

    def path_edges(self, u: int, v: int) -> list[EdgeRef] | None:
        """Edges of the unique u-v path from v's end, or None if disconnected."""
        parent = self.parent
        depth = {u: 0}
        climb = []
        x = u
        while x in parent:
            x, edge = parent[x]
            climb.append(edge)
            depth[x] = len(climb)
        path = []
        x = v
        while x not in depth:
            if x not in parent:
                return None
            x, edge = parent[x]
            path.append(edge)
        path.extend(reversed(climb[:depth[x]]))
        return path

    def joins(self, u: int, v: int) -> bool:
        """Whether u and v lie in one tree: both climb to the same root."""
        parent = self.parent
        while u in parent:
            u = parent[u][0]
        while v in parent:
            v = parent[v][0]
        return u == v

    def add(self, edge: EdgeRef) -> None:
        i, j = edge[0], edge[1]
        if self.joins(i, j):
            raise AssertionError(f"adding {edge} would close a cycle")
        x, link = i, (j, edge)  # re-root i's tree at i, then hang i below j
        while True:
            up = self.parent.get(x)
            self.parent[x] = link
            if up is None:
                return
            link = (x, up[1])
            x = up[0]

    def remove(self, edge: EdgeRef) -> None:
        for child in edge[:2]:
            if child in self.parent and self.parent[child][1] == edge:
                del self.parent[child]
                return
        raise AssertionError(f"edge {edge} is not in this forest")


def _open_forest(
    forests: list[_Forest], pair: Pair, open_from: dict[Pair, int]
) -> int | None:
    """The least forest that separates pair, or None if every forest joins it.

    Forests below ``open_from[pair]`` are known to join the pair.  That
    stays true for the whole packing, because a forest's components only
    merge (see ``_augment``), so the pointer only moves forward.
    """
    index = open_from.get(pair, 0)
    u, v = pair
    while index < len(forests) and forests[index].joins(u, v):
        index += 1
    open_from[pair] = index
    return index if index < len(forests) else None


def _augment(
    forests: list[_Forest],
    new_edge: EdgeRef,
    open_from: dict[Pair, int],
) -> bool:
    """Insert new_edge into the forest union via exchange chains.

    Breadth-first labeling over forest edges: a dequeued edge x labels the
    edges on its path in each forest, in forest order; the search succeeds
    at the first labeled edge that some forest separates, which goes into
    the least such forest, and the swaps are unwound back to new_edge.
    Returns False when the edge lies in the span of every forest (a full
    clump).  Three facts keep the forest queries few:

    * A forest's components only merge.  A direct add joins two of them.
      A swap puts in an edge whose endpoints the forest already joins and
      takes out an edge of the path between them, so the components stay
      as they were.  Hence "the least forest that may separate pair p" only
      moves forward, and ``open_from`` keeps it per pair across the whole
      packing (``_open_forest``).
    * The exchange can be found when an edge is labeled.  Forests do not
      change during the search, so the first labeled edge, in FIFO order,
      that has a separating forest is where the search succeeds; each edge
      is checked as soon as it is labeled, not when it is dequeued.
    * Only the first labeled edge of a vertex pair matters.  A parallel
      copy has the same endpoints, hence no separating forest either and
      the same path in every forest, which the first copy labels when it
      is dequeued.  So each pair is labeled, checked and dequeued at most
      once per search, and each forest is asked about it once.
    """
    parent: dict[EdgeRef, tuple[EdgeRef, int] | None] = {new_edge: None}
    index = _open_forest(forests, new_edge[:2], open_from)
    if index is not None:
        _unwind(forests, parent, new_edge, index)
        return True
    labeled = {new_edge[:2]}  # vertex pairs
    queue = deque([new_edge])
    while queue:
        x = queue.popleft()
        for i, forest in enumerate(forests):
            for y in forest.path_edges(x[0], x[1]):
                pair = y[:2]
                if pair not in labeled:
                    labeled.add(pair)
                    parent[y] = (x, i)
                    index = _open_forest(forests, pair, open_from)
                    if index is not None:
                        _unwind(forests, parent, y, index)
                        return True
                    queue.append(y)
    return False


def _unwind(
    forests: list[_Forest],
    parent: Mapping[EdgeRef, tuple[EdgeRef, int] | None],
    current: EdgeRef,
    index: int,
) -> None:
    """Put current into forest index, then swap each labeled edge into the
    forest that labeled it, in place of its label, back to the new edge."""
    forests[index].add(current)
    entry = parent[current]
    while entry is not None:
        prev_edge, holder = entry
        forests[holder].remove(current)
        forests[holder].add(prev_edge)
        current = prev_edge
        entry = parent[current]


def spanning_packing(graph: Multigraph) -> TreePacking:
    """A maximum packing of edge-disjoint spanning trees; its size equals
    the partition-count formula."""
    if graph.m < 2:
        raise ValueError("spanning packing needs at least two vertices")
    target = TerminalSet.full(graph.m)
    certified = nash_williams_count(graph)
    total_edges = graph.total_edges()
    if certified * total_edges > SPANNING_WORK_CAP:
        raise SizeLimitError(
            f"spanning packing is capped at k*|E| = {SPANNING_WORK_CAP}; this "
            f"graph has k = {certified} trees and |E| = {total_edges} edges, "
            f"k*|E| = {certified * total_edges}"
        )
    if certified == 0:
        return TreePacking(graph=graph, target=target, trees=())
    forests = [_Forest() for _ in range(certified)]
    goal = certified * (graph.m - 1)
    total = 0
    dead_pairs: set[Pair] = set()
    open_from: dict[Pair, int] = {}
    for edge in graph.edge_refs():
        if total == goal:
            break
        pair = (edge[0], edge[1])
        if pair in dead_pairs:
            continue  # parallel copies share a span; once blocked, always blocked
        if _augment(forests, edge, open_from):
            total += 1
        else:
            dead_pairs.add(pair)
    if total != goal:
        raise AssertionError(
            f"matroid union packed {total} edges, expected {goal}"
        )
    trees = tuple(Tree(tuple(f.edges())) for f in forests)
    return TreePacking(graph=graph, target=target, trees=trees)


# ---------------------------------------------------------------------------
# Steiner packings for intermediate target sets
# ---------------------------------------------------------------------------


def _support_adjacency(pairs: Iterable[Pair]) -> dict[int, list[int]]:
    adjacency: dict[int, list[int]] = {}
    for (i, j) in pairs:
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    for v in adjacency:
        adjacency[v].sort()
    return adjacency


def _approx_steiner_tree(
    caps: Mapping[Pair, int], target: TerminalSet
) -> tuple[Pair, ...] | None:
    """One cheap tree over pairs with remaining capacity, or None when the
    target is no longer connected.  Nearest-terminal shortest paths with
    lexicographic tie-breaks keep the choice deterministic."""
    support = [p for p, c in caps.items() if c > 0]
    adjacency = _support_adjacency(support)
    root = min(target)
    in_tree = {root}
    tree_pairs: set[Pair] = set()
    pending = [t for t in target if t != root]
    while pending:
        # BFS layers from the current tree
        dist = {v: 0 for v in in_tree}
        queue = deque(sorted(in_tree))
        while queue:
            v = queue.popleft()
            for w in adjacency.get(v, ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        # the tree stays in the root's component: only the first search can miss
        if any(t not in dist for t in pending):
            return None
        goal = min(pending, key=lambda t: (dist[t], t))
        path = [goal]
        while dist[path[-1]] > 0:
            v = path[-1]
            step = min(
                w for w in adjacency[v] if dist.get(w, -1) == dist[v] - 1
            )
            path.append(step)
        path.reverse()
        for a, b in zip(path, path[1:]):
            tree_pairs.add((a, b) if a < b else (b, a))
            in_tree.add(b)
        pending = [t for t in pending if t not in in_tree]
    return tuple(sorted(tree_pairs))


def _assign_copies(
    graph: Multigraph, target: TerminalSet, chosen: list[tuple[tuple[Pair, ...], int]]
) -> TreePacking:
    """``copies`` trees per (pairs, copies) entry, edge copies numbered up."""
    used: Counter = Counter()
    trees = []
    for pairs, copies in chosen:
        for _ in range(copies):
            edges = []
            for pair in pairs:
                edges.append((pair[0], pair[1], used[pair]))
                used[pair] += 1
            trees.append(Tree(tuple(edges)))
    return TreePacking(graph=graph, target=target, trees=tuple(trees))


def _greedy_steiner(graph: Multigraph, target: TerminalSet) -> TreePacking:
    caps = dict(graph.multiplicities)
    chosen: list[tuple[tuple[Pair, ...], int]] = []
    while True:
        tree_pairs = _approx_steiner_tree(caps, target)
        if tree_pairs is None:
            break
        for pair in tree_pairs:
            caps[pair] -= 1
        chosen.append((tree_pairs, 1))
    return _assign_copies(graph, target, chosen)


def _steiner_tree_candidates(
    support: Iterable[Pair], target: TerminalSet, m: int
) -> list[tuple[Pair, ...]]:
    """Every minimal Steiner tree over the support pairs, each exactly once.

    Trees grow from the least target terminal one leaf at a time; banning
    earlier siblings before each recursive call makes the enumeration
    duplicate-free.  Minimality (every leaf a target) is forced because a
    tree already covering the target cannot shed a non-target leaf by
    growing further.
    """
    pair_neighbors: dict[int, list[Pair]] = {}
    for pair in sorted(support):
        pair_neighbors.setdefault(pair[0], []).append(pair)
        pair_neighbors.setdefault(pair[1], []).append(pair)
    targets = set(target)
    root = min(target)
    found: list[tuple[Pair, ...]] = []

    def rec(tree: frozenset[Pair], vertices: frozenset[int],
            banned: frozenset[Pair]) -> None:
        if targets <= vertices:
            degree: Counter = Counter()
            for (i, j) in tree:
                degree[i] += 1
                degree[j] += 1
            if all(v in targets for v, d in degree.items() if d == 1):
                found.append(tuple(sorted(tree)))
            return
        extensions = sorted(
            {
                pair
                for v in vertices
                for pair in pair_neighbors.get(v, ())
                if pair not in banned
                and ((pair[0] in vertices) != (pair[1] in vertices))
            }
        )
        blocked = banned
        for pair in extensions:
            new_vertex = pair[1] if pair[0] in vertices else pair[0]
            rec(tree | {pair}, vertices | {new_vertex}, blocked)
            blocked = blocked | {pair}

    rec(frozenset(), frozenset({root}), frozenset())
    return sorted(found)


def _bound_partitions(m: int, target: TerminalSet) -> list[partitions.Partition]:
    """Partitions used for the packing upper bound during exact search.

    Any subset of qualifying partitions yields a valid (weaker) bound, so
    for larger m only the two-atom splits are used: those qualifying for
    {a0, b}, with a0 the least target terminal and b any other.
    """
    if m <= 8:
        return list(partitions.enumerate_partitions(m, target, cap=m))
    a0 = target.members[0]
    return list(dict.fromkeys(
        split
        for b in target.members[1:]
        for split in partitions.enumerate_partitions(m, TerminalSet.of(a0, b), cap=m)
    ))


def _exact_steiner(
    graph: Multigraph, target: TerminalSet, edge_cap: int
) -> TreePacking:
    total = graph.total_edges()
    if total > edge_cap:
        raise SizeLimitError(
            f"exact Steiner packing is capped at {edge_cap} edges; "
            f"this graph has {total} (use greedy mode)"
        )
    candidates = _steiner_tree_candidates(graph.support_pairs(), target, graph.m)
    bound_partitions = _bound_partitions(graph.m, target)
    caps = dict(graph.multiplicities)

    greedy = _greedy_steiner(graph, target)
    best_count = greedy.count
    best_choice = [(t.pairs(), 1) for t in greedy.trees]
    chosen: list[int] = []

    def dfs(start: int, count: int) -> None:
        nonlocal best_count, best_choice
        # cuts only subtrees that cannot beat best_count, so the packing
        # found does not depend on which valid bound is used
        bound = partitions.min_ratio(caps, bound_partitions)[0]
        if count + math.floor(bound) <= best_count:
            return
        for index in range(start, len(candidates)):
            pairs = candidates[index]
            if all(caps[p] > 0 for p in pairs):
                for p in pairs:
                    caps[p] -= 1
                chosen.append(index)
                if count + 1 > best_count:
                    best_count = count + 1
                    best_choice = [(candidates[k], 1) for k in chosen]
                dfs(index, count + 1)
                chosen.pop()
                for p in pairs:
                    caps[p] += 1

    dfs(0, 0)
    return _assign_copies(graph, target, best_choice)


def steiner_packing(
    graph: Multigraph,
    target: TerminalSet,
    mode: str = "exact",
    edge_cap: int = STEINER_EXACT_EDGE_CAP,
) -> TreePacking:
    """Edge-disjoint trees spanning the target set.

    Two-terminal targets reduce to path packing and full targets to
    spanning-tree packing (both exact in either mode).  In between, exact
    mode searches exhaustively under the edge cap while greedy mode returns
    a valid packing of at most the maximum size.
    """
    target.validate_within(graph.m)
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown packing mode {mode!r}")
    if graph.total_edges() > PACKING_EDGE_CAP:
        raise SizeLimitError(f"tree packing is capped at |E| = {PACKING_EDGE_CAP} "
                             f"edges; this graph has |E| = {graph.total_edges()}")
    if len(target) == 2:
        return max_disjoint_paths(graph, target.members[0], target.members[1])
    if len(target) == graph.m:
        return spanning_packing(graph)
    if mode == "greedy":
        return _greedy_steiner(graph, target)
    return _exact_steiner(graph, target, edge_cap)


def steiner_rate_lower_bound(
    model: PinModel,
    target: TerminalSet,
    n: int,
    mode: str = "exact",
    edge_cap: int = STEINER_EXACT_EDGE_CAP,
) -> Fraction:
    """Packing count over blocklength at scale n; in exact mode this never
    exceeds the capacity."""
    graph = realize_multigraph(model, n)
    packing = steiner_packing(graph, target, mode=mode, edge_cap=edge_cap)
    return Fraction(packing.count, n)
