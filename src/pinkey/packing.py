"""Explicit tree packings in multigraphs.

Three packing routes, each certified by an independent count:

* edge-disjoint paths between two vertices, from a max-flow whose value is
  the minimum cut (augmenting-path search on the collapsed integer-capacity
  graph, then flow decomposition into distinct paths with multiplicities).
  The one flow routine, ``_max_flow``, runs on neighbour rows over any
  vertex set, can stop at a limit and can return a min cut's source side,
  so the exact Steiner bound asks it too;
* edge-disjoint spanning trees via matroid-union augmentation (grow k
  forests simultaneously, swapping along exchange chains).  k is first
  b = min(least degree, floor(|E| / (m - 1))), the floor ratio of a named
  partition ({v} | rest, or all singletons), so b bounds the count and
  packing b trees certifies it; the union stops once b is out of reach,
  and only then is k taken from the partition-count formula.  The k
  forests are kept as runs of shifted copies of one forest, which become
  the (tree, copies) groups; two runs join when their forests' copy
  numbers, less their runs' starts, agree pair by pair.  Each forest is a
  set of parent pointers, so "does this forest join u and v" is two root
  climbs and a forest path is two climbs toward the root.  Pairs are
  inserted in canonical order: the least run that separates a pair takes
  as many of its copies as it has members, and only a copy that no run
  separates runs the exchange search, which asks each distinct forest
  pair set once per labeled pair.  A search that ends in one swap places
  the next copies too, each by that swap shifted into the next members of
  both runs it touched.  Forest components only merge, so each vertex
  pair keeps, for the whole packing, the least forest that may still
  separate it.  The work k·|E| is capped by ``SPANNING_WORK_CAP``;
* Steiner packings for intermediate target sets: exact by depth-first
  search over edge-disjoint minimal Steiner trees, listed by attaching one
  path per target terminal, pruned by the partition bound on the
  remaining capacities, asked as a threshold question on entry and again
  after a child improves the incumbent (capped by
  ``STEINER_EXACT_EDGE_CAP``, the problem is NP-hard).  Flows from the
  least target, stopped at the threshold, answer for the two-atom
  partitions; only when every flow reaches it does
  ``partitions.min_ratio`` run, on the graph reduced by deleting pendant
  non-targets and splicing each degree-2 non-target into one edge.  The
  other mode is a deterministic shortest-path greedy that lower-bounds the
  optimum and is the search's incumbent; it takes each tree as many
  times as its pairs allow, so its searches follow the support's changes,
  each one BFS whose distances are lowered after each attached path.

The flow core, the Steiner reduction and both Steiner searches read one
graph form, built by ``_neighbours`` alone: neighbour rows ``{v: {w: count}}``
over the positive pairs, each row ascending, the order every search reads.

Every route is capped at ``PACKING_EDGE_CAP`` realized edges.  Each cap is
a module constant, read when its check runs.

Edge copies are assigned canonically (sorted pair, then 0..e_ij-1), so
packings are reproducible run to run.  A packing is a tuple of (tree,
copies) groups: consecutive equal trees of a route share one group, and
copy k of a group is its tree with every edge's copy number raised by k.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .errors import InvalidPackingError, InvalidTreeError, SizeLimitError
from .model import EdgeRef, Multigraph, Pair, PinModel, TerminalSet, realize_multigraph
from . import partitions
from .partitions import nash_williams_count
from .value import Value, View

STEINER_EXACT_EDGE_CAP = 24
# realized edges on every route: a packing holds one tree per group, but
# ``pack`` and ``simulate`` still print every copy and every broadcast
PACKING_EDGE_CAP = 300_000
# trees times edges: when every forest has its own shape, each of the |E|
# insertions may still ask all k forests; runs of shifted forests make the
# usual cost follow distinct pairs and shapes instead
SPANNING_WORK_CAP = 2 * 10**6
_FLIP_BYTE = bytes([1, 0]) + bytes(254)  # bytes.translate table: 0 <-> 1


def is_edge_ref(edge: object) -> bool:
    """True for an edge name, a triple of ints (i, j, copy) with 1 <= i < j
    and copy >= 0; type(), not isinstance: a bool is no int."""
    if not isinstance(edge, tuple) or len(edge) != 3:
        return False
    i, j, copy = edge
    return type(i) is type(j) is type(copy) is int and 1 <= i < j and copy >= 0


class Tree(Value):
    """A tree subgraph, edges named as (i, j, copy) into the parallel edges;
    ``walk`` holds (speaker, edge) per further edge, breadth-first from the
    least edge, the speaker being the endpoint reached first.  Equality and
    repr read ``edges`` alone."""

    edges: tuple[EdgeRef, ...]
    walk: tuple[tuple[int, EdgeRef], ...]
    _vertices: tuple[int, ...]

    def __init__(self, edges: tuple[EdgeRef, ...]) -> None:
        for edge in edges:  # before sorting: a bool or float compares as a number
            if not is_edge_ref(edge):
                raise InvalidTreeError(f"malformed edge {edge!r}")
        edges = tuple(sorted(edges))
        if not edges:
            raise InvalidTreeError("a tree needs at least one edge")
        if len(set(edges)) != len(edges):
            raise InvalidTreeError("duplicate edge in tree")
        incident: dict[int, list[EdgeRef]] = {}
        for edge in edges:
            incident.setdefault(edge[0], []).append(edge)
            incident.setdefault(edge[1], []).append(edge)
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
        self._store(edges=edges, walk=tuple(walk), _vertices=tuple(sorted(incident)))

    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def pairs(self) -> tuple[Pair, ...]:
        return tuple((i, j) for (i, j, _) in self.edges)


class TreePacking(Value):
    """Pairwise edge-disjoint trees, each spanning the target set, kept as
    (tree, copies) groups.  Copy k of a group is its tree with every edge's
    copy number raised by k, so edge (i, j, c + k) sits at canonical index
    ``graph.pair_offsets()[(i, j)] + c + k`` and a group's copies of one
    edge fill one index range."""

    graph: Multigraph
    target: TerminalSet
    groups: tuple[tuple[Tree, int], ...]

    def __init__(self, graph: Multigraph, target: TerminalSet,
                 groups: Iterable[tuple[Tree, int]]) -> None:
        target.validate_within(graph.m)
        checked = []
        multiplicities = graph.multiplicities
        offsets = graph.pair_offsets()
        used = bytearray(graph.total_edges())
        members = frozenset(target)
        first = 0  # per-copy index of the group's first tree
        for tree, copies in groups:
            if type(copies) is not int or copies < 1:
                raise InvalidPackingError(
                    f"tree {first} needs a positive copy count, got {copies!r}")
            vertices = tree.vertices()
            if not members.issubset(vertices):
                missing = [t for t in target if t not in vertices]
                raise InvalidPackingError(
                    f"tree {first} with reference edge {tree.edges[0]} "
                    f"misses target terminals {missing}")
            for i, j, copy in tree.edges:
                have = multiplicities.get((i, j), 0)
                if copy + copies > have:
                    past = max(copy, have)
                    raise InvalidPackingError(
                        f"tree {first + past - copy} uses edge {(i, j, past)} "
                        f"but the graph has {have} copies of pair ({i}, {j})")
                start = offsets[(i, j)] + copy
                clash = used.find(1, start, start + copies)
                if clash >= 0:
                    raise InvalidPackingError(
                        f"edge {(i, j, copy + clash - start)} used twice")
                used[start:start + copies] = b"\x01" * copies
            checked.append((tree, copies))
            first += copies
        # kept outside the fields, like ``Multigraph.edge_refs``
        self._store(graph=graph, target=target, groups=tuple(checked),
                    _residual_mask=bytes(used.translate(_FLIP_BYTE)))

    @property
    def count(self) -> int:
        return sum(copies for _, copies in self.groups)

    def residual_mask(self) -> bytes:
        """One byte per edge in canonical order: 1 where no tree uses the
        edge, from the marks of the packing check."""
        return self._residual_mask

    @property
    def trees(self) -> Sequence[Tree]:
        """The trees one per copy, in group order; each is built when read,
        so prefer ``groups`` and ``count`` on large packings."""
        groups = self.groups
        starts = list(accumulate((copies for _, copies in groups), initial=0))

        def tree(position: int) -> Tree:
            group = bisect_right(starts, position) - 1
            shift = position - starts[group]
            return Tree(tuple((i, j, c + shift) for i, j, c in groups[group][0].edges))

        return View(starts[-1], tree)


def _check_edge_cap(graph: Multigraph) -> None:
    """Refuse a graph over ``PACKING_EDGE_CAP`` realized edges."""
    if graph.total_edges() > PACKING_EDGE_CAP:
        raise SizeLimitError(f"tree packing is capped at |E| = {PACKING_EDGE_CAP} "
                             f"edges; this graph has |E| = {graph.total_edges()}")


# ---------------------------------------------------------------------------
# Paths between two terminals (max-flow / min-cut)
# ---------------------------------------------------------------------------


_Rows = dict[int, dict[int, int]]


def _neighbours(table: Mapping[Pair, int]) -> _Rows:
    """Neighbour rows {v: {w: count}} of a pair table's positive pairs, each
    in both rows; a sorted table, as a ``Multigraph``'s, gives ascending rows."""
    rows: _Rows = {}
    for (i, j), count in table.items():
        if count > 0:
            rows.setdefault(i, {})[j] = count
            rows.setdefault(j, {})[i] = count
    return rows


def _max_flow(rows: _Rows, s: int, t: int, limit: int | None = None,
              cut: bool = False) -> tuple[int, dict | set | None]:
    """Integer max flow s->t over undirected pairs, given as neighbour rows
    of integer capacities on any vertices; the rows are copied as the
    residual graph.  Augmenting paths are shortest, each row read in its
    ascending order, so the flow found, and the path route's decomposition
    of it, are fixed.  With ``limit`` the search stops once the value
    reaches it, so a value below ``limit`` is the max flow.

    Returns (value, {u: {v: net units u->v > 0}}), read off the residual
    rows; with ``cut``, (value, the source side of a min cut: the vertices
    the residual graph still reaches from s), the side None when ``limit``
    stopped the search."""
    residual = {s: {}, t: {}} | {v: dict(row) for v, row in rows.items()}
    value = 0
    while True:
        parent: dict[int, int | None] = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, units in residual[u].items():
                if units > 0 and v not in parent:
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
        if limit is not None and value >= limit:
            break
    if cut:
        return value, None if t in parent else set(parent)
    flow: _Rows = {v: {} for v in residual}
    for u, row in rows.items():
        left, sent = residual[u], flow[u]
        for v, count in row.items():
            if left[v] < count:
                sent[v] = count - left[v]
    return value, flow


def min_cut(graph: Multigraph, s: int, t: int) -> int:
    """Minimum number of edges whose removal separates s from t."""
    if s == t:
        raise ValueError("cut endpoints must differ")
    TerminalSet.of(s, t).validate_within(graph.m)
    return _max_flow(_neighbours(graph.multiplicities), s, t, cut=True)[0]


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
    _check_edge_cap(graph)
    if s == t:
        raise ValueError("path endpoints must differ")
    target = TerminalSet.of(s, t)
    target.validate_within(graph.m)
    value, flow = _max_flow(_neighbours(graph.multiplicities), s, t)
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
    """Mutable forest on 1..m: parent[v] = (next vertex toward v's root, edge).
    A forest holds at most one edge per pair; ``rel`` maps each pair to its
    edge's copy number minus the forest's place in the packing, the index
    ``add`` is given, so its keys are the forest's pair set.  ``pairs``
    keeps that set as a frozenset from its first read until the next add or
    remove, and a shifted copy shares it."""

    __slots__ = ("parent", "rel", "_pairs")

    def __init__(self) -> None:
        self.parent: dict[int, tuple[int, EdgeRef]] = {}
        self.rel: dict[Pair, int] = {}
        self._pairs: frozenset[Pair] | None = None

    def pairs(self) -> frozenset[Pair]:
        """The forest's pair set, the keys of ``rel``."""
        if self._pairs is None:
            self._pairs = frozenset(self.rel)
        return self._pairs

    def edges(self) -> list[EdgeRef]:
        return [edge for _, edge in self.parent.values()]

    def shifted(self, by: int) -> _Forest:
        """A copy ``by`` places later with every edge's copy number raised by
        ``by``, so with the same ``rel``."""
        copy = _Forest()
        copy.parent = {v: (up, (i, j, c + by)) for v, (up, (i, j, c)) in self.parent.items()}
        copy.rel = self.rel.copy()
        copy._pairs = self._pairs
        return copy

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

    def add(self, edge: EdgeRef, index: int) -> None:
        i, j = edge[0], edge[1]
        if self.joins(i, j):
            raise AssertionError(f"adding {edge} would close a cycle")
        self.rel[(i, j)] = edge[2] - index
        self._pairs = None
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
                del self.rel[edge[:2]]
                self._pairs = None
                return
        raise AssertionError(f"edge {edge} is not in this forest")


class _ForestRuns:
    """The k forests of a spanning packing as runs of shifted copies.

    Run r is ``forests[r]`` and its shifts by 1, 2, ...: forest
    ``starts[r] + t`` of the packing is ``forests[r]`` with every edge's
    copy number raised by t, up to the next start (``starts[-1]`` is k).
    A run is split where one of its forests changes, and after each insert
    a run that continues the shift of the run before it joins it, so the
    runs stay maximal and few.  Forest indices name the same forests
    throughout; only the runs that hold them change.  The ``rel`` of each
    ``forests[r]`` counts copy numbers from ``starts[r]``: an add passes
    that start, a split shifts the new forest by the gap to its new start
    and a join drops the later run's, so a run continues the shift of the
    run before it exactly when the two forests' ``rel`` maps are equal.

    Four facts keep the forest queries few:

    * A forest's components only merge.  A direct add joins two of them.
      A swap puts in an edge whose endpoints the forest already joins and
      takes out an edge of the path between them, so the components stay
      as they were.  Hence "the least forest that may separate pair p"
      only moves forward, and ``open_from`` keeps it per pair across the
      whole packing (``open_run``).
    * The members of a run have one pair set, hence one set of components,
      so one ``joins`` answers for the run, and a direct fit of c parallel
      copies puts copy t into member t of the least separating run, as one
      copy at a time would: each member then joins the pair, the next not.
    * An exchange search labels vertex pairs.  A forest whose pair set
      equals an earlier forest's has the same path, as pairs, so it labels
      nothing new and is asked only once per dequeued edge.
    * One swap places a run of copies.  Say the search for edge e, of
      pair u-v, labels y straight from e in h, the first member of run H,
      and T is the least run that separates y's pair.  For every t < L =
      min(copies asked for, |H|, |T|), putting e + t in place of y + t in
      member h + t and y + t into member T + t is what the search for copy
      t does after copies 0 .. t-1.  Every run still joins u and v.  The
      members before h + t keep their u-v paths, as pairs: T's changed
      members gained y, which joined two components other than u and v's,
      and H's changed members have the pair u-v as their whole path, so
      they label nothing new.  Hence the same pairs are labeled in the same
      order, still none separated by any run (components only merge), and
      y's pair is first labeled in member h + t.  Its pair set S_H is no
      earlier member's: not S_H - y + e of H's changed members, nor that
      of T's, whose u-v path misses y.  T's changed members join y's pair
      and member T + t does not, so y + t goes there.
    """

    __slots__ = ("forests", "starts", "open_from")

    def __init__(self, k: int) -> None:
        self.forests = [_Forest()]
        self.starts = [0, k]
        self.open_from: dict[Pair, int] = {}

    def split(self, r: int, n: int) -> None:
        """Make the first n > 0 members of run r a run of their own."""
        start, end = self.starts[r], self.starts[r + 1]
        if start + n < end:
            self.forests.insert(r + 1, self.forests[r].shifted(n))
            self.starts.insert(r + 1, start + n)

    def open_run(self, pair: Pair) -> int | None:
        """The least run that separates pair, or None if every run joins it."""
        forests, starts = self.forests, self.starts
        # forests below the pointer join the pair; a run the pointer falls
        # inside has joining members, hence joins the pair in every member
        r = bisect_left(starts, self.open_from.get(pair, 0))
        u, v = pair
        while r < len(forests) and forests[r].joins(u, v):
            r += 1
        self.open_from[pair] = starts[r]
        return r if r < len(forests) else None

    def insert(self, edge: EdgeRef, most: int) -> int:
        """Put in edge and, with it, up to ``most`` - 1 of the next copies of
        its pair; returns how many went in, 0 when the edge lies in the span
        of every forest (a full clump)."""
        r = self.open_run(edge[:2])
        if r is None:
            placed, changed = self._augment(edge, most)
        else:
            placed = min(most, self.starts[r + 1] - self.starts[r])
            self.split(r, placed)
            self.forests[r].add(edge, self.starts[r])
            changed = (self.starts[r],)
        self._merge(changed)
        return placed

    def _merge(self, changed: Iterable[int]) -> None:
        """Join each run that continues the shift of the run before it,
        looking only at the two boundaries of each run that starts at a
        forest index in ``changed``.  Every other boundary lies between
        runs whose forests the insert left as they were (a split's tail is
        its run shifted), so they still do not join.  A joined run meets its
        next neighbour at once, and that boundary is checked in turn."""
        forests, starts = self.forests, self.starts
        k = starts[-1]
        boundaries = set()
        for start in changed:
            r = bisect_left(starts, start)
            boundaries.update((start, starts[r + 1]))
        for boundary in sorted(boundaries):
            r = bisect_left(starts, boundary)
            if not 0 < boundary < k or starts[r] != boundary:
                continue  # the packing's ends, or a run already joined
            while r < len(forests) and forests[r - 1].rel == forests[r].rel:
                del forests[r], starts[r]

    def _augment(self, new_edge: EdgeRef, most: int) -> tuple[int, Iterable[int]]:
        """Insert an edge that no forest separates via exchange chains, with
        up to ``most`` - 1 of the next copies of its pair when one swap
        places them all (the fourth fact); returns how many went in and the
        indices of the forests changed, (0, ()) when the edge lies in the
        span of every forest (a full clump).

        Breadth-first labeling over forest edges: a dequeued edge x labels
        the edges on its path in each forest, in forest order; the search
        succeeds at the first labeled edge, in FIFO order, that some forest
        separates, which goes into the least such forest, and the swaps are
        unwound back to the new edge.  Forests do not change during the search, so each edge
        is checked when it is labeled.  Only the first labeled edge of a
        vertex pair matters: a parallel copy has the same endpoints, hence
        no separating forest either and the same path in every forest.
        The first forest of each pair set is the first member of a run, so
        a labeled edge and its labeling forest are those of that run.
        """
        shapes: dict[frozenset, tuple[int, _Forest]] = {}  # each pair set's first run
        for start, forest in zip(self.starts, self.forests):
            shapes.setdefault(forest.pairs(), (start, forest))
        parent: dict[EdgeRef, tuple[EdgeRef, int] | None] = {new_edge: None}
        labeled = {new_edge[:2]}  # vertex pairs
        queue = deque([new_edge])
        while queue:
            x = queue.popleft()
            for start, forest in shapes.values():
                for y in forest.path_edges(x[0], x[1]):
                    pair = y[:2]
                    if pair not in labeled:
                        labeled.add(pair)
                        parent[y] = (x, start)
                        target = self.open_run(pair)
                        if target is not None:
                            return self._unwind(parent, y, self.starts[target], most)
                        queue.append(y)
        return 0, ()

    def _unwind(
        self,
        parent: Mapping[EdgeRef, tuple[EdgeRef, int] | None],
        current: EdgeRef,
        index: int,
        most: int,
    ) -> tuple[int, Iterable[int]]:
        """Put current into forest index, then swap each labeled edge into
        the forest that labeled it, in place of its label, back to the new
        edge; returns how many copies went in and the indices of the forests
        changed.  Each is the first member of its run (no run changes during
        the search).  A chain of one swap is made in the first L members of
        both runs at once, L = min(``most``, both run lengths), by changing
        their first forest once it is split off at L; a longer chain, in the
        first member alone."""
        moves = [(index, None, current)]  # (forest, edge out, edge in)
        entry = parent[current]
        while entry is not None:
            prev_edge, holder = entry
            moves.append((holder, current, prev_edge))
            current = prev_edge
            entry = parent[current]
        starts = self.starts
        width = 1
        if len(moves) == 2:  # each forest index starts its run
            width = min(most, *(starts[bisect_right(starts, f)] - f for f, _, _ in moves))
        changed = {}
        for forest_index, _, _ in moves:
            if forest_index not in changed:
                r = bisect_left(starts, forest_index)
                self.split(r, width)
                changed[forest_index] = self.forests[r]
        for forest_index, out, into in moves:
            if out is not None:
                changed[forest_index].remove(out)
            changed[forest_index].add(into, forest_index)
        return width, changed.keys()

    def groups(self) -> tuple[tuple[Tree, int], ...]:
        """One (tree, copies) group per run."""
        return tuple((Tree(tuple(forest.edges())), end - start) for forest, start, end
                     in zip(self.forests, self.starts, self.starts[1:]))


def _union(graph: Multigraph, k: int) -> _ForestRuns | None:
    """k forests holding k(m - 1) edges, inserted in canonical order, or
    None when the graph has no k edge-disjoint spanning trees.  The search
    stops as soon as the edges placed and the copies of the pairs not yet
    reached fall below k(m - 1)."""
    runs = _ForestRuns(k)
    goal = k * (graph.m - 1)
    total = 0
    later = graph.total_edges()
    for i, j in graph.support_pairs():  # canonical order, copy by copy
        count = graph.multiplicities[(i, j)]
        later -= count
        copy = 0
        while copy < count and total < goal:
            placed = runs.insert((i, j, copy), min(count - copy, goal - total))
            if not placed:
                # parallel copies share a span; once blocked, always blocked
                if total + later < goal:
                    return None
                break
            copy += placed
            total += placed
    return runs if total == goal else None


def spanning_packing(graph: Multigraph) -> TreePacking:
    """A maximum packing of edge-disjoint spanning trees; its size equals
    the partition-count formula.

    The union first asks for b = min(least degree, floor(|E| / (m - 1)))
    trees: the floor ratios of the m partitions {v} | rest and of the
    all-singletons partition, so b is at least the count.  Packing b trees
    proves the count is b, that named partition being the certificate.
    When b·|E| is over the work cap, or the union falls short, the count
    comes from ``nash_williams_count`` and the union packs that many.
    """
    _check_edge_cap(graph)
    if graph.m < 2:
        raise ValueError("spanning packing needs at least two vertices")
    target = TerminalSet.full(graph.m)
    total_edges = graph.total_edges()
    degree = [0] * (graph.m + 1)
    for (i, j), count in graph.multiplicities.items():
        degree[i] += count
        degree[j] += count
    bound = min(min(degree[1:]), total_edges // (graph.m - 1))
    if bound == 0:
        return TreePacking(graph=graph, target=target, groups=())
    runs = _union(graph, bound) if bound * total_edges <= SPANNING_WORK_CAP else None
    if runs is None:
        certified = nash_williams_count(graph)
        if certified * total_edges > SPANNING_WORK_CAP:
            raise SizeLimitError(
                f"spanning packing is capped at k*|E| = {SPANNING_WORK_CAP}; this "
                f"graph has k = {certified} trees and |E| = {total_edges} edges, "
                f"k*|E| = {certified * total_edges}"
            )
        if certified == 0:
            return TreePacking(graph=graph, target=target, groups=())
        runs = _union(graph, certified)
        if runs is None:
            raise AssertionError(f"matroid union packed fewer than {certified} trees")
    return TreePacking(graph=graph, target=target, groups=runs.groups())


# ---------------------------------------------------------------------------
# Steiner packings for intermediate target sets
# ---------------------------------------------------------------------------


def _approx_steiner_tree(rows: _Rows, target: TerminalSet) -> tuple[Pair, ...] | None:
    """One cheap tree over the neighbour rows, or None when the target is no
    longer connected.  Nearest-terminal shortest paths with lexicographic
    tie-breaks keep the choice deterministic.  ``dist`` holds distances from
    the tree over the root's component, so the tree is its zero entries.
    One BFS from the root fills it; after each attached path, one FIFO pass
    from the path's new vertices lowers only the distances that fall (a
    vertex whose distance does not fall lowers nothing beyond it)."""
    root = min(target)
    dist = {root: 0}
    queue = deque([root])
    tree_pairs: set[Pair] = set()
    pending = [t for t in target if t != root]
    while pending:
        while queue:
            v = queue.popleft()
            near = dist[v] + 1
            for w in rows.get(v, ()):
                if dist.get(w, near + 1) > near:
                    dist[w] = near
                    queue.append(w)
        # the tree stays in the root's component: only the first pass can miss
        if any(t not in dist for t in pending):
            return None
        goal = min(pending, key=lambda t: (dist[t], t))
        path = [goal]
        while dist[path[-1]] > 0:
            v = path[-1]
            path.append(min(w for w in rows[v] if dist[w] == dist[v] - 1))
        for a, b in zip(path, path[1:]):  # a runs over the path's new vertices
            tree_pairs.add((a, b) if a < b else (b, a))
            dist[a] = 0
            queue.append(a)
        pending = [t for t in pending if dist[t]]
    return tuple(sorted(tree_pairs))


def _assign_copies(
    graph: Multigraph, target: TerminalSet, chosen: list[tuple[tuple[Pair, ...], int]]
) -> TreePacking:
    """One group per run of consecutive (pairs, copies) entries with equal
    pairs, each pair's edge copies numbered up in entry order.  (P, 1),
    (P, 1) and (P, 2) number their copies alike, so merging changes no tree."""
    merged: list[list] = []
    for pairs, copies in chosen:
        if merged and merged[-1][0] == pairs:
            merged[-1][1] += copies
        else:
            merged.append([pairs, copies])
    used: Counter = Counter()
    groups = []
    for pairs, copies in merged:
        groups.append((Tree(tuple((i, j, used[(i, j)]) for i, j in pairs)), copies))
        for pair in pairs:
            used[pair] += copies
    return TreePacking(graph=graph, target=target, groups=tuple(groups))


def _greedy_choice(
    graph: Multigraph, target: TerminalSet
) -> list[tuple[tuple[Pair, ...], int]]:
    """The greedy trees as (pairs, copies) entries, in the order they are
    taken.  The tree search reads only which pairs are still positive, so a
    tree repeats until one of its pairs runs out: each is taken that many
    times at once, and the number of searches follows the support's
    changes, not the tree count.  One set of rows serves every search: a
    tree lowers its pairs, and a pair that runs out leaves both rows."""
    rows = _neighbours(graph.multiplicities)
    chosen: list[tuple[tuple[Pair, ...], int]] = []
    while True:
        tree_pairs = _approx_steiner_tree(rows, target)
        if tree_pairs is None:
            return chosen
        copies = min(rows[i][j] for i, j in tree_pairs)
        for i, j in tree_pairs:
            rows[i][j] -= copies
            rows[j][i] -= copies
            if not rows[i][j]:
                del rows[i][j], rows[j][i]
        chosen.append((tree_pairs, copies))


def _steiner_tree_candidates(rows: _Rows, target: TerminalSet) -> list[tuple[Pair, ...]]:
    """Every minimal Steiner tree over the neighbour rows, each exactly
    once, sorted.

    The tree starts at the least target terminal.  Each step takes the
    least target terminal not yet in it and branches on every simple path
    from that terminal which meets the tree only at its last vertex.  A
    minimal tree (every leaf a target) fixes each step's path, the tree
    path from that terminal to the part built so far, so it arises once;
    and every tree built has only targets as leaves, so none is filtered.
    """
    members = target.members
    inside = {members[0]}  # the tree's vertices
    tree: list[Pair] = []
    found: list[tuple[Pair, ...]] = []

    def attach(next_target: int) -> None:
        """Add a path from the least target not in the tree, which is
        ``members[next_target]`` or a later one: the tree only grows."""
        while next_target < len(members) and members[next_target] in inside:
            next_target += 1
        if next_target == len(members):
            found.append(tuple(sorted(tree)))
        else:
            extend([members[next_target]], next_target)

    def extend(path: list[int], next_target: int) -> None:
        """Branch on every way to go on from the open path's last vertex."""
        for w in rows.get(path[-1], ()):
            if w in inside:  # the path ends here: add it to the tree
                tree.extend((a, b) if a < b else (b, a)
                            for a, b in zip(path, path[1:] + [w]))
                inside.update(path)
                attach(next_target + 1)
                inside.difference_update(path)
                del tree[len(tree) - len(path):]
            elif w not in path:
                path.append(w)
                extend(path, next_target)
                path.pop()

    attach(1)
    return sorted(found)


def _reduced_graph(rows: _Rows,
                   target: TerminalSet) -> tuple[int, dict[Pair, int], TerminalSet]:
    """(m', table, A'): the graph of the neighbour rows with each non-target
    vertex of degree at most 1 deleted and each of degree 2, between u and
    v with caps a and b, replaced by an edge u-v of cap min(a, b) added to
    u-v's own, until none is left; the vertices that remain, every target
    among them, are relabelled 1..m', the targets first and in order, so
    the partition search has fixed the atom count once it has placed them.

    The least of crossing - need * (atoms - 1) over partitions whose every
    atom meets the target is unchanged.  A non-target vertex is never an
    atom by itself, and the atom counts match; placed in its heaviest
    neighbour's atom, a pendant vertex crosses nothing, and a degree-2
    vertex crosses nothing when both neighbours share an atom and
    min(a, b) when they do not, which is what the new edge crosses."""
    adjacency = {t: {} for t in target} | {v: dict(row) for v, row in rows.items()}
    pending = [v for v in adjacency if v not in target]
    while pending:
        x = pending.pop()
        row = adjacency.get(x)
        if row is None or len(row) > 2:
            continue
        del adjacency[x]
        for u in row:
            del adjacency[u][x]
        if len(row) == 2:
            (u, a), (v, b) = row.items()
            adjacency[u][v] = adjacency[v][u] = adjacency[u].get(v, 0) + min(a, b)
        pending.extend(u for u in row if u not in target)
    order = [*target, *sorted(v for v in adjacency if v not in target)]
    label = {v: k for k, v in enumerate(order, 1)}
    table = {(label[u], label[v]): c for u, row in adjacency.items()
             for v, c in row.items() if label[u] < label[v]}
    return len(label), table, TerminalSet(tuple(range(1, len(target) + 1)))


def _exact_steiner(graph: Multigraph, target: TerminalSet) -> TreePacking:
    total = graph.total_edges()
    if total > STEINER_EXACT_EDGE_CAP:
        raise SizeLimitError(
            f"exact Steiner packing is capped at {STEINER_EXACT_EDGE_CAP} edges; "
            f"this graph has {total} (use greedy mode)"
        )
    caps = dict(graph.multiplicities)
    root, *others = target.members

    best_choice = _greedy_choice(graph, target)
    best_count = sum(copies for _, copies in best_choice)
    chosen: list[int] = []

    def beaten(count: int) -> bool:
        """Whether no packing that extends this node's can beat
        ``best_count``: some partition holds fewer than ``need =
        best_count - count + 1`` more trees.  Only such subtrees are cut,
        so the packing found does not depend on which valid bound is used,
        or when.  Every two-atom partition separates the least target
        from another, so flows from it, stopped at ``need``, answer for
        all of them first; only when every flow reaches ``need`` does the
        partition search run, on the reduced graph."""
        need = best_count - count + 1
        rows = _neighbours(caps)
        if any(_max_flow(rows, root, t, limit=need, cut=True)[0] < need for t in others):
            return True
        m, table, reduced = _reduced_graph(rows, target)
        return partitions.min_ratio(table, m, reduced, below=need) is not None

    def dfs(start: int, count: int) -> None:
        """Extend a packing of ``count`` trees that ``beaten`` did not cut."""
        nonlocal best_count, best_choice
        asked = best_count
        for index in range(start, len(candidates)):
            pairs = candidates[index]
            if all(caps[p] > 0 for p in pairs):
                if best_count != asked:  # a child improved: ask again
                    if beaten(count):
                        return
                    asked = best_count
                for p in pairs:
                    caps[p] -= 1
                chosen.append(index)
                if count + 1 > best_count:
                    best_count = count + 1
                    best_choice = [(candidates[k], 1) for k in chosen]
                if not beaten(count + 1):
                    dfs(index, count + 1)
                chosen.pop()
                for p in pairs:
                    caps[p] += 1

    # the root query settles most calls, before any candidate is listed
    if not beaten(0):
        candidates = _steiner_tree_candidates(_neighbours(graph.multiplicities), target)
        dfs(0, 0)
    return _assign_copies(graph, target, best_choice)


def steiner_packing(
    graph: Multigraph, target: TerminalSet, mode: str = "exact"
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
    if len(target) == 2:
        return max_disjoint_paths(graph, target.members[0], target.members[1])
    if len(target) == graph.m:
        return spanning_packing(graph)
    _check_edge_cap(graph)
    if mode == "greedy":
        return _assign_copies(graph, target, _greedy_choice(graph, target))
    return _exact_steiner(graph, target)


def steiner_rate_lower_bound(
    model: PinModel, target: TerminalSet, n: int, mode: str = "exact"
) -> Fraction:
    """Packing count over blocklength at scale n; in exact mode this never
    exceeds the capacity."""
    graph = realize_multigraph(model, n)
    packing = steiner_packing(graph, target, mode=mode)
    return Fraction(packing.count, n)
