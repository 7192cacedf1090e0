"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: cuts by
exhaustive bipartition enumeration, partitions via a plain recursive
builder, Steiner packing by undirected brute force over all tree subsets,
GF(2) rank by column-scan elimination, two-atom splits by bitmask, and the
LP by a dense Bland simplex over Fractions; ``singleton_phases`` runs
the production simplex phases from the singletons on any cover LP.
Earlier forms of rewritten
production routines are kept as differential oracles: LP costs summed
over every pair for every subset, weight assignments checked and summed densely, one value per qualifying subset
and per-terminal index lists, assignments checked, separated and priced
in Fractions, the partition minimum by a scan that recounts each
partition's crossing over Fraction tables, spanning packing
that scans every labeled edge against every forest, forests that search
their adjacency for each path, key recovery that rescans the transcript
once per tree, GF(2) maps checked, applied and ranked one row at a
time, the tree shape check by a separate depth-first search,
propagation that rebuilds each tree's incident lists, flow decomposition
one unit path at a time, the max flow on a whole multigraph without a
limit or a cut mode, the greedy Steiner packing one tree per search,
each tree by a fresh BFS from the whole tree after each attached path, hex
packing by shifting one bit at a time, the
brute-force secrecy audit over the whole 2^|E| assignment space,
packings and protocol runs built one tree per copy, the transcript
renderers zipping whole columns, Steiner candidates
grown one edge at a time and the exact Steiner search that asks its
bound of the whole remaining graph, only when a node is entered, the structured
``pack``/``simulate`` report built as one dict and encoded by one
``json.dumps``, and the model-file loader that builds every record's
context and field sets up front.  ``load_workloads`` gives the
benchmark's request pools.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import re
import sys
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from pinkey import (
    Broadcast,
    EdgeKeyBits,
    EdgeRef,
    Gf2Matrix,
    InvalidAssignmentError,
    InvalidPackingError,
    InvalidTreeError,
    ModelFormatError,
    Multigraph,
    PairPmf,
    PinModel,
    ProtocolRun,
    SecurityReport,
    SizeLimitError,
    SubsetFamily,
    TerminalSet,
    Tree,
    TreePacking,
    WeightAssignment,
    audit,
    base_scale,
    draw_edge_keys,
    format_rational,
    load_model,
    nash_williams_count,
    realize_multigraph,
    steiner_packing,
)
import pinkey.packing
import pinkey.partitions
import pinkey.simplex
from pinkey.audit import BRUTEFORCE_EDGE_CAP, _log_weight
from pinkey.model import MAX_TERMINALS, all_pairs
from pinkey.simplex import SimplexResult

# the module itself: the package's ``pinkey.audit`` is the function, so
# tests patch ``BRUTEFORCE_EDGE_CAP`` here
AUDIT_MODULE = importlib.import_module("pinkey.audit")


def random_exact_model(
    rng: random.Random,
    m: int | None = None,
    max_num: int = 8,
    max_den: int = 4,
    zero_chance: float = 0.25,
) -> PinModel:
    if m is None:
        m = rng.randint(2, 6)
    weights = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.random() < zero_chance:
                continue
            weights[(i, j)] = Fraction(rng.randint(1, max_num),
                                       rng.randint(1, max_den))
    return PinModel.from_weights(m, weights)


def random_small_model(rng: random.Random, m: int) -> PinModel:
    """Sparse model with tiny weights, for packing tests that realize
    multigraphs of bounded edge count."""
    choices = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1)]
    weights = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            weights[(i, j)] = rng.choice(choices)
    if all(w == 0 for w in weights.values()):
        weights[(1, 2)] = Fraction(1)
    return PinModel.from_weights(m, weights)


def random_multigraph(
    rng: random.Random, max_m: int = 7, max_mult: int = 5
) -> Multigraph:
    m = rng.randint(2, max_m)
    counts = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            counts[(i, j)] = rng.randint(0, max_mult)
    return Multigraph(m, counts)


def random_pmf(rng: random.Random, max_alpha: int = 3) -> PairPmf:
    rows = rng.randint(1, max_alpha)
    cols = rng.randint(1, max_alpha)
    raw = [[rng.random() for _ in range(cols)] for _ in range(rows)]
    total = sum(sum(row) for row in raw)
    return PairPmf.from_rows([[p / total for p in row] for row in raw])


def random_pmf_model(rng: random.Random, m: int = 3, max_alpha: int = 3) -> PinModel:
    pmfs = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            pmfs[(i, j)] = random_pmf(rng, max_alpha)
    return PinModel.from_pmfs(m, pmfs)


def random_terminal_set(rng: random.Random, m: int, size: int | None = None) -> TerminalSet:
    if size is None:
        size = rng.randint(2, m)
    return TerminalSet(tuple(rng.sample(range(1, m + 1), size)))


def singleton_assignment(m: int, target: TerminalSet) -> WeightAssignment:
    """The always-feasible assignment: weight 1 on every singleton."""
    return WeightAssignment(m, target, {1 << t: Fraction(1) for t in range(m)})


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def random_tree_edges(rng: random.Random, n: int, base: int = 1) -> list:
    """A random tree on n labels from base..base+11, copies 0..3, in the
    order it was grown."""
    labels = rng.sample(range(base, base + 12), n)
    edges = []
    for k in range(1, n):
        u, v = sorted((labels[k], labels[rng.randrange(k)]))
        edges.append((u, v, rng.randint(0, 3)))
    return edges


def brute_min_cut(graph: Multigraph, s: int, t: int) -> int:
    """Minimum crossing count over every bipartition separating s from t."""
    others = [v for v in range(1, graph.m + 1) if v not in (s, t)]
    best = None
    for picks in itertools.product((0, 1), repeat=len(others)):
        side = {s}
        for v, pick in zip(others, picks):
            if pick:
                side.add(v)
        crossing = sum(
            count
            for (i, j), count in graph.multiplicities.items()
            if (i in side) != (j in side)
        )
        if best is None or crossing < best:
            best = crossing
    return best if best is not None else 0


def brute_partitions(m: int) -> list[list[set[int]]]:
    """Every partition of 1..m (including the one-atom one), recursively."""
    parts: list[list[set[int]]] = [[]]
    for v in range(1, m + 1):
        grown: list[list[set[int]]] = []
        for partition in parts:
            for k in range(len(partition)):
                copy = [set(a) for a in partition]
                copy[k].add(v)
                grown.append(copy)
            copy = [set(a) for a in partition]
            copy.append({v})
            grown.append(copy)
        parts = grown
    return parts


def brute_nash_williams(graph: Multigraph) -> int:
    best = None
    for partition in brute_partitions(graph.m):
        if len(partition) < 2:
            continue
        atom_of = {}
        for k, atom in enumerate(partition):
            for v in atom:
                atom_of[v] = k
        crossing = sum(
            count
            for (i, j), count in graph.multiplicities.items()
            if atom_of[i] != atom_of[j]
        )
        value = crossing // (len(partition) - 1)
        if best is None or value < best:
            best = value
    return best if best is not None else 0


def _is_tree_over(pairs: tuple[tuple[int, int], ...]) -> bool:
    vertices = {v for pair in pairs for v in pair}
    if len(vertices) != len(pairs) + 1:
        return False
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for (i, j) in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    start = next(iter(vertices))
    stack = [start]
    seen = {start}
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def brute_steiner_packing_count(graph: Multigraph, target: TerminalSet) -> int:
    """Maximum number of edge-disjoint Steiner trees by plain recursion.

    Candidate trees are all pair subsets that form a tree covering the
    target; packing search tries every multiset respecting multiplicities.
    Only usable for very small graphs.
    """
    support = [p for p, c in graph.multiplicities.items() if c]
    targets = set(target)
    candidates = []
    for size in range(1, graph.m):
        for combo in itertools.combinations(support, size):
            vertices = {v for pair in combo for v in pair}
            if targets <= vertices and _is_tree_over(combo):
                candidates.append(combo)

    caps = dict(graph.multiplicities)

    def search(start: int) -> int:
        best = 0
        for k in range(start, len(candidates)):
            combo = candidates[k]
            if all(caps[p] > 0 for p in combo):
                for p in combo:
                    caps[p] -= 1
                best = max(best, 1 + search(k))
                for p in combo:
                    caps[p] += 1
        return best

    return search(0)


def subtree_steiner_candidates(
    support, target: TerminalSet
) -> list[tuple[tuple[int, int], ...]]:
    """Every minimal Steiner tree over the support pairs, sorted: the
    oracle for ``pinkey.packing._steiner_tree_candidates``, which attaches
    whole paths.

    Trees grow from the least target terminal one leaf at a time; banning
    earlier siblings before each recursive call makes the enumeration
    duplicate-free.  Every subtree that covers the target is kept when its
    leaves are all targets: growing it further cannot shed a leaf.
    """
    pair_neighbors: dict[int, list[tuple[int, int]]] = {}
    for pair in sorted(support):
        pair_neighbors.setdefault(pair[0], []).append(pair)
        pair_neighbors.setdefault(pair[1], []).append(pair)
    targets = set(target)
    found = []

    def rec(tree: frozenset, vertices: frozenset, banned: frozenset) -> None:
        if targets <= vertices:
            degree = Counter(v for pair in tree for v in pair)
            if all(v in targets for v, d in degree.items() if d == 1):
                found.append(tuple(sorted(tree)))
            return
        extensions = sorted({
            pair
            for v in vertices
            for pair in pair_neighbors.get(v, ())
            if pair not in banned and (pair[0] in vertices) != (pair[1] in vertices)
        })
        blocked = banned
        for pair in extensions:
            new_vertex = pair[1] if pair[0] in vertices else pair[0]
            rec(tree | {pair}, vertices | {new_vertex}, blocked)
            blocked = blocked | {pair}

    rec(frozenset(), frozenset({min(target)}), frozenset())
    return sorted(found)


def reference_exact_steiner(graph: Multigraph, target: TerminalSet) -> TreePacking:
    """Exact Steiner packing by the one-tree-at-a-time search over the
    subtree enumerator's candidates, cut only when a node is entered: the
    oracle for ``steiner_packing(..., mode="exact")``, which also re-asks
    the partition bound after a child improves the incumbent.  Starts from
    the greedy packing and returns the first maximum the search meets,
    copies numbered per pair in tree order; no edge cap."""
    candidates = subtree_steiner_candidates(graph.support_pairs(), target)
    caps = dict(graph.multiplicities)
    best = [tree.pairs() for tree in steiner_packing(graph, target, mode="greedy").trees]
    chosen: list[tuple[tuple[int, int], ...]] = []

    def dfs(start: int) -> None:
        nonlocal best
        if pinkey.partitions.min_ratio(
                caps, graph.m, target, below=len(best) - len(chosen) + 1) is not None:
            return
        for index in range(start, len(candidates)):
            pairs = candidates[index]
            if all(caps[p] > 0 for p in pairs):
                for p in pairs:
                    caps[p] -= 1
                chosen.append(pairs)
                if len(chosen) > len(best):
                    best = list(chosen)
                dfs(index)
                chosen.pop()
                for p in pairs:
                    caps[p] += 1

    dfs(0)
    used: Counter = Counter()
    groups = []
    for pairs, run in itertools.groupby(best):
        copies = len(list(run))
        groups.append((Tree(tuple((i, j, used[(i, j)]) for i, j in pairs)), copies))
        for pair in pairs:
            used[pair] += copies
    return TreePacking(graph=graph, target=target, groups=tuple(groups))


def reference_approx_steiner_tree(
    rows: Mapping[int, Mapping[int, int]], target: TerminalSet
) -> tuple[tuple[int, int], ...] | None:
    """The greedy Steiner tree with a fresh multi-source BFS from the whole
    tree after each attached path, its vertices kept as a set: the oracle
    for ``_approx_steiner_tree``, which keeps one distance map per tree."""
    root = min(target)
    in_tree = {root}
    tree_pairs: set[tuple[int, int]] = set()
    pending = [t for t in target if t != root]
    while pending:
        # BFS layers from the current tree
        dist = {v: 0 for v in in_tree}
        queue = deque(sorted(in_tree))
        while queue:
            v = queue.popleft()
            for w in rows.get(v, ()):
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
            step = min(w for w in rows[v] if dist.get(w, -1) == dist[v] - 1)
            path.append(step)
        path.reverse()
        for a, b in zip(path, path[1:]):
            tree_pairs.add((a, b) if a < b else (b, a))
            in_tree.add(b)
        pending = [t for t in pending if t not in in_tree]
    return tuple(sorted(tree_pairs))


def one_tree_greedy_steiner(graph: Multigraph, target: TerminalSet) -> TreePacking:
    """The greedy Steiner packing one tree per search, each tree's pairs
    lowered by one, copies numbered per pair in tree order: the oracle for
    ``steiner_packing(..., mode="greedy")``, which takes each tree as many
    times as its pairs allow at once."""
    caps = dict(graph.multiplicities)
    taken = []
    while True:
        pairs = reference_approx_steiner_tree(pinkey.packing._neighbours(caps), target)
        if pairs is None:
            break
        for pair in pairs:
            caps[pair] -= 1
        taken.append(pairs)
    used: Counter = Counter()
    groups = []
    for pairs, run in itertools.groupby(taken):
        copies = len(list(run))
        groups.append((Tree(tuple((i, j, used[(i, j)]) for i, j in pairs)), copies))
        for pair in pairs:
            used[pair] += copies
    return TreePacking(graph=graph, target=target, groups=tuple(groups))


def dense_gf2_rows(rows) -> list[int]:
    """Index rows (tuples of column indices) as int bitmasks, bit k for
    column k, the input of ``elimination_gf2_rank``."""
    return [sum(1 << column for column in row) for row in rows]


def elimination_gf2_rank(rows: list[int], ncols: int) -> int:
    """GF(2) rank of int bitmask rows by column-scan Gaussian elimination,
    first-nonzero pivoting over the first ``ncols`` columns."""
    work = list(rows)
    rank = 0
    top = 0
    for col in range(ncols):
        pivot = None
        bit = 1 << col
        for r in range(top, len(work)):
            if work[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        for r in range(len(work)):
            if r != top and work[r] & bit:
                work[r] ^= work[top]
        rank += 1
        top += 1
        if top == len(work):
            break
    return rank


def block_rows(blocks) -> list[tuple[int, ...]]:
    """The rows of ``(copies, steps)`` GF(2) blocks, one at a time in row
    order: copy k of step (first, second) is ``(first + k, second + k)``,
    or ``(first + k,)`` when second is None.  The row-layout oracle for
    ``pinkey.Gf2Matrix``."""
    rows = []
    for copies, steps in blocks:
        for k in range(copies):
            for first, second in steps:
                rows.append((first + k,) if second is None else (first + k, second + k))
    return rows


def row_forest_sizes(ncols: int, *segments) -> list[int]:
    """One spanning forest grown over the segments' rows in turn, one
    union-find step per row, column ``ncols`` as ground; entry s is the
    rank of segments 0..s together.  The per-row oracle for
    ``pinkey.gf2._forest_sizes``, which steps once per block step."""
    parent = list(range(ncols + 1))
    rank = 0
    sizes = []
    for rows in segments:
        for row in rows:
            first, second = (row[0], ncols) if len(row) == 1 else row
            while parent[first] != first:  # path halving
                parent[first] = first = parent[parent[first]]
            while parent[second] != second:
                parent[second] = second = parent[parent[second]]
            if first != second:
                parent[first] = second
                rank += 1
        sizes.append(rank)
    return sizes


class RowGf2Matrix:
    """A GF(2) matrix kept as one index tuple per row, checked, applied and
    ranked one row at a time: the per-row oracle for ``pinkey.Gf2Matrix``,
    which works once per block step."""

    def __init__(self, rows, ncols: int) -> None:
        if ncols < 0:
            raise ValueError("column count must be nonnegative")
        for r, row in enumerate(rows):
            if len(row) == 2:
                first, second = row
                if first != second and 0 <= first < ncols and 0 <= second < ncols:
                    continue
            elif len(row) == 1 and 0 <= row[0] < ncols:
                continue
            raise ValueError(f"row {r} must name one or two distinct columns "
                             f"in range({ncols}), got {row!r}")
        self.rows = tuple(rows)
        self.ncols = ncols

    def rank(self) -> int:
        return row_forest_sizes(self.ncols, self.rows)[0]

    def apply(self, bits) -> tuple[int, ...]:
        return tuple(bits[row[0]] ^ bits[row[1]] if len(row) == 2 else bits[row[0]]
                     for row in self.rows)


def fraction_solve_lp(
    costs: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    basis: Sequence[int],
) -> SimplexResult:
    """Minimize ``costs . x`` over ``rows x = rhs, x >= 0`` with a dense
    Fraction tableau: the differential oracle for ``pinkey.simplex.solve_lp``.

    ``basis[i]`` names the variable whose column is the i-th identity
    column in ``rows``; ``rhs`` must be nonnegative so the start is a
    basic feasible solution.  Raises on an unbounded problem (cannot
    happen for the bounded polytopes used here).
    """
    m = len(rows)
    n = len(costs)
    if len(rhs) != m or len(basis) != m:
        raise ValueError("inconsistent LP dimensions")
    cost = [Fraction(c) for c in costs]
    tableau = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
               for i, row in enumerate(rows)]
    for i, row in enumerate(tableau):
        if len(row) != n + 1:
            raise ValueError(f"row {i} has wrong length")
        if row[n] < 0:
            raise ValueError("starting basis is not feasible (negative rhs)")
    base = list(basis)

    # Reduced-cost row; its rhs cell tracks minus the objective value.
    reduced = cost + [Fraction(0)]
    for i, var in enumerate(base):
        coeff = cost[var]
        if coeff:
            row = tableau[i]
            for j in range(n + 1):
                reduced[j] -= coeff * row[j]

    zero = Fraction(0)
    while True:
        enter = -1
        for j in range(n):
            if reduced[j] < zero:  # Bland: least-index negative reduced cost
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > zero:
                ratio = tableau[i][n] / coeff
                if best is None or ratio < best or (
                    ratio == best and base[i] < base[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("LP is unbounded")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            for j in range(n + 1):
                pivot_row[j] /= pivot
        for row in tableau:
            if row is not pivot_row and row[enter]:
                factor = row[enter]
                for j in range(n + 1):
                    row[j] -= factor * pivot_row[j]
        if reduced[enter]:
            factor = reduced[enter]
            for j in range(n + 1):
                reduced[j] -= factor * pivot_row[j]
        base[leave] = enter

    solution = [Fraction(0)] * n
    for i, var in enumerate(base):
        solution[var] = tableau[i][n]
    value = -reduced[n]
    # the integer fields over the least common denominator, not |det B|
    d = math.lcm(value.denominator, *(solution[var].denominator for var in base))
    return SimplexResult(
        basis=tuple(base), d=d, beta=tuple(int(solution[var] * d) for var in base),
        objective=int(value * d), columns=n,
    )


def singleton_phases(costs: Sequence[int], masks: Sequence[int], m: int) -> SimplexResult:
    """``solve_lp``'s three phases on any subset-cover LP, from the singleton
    basis (each singleton's first column): the production
    ``_Tableau.singletons``, ``_most_negative``, ``_unique`` and
    ``_bland_lp``, looked up on ``pinkey.simplex`` at call time so that
    spies see them.  ``masks`` may be in any order and repeat; every
    singleton must be among them."""
    simplex = pinkey.simplex
    base = [list(masks).index(1 << t) for t in range(m)]
    tableau = simplex._Tableau.singletons(costs, base)
    if simplex._unique(tableau, simplex._most_negative(tableau, costs, masks), masks):
        return tableau.result(len(masks))
    return simplex._bland_lp(costs, masks, base)


class _ReferenceForest:
    """Forest on 1..m with at most one edge per vertex pair; paths are
    searched with neighbours in sorted order."""

    def __init__(self) -> None:
        self.adjacency: dict[int, dict[int, tuple[int, int, int]]] = {}

    def edges(self) -> list[tuple[int, int, int]]:
        return [edge for v, nbrs in self.adjacency.items()
                for w, edge in nbrs.items() if v < w]

    def path_edges(self, u: int, v: int) -> list[tuple[int, int, int]] | None:
        if u not in self.adjacency or v not in self.adjacency:
            return None
        parent: dict = {u: None}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for w in sorted(self.adjacency[x]):
                if w not in parent:
                    parent[w] = (x, self.adjacency[x][w])
                    queue.append(w)
        if v not in parent:
            return None
        path = []
        x = v
        while parent[x] is not None:
            x, edge = parent[x]
            path.append(edge)
        return path

    def add(self, edge: tuple[int, int, int]) -> None:
        if self.path_edges(edge[0], edge[1]) is not None:
            raise AssertionError(f"adding {edge} would close a cycle")
        self.adjacency.setdefault(edge[0], {})[edge[1]] = edge
        self.adjacency.setdefault(edge[1], {})[edge[0]] = edge

    def remove(self, edge: tuple[int, int, int]) -> None:
        del self.adjacency[edge[0]][edge[1]]
        del self.adjacency[edge[1]][edge[0]]


def _reference_augment(forests, new_edge, owner) -> bool:
    parent: dict = {new_edge: None}
    queue = deque([new_edge])
    while queue:
        x = queue.popleft()
        for index, forest in enumerate(forests):
            if owner.get(x) == index:
                continue
            path = forest.path_edges(x[0], x[1])
            if path is None:
                current = x
                forest.add(current)
                owner[current] = index
                entry = parent[current]
                while entry is not None:
                    prev_edge, holder = entry
                    forests[holder].remove(current)
                    forests[holder].add(prev_edge)
                    owner[prev_edge] = holder
                    current = prev_edge
                    entry = parent[current]
                return True
            for y in path:
                if y not in parent:
                    parent[y] = (x, index)
                    queue.append(y)
    return False


def reference_spanning_packing(graph: Multigraph) -> TreePacking:
    """Matroid-union spanning packing that asks every forest about every
    labeled edge, parallel copies included: the oracle for
    ``pinkey.spanning_packing``, which must return the same trees."""
    target = TerminalSet.full(graph.m)
    certified = nash_williams_count(graph)
    forests = [_ReferenceForest() for _ in range(certified)]
    owner: dict = {}
    goal = certified * (graph.m - 1)
    total = 0
    dead_pairs: set = set()
    for edge in graph.edge_refs():
        if total == goal:
            break
        if (edge[0], edge[1]) in dead_pairs:
            continue
        if _reference_augment(forests, edge, owner):
            total += 1
        else:
            dead_pairs.add((edge[0], edge[1]))
    groups = tuple((Tree(tuple(sorted(f.edges()))), 1) for f in forests)
    return TreePacking(graph=graph, target=target, groups=groups)


def scan_recover_key(run: ProtocolRun, terminal: int) -> tuple[int, ...]:
    """Key recovery that rescans the transcript for every tree: the oracle
    for ``pinkey.recover_key`` (same bits, same exceptions)."""
    if terminal not in run.target:
        raise ValueError(f"terminal {terminal} is outside the target set")
    bits = dict(zip(run.graph.edge_refs(), run.keys.bits))
    recovered = []
    for tree_index, tree in enumerate(run.packing.trees):
        reference = tree.edges[0]
        if terminal in (reference[0], reference[1]):
            recovered.append(bits[reference])
            continue
        for broadcast in run.transcript:
            if broadcast.tree != tree_index:
                continue
            edge = broadcast.support[1]
            if terminal in (edge[0], edge[1]):
                recovered.append(broadcast.bit ^ bits[edge])
                break
        else:
            raise InvalidPackingError(
                f"terminal {terminal} has no incident edge in tree {tree_index}"
            )
    return tuple(recovered)


def pairwise_lp_costs(model: PinModel, family: SubsetFamily) -> list[int]:
    """Per family subset, the weight over the base scale of the pairs it
    separates (lower terminal inside, higher outside), every pair summed
    for every subset: the oracle for ``capacity._lp_costs``."""
    scale = base_scale(model)
    terms = [
        (1 << (i - 1), 1 << (j - 1), w.numerator * (scale // w.denominator))
        for (i, j), w in model.weights.items()
        if w
    ]
    return [
        sum(w for inside, outside, w in terms
            if mask & inside and not mask & outside)
        for mask in family.subsets
    ]


def dense_values(family: SubsetFamily, assignment: WeightAssignment) -> tuple[Fraction, ...]:
    """One weight per subset of the family, in its order, zero off the
    assignment's support."""
    return tuple(assignment.weights.get(mask, Fraction(0)) for mask in family.subsets)


def dense_validate(family: SubsetFamily, values: Sequence[Fraction]) -> None:
    """The assignment check over one value per family subset, each
    terminal's sum read through its list of subset indices: the oracle for
    ``WeightAssignment.validate``, which reads only the support."""
    if len(values) != len(family.subsets):
        raise InvalidAssignmentError(
            f"expected {len(family.subsets)} weights, got {len(values)}")
    for value in values:
        if value < 0 or value > 1:
            raise InvalidAssignmentError(f"weight {value} outside [0, 1]")
    per_terminal = [[k for k, mask in enumerate(family.subsets) if mask >> t & 1]
                    for t in range(family.m)]
    for t, indices in enumerate(per_terminal):
        total = sum((values[k] for k in indices if values[k]), Fraction(0))
        if total != 1:
            raise InvalidAssignmentError(
                f"weights covering terminal {t + 1} sum to {total}, "
                "expected exactly 1"
            )


def dense_support(family: SubsetFamily, values: Sequence[Fraction]) -> tuple:
    """Nonzero weights as (subset members, value) pairs, members read off
    the mask one terminal at a time."""
    return tuple(
        (tuple(t + 1 for t in range(family.m) if mask >> t & 1), value)
        for mask, value in zip(family.subsets, values) if value)


def dense_pair_coefficients(
    family: SubsetFamily, values: Sequence[Fraction]
) -> dict[tuple[int, int], Fraction]:
    """Per pair, the total weight of the family subsets separating it (lower
    terminal inside, higher outside), every subset visited."""
    coeffs = {}
    for i in range(1, family.m + 1):
        for j in range(i + 1, family.m + 1):
            coeffs[(i, j)] = sum(
                (value for mask, value in zip(family.subsets, values)
                 if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1),
                Fraction(0))
    return coeffs


def dense_entropy_objective(
    model: PinModel, family: SubsetFamily, values: Sequence[Fraction]
) -> float:
    """The entropy form of the capacity objective over every family subset,
    zeros skipped, in the same floating-point order as
    ``pinkey.entropy_objective``."""
    dense_validate(family, values)
    pmfs = {pair: model.pmf(*pair) for pair in model.pairs()}
    penalty = 0.0
    for mask, value in zip(family.subsets, values):
        weight = float(value)
        if not weight:
            continue
        conditional = 0.0
        for (i, j), pmf in pmfs.items():
            i_in, j_in = mask >> (i - 1) & 1, mask >> (j - 1) & 1
            if i_in and j_in:
                conditional += pmf.joint_entropy()
            elif i_in:
                conditional += pmf.row_given_col_entropy()
            elif j_in:
                conditional += pmf.col_given_row_entropy()
        penalty += weight * conditional
    return sum(pmf.joint_entropy() for pmf in pmfs.values()) - penalty


def reference_validate(assignment: WeightAssignment) -> None:
    """The assignment check in Fractions, every weight's range and then
    each terminal's sum: the oracle for ``WeightAssignment.validate``,
    which checks the weights over their common denominator."""
    weights = assignment.weights
    for value in weights.values():
        if value < 0 or value > 1:
            raise InvalidAssignmentError(f"weight {value} outside [0, 1]")
    for t in range(assignment.m):
        total = sum((v for mask, v in weights.items() if mask >> t & 1),
                    Fraction(0))
        if total != 1:
            raise InvalidAssignmentError(
                f"weights covering terminal {t + 1} sum to {total}, "
                "expected exactly 1"
            )


def reference_pair_coefficients(assignment: WeightAssignment) -> dict[tuple[int, int], Fraction]:
    """For each pair, the total weight of subsets separating it (lower
    terminal inside, higher outside), summed in Fractions: the oracle for
    ``pinkey.pair_coefficients``."""
    coeffs = {pair: Fraction(0) for pair in all_pairs(assignment.m)}
    for mask, value in assignment.weights.items():
        for (i, j) in coeffs:
            if mask >> (i - 1) & 1 and not mask >> (j - 1) & 1:
                coeffs[(i, j)] += value
    return coeffs


def reference_objective(model: PinModel, assignment: WeightAssignment):
    """The capacity objective from the Fraction check and coefficients, each
    coefficient times the model's weight: the oracle for
    ``pinkey.capacity_objective``, which sums base weights times
    separations in integers."""
    if assignment.m != model.m:
        raise InvalidAssignmentError(
            f"assignment built for m={assignment.m}, model has m={model.m}")
    reference_validate(assignment)
    coeffs = reference_pair_coefficients(assignment)
    if model.exact:
        return sum(
            (c * model.weight(i, j) for (i, j), c in coeffs.items()),
            Fraction(0),
        )
    return sum(float(c) * model.mi(i, j) for (i, j), c in coeffs.items())


def _nonzero_items(table: Mapping[tuple[int, int], Fraction | int]) -> list[tuple]:
    return [(i - 1, j - 1, v) for (i, j), v in table.items() if v]


def _crossing(items: list[tuple], assignment: tuple[int, ...]) -> Fraction | int:
    total = 0
    for i, j, value in items:
        if assignment[i] != assignment[j]:
            total += value
    return total


def reference_min_ratio(
    table: Mapping[tuple[int, int], Fraction | int],
    partitions,
    below: int | None = None,
):
    """Minimum over a stream of partitions of crossing value / (atoms - 1),
    with the first partition attaining it, each partition's crossing
    recounted and compared with the incumbent; ``table`` may hold
    Fractions, scaled to integers by their common denominator.  With
    ``below``, the first partition strictly below it, or None.  The oracle
    for ``partitions.min_ratio``, which takes integer tables and the
    pruned search only."""
    scale = math.lcm(*(v.denominator for v in table.values()))
    items = [(i, j, v.numerator * (scale // v.denominator))
             for i, j, v in _nonzero_items(table)]
    best = None
    # the incumbent ratio; 1 / 0 stands for infinity until the first partition
    best_crossing, best_parts = (1, 0) if below is None else (below * scale, 1)

    def beaten(crossing: int, parts: int) -> bool:
        """True when crossing / parts does not strictly beat the incumbent."""
        return crossing * best_parts >= best_crossing * parts

    for partition in partitions:
        crossing = _crossing(items, partition.assignment)
        parts = partition.size - 1
        if not beaten(crossing, parts):
            if below is not None:
                return partition
            best, best_crossing, best_parts = partition, crossing, parts
            if crossing == 0:
                break
    if below is not None:
        return None
    if best is None:
        raise ValueError("no partition to minimize over")
    return Fraction(best_crossing, best_parts * scale), best


def reference_tree_check(edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tree shape check with a separate connectivity search: returns
    (sorted edges, sorted vertices) or raises ``InvalidTreeError`` with the
    message ``pinkey.Tree`` must give."""
    for edge in edges:  # in the given order: shape, then range
        if not isinstance(edge, tuple) or len(edge) != 3 or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in edge):
            raise InvalidTreeError(f"malformed edge {edge!r}")
        i, j, copy = edge
        if not (1 <= i < j) or copy < 0:
            raise InvalidTreeError(f"malformed edge ({i}, {j}, {copy})")
    edges = tuple(sorted(edges))
    if not edges:
        raise InvalidTreeError("a tree needs at least one edge")
    if len(set(edges)) != len(edges):
        raise InvalidTreeError("duplicate edge in tree")
    vertices = tuple(sorted({v for (i, j, _) in edges for v in (i, j)}))
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for (i, j, _) in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    stack = [vertices[0]]
    seen = {vertices[0]}
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(vertices) != len(edges) + 1 or len(seen) != len(vertices):
        raise InvalidTreeError("edges do not form a connected acyclic graph")
    return edges, vertices


def reference_propagate_tree(
    tree: Tree, bits: Mapping[EdgeRef, int], tree_index: int = 0
) -> tuple[int, tuple[Broadcast, ...]]:
    """Propagation that rebuilds the tree's incident lists and walks them
    breadth-first from the reference edge, children sorted; ``bits`` maps
    each edge to its bit.  The oracle for one tree of ``pinkey.run_protocol``,
    which follows ``Tree.walk``: returns (shared bit, broadcasts)."""
    for edge in tree.edges:
        if edge not in bits:
            raise InvalidTreeError(f"no key bit for tree edge {edge}")
    reference = tree.edges[0]
    shared = bits[reference]
    incident: dict[int, list] = {}
    for edge in tree.edges:
        incident.setdefault(edge[0], []).append(edge)
        incident.setdefault(edge[1], []).append(edge)
    used = {reference}
    queue = deque((reference[0], reference[1]))
    broadcasts = []
    while queue:
        speaker = queue.popleft()
        for edge in sorted(incident[speaker]):
            if edge in used:
                continue
            used.add(edge)
            broadcasts.append(Broadcast(
                tree=tree_index,
                terminal=speaker,
                bit=shared ^ bits[edge],
                support=(reference, edge),
            ))
            queue.append(edge[1] if edge[0] == speaker else edge[0])
    return shared, tuple(broadcasts)


def reference_max_flow(graph: Multigraph, s: int, t: int) -> tuple[int, dict]:
    """Integer max flow s->t on a multigraph, returning (value, {u: {v: net
    units u->v > 0}}) with a row for every vertex 1..m: the oracle for
    ``pinkey.packing._max_flow``, the form it had before it took a pair
    table on any vertex set, a limit and a cut mode."""
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
            for v in residual[u]:
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


def walk_unit_path(flow: dict[int, dict[int, int]], s: int, t: int) -> list[int]:
    """One unit s->t path along positive flow, taking the least neighbor at
    each step; a cycle met on the way loses one unit and is cut off."""
    path = [s]
    position = {s: 0}
    while path[-1] != t:
        v = path[-1]
        w = min(u for u, units in flow[v].items() if units > 0)
        if w in position:
            cycle = path[position[w]:] + [w]
            for a, b in zip(cycle, cycle[1:]):
                flow[a][b] -= 1
            for dropped in path[position[w] + 1:]:
                del position[dropped]
            del path[position[w] + 1:]
            continue
        position[w] = len(path)
        path.append(w)
    for a, b in zip(path, path[1:]):
        flow[a][b] -= 1
    return path


def unit_walk_path_edges(
    value: int, flow: dict[int, dict[int, int]], s: int, t: int
) -> list[tuple]:
    """A flow of ``value`` units as that many unit paths, each the sorted
    (i, j, copy) edges of one tree, copies numbered per pair in path order:
    the oracle for ``pinkey.max_disjoint_paths``.  ``flow`` is not changed."""
    flow = {v: dict(out) for v, out in flow.items()}
    used: Counter = Counter()
    trees = []
    for _ in range(value):
        walk = walk_unit_path(flow, s, t)
        edges = []
        for a, b in zip(walk, walk[1:]):
            pair = (a, b) if a < b else (b, a)
            edges.append((*pair, used[pair]))
            used[pair] += 1
        trees.append(tuple(sorted(edges)))
    return trees


def per_copy_trees(
    chosen: Sequence[tuple[tuple[tuple[int, int], ...], int]]
) -> tuple[Tree, ...]:
    """One tree per copy of each (pairs, copies) entry, each pair's copies
    numbered up in entry order: the per-copy oracle for the groups that
    ``pinkey.packing._assign_copies`` builds from the same entries."""
    used: Counter = Counter()
    trees = []
    for pairs, copies in chosen:
        for _ in range(copies):
            edges = []
            for pair in pairs:
                edges.append((pair[0], pair[1], used[pair]))
                used[pair] += 1
            trees.append(Tree(tuple(edges)))
    return tuple(trees)


def per_tree_run_protocol(
    packing: TreePacking, keys: EdgeKeyBits
) -> tuple[ProtocolRun, tuple[Broadcast, ...]]:
    """Propagation over each tree of ``packing.trees`` in turn, edges found
    by an all-edge index and residuals by a set scan: the per-copy oracle
    for ``pinkey.run_protocol``, which works once per group.  Returns the
    run and the ``Broadcast`` objects that ``reference_propagate_tree``
    built, which hold the speakers and tree indices independently of the
    columns a run derives from its packing."""
    edge_order = packing.graph.edge_refs()
    index = {edge: k for k, edge in enumerate(edge_order)}
    bits = dict(zip(edge_order, keys.bits))
    key_bits, key_rows, transcript, transcript_rows = [], [], [], []
    used: set = set()
    for tree_index, tree in enumerate(packing.trees):
        shared, broadcasts = reference_propagate_tree(tree, bits, tree_index)
        key_bits.append(shared)
        key_rows.append((index[tree.edges[0]],))
        for broadcast in broadcasts:
            transcript.append(broadcast)
            reference, edge = broadcast.support
            transcript_rows.append((index[reference], index[edge]))
        used.update(tree.edges)
    run = ProtocolRun(
        packing=packing,
        keys=keys,
        key_bits=tuple(key_bits),
        transcript_bits=tuple(b.bit for b in transcript),
        key_map=Gf2Matrix.from_rows(key_rows, len(edge_order)),
        transcript_map=Gf2Matrix.from_rows(transcript_rows, len(edge_order)),
    )
    # the run derives its residual bits from the packing's marks
    residual_bits = tuple(bits[e] for e in edge_order if e not in used)
    assert run.residual_bits == residual_bits, (run.residual_bits, residual_bits)
    return run, tuple(transcript)


def shift_bits_to_hex(bits: tuple[int, ...]) -> str:
    """Big-endian hex of a bit tuple, built one shift per bit: the oracle
    for ``pinkey.protocol._bits_to_hex``."""
    if not bits:
        return ""
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    width = (len(bits) + 3) // 4
    return format(value, f"0{width}x")


def speakers(run: ProtocolRun) -> tuple[int, ...]:
    """The sender of every broadcast, in transcript order: each group's
    walk speakers once per copy.  A whole-column oracle for the speakers
    that ``pinkey.protocol.transcript_steps`` gives per walk step."""
    column: list[int] = []
    for tree, copies in run.packing.groups:
        column += [speaker for speaker, _ in tree.walk] * copies
    return tuple(column)


def broadcast_trees(run: ProtocolRun) -> tuple[int, ...]:
    """The tree index of every broadcast, in transcript order: each copy's
    index once per walk step of its group.  A whole-column oracle for the
    tree-index ranges of ``pinkey.protocol.transcript_steps``."""
    column: list[int] = []
    first = 0  # the group's first tree
    for tree, copies in run.packing.groups:
        column += [k for k in range(first, first + copies) for _ in tree.walk]
        first += copies
    return tuple(column)


def columnar_transcript(run: ProtocolRun) -> tuple[Broadcast, ...]:
    """Broadcast r built from entry r of the whole tree-index, speaker and
    bit columns and row r of ``transcript_map``: the per-position oracle
    for ``ProtocolRun.transcript``, which reads its walk step in
    ``transcript_steps``.  It holds on honest maps only, those
    ``run_protocol`` builds: the view reads the supports off the packing."""
    order = run.edge_order
    return tuple(Broadcast(tree, speaker, bit, tuple(order[k] for k in row))
                 for tree, speaker, bit, row in zip(broadcast_trees(run), speakers(run),
                                                    run.transcript_bits,
                                                    run.transcript_map.rows))


def columnar_transcript_json(run: ProtocolRun) -> str:
    """The ``transcript`` JSON field built from whole columns, one object
    per broadcast zipped from the bits, both support columns of
    ``transcript_map.row_columns()``, the speakers and the tree indices:
    the oracle for ``pinkey.cli._transcript_json``, which formats one walk
    step of every copy at a time.  It holds on honest maps only, those
    ``run_protocol`` builds: the renderer reads the supports off the
    packing."""
    return "[" + ",".join(map(
        '{"bit":%d,"support":[%d,%d],"terminal":%d,"tree":%d}'.__mod__,
        zip(run.transcript_bits, *run.transcript_map.row_columns(),
            speakers(run), broadcast_trees(run)))) + "]"


def columnar_export_transcript(run: ProtocolRun) -> str:
    """``export_transcript`` with one broadcast line per position, zipped
    from the whole tree-index, speaker, bit and support columns: the
    oracle for ``pinkey.export_transcript``, which reads the transcript
    one walk step at a time.  It holds on honest maps only, those
    ``run_protocol`` builds: the renderer reads the supports off the
    packing."""
    lines = [
        f"seed {run.keys.seed if run.keys.seed is not None else 'none'}",
        f"edges {run.graph.total_edges()}",
        f"trees {run.packing.count}",
        f"key bits={len(run.key_bits)} hex={shift_bits_to_hex(run.key_bits)}",
        f"residual bits={len(run.residual_bits)} hex={shift_bits_to_hex(run.residual_bits)}",
    ]
    lines += map("broadcast tree=%d terminal=%d bit=%d support=%d,%d".__mod__,
                 zip(broadcast_trees(run), speakers(run), run.transcript_bits,
                     *run.transcript_map.row_columns()))
    return "\n".join(lines) + "\n"


def gray_code_bruteforce(
    run: ProtocolRun, edge_cap: int = BRUTEFORCE_EDGE_CAP
) -> SecurityReport:
    """Security index by enumerating every edge-bit assignment: the
    whole-space oracle for ``pinkey.security_index_bruteforce``.

    Builds the exact joint distribution of (key, transcript), one int per
    image with the key bits above the transcript bits, and computes the
    entropies directly; the marginals are split off it afterwards.  Gray-code
    iteration keeps each step O(1): one edge bit flips, so the image is
    updated by XOR with that edge's column.
    """
    edges = len(run.edge_order)
    if edges > edge_cap:
        raise SizeLimitError(
            f"brute force is capped at {edge_cap} edges, got {edges}"
        )
    columns = [0] * edges
    for r, row in enumerate(run.transcript_map.rows + run.key_map.rows):
        for k in row:
            columns[k] |= 1 << r

    joint: Counter = Counter({0: 1})
    image = 0
    for step in range(1, 1 << edges):
        image ^= columns[(step & -step).bit_length() - 1]
        joint[image] += 1
    width = run.transcript_map.nrows
    mask = (1 << width) - 1
    key_marginal: Counter = Counter()
    transcript_marginal: Counter = Counter()
    for image, count in joint.items():
        key_marginal[image >> width] += count
        transcript_marginal[image & mask] += count

    def entropy(tally: Counter) -> Fraction:
        return Fraction(edges) - Fraction(_log_weight(tally.values()), 1 << edges)

    joint_entropy = entropy(joint)
    transcript_entropy = entropy(transcript_marginal)
    key_entropy = entropy(key_marginal)
    key_given_transcript = joint_entropy - transcript_entropy
    key_length = len(run.key_bits)
    report = SecurityReport(
        key_length=key_length,
        key_entropy=key_entropy,
        key_given_transcript=key_given_transcript,
        method="bruteforce",
    )
    # the report derives its index and deficit from the entropies
    assert report.security_index == key_length - key_given_transcript
    assert report.uniformity_deficit == key_length - key_entropy
    return report


def json_dumps_report(
    command: str,
    model_path: str,
    members: Sequence[int] | None = None,
    scale: int | None = None,
    mode: str = "exact",
    seed: int = 0,
) -> str:
    """The structured output of ``pinkey pack`` or ``pinkey simulate``, one
    line: the report as one dict, trees read from ``packing.trees``, the
    run from ``per_tree_run_protocol`` and each broadcast turned into a
    dict, all encoded by one ``json.dumps``.  The oracle for the CLI, which
    renders ``trees`` and ``transcript`` from the groups and columns."""
    model = load_model(model_path)
    target = TerminalSet(tuple(members)) if members else TerminalSet.full(model.m)
    scale = scale if scale is not None else base_scale(model)
    graph = realize_multigraph(model, scale)
    packing = steiner_packing(graph, target, mode=mode)
    report = {
        "command": command,
        "terminals": model.m,
        "set": list(target.members),
        "scale": scale,
        "mode": mode,
        "edge_total": graph.total_edges(),
        "tree_count": packing.count,
        "rate": format_rational(Fraction(packing.count, scale)),
        "trees": [tree.edges for tree in packing.trees],
    }
    if command == "simulate":
        run, broadcasts = per_tree_run_protocol(packing, draw_edge_keys(graph, seed))
        index = {edge: k for k, edge in enumerate(graph.edge_refs())}
        report_card = audit(run)
        report.update({
            "seed": seed,
            "key_bits": len(run.key_bits),
            "transcript_bits": len(broadcasts),
            "residual_bits": len(run.residual_bits),
            "security_index": format_rational(report_card.security_index),
            "audit_method": report_card.method,
            "recovered": [
                {"terminal": t, "ok": report_card.recoverability[t]}
                for t in sorted(report_card.recoverability)
            ],
            "audit_passed": report_card.passed,
            "transcript": [
                {
                    "tree": b.tree,
                    "terminal": b.terminal,
                    "bit": b.bit,
                    "support": [index[edge] for edge in b.support],
                }
                for b in broadcasts
            ],
        })
    report["format_version"] = 1
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _reference_parse_rational(text: object) -> Fraction:
    if isinstance(text, bool):
        raise ValueError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
        if match is None:
            raise ValueError(f"malformed rational {text!r}")
        numerator, denominator = match.group(1, 2)
        try:
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {text!r}") from exc
    raise ValueError(f"expected an integer or 'p/q' string, got {text!r}")


def reference_loads_model(text: str) -> PinModel:
    """The model-file loader that checks every record with set builds and
    messages made up front, and parses values by an uncompiled pattern."""

    def fail(message: str) -> None:
        raise ModelFormatError(message)

    def require_int(value, context: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            fail(f"{context}: expected an integer, got {value!r}")
        return value

    def pair_of(record: dict, m: int, context: str) -> tuple[int, int]:
        i = require_int(record["i"], f"{context}.i")
        j = require_int(record["j"], f"{context}.j")
        if i == j:
            fail(f"{context}: self-pair ({i}, {j})")
        if not (1 <= i <= m and 1 <= j <= m):
            fail(f"{context}: pair ({i}, {j}) outside terminals 1..{m}")
        return (min(i, j), max(i, j))

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        fail("top level must be a JSON object")
    unknown = set(doc) - {"terminals", "weights", "pmfs"}
    if unknown:
        fail(f"unknown top-level fields: {sorted(unknown)}")
    if "terminals" not in doc:
        fail("missing required field 'terminals'")
    m = require_int(doc["terminals"], "terminals")
    if m < 2:
        fail(f"terminals must be >= 2, got {m}")
    if m > MAX_TERMINALS:
        raise SizeLimitError(
            f"terminals={m} exceeds the model cap MAX_TERMINALS={MAX_TERMINALS}")
    if "weights" not in doc and "pmfs" not in doc:
        fail("at least one of 'weights' / 'pmfs' must be present")

    weights = None
    if "weights" in doc:
        if not isinstance(doc["weights"], list):
            fail("'weights' must be a list of records")
        weights = {}
        for k, record in enumerate(doc["weights"]):
            context = f"weights[{k}]"
            if not isinstance(record, dict):
                fail(f"{context}: expected an object")
            unknown = set(record) - {"i", "j", "value"}
            if unknown:
                fail(f"{context}: unknown fields {sorted(unknown)}")
            if set(record) != {"i", "j", "value"}:
                fail(f"{context}: needs exactly fields i, j, value")
            pair = pair_of(record, m, context)
            if pair in weights:
                fail(f"{context}: duplicate pair {pair}")
            try:
                value = _reference_parse_rational(record["value"])
            except ValueError as exc:
                raise ModelFormatError(f"{context}.value: {exc}") from exc
            if value < 0:
                fail(f"{context}: negative weight {format_rational(value)}")
            weights[pair] = value

    pmfs = {}
    fields = {"i", "j", "rows", "cols", "probs"}
    if "pmfs" in doc:
        if not isinstance(doc["pmfs"], list):
            fail("'pmfs' must be a list of records")
        for k, record in enumerate(doc["pmfs"]):
            context = f"pmfs[{k}]"
            if not isinstance(record, dict):
                fail(f"{context}: expected an object")
            unknown = set(record) - fields
            if unknown:
                fail(f"{context}: unknown fields {sorted(unknown)}")
            if set(record) != fields:
                fail(f"{context}: needs exactly fields i, j, rows, cols, probs")
            pair = pair_of(record, m, context)
            if pair in pmfs:
                fail(f"{context}: duplicate pair {pair}")
            rows = require_int(record["rows"], f"{context}.rows")
            cols = require_int(record["cols"], f"{context}.cols")
            if rows < 1 or cols < 1:
                fail(f"{context}: alphabet sizes must be positive")
            probs = record["probs"]
            if not isinstance(probs, list) or len(probs) != rows * cols:
                fail(f"{context}: probs must be a row-major list of length "
                     f"{rows * cols}")
            for p in probs:
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    fail(f"{context}: non-numeric probability {p!r}")
            try:
                table = [[float(probs[r * cols + c]) for c in range(cols)]
                         for r in range(rows)]
            except OverflowError:
                fail(f"{context}: a probability is too large for a float")
            try:
                pmfs[pair] = PairPmf.from_rows(table)
            except ValueError as exc:
                raise ModelFormatError(f"{context}: {exc}") from exc

    try:
        if weights is not None:
            return PinModel.from_weights(m, weights, pmfs)
        return PinModel.from_pmfs(m, pmfs)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py``, loaded from its file without writing
    bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module
