"""Partition bounds: the crossing-weight upper bound and tree-packing counts.

``min_ratio`` is the one routine for the minimum over partitions of
crossing weight / (atoms - 1), on integer tables only.  It serves
``best_partition`` (the capacity upper bound, on the model's
``base_weights``, divided by the base scale once), ``nash_williams_count``
(its floor on edge multiplicities with A = all terminals) and the exact
Steiner search in ``packing`` (whether the remaining edge capacities go
below a tree count, as the pruning bound, asked on the reduced graph once
max flows have ruled out every two-atom partition).

Partitions of the terminals are restricted-growth strings (RGS), so each
appears once, in canonical order.  Only partitions with at least two atoms
are considered (the one-atom partition would divide by zero), and for a
target set A only partitions whose every atom meets A qualify.
They are walked in RGS order by one generator, ``_search``.  ``min_ratio``
runs it as a branch and bound, or in threshold mode, asking only whether
some partition goes below a given ratio; ``enumerate_partitions`` runs it
with a bound that never cuts and streams every partition, without
materializing the Bell-number family, as the test oracle for the other
callers.  ``TERMINAL_CAP`` is checked by the three entry points that walk
a model's or a graph's partitions, ``enumerate_partitions``,
``best_partition`` and ``nash_williams_count``, not by ``min_ratio``.

In the branch and bound, a prefix carries its crossing and, for each
later terminal, its weight into each prefix atom.  A later terminal joins
at most one atom, so the final crossing is at least the prefix crossing
plus, over the later terminals, their weight to the prefix minus their
weight to their heaviest prefix atom; and since every new atom needs a
target terminal of its own, the final atom count is at most the open
atoms plus the target terminals left over once every open atom without
one has been given one.  A prefix whose best possible ratio
cannot strictly beat the incumbent is cut.  At a leaf the bound is the
partition's own ratio, so every partition yielded, with its crossing, is
a strict improvement and becomes the incumbent: the search returns the
same value and RGS-first minimizer as a full scan, stopping at crossing 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .errors import SizeLimitError
from .model import Multigraph, Pair, PinModel, TerminalSet, base_scale
from .value import Value

# the terminal count past which no model's or graph's partitions are walked,
# read at each entry point; the capacity LP's subset enumeration reads it too
TERMINAL_CAP = 12


class Partition(Value):
    """Canonical partition: ``assignment[t]`` is the atom of terminal t+1,
    atoms numbered by first appearance; ``size`` counts the atoms."""

    assignment: tuple[int, ...]
    size: int

    def __init__(self, assignment: tuple[int, ...]) -> None:
        assignment = tuple(assignment)
        seen = 0
        for k, atom in enumerate(assignment):
            # type() rather than isinstance: a bool is no atom
            if type(atom) is not int or not 0 <= atom <= seen:
                raise ValueError(
                    f"assignment {assignment} is not in canonical "
                    f"restricted-growth form at position {k}"
                )
            if atom == seen:
                seen += 1
        if seen < 2:
            raise ValueError("a partition needs at least two atoms")
        self._store(assignment=assignment, size=seen)

    def atoms(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.size)]
        for t, atom in enumerate(self.assignment):
            out[atom].append(t + 1)
        return tuple(tuple(a) for a in out)


def _check_cap(m: int) -> None:
    if m > TERMINAL_CAP:
        raise SizeLimitError(f"m={m} exceeds the partition-enumeration cap {TERMINAL_CAP}")


def enumerate_partitions(m: int, target: TerminalSet) -> Iterator[Partition]:
    """Stream partitions of 1..m with >= 2 atoms, every atom meeting the
    target, in RGS order: the search with nothing to prune against, so it
    skips the crossing bound (its target-terminal counts still cut
    hopeless prefixes early)."""
    _check_cap(m)
    for _, partition in _search(m, target, [], None):
        yield partition


def _search(m: int, target: TerminalSet, items: list[tuple],
            beaten: Callable[[int, int], bool] | None
            ) -> Iterator[tuple[int, Partition]]:
    """Yield (crossing, partition) in RGS order for the integer (i, j,
    weight) ``items``, cutting each prefix whose bounds ``beaten(crossing,
    atoms - 1)`` rules out; with ``beaten`` None the crossings read 0."""
    target.validate_within(m)
    # whether each terminal is in the target; target terminals at or after k
    in_target = [t in target for t in range(1, m + 1)]
    remaining = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        remaining[k] = remaining[k + 1] + (1 if in_target[k] else 0)
    weight = [[0] * m for _ in range(m)]
    for i, j, value in items:
        weight[i][j] = weight[j][i] = value
    # into[t][a]: weight from a later terminal t to the prefix in atom a
    # (0 for atoms not yet opened); prefix[t]: its weight to the prefix
    into = [[0] * m for _ in range(m)]
    prefix = [0] * m
    has_target = [False] * m
    assignment = [0] * m

    def rec(k: int, natoms: int, unfixed: int,
            crossing: int) -> Iterator[tuple[int, Partition]]:
        # unfixed = atoms opened so far that contain no target terminal
        if k == m:
            yield crossing, Partition(tuple(assignment))
            return
        fixes = in_target[k]
        row = weight[k]
        # with nothing to prune against the bound's terms stay unread
        later = range(k + 1, m) if beaten is not None else ()
        for t in later:
            prefix[t] += row[t]
        for atom in range(natoms + 1):
            opening = atom == natoms
            if opening:
                new_unfixed = unfixed + (0 if fixes else 1)
            else:
                new_unfixed = unfixed - (
                    1 if fixes and not has_target[atom] else 0)
            if new_unfixed > remaining[k + 1]:
                continue  # not enough target terminals left to fix every atom
            new_natoms = natoms + (1 if opening else 0)
            max_atoms = new_natoms + remaining[k + 1] - new_unfixed
            if max_atoms < 2:
                continue
            new_crossing = crossing + prefix[k] - into[k][atom]
            for t in later:
                into[t][atom] += row[t]
            if beaten is None or not beaten(
                    new_crossing + sum(prefix[t] - max(into[t]) for t in later),
                    max_atoms - 1):
                assignment[k] = atom
                held = has_target[atom]
                has_target[atom] = held or fixes
                yield from rec(k + 1, new_natoms, new_unfixed, new_crossing)
                has_target[atom] = held
            for t in later:
                into[t][atom] -= row[t]
        for t in later:
            prefix[t] -= row[t]

    yield from rec(0, 0, 0, 0)


def _items(table: Mapping[Pair, int]) -> list[tuple[int, int, int]]:
    return [(i - 1, j - 1, v) for (i, j), v in table.items() if v]


def min_ratio(
    table: Mapping[Pair, int], m: int, target: TerminalSet, below: int | None = None,
) -> tuple[Fraction, Partition] | Partition | None:
    """Minimum over the partitions of 1..m whose every atom meets the
    target of crossing / (atoms - 1), with the first partition attaining
    it; ``table`` maps pairs to integer weights or edge multiplicities.
    The search is walked with the incumbent as its bound, and ratios are
    compared by cross-multiplication, so no Fraction is built per
    partition.  It checks no cap (see the module docstring).

    With ``below`` the incumbent starts at that ratio and the first
    partition strictly below it is returned, or None when there is none:
    the search then cuts every prefix that cannot go below the threshold."""
    best: Partition | None = None
    # the incumbent ratio; 1 / 0 stands for infinity until the first partition
    best_crossing, best_parts = (1, 0) if below is None else (below, 1)

    def beaten(crossing: int, parts: int) -> bool:
        """True when crossing / parts does not strictly beat the incumbent."""
        return crossing * best_parts >= best_crossing * parts

    for crossing, partition in _search(m, target, _items(table), beaten):
        if below is not None:
            return partition
        best, best_crossing, best_parts = partition, crossing, partition.size - 1
        if crossing == 0:
            break
    if below is not None:
        return None
    if best is None:
        raise ValueError("no partition to minimize over")
    return Fraction(best_crossing, best_parts), best


def crossing_weight(model: PinModel, partition: Partition) -> Fraction:
    """Total weight of pairs whose endpoints lie in different atoms."""
    model.require_exact("crossing weight")
    if len(partition.assignment) != model.m:
        raise ValueError("partition and model have different terminal counts")
    side = partition.assignment
    crossing = sum(v for i, j, v in _items(model.base_weights) if side[i] != side[j])
    return Fraction(crossing, base_scale(model))


def best_partition(model: PinModel, target: TerminalSet) -> tuple[Fraction, Partition]:
    """Minimum of crossing-weight / (atoms - 1) with a minimizing partition."""
    model.require_exact("partition bound")
    _check_cap(model.m)
    value, partition = min_ratio(model.base_weights, model.m, target)
    return value / base_scale(model), partition


def upper_bound(model: PinModel, target: TerminalSet) -> Fraction:
    """Capacity upper bound: min over qualifying partitions of the
    normalized crossing weight."""
    return best_partition(model, target)[0]


def spanning_rate(model: PinModel) -> Fraction:
    """Upper bound with A = all terminals; equals the supremum of
    spanning-tree packing rates over valid scales."""
    return upper_bound(model, TerminalSet.full(model.m))


def nash_williams_count(graph: Multigraph) -> int:
    """Exact maximum number of edge-disjoint spanning trees, by the
    min over partitions of floor(crossing edges / (atoms - 1))."""
    if graph.m < 2:
        return 0
    _check_cap(graph.m)
    full = TerminalSet.full(graph.m)
    return math.floor(min_ratio(graph.multiplicities, graph.m, full)[0])
