"""Partition bounds: the crossing-weight upper bound and tree-packing counts.

``min_ratio`` is the one routine for the minimum over partitions of
crossing weight / (atoms - 1), on integer tables only.  It serves
``best_partition`` (the capacity upper bound, on the model's
``base_weights``, divided by the base scale once), ``nash_williams_count``
(its floor on edge multiplicities with A = all terminals) and the exact
Steiner search in ``packing`` (whether the remaining edge capacities go
below a tree count, as the pruning bound).

Partitions of the terminals are restricted-growth strings (RGS), so each
appears once, in canonical order.  Only partitions with at least two atoms
are considered (the one-atom partition would divide by zero), and for a
target set A only partitions whose every atom meets A qualify.
They are walked in RGS order by one search, ``pruned_partitions``.
``best_partition`` and ``nash_williams_count`` run it as a branch and
bound, and the exact Steiner search runs it in threshold mode, asking
only whether some partition goes below a given ratio;
``enumerate_partitions`` runs it with a bound that never cuts and
streams every partition, without materializing the Bell-number family,
as the test oracle for the other callers.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .errors import SizeLimitError
from .model import Multigraph, Pair, PinModel, TerminalSet, base_scale

# the terminal count past which no partition search runs, read at each
# search; the capacity LP's subset enumeration reads it too
TERMINAL_CAP = 12


@dataclass(frozen=True)
class Partition:
    """Canonical partition: ``assignment[t]`` is the atom of terminal t+1,
    atoms numbered by first appearance."""

    assignment: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = 0
        for k, atom in enumerate(self.assignment):
            if atom > seen:
                raise ValueError(
                    f"assignment {self.assignment} is not in canonical "
                    f"restricted-growth form at position {k}"
                )
            if atom == seen:
                seen += 1
        if seen < 2:
            raise ValueError("a partition needs at least two atoms")
        object.__setattr__(self, "size", seen)

    def atoms(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.size)]
        for t, atom in enumerate(self.assignment):
            out[atom].append(t + 1)
        return tuple(tuple(a) for a in out)


def enumerate_partitions(m: int, target: TerminalSet) -> Iterator[Partition]:
    """Stream partitions of 1..m with >= 2 atoms, every atom meeting the
    target, in RGS order: the pruned search with nothing to prune against,
    so it skips the crossing bound (its target-terminal counts still cut
    hopeless prefixes early)."""
    for _, partition in pruned_partitions(m, target)([], None):
        yield partition


# Called by ``min_ratio`` with the integer (i, j, weight) items and the
# incumbent test ``beaten(crossing, parts)``; yields (crossing, partition)
# in RGS order, skipping every prefix that ``beaten`` rules out.  With
# ``beaten`` None nothing is cut and the crossings read 0.
PartitionSearch = Callable[
    [list[tuple], Callable[[int, int], bool] | None], Iterator[tuple[int, Partition]]
]


def pruned_partitions(
    m: int, target: TerminalSet, cap: int | None = None
) -> PartitionSearch:
    """Branch and bound over the partitions ``enumerate_partitions``
    streams, in the same order: a prefix is cut when no completion can
    strictly beat the incumbent (see the module docstring).  ``cap``
    defaults to ``TERMINAL_CAP``; the exact Steiner search, which its
    edge cap limits instead, passes m."""
    target.validate_within(m)
    if cap is None:
        cap = TERMINAL_CAP
    if m > cap:
        raise SizeLimitError(
            f"m={m} exceeds the partition-enumeration cap {cap}"
        )
    # whether each terminal is in the target; target terminals at or after k
    in_target = [t in target for t in range(1, m + 1)]
    remaining = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        remaining[k] = remaining[k + 1] + (1 if in_target[k] else 0)

    def search(items: list[tuple], beaten: Callable[[int, int], bool] | None
               ) -> Iterator[tuple[int, Partition]]:
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

    return search


def _items(table: Mapping[Pair, int]) -> list[tuple[int, int, int]]:
    return [(i - 1, j - 1, v) for (i, j), v in table.items() if v]


def min_ratio(
    table: Mapping[Pair, int], search: PartitionSearch, below: int | None = None,
) -> tuple[Fraction, Partition] | Partition | None:
    """Minimum over the partitions of crossing / (atoms - 1), with the
    first partition attaining it; ``table`` maps pairs to integer weights
    or edge multiplicities.  The search is walked with the incumbent as its
    bound, and ratios are compared by cross-multiplication, so no Fraction
    is built per partition.

    With ``below`` the incumbent starts at that ratio and the first
    partition strictly below it is returned, or None when there is none:
    the search then cuts every prefix that cannot go below the threshold."""
    best: Partition | None = None
    # the incumbent ratio; 1 / 0 stands for infinity until the first partition
    best_crossing, best_parts = (1, 0) if below is None else (below, 1)

    def beaten(crossing: int, parts: int) -> bool:
        """True when crossing / parts does not strictly beat the incumbent."""
        return crossing * best_parts >= best_crossing * parts

    for crossing, partition in search(_items(table), beaten):
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
    value, partition = min_ratio(model.base_weights,
                                 pruned_partitions(model.m, target))
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
    search = pruned_partitions(graph.m, TerminalSet.full(graph.m))
    return math.floor(min_ratio(graph.multiplicities, search)[0])
