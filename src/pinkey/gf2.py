"""GF(2) maps whose rows each sum one or two columns, stored as blocks.

A block ``(copies, steps)`` holds ``copies * len(steps)`` rows.  Each step
``(first, second)`` names two column starts (``second`` is None for a
one-column step); copy k of step s is the row of columns ``first + k`` and
``second + k``, at row ``start + k * len(steps) + s`` where ``start`` is
the block's first row.  This is the protocol's layout: a packing group's
copies run one walk, so each group costs one block per map, and the row
check, ``apply`` and the ranks work once per step, not once per row.

Rows that sum one or two columns are the edges of a graph on the columns
plus a ground node that one-column rows join.  Rows are independent
exactly when their edges form a forest, so the rank is the size of a
spanning forest, found by union-find.  When every column interval
``(start, copies)`` that a step names is equal to or disjoint from every
other, the union-find runs over the intervals: a step joins ``copies``
disjoint pairs of components at once, so a joining step adds ``copies`` to
the rank.  Otherwise every block is first expanded to one-row blocks, and
the same loop runs per row.
"""

from __future__ import annotations

from functools import cached_property
from operator import xor
from typing import Sequence

from .value import Value

Row = tuple[int, ...]
Step = tuple[int, int | None]  # (first column start, second start or None)
Block = tuple[int, tuple[Step, ...]]  # (copies, steps)


def gf2_rank(rows: Sequence[Row], ncols: int) -> int:
    """Rank of one- and two-column rows over ``ncols`` columns: the number
    of rows that join two components, with one ground node."""
    return Gf2Matrix.from_rows(rows, ncols).rank()


def _row_blocks(blocks: Sequence[Block]) -> list[Block]:
    """The same rows, one one-row block each, in row order."""
    rows: list[Block] = []
    for copies, steps in blocks:
        for k in range(copies):
            rows += [(1, ((first + k, None if second is None else second + k),))
                     for first, second in steps]
    return rows


def _interval_nodes(segments: Sequence[Sequence[Block]]) -> dict[int, int] | None:
    """A node number per column-interval start, in start order, when every
    interval ``(start, copies)`` that a step names is equal to or disjoint
    from every other; None when two of them overlap otherwise."""
    length: dict[int, int] = {}
    for blocks in segments:
        for copies, steps in blocks:
            for first, second in steps:
                if length.setdefault(first, copies) != copies:
                    return None
                if second is not None and length.setdefault(second, copies) != copies:
                    return None
    starts = sorted(length)
    end = 0
    for start in starts:
        if start < end:
            return None
        end = start + length[start]
    return dict(zip(starts, range(len(starts))))


def _forest_sizes(*segments: Sequence[Block]) -> list[int]:
    """One spanning forest grown over the segments' blocks in turn; entry s
    is the rank of segments 0..s together, so a later segment continues the
    forest of the earlier ones instead of rebuilding it."""
    node = _interval_nodes(segments)
    if node is None:  # some intervals overlap partially: rank row by row
        segments = tuple(map(_row_blocks, segments))
        node = _interval_nodes(segments)
    ground = len(node)
    parent = list(range(ground + 1))
    rank = 0
    sizes = []
    for blocks in segments:
        for copies, steps in blocks:
            for first, second in steps:
                first = node[first]
                second = ground if second is None else node[second]
                while parent[first] != first:  # path halving
                    parent[first] = first = parent[parent[first]]
                while parent[second] != second:
                    parent[second] = second = parent[parent[second]]
                if first != second:
                    parent[first] = second
                    rank += copies
        sizes.append(rank)
    return sizes


class Gf2Matrix(Value):
    """Matrix over ``ncols`` columns, held as blocks (see the module
    docstring); every row sums one column or two distinct ones.  Two
    matrices are equal when their column counts and rows are."""

    blocks: tuple[Block, ...]
    ncols: int

    def __init__(self, blocks: Sequence[Block], ncols: int) -> None:
        if type(ncols) is not int or ncols < 0:  # a bool or float is no count
            raise ValueError(f"column count must be a nonnegative int, got {ncols!r}")
        checked = []
        nrows = 0
        for b, (copies, steps) in enumerate(blocks):
            if type(copies) is not int or copies < 1:
                raise ValueError(f"block {b} needs a positive copy count, got {copies!r}")
            last = ncols - copies  # the largest start that fits every copy
            block_steps = []
            for s, (first, second) in enumerate(steps):
                # type() rather than isinstance: a bool is no column start
                if type(first) is int and 0 <= first <= last and (second is None or (
                        type(second) is int and 0 <= second <= last and first != second)):
                    block_steps.append((first, second))
                    continue
                raise ValueError(
                    f"block {b} step {s} must name one or two distinct columns "
                    f"in range({ncols}) for each of its {copies} copies, "
                    f"got {(first, second)!r}")
            checked.append((copies, tuple(block_steps)))
            nrows += copies * len(block_steps)
        self._store(blocks=tuple(checked), ncols=ncols, _nrows=nrows)

    @classmethod
    def from_rows(cls, rows: Sequence[Row], ncols: int) -> Gf2Matrix:
        """The matrix whose row r names the columns ``rows[r]``, one
        one-row block per row."""
        blocks = []
        for r, row in enumerate(rows):
            if len(row) not in (1, 2):
                raise ValueError(f"row {r} must name one or two distinct columns, "
                                 f"got {row!r}")
            blocks.append((1, ((row[0], row[1] if len(row) == 2 else None),)))
        return cls(tuple(blocks), ncols)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """Row r as the tuple of its one or two columns; built on the first
        read, for readers that want single rows."""
        return tuple((first,) if second is None else (first, second)
                     for first, second in zip(*self.row_columns()))

    @property
    def nrows(self) -> int:
        return self._nrows

    def row_columns(self) -> tuple[list[int], list[int | None]]:
        """Every row's first and second column, as two lists in row order
        (None as the second column of a one-column row), each step filled
        by strided slices."""
        firsts: list = [0] * self.nrows
        seconds: list = [None] * self.nrows
        start = 0
        for copies, steps in self.blocks:
            width = len(steps)
            end = start + copies * width
            for s, (first, second) in enumerate(steps, start):
                firsts[s:end:width] = range(first, first + copies)
                if second is not None:
                    seconds[s:end:width] = range(second, second + copies)
            start = end
        return firsts, seconds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return self.ncols == other.ncols and (self.blocks == other.blocks
                                              or self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def rank(self) -> int:
        return _forest_sizes(self.blocks)[0]

    def apply(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product with ``bits[k]`` the bit of column k; one
        output bit per row."""
        if len(bits) != self.ncols:
            raise ValueError(f"{len(bits)} bits given for {self.ncols} columns")
        out = [0] * self.nrows
        start = 0
        for copies, steps in self.blocks:
            width = len(steps)
            end = start + copies * width
            for s, (first, second) in enumerate(steps, start):
                out[s:end:width] = (
                    bits[first:first + copies] if second is None else
                    map(xor, bits[first:first + copies], bits[second:second + copies]))
            start = end
        return tuple(out)
