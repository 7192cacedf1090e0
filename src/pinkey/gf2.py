"""GF(2) maps whose rows each sum one or two columns, stored as index tuples.

Such rows are the edges of a graph on the columns plus a ground node that
one-column rows join.  Rows are independent exactly when their edges form
a forest, so the rank is the size of a spanning forest, found by union-find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Row = tuple[int, ...]


def gf2_rank(rows: Sequence[Row], ncols: int) -> int:
    """Rank of one- and two-column rows over ``ncols`` columns: the number
    of rows that join two components, with column ``ncols`` as ground."""
    return _forest_sizes(ncols, rows)[0]


def _forest_sizes(ncols: int, *segments: Sequence[Row]) -> list[int]:
    """One spanning forest grown over the segments in turn; entry s is the
    rank of segments 0..s together, so a later segment continues the
    forest of the earlier ones instead of rebuilding it."""
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


@dataclass(frozen=True)
class Gf2Matrix:
    """Matrix over ``ncols`` columns; row r is the sum of the one or two
    distinct columns named by ``rows[r]``."""

    rows: tuple[Row, ...]
    ncols: int

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise ValueError("column count must be nonnegative")
        ncols = self.ncols
        for r, row in enumerate(self.rows):
            if len(row) == 2:
                first, second = row
                if first != second and 0 <= first < ncols and 0 <= second < ncols:
                    continue
            elif len(row) == 1 and 0 <= row[0] < ncols:
                continue
            raise ValueError(f"row {r} must name one or two distinct columns "
                             f"in range({ncols}), got {row!r}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return gf2_rank(self.rows, self.ncols)

    def apply(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product with ``bits[k]`` the bit of column k; one
        output bit per row."""
        return tuple(bits[row[0]] ^ bits[row[1]] if len(row) == 2 else bits[row[0]]
                     for row in self.rows)
