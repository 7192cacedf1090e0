"""GF(2) linear algebra on int bitmask rows (column k = bit k)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def gf2_rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over the first ``ncols`` columns: each row is reduced against a
    basis keyed by leading bit and joins it if a new leading bit remains."""
    mask = (1 << ncols) - 1
    basis: dict[int, int] = {}
    for row in rows:
        row &= mask
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


@dataclass(frozen=True)
class Gf2Matrix:
    """Bit matrix; row r is the int ``rows[r]`` over ``ncols`` columns."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise ValueError("column count must be nonnegative")
        limit = 1 << self.ncols
        for r, row in enumerate(self.rows):
            if row < 0 or row >= limit:
                raise ValueError(f"row {r} has bits outside {self.ncols} columns")

    @classmethod
    def from_rows(cls, rows: Iterable[int], ncols: int) -> "Gf2Matrix":
        return cls(tuple(rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return gf2_rank(self.rows, self.ncols)

    def stack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if other.ncols != self.ncols:
            raise ValueError("column counts differ")
        return Gf2Matrix(self.rows + other.rows, self.ncols)

    def apply(self, vector: int) -> int:
        """Matrix-vector product; returns output bits packed as an int."""
        out = 0
        for r, row in enumerate(self.rows):
            out |= ((row & vector).bit_count() & 1) << r
        return out
