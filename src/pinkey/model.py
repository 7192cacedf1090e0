"""Pairwise-independent network source models and their scaled multigraphs.

A model on terminals ``1..m`` assigns every unordered pair a nonnegative
correlation weight measured in bits.  Exact-mode models carry rational
weights and back all the combinatorial machinery (capacity LP, partition
bounds, tree packing); float-mode models derive their weights from per-pair
joint pmfs and are used for the entropy-based consistency checks, where
results carry a 1e-9 comparison tolerance.

An exact model's ``base_weights``, ``w_ij · n0`` over the base scale
``n0`` (the edge multiplicities of G(n0)), are the one integer form of its
weights: the multigraphs, the capacity LP and the partition bound read them.

Terminals are 1-indexed throughout.  Zero-weight pairs are stored
explicitly, so sparse inputs are legal; since that costs ``m(m-1)/2``
entries, a model has at most ``MAX_TERMINALS`` terminals.  All types are
immutable after construction and safe to share between workers: the
weight, pmf and multiplicity tables, and the ``base_weights`` and
``pair_offsets()`` caches, are read-only mappings (see ``value``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .errors import InvalidScaleError, SizeLimitError, UnsupportedModeError
from .value import Value

# Exact weights live in fractions.Fraction: arbitrary precision, stored in
# lowest terms with a positive denominator.
Rational = Fraction

Pair = tuple[int, int]
EdgeRef = tuple[int, int, int]  # (i, j, copy) with i < j and 0 <= copy

PMF_SUM_TOLERANCE = 1e-12
WEIGHT_MATCH_TOLERANCE = 1e-9
# Every model stores all m(m-1)/2 pairs (32640 at the cap).  The exact
# solvers stop far lower (``partitions.TERMINAL_CAP``).
MAX_TERMINALS = 256


def check_terminal_count(m: int) -> None:
    """Raise on a count that is not an int, or past ``MAX_TERMINALS``."""
    if type(m) is not int:  # type() rather than isinstance: a bool is no count
        raise ValueError(f"terminal count {m!r} is not an integer")
    if m > MAX_TERMINALS:
        raise SizeLimitError(
            f"terminals={m} exceeds the model cap MAX_TERMINALS={MAX_TERMINALS}"
        )


def canonical_pair(i: int, j: int) -> Pair:
    if i == j:
        raise ValueError(f"self-pair ({i}, {j}) is not allowed")
    return (i, j) if i < j else (j, i)


def all_pairs(m: int) -> Iterator[Pair]:
    """Every pair ``(i, j)`` with ``1 <= i < j <= m``, in row-major order."""
    return combinations(range(1, m + 1), 2)


def _entropy(probabilities: Iterable[float]) -> float:
    # 0 * log 0 == 0 convention
    return -sum(p * math.log2(p) for p in probabilities if p > 0.0)


class PairPmf(Value):
    """Joint pmf of one reciprocal pair, rows indexed by the lower terminal."""

    probs: tuple[tuple[float, ...], ...]

    def __init__(self, probs: tuple[tuple[float, ...], ...]) -> None:
        probs = tuple(map(tuple, probs))
        if not probs or not probs[0]:
            raise ValueError("pmf table must be non-empty")
        width = len(probs[0])
        if any(len(row) != width for row in probs):
            raise ValueError("pmf table must be rectangular")
        total = 0.0
        for row in probs:
            for p in row:
                if not math.isfinite(p):
                    raise ValueError(f"non-finite probability {p}")
                if p < 0.0:
                    raise ValueError(f"negative probability {p}")
                total += p
        if abs(total - 1.0) > PMF_SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self._store(probs=probs)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "PairPmf":
        return cls(tuple(tuple(float(p) for p in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.probs)

    @property
    def cols(self) -> int:
        return len(self.probs[0])

    def row_marginals(self) -> tuple[float, ...]:
        return tuple(sum(row) for row in self.probs)

    def col_marginals(self) -> tuple[float, ...]:
        return tuple(sum(row[j] for row in self.probs) for j in range(self.cols))

    def joint_entropy(self) -> float:
        return _entropy(p for row in self.probs for p in row)

    def row_entropy(self) -> float:
        return _entropy(self.row_marginals())

    def col_entropy(self) -> float:
        return _entropy(self.col_marginals())

    def row_given_col_entropy(self) -> float:
        """H(row variable | column variable)."""
        return self.joint_entropy() - self.col_entropy()

    def col_given_row_entropy(self) -> float:
        return self.joint_entropy() - self.row_entropy()


def mutual_information(pmf: PairPmf) -> float:
    """Mutual information of a joint pmf in bits, with 0*log conventions."""
    rows = pmf.row_marginals()
    cols = pmf.col_marginals()
    total = 0.0
    for x, row in enumerate(pmf.probs):
        for y, p in enumerate(row):
            if p > 0.0:
                total += p * math.log2(p / (rows[x] * cols[y]))
    return total


class TerminalSet(Value):
    """A sorted set of at least two terminals seeking a shared key."""

    members: tuple[int, ...]

    def __init__(self, members: tuple[int, ...]) -> None:
        for t in members:  # type() rather than isinstance: a bool is no terminal
            if type(t) is not int:
                raise ValueError(f"terminal {t!r} is not an integer")
        members = tuple(sorted(set(members)))
        if len(members) < 2:
            raise ValueError("a terminal set needs at least two terminals")
        if members[0] < 1:
            raise ValueError(f"terminals are 1-indexed, got {members[0]}")
        self._store(members=members)

    @classmethod
    def of(cls, *terminals: int) -> "TerminalSet":
        return cls(tuple(terminals))

    @classmethod
    def full(cls, m: int) -> "TerminalSet":
        return cls(tuple(range(1, m + 1)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, terminal: object) -> bool:
        return terminal in self.members

    def mask(self) -> int:
        """Bitmask with bit ``t - 1`` set for each member ``t``."""
        out = 0
        for t in self.members:
            out |= 1 << (t - 1)
        return out

    def validate_within(self, m: int) -> None:
        if self.members[-1] > m:
            raise ValueError(
                f"terminal {self.members[-1]} is outside the model's 1..{m}"
            )


def _normalize_weights(
    m: int, weights: Mapping[Pair, object]
) -> dict[Pair, Fraction]:
    table: dict[Pair, Fraction] = dict.fromkeys(all_pairs(m), Fraction(0))
    explicit: dict[Pair, Fraction] = {}
    for (i, j), value in weights.items():
        pair = canonical_pair(i, j)
        if pair[0] < 1 or pair[1] > m:
            raise ValueError(f"pair {pair} is outside terminals 1..{m}")
        # exactly an int or a Fraction (type(), not isinstance: a bool is
        # no weight); no float or string, as in Multigraph
        if type(value) is Fraction:
            weight = value
        elif type(value) is int:
            weight = Fraction(value)
        else:
            raise ValueError(f"weight for pair {pair} is not a rational: {value!r}")
        if weight.numerator < 0:
            raise ValueError(f"weight for pair {pair} is negative: {weight}")
        if pair in explicit and explicit[pair] != weight:
            raise ValueError(f"conflicting weights for pair {pair}")
        explicit[pair] = weight
        table[pair] = weight
    return table


class PinModel(Value):
    """Source model: terminal count plus symmetric pairwise weights.

    ``weights`` is present exactly for exact-mode models.  ``pmfs`` may back
    any subset of pairs; a float-mode model reads its weights off the pmfs
    (pairs without a pmf have weight zero).
    """

    m: int
    weights: Mapping[Pair, Fraction] | None
    pmfs: Mapping[Pair, PairPmf]

    def __init__(self, m: int, weights: Mapping[Pair, Fraction] | None,
                 pmfs: Mapping[Pair, PairPmf]) -> None:
        check_terminal_count(m)
        if m < 2:
            raise ValueError(f"need at least two terminals, got m={m}")
        pmfs = {canonical_pair(i, j): pmf for (i, j), pmf in pmfs.items()}
        for pair in pmfs:
            if pair[0] < 1 or pair[1] > m:
                raise ValueError(f"pmf pair {pair} outside terminals 1..{m}")
        if weights is not None:
            weights = _normalize_weights(m, weights)
            for pair, pmf in pmfs.items():
                drift = abs(mutual_information(pmf) - float(weights[pair]))
                if drift > WEIGHT_MATCH_TOLERANCE:
                    raise ValueError(
                        f"pmf for pair {pair} disagrees with its weight "
                        f"by {drift:.3g} bits"
                    )
        self._store(m=m, weights=weights, pmfs=pmfs)

    @classmethod
    def from_weights(
        cls,
        m: int,
        weights: Mapping[Pair, object],
        pmfs: Mapping[Pair, PairPmf] | None = None,
    ) -> "PinModel":
        return cls(m=m, weights=dict(weights), pmfs=dict(pmfs or {}))

    @classmethod
    def from_pmfs(cls, m: int, pmfs: Mapping[Pair, PairPmf]) -> "PinModel":
        return cls(m=m, weights=None, pmfs=dict(pmfs))

    @property
    def exact(self) -> bool:
        return self.weights is not None

    def require_exact(self, operation: str) -> Mapping[Pair, Fraction]:
        """The exact weight table; raises on a float-mode model."""
        if self.weights is None:
            raise UnsupportedModeError(
                f"{operation} needs exact rational weights; "
                "this model is float-mode (pmf-backed)"
            )
        return self.weights

    @property
    def base_weights(self) -> Mapping[Pair, int]:
        """``w_ij · n0`` per pair, ``n0`` the base scale; built on the first
        read and kept, read-only, outside the fields."""
        return self._base("integer base weights")[1]

    def _base(self, operation: str) -> tuple[int, Mapping[Pair, int]]:
        if "_base_weights" not in self.__dict__:
            weights = self.require_exact(operation)
            n0 = math.lcm(*(w.denominator for w in weights.values()))
            self._store(_base_scale=n0, _base_weights={
                pair: w.numerator * (n0 // w.denominator) for pair, w in weights.items()})
        return self._base_scale, self._base_weights

    def weight(self, i: int, j: int) -> Fraction:
        return self.require_exact("rational weight lookup")[canonical_pair(i, j)]

    def mi(self, i: int, j: int) -> float:
        """Pairwise weight as a float, valid in either mode."""
        pair = canonical_pair(i, j)
        if self.weights is not None:
            return float(self.weights[pair])
        pmf = self.pmfs.get(pair)
        return mutual_information(pmf) if pmf is not None else 0.0

    def pmf(self, i: int, j: int) -> PairPmf | None:
        return self.pmfs.get(canonical_pair(i, j))

    def pairs(self) -> Iterator[Pair]:
        return all_pairs(self.m)

    def scaled(self, factor: Fraction) -> "PinModel":
        """Model with every weight multiplied by a positive rational."""
        weights = self.require_exact("weight scaling")
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return PinModel.from_weights(
            self.m, {pair: w * factor for pair, w in weights.items()}
        )


class Multigraph(Value):
    """Integer edge multiplicities on terminals ``1..m``, no self-loops.

    ``multiplicities`` becomes the table of every pair ``(i, j)``, i < j, in
    sorted order, whatever the order and orientation of the entries; a pair
    given twice must get the same count both times.
    Connectivity is checked per-query, not at construction: disconnected
    inputs are legal and simply pack zero trees.
    """

    m: int
    multiplicities: Mapping[Pair, int]

    def __init__(self, m: int, multiplicities: Mapping[Pair, int]) -> None:
        check_terminal_count(m)
        if m < 1:
            raise ValueError(f"need at least one vertex, got m={m}")
        table: dict[Pair, int] = {pair: 0 for pair in all_pairs(m)}
        given: dict[Pair, int] = {}
        for (i, j), count in multiplicities.items():
            pair = canonical_pair(i, j)
            if pair[0] < 1 or pair[1] > m:
                raise ValueError(f"pair {pair} outside vertices 1..{m}")
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"multiplicity for {pair} is not an integer: {count!r}")
            if count < 0:
                raise ValueError(f"negative multiplicity for {pair}: {count}")
            if given.setdefault(pair, count) != count:
                raise ValueError(f"conflicting multiplicities for pair {pair}")
            table[pair] = count
        self._store(m=m, multiplicities=table)

    def multiplicity(self, i: int, j: int) -> int:
        return self.multiplicities[canonical_pair(i, j)]

    def total_edges(self) -> int:
        return sum(self.multiplicities.values())

    def support_pairs(self) -> tuple[Pair, ...]:
        return tuple(pair for pair, count in self.multiplicities.items() if count)

    def edge_refs(self) -> tuple[EdgeRef, ...]:
        """All edges in canonical order: sorted pair, then copy 0..e_ij-1.

        Built on the first call and kept outside the fields, so
        equality and repr ignore it; later calls return the same tuple of
        the same edge tuples.
        """
        refs = self.__dict__.get("_edge_refs")
        if refs is None:
            refs = tuple((i, j, c) for (i, j), count in self.multiplicities.items()
                         for c in range(count))
            self._store(_edge_refs=refs)
        return refs

    def pair_offsets(self) -> Mapping[Pair, int]:
        """Where each pair's copies start in canonical order: edge
        (i, j, c) is ``edge_refs()[pair_offsets()[(i, j)] + c]``.  Built on
        the first call and kept like ``edge_refs``, read-only."""
        if "_pair_offsets" not in self.__dict__:
            offsets = {}
            start = 0
            for pair, count in self.multiplicities.items():
                offsets[pair] = start
                start += count
            self._store(_pair_offsets=offsets)
        return self._pair_offsets


def base_scale(model: PinModel) -> int:
    """Least n making every scaled weight integral; valid scales are its
    positive multiples."""
    return model._base("base scale")[0]


def realize_multigraph(model: PinModel, n: int) -> Multigraph:
    """Multigraph with exactly ``n * weight`` parallel edges per pair: the
    base weights times ``n / n0``, n being a multiple of the base scale."""
    n0, base = model._base("multigraph realization")
    if type(n) is not int or n <= 0 or n % n0 != 0:  # type(): a bool is no scale
        raise InvalidScaleError(
            f"scale {n!r} is not a positive multiple of the base scale {n0}"
        )
    copies = n // n0
    return Multigraph(model.m, {pair: b * copies for pair, b in base.items()})


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/q``, or just ``p`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: object) -> Fraction:
    """Parse an integer or a ``p/q`` / ``p`` string into a Fraction.

    Strings are ASCII digits only, with an optional leading ``-`` and no
    spaces, signs elsewhere or digit separators."""
    if isinstance(text, int):
        if isinstance(text, bool):
            raise ValueError(f"expected a rational, got {text!r}")
        return Fraction(text)
    if isinstance(text, str):
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed rational {text!r}")
        numerator, denominator = match.group(1, 2)
        try:
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:  # zero or too many digits
            raise ValueError(f"malformed rational {text!r}") from exc
    raise ValueError(f"expected an integer or 'p/q' string, got {text!r}")
