"""Pairwise-independent network source models and their scaled multigraphs.

A model on terminals ``1..m`` assigns every unordered pair a nonnegative
correlation weight measured in bits.  Exact-mode models carry rational
weights and back all the combinatorial machinery (capacity LP, partition
bounds, tree packing); float-mode models derive their weights from per-pair
joint pmfs and are used for the entropy-based consistency checks, where
results carry a 1e-9 comparison tolerance.

An exact model is its integer form: its fields are the base scale ``n0``
and ``base_weights``, ``w_ij · n0`` per pair (the edge multiplicities of
G(n0)), which the multigraphs, the capacity LP and the partition bound
read.  ``PinModel(m, n0, base_weights, pmfs)`` is its one constructor: the
model-file loader calls it with no Fraction, and ``from_weights`` and
``scaled`` convert to it.  One pair-table rule checks both its base
weights and a ``Multigraph``'s multiplicities.  The Fraction table
``weights`` is built on first read.

Terminals are 1-indexed throughout.  Zero-weight pairs are stored
explicitly, so sparse inputs are legal; since that costs ``m(m-1)/2``
entries, a model has at most ``MAX_TERMINALS`` terminals.  All types are
immutable after construction and safe to share between workers: the
base weight, pmf and multiplicity tables, and the ``weights`` and
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


def _pair_table(m: int, entries: Mapping[Pair, object]) -> dict[Pair, int]:
    """Every pair ``i < j`` of terminals 1..m with its count from
    ``entries``, 0 where none is given.  A pair may come in either order,
    not as a self-pair; a count is exactly an int >= 0 (type(), not
    isinstance: a bool or an IntEnum member is no count), and a pair
    given in both orders has one count."""
    table = dict.fromkeys(all_pairs(m), 0)
    for pair, count in entries.items():
        if pair not in table:
            i, j = pair
            if i == j:
                raise ValueError(f"self-pair ({i}, {j}) is not allowed")
            if (j, i) not in table:
                raise ValueError(f"pair {(min(i, j), max(i, j))} is outside terminals 1..{m}")
            pair = (j, i)
            if entries.get(pair, count) != count:
                raise ValueError(f"conflicting multiplicities for pair {pair}")
        if type(count) is not int:
            raise ValueError(f"multiplicity for {pair} is not an integer: {count!r}")
        if count < 0:
            raise ValueError(f"negative multiplicity for {pair}: {count}")
        table[pair] = count
    return table


def _checked_pmfs(m: int, pmfs: Mapping[Pair, PairPmf]) -> dict[Pair, PairPmf]:
    """The pmf table by canonical pair, once m is a valid terminal count
    and every pair lies within 1..m."""
    check_terminal_count(m)
    if m < 2:
        raise ValueError(f"need at least two terminals, got m={m}")
    pmfs = {canonical_pair(i, j): pmf for (i, j), pmf in pmfs.items()}
    for pair in pmfs:
        if pair[0] < 1 or pair[1] > m:
            raise ValueError(f"pmf pair {pair} outside terminals 1..{m}")
    return pmfs


class PinModel(Value):
    """Source model: terminal count plus symmetric pairwise weights.

    An exact-mode model is its integer form: the base scale ``n0``, the
    least n that makes every ``n · w_ij`` an integer, and ``base_weights``,
    ``w_ij · n0`` per pair (the edge multiplicities of G(n0)), checked by
    the pair-table rule ``Multigraph`` uses; ``n0`` is a positive int with
    ``gcd(n0, *base_weights) == 1``.  A float-mode model has None for
    both and reads its weights off the pmfs (pairs without a pmf have
    weight zero).  ``pmfs`` may back any subset of pairs; in exact mode
    each must match its pair's weight.  ``from_weights`` converts ints and
    Fractions to the integer form; ``weights``, the Fraction table, is
    built on its first read and kept, read-only, outside the fields.
    """

    m: int
    base_scale: int | None
    base_weights: Mapping[Pair, int] | None
    pmfs: Mapping[Pair, PairPmf]

    def __init__(self, m: int, base_scale: int | None,
                 base_weights: Mapping[Pair, int] | None,
                 pmfs: Mapping[Pair, PairPmf]) -> None:
        pmfs = _checked_pmfs(m, pmfs)
        if (base_scale is None) != (base_weights is None):
            raise ValueError("a model has both a base scale and base weights, or neither")
        if base_weights is not None:
            if type(base_scale) is not int or base_scale < 1:  # type(): a bool is no scale
                raise ValueError(f"base scale {base_scale!r} is not a positive integer")
            base_weights = _pair_table(m, base_weights)
            if math.gcd(base_scale, *base_weights.values()) != 1:
                raise ValueError(f"base scale {base_scale} is not the least scale of its weights")
            for pair, pmf in pmfs.items():
                drift = abs(mutual_information(pmf) - base_weights[pair] / base_scale)
                if drift > WEIGHT_MATCH_TOLERANCE:
                    raise ValueError(f"pmf for pair {pair} disagrees with its weight "
                                     f"by {drift:.3g} bits")
        self._store(m=m, base_scale=base_scale, base_weights=base_weights, pmfs=pmfs)

    @classmethod
    def from_weights(cls, m: int, weights: Mapping[Pair, object],
                     pmfs: Mapping[Pair, PairPmf] | None = None) -> "PinModel":
        """The exact model with weight ``weights[(i, j)]``, an int or a
        Fraction >= 0, on each listed pair (either order) and zero on the
        rest."""
        for pair, weight in weights.items():
            # exactly an int or a Fraction (type(), not isinstance: a bool
            # is no weight); no float or string, as in Multigraph
            if type(weight) is not int and type(weight) is not Fraction:
                raise ValueError(f"weight for pair {pair} is not a rational: {weight!r}")
            if weight < 0:
                raise ValueError(f"weight for pair {pair} is negative: {weight}")
        n0 = math.lcm(*(w.denominator for w in weights.values()))
        return cls(m, n0, {pair: w.numerator * (n0 // w.denominator)
                           for pair, w in weights.items()}, pmfs or {})

    @classmethod
    def from_pmfs(cls, m: int, pmfs: Mapping[Pair, PairPmf]) -> "PinModel":
        return cls(m, None, None, pmfs)

    @property
    def weights(self) -> Mapping[Pair, Fraction] | None:
        """The exact weights as Fractions, None in float mode; built from
        the integer form on the first read and kept, read-only."""
        if self.base_weights is None:
            return None
        if "_weights" not in self.__dict__:
            n0 = self.base_scale
            self._store(_weights={pair: Fraction(b, n0)
                                  for pair, b in self.base_weights.items()})
        return self._weights

    @property
    def exact(self) -> bool:
        return self.base_weights is not None

    def require_exact(self, operation: str) -> tuple[int, Mapping[Pair, int]]:
        """The base scale and the base weights; raises on a float-mode model."""
        if self.base_weights is None:
            raise UnsupportedModeError(
                f"{operation} needs exact rational weights; "
                "this model is float-mode (pmf-backed)"
            )
        return self.base_scale, self.base_weights

    def weight(self, i: int, j: int) -> Fraction:
        n0, base = self.require_exact("rational weight lookup")
        return Fraction(base[canonical_pair(i, j)], n0)

    def mi(self, i: int, j: int) -> float:
        """Pairwise weight as a float, valid in either mode."""
        pair = canonical_pair(i, j)
        if self.base_weights is not None:
            return self.base_weights[pair] / self.base_scale
        pmf = self.pmfs.get(pair)
        return mutual_information(pmf) if pmf is not None else 0.0

    def pmf(self, i: int, j: int) -> PairPmf | None:
        return self.pmfs.get(canonical_pair(i, j))

    def pairs(self) -> Iterator[Pair]:
        return all_pairs(self.m)

    def scaled(self, factor: int | Fraction) -> "PinModel":
        """Model with every weight multiplied by a positive int or
        Fraction, and no pmfs, computed on the integer form."""
        n0, base = self.require_exact("weight scaling")
        if type(factor) is not int and type(factor) is not Fraction:
            raise ValueError(f"scale factor {factor!r} is not an int or a Fraction")
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        p, q = factor.numerator, factor.denominator
        g = math.gcd(n0 * q, *(b * p for b in base.values()))
        return PinModel(self.m, n0 * q // g,
                        {pair: b * p // g for pair, b in base.items()}, {})


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
        self._store(m=m, multiplicities=_pair_table(m, multiplicities))

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
    return model.require_exact("base scale")[0]


def realize_multigraph(model: PinModel, n: int) -> Multigraph:
    """Multigraph with exactly ``n * weight`` parallel edges per pair: the
    base weights times ``n / n0``, n being a multiple of the base scale."""
    n0, base = model.require_exact("multigraph realization")
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


def parse_ratio(text: object) -> tuple[int, int]:
    """Parse an integer or a ``p/q`` / ``p`` string into ints ``(p, q)`` in
    lowest terms with ``q > 0``, by ``math.gcd``, with no Fraction.

    Strings are ASCII digits only, with an optional leading ``-`` and no
    spaces, signs elsewhere or digit separators."""
    if isinstance(text, int):
        if isinstance(text, bool):
            raise ValueError(f"expected a rational, got {text!r}")
        return text, 1
    if isinstance(text, str):
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed rational {text!r}")
        numerator, denominator = match.group(1, 2)
        try:
            p, q = int(numerator), int(denominator or 1)
        except ValueError as exc:  # too many digits
            raise ValueError(f"malformed rational {text!r}") from exc
        if q == 0:
            raise ValueError(f"malformed rational {text!r}")
        g = math.gcd(p, q)
        return p // g, q // g
    raise ValueError(f"expected an integer or 'p/q' string, got {text!r}")


def parse_rational(text: object) -> Fraction:
    """``parse_ratio``'s value as a Fraction."""
    return Fraction(*parse_ratio(text))
