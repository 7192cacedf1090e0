"""Exact secrecy auditing of protocol runs.

The security index is log|K| - H(K|F): zero exactly when the group key is
uniform and independent of the transcript.  Because key and transcript are
GF(2)-linear in i.i.d. uniform edge bits, conditional entropies are matrix
ranks (spanning-forest sizes, since every map row names one or two edges),
so the index is computed in exact integer arithmetic, one union-find step
per block step of the maps (per group and walk step on an honest run).
A brute-force enumeration of edge-bit assignments provides an independent
check at small sizes (dyadic joint distributions, again exact).  Rows that
share no edge are independent, so it enumerates each block of edge-sharing
rows on its own, and blocks of one shape (a group's copies) once, at a
cost of 2^|E_b| per distinct shape rather than 2^|E|; its cap,
``BRUTEFORCE_EDGE_CAP``, still applies to the total edge count |E|.

Fault-injection helpers build tampered copies of a run so tests can show
the audits actually fail on bad runs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import xor
from typing import Iterable, Mapping

from .errors import AuditFailureError, SizeLimitError
from . import gf2
from .protocol import ProtocolRun, recover_key
from .value import Value, replace

BRUTEFORCE_EDGE_CAP = 20


class SecurityReport(Value):
    """Exact secrecy figures for one run; everything rational, no floats.
    Read from the stored figures: ``security_index``, log|K| - H(K|F), is
    ``key_length - key_given_transcript``, and ``uniformity_deficit`` is
    ``key_length - key_entropy``.
    ``recoverability`` maps each target terminal to whether it recovered
    the key, kept read-only like every table of a ``Value``.  ``passed``
    needs s = 0 and a nonempty recoverability, all good: alone, an entropy
    method checks no recovery and gives no verdict."""

    key_length: int
    key_entropy: Fraction
    key_given_transcript: Fraction
    method: str
    recoverability: Mapping[int, bool]

    def __init__(self, key_length: int, key_entropy: Fraction,
                 key_given_transcript: Fraction, method: str,
                 recoverability: Mapping[int, bool] | None = None) -> None:
        self._store(key_length=key_length, key_entropy=key_entropy,
                    key_given_transcript=key_given_transcript, method=method,
                    recoverability=dict(recoverability or {}))

    @property
    def security_index(self) -> Fraction:
        return Fraction(self.key_length) - self.key_given_transcript

    @property
    def uniformity_deficit(self) -> Fraction:
        return Fraction(self.key_length) - self.key_entropy

    @property
    def passed(self) -> bool:
        return (self.security_index == 0 and bool(self.recoverability)
                and all(self.recoverability.values()))


def security_index_rank(run: ProtocolRun) -> SecurityReport:
    """Security index via GF(2) ranks of the recorded linear maps."""
    # one forest over the transcript blocks, continued with the key blocks
    transcript_rank, joint_rank = gf2._forest_sizes(run.transcript_map.blocks,
                                                    run.key_map.blocks)
    return SecurityReport(
        key_length=len(run.key_bits),
        key_entropy=Fraction(run.key_map.rank()),
        key_given_transcript=Fraction(joint_rank - transcript_rank),
        method="rank",
    )


def _log_weight(counts: Iterable[int]) -> int:
    """Sum of count * log2(count) over a tally of 2^n equally likely
    assignments, whose entropy is then n - weight / 2^n.

    Linear images of uniform bits have power-of-two fiber sizes, which keeps
    the weight an integer and the entropy an exact rational.
    """
    weighted = 0
    for count in counts:
        log = count.bit_length() - 1
        if count != 1 << log:
            raise ArithmeticError(
                f"joint count {count} is not a power of two; "
                "the run's maps are not linear"
            )
        weighted += count * log
    return weighted


def security_index_bruteforce(run: ProtocolRun) -> SecurityReport:
    """Security index by enumerating edge-bit assignments, block by block.

    Two map rows share a block when they share an edge (a union-find over
    edge indices).  Edge bits are i.i.d., so the blocks' (key, transcript)
    parts are independent and each entropy is the sum of the blocks'
    entropies; an edge in no row adds nothing.  A block's distribution
    depends only on its shape, its columns (each edge's rows, by first
    appearance) and its key-row mask, so each distinct shape enumerates
    its own 2^|E_b| assignments once, and its entropies count once per
    block of that shape.  The enumeration runs in Gray-code order, where
    one edge bit flips per step, so each image is the one before XOR that
    edge's column; it runs three times, into exact tallies of the joint
    images and of the images cut to the transcript rows and to the key
    rows, one int per image.  Entropies add up as integers over 2^top, top the
    widest block's edge count, and become Fractions for the report.  The
    cap still applies to |E|.
    """
    edges = run.graph.total_edges()
    if edges > BRUTEFORCE_EDGE_CAP:
        raise SizeLimitError(
            f"brute force is capped at {BRUTEFORCE_EDGE_CAP} edges, got {edges}"
        )
    # every row's first and second edge, the transcript rows first
    firsts, seconds = run.transcript_map.row_columns()
    key_firsts, key_seconds = run.key_map.row_columns()
    firsts, seconds = firsts + key_firsts, seconds + key_seconds
    parent = list(range(edges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for first, second in zip(firsts, seconds):
        if second is not None:
            parent[find(first)] = find(second)
    blocks: dict[int, list[int]] = {}
    for r, first in enumerate(firsts):
        blocks.setdefault(find(first), []).append(r)

    first_key_row = run.transcript_map.nrows
    shapes: Counter = Counter()  # (columns, key mask) -> blocks of that shape
    for members in blocks.values():
        local: dict[int, int] = {}  # edge index -> block column
        columns: list[int] = []
        key_mask = 0
        for bit, r in enumerate(members):
            for k in (firsts[r], seconds[r]):
                if k is None:
                    break
                if k not in local:
                    local[k] = len(columns)
                    columns.append(0)
                columns[local[k]] |= 1 << bit
            if r >= first_key_row:
                key_mask |= 1 << bit
        shapes[(tuple(columns), key_mask)] += 1
    top = max((len(columns) for columns, _ in shapes), default=0)
    # joint, transcript and key entropies, each times 2^top, as every
    # figure is until the report
    entropies = [0, 0, 0]
    for (columns, key_mask), alike in shapes.items():
        n = len(columns)
        for k, rows_kept in enumerate((-1, ~key_mask, key_mask)):
            # Gray-code order: step s flips the column of s's lowest set bit,
            # so the flips of n columns are those of n - 1, column n - 1,
            # and those of n - 1 again
            flips: list[int] = []
            for column in columns:
                flips = flips + [column & rows_kept] + flips
            tally = Counter(accumulate(flips, xor, initial=0))
            entropies[k] += alike * ((n << top) - (_log_weight(tally.values()) << (top - n)))
    joint, transcript, key = entropies
    return SecurityReport(
        key_length=len(run.key_bits),
        key_entropy=Fraction(key, 1 << top),
        key_given_transcript=Fraction(joint - transcript, 1 << top),
        method="bruteforce",
    )


def audit(run: ProtocolRun) -> SecurityReport:
    """Full audit: per-terminal recovery plus the exact security index.

    The rank method always runs; brute force cross-checks both of its
    entropies, H(K|F) and H(K), whenever the edge count permits, and any
    disagreement is an internal error.  A failing run gives a report whose
    ``passed`` is False.
    """
    rank_report = security_index_rank(run)
    method = "rank"
    if run.graph.total_edges() <= BRUTEFORCE_EDGE_CAP:
        brute = security_index_bruteforce(run)
        # equal key lengths: s and H(K|F) agree together
        for name, field in (("s", "security_index"), ("H(K)", "key_entropy")):
            ours, theirs = getattr(rank_report, field), getattr(brute, field)
            if ours != theirs:
                raise AuditFailureError(f"method disagreement: rank says {name}={ours}, "
                                        f"brute force says {name}={theirs}")
        method = "rank+bruteforce"
    recoverability = {terminal: recover_key(run, terminal) == run.key_bits
                      for terminal in run.target}
    return replace(rank_report, method=method, recoverability=recoverability)


# ---------------------------------------------------------------------------
# Fault injection (test surface: the audits must be falsifiable)
# ---------------------------------------------------------------------------


def flip_broadcast(run: ProtocolRun, index: int) -> ProtocolRun:
    """Copy of the run with one transcript bit flipped.

    The linear maps are left alone, so the tampering shows up as a recovery
    failure at the terminal informed through that broadcast (pick a
    broadcast whose ``informed_terminal`` is in the target set to make the
    audit fail; helpers outside the target never re-decode).
    """
    transcript_bits = list(run.transcript_bits)
    transcript_bits[index] ^= 1
    return replace(run, transcript_bits=tuple(transcript_bits))


def leak_key_bit(run: ProtocolRun, key_index: int, broadcast_index: int) -> ProtocolRun:
    """Copy of the run with one key bit replaced by a broadcast bit (value
    and map row both), so the key visibly leaks into the transcript."""
    key_bits = list(run.key_bits)
    key_bits[key_index] = run.transcript_bits[broadcast_index]
    key_rows = list(run.key_map.rows)
    key_rows[key_index] = run.transcript_map.rows[broadcast_index]
    return replace(
        run,
        key_bits=tuple(key_bits),
        key_map=gf2.Gf2Matrix.from_rows(key_rows, run.key_map.ncols),
    )
