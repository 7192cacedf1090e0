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
rows on its own, at a cost of sum_b 2^|E_b| rather than 2^|E|; its cap,
``BRUTEFORCE_EDGE_CAP``, still applies to the total edge count |E|.

Fault-injection helpers build tampered copies of a run so tests can show
the audits actually fail on bad runs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping

from .errors import AuditFailureError, SizeLimitError
from . import gf2
from .protocol import ProtocolRun, recover_key
from .value import Value, replace

BRUTEFORCE_EDGE_CAP = 20


class SecurityReport(Value):
    """Exact secrecy figures for one run; everything rational, no floats.
    ``recoverability`` defaults to a new empty dict."""

    _fields = ("security_index", "key_entropy", "key_given_transcript",
               "uniformity_deficit", "method", "recoverability")
    security_index: Fraction
    key_entropy: Fraction
    key_given_transcript: Fraction
    uniformity_deficit: Fraction  # key length minus key entropy
    method: str
    recoverability: Mapping[int, bool]

    def __init__(self, security_index: Fraction, key_entropy: Fraction,
                 key_given_transcript: Fraction, uniformity_deficit: Fraction,
                 method: str, recoverability: Mapping[int, bool] | None = None) -> None:
        self._store(security_index=security_index, key_entropy=key_entropy,
                    key_given_transcript=key_given_transcript,
                    uniformity_deficit=uniformity_deficit, method=method,
                    recoverability={} if recoverability is None else recoverability)

    @property
    def passed(self) -> bool:
        return self.security_index == 0 and all(self.recoverability.values())


def security_index_rank(run: ProtocolRun) -> SecurityReport:
    """Security index via GF(2) ranks of the recorded linear maps."""
    key_rank = run.key_map.rank()
    # one forest over the transcript blocks, continued with the key blocks
    transcript_rank, joint_rank = gf2._forest_sizes(run.transcript_map.blocks,
                                                    run.key_map.blocks)
    key_given_transcript = Fraction(joint_rank - transcript_rank)
    key_length = len(run.key_bits)
    return SecurityReport(
        security_index=Fraction(key_length) - key_given_transcript,
        key_entropy=Fraction(key_rank),
        key_given_transcript=key_given_transcript,
        uniformity_deficit=Fraction(key_length - key_rank),
        method="rank",
    )


def _dyadic_entropy(counts: Counter, total_bits: int) -> Fraction:
    """Entropy of a distribution whose probabilities are counts / 2^total.

    Linear images of uniform bits have power-of-two fiber sizes, which keeps
    the entropy an exact rational.
    """
    weighted = 0
    for count in counts.values():
        log = count.bit_length() - 1
        if count != 1 << log:
            raise ArithmeticError(
                f"joint count {count} is not a power of two; "
                "the run's maps are not linear"
            )
        weighted += count * log
    return Fraction(total_bits) - Fraction(weighted, 1 << total_bits)


def security_index_bruteforce(run: ProtocolRun) -> SecurityReport:
    """Security index by enumerating edge-bit assignments, block by block.

    Two map rows share a block when they share an edge (a union-find over
    edge indices).  Edge bits are i.i.d., so the blocks' (key, transcript)
    parts are independent and each entropy is the sum of the blocks'
    entropies; an edge in no row adds nothing.  A block enumerates its own
    2^|E_b| assignments into one exact joint tally, one int per image, and
    splits the marginals off it by its key-row mask.  Gray-code iteration
    keeps each step O(1): one edge bit flips, so the image is updated by
    XOR with that edge's column.  The cap still applies to |E|.
    """
    edges = run.graph.total_edges()
    if edges > BRUTEFORCE_EDGE_CAP:
        raise SizeLimitError(
            f"brute force is capped at {BRUTEFORCE_EDGE_CAP} edges, got {edges}"
        )
    rows = run.transcript_map.rows + run.key_map.rows
    parent = list(range(edges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        if len(row) == 2:
            parent[find(row[0])] = find(row[1])
    blocks: dict[int, list[int]] = {}
    for r, row in enumerate(rows):
        blocks.setdefault(find(row[0]), []).append(r)

    first_key_row = run.transcript_map.nrows
    joint_entropy = transcript_entropy = key_entropy = Fraction(0)
    for members in blocks.values():
        local: dict[int, int] = {}  # edge index -> block column
        columns: list[int] = []
        key_mask = 0
        for bit, r in enumerate(members):
            for k in rows[r]:
                if k not in local:
                    local[k] = len(columns)
                    columns.append(0)
                columns[local[k]] |= 1 << bit
            if r >= first_key_row:
                key_mask |= 1 << bit
        joint: Counter = Counter({0: 1})
        image = 0
        for step in range(1, 1 << len(columns)):
            image ^= columns[(step & -step).bit_length() - 1]
            joint[image] += 1
        key_marginal: Counter = Counter()
        transcript_marginal: Counter = Counter()
        for image, count in joint.items():
            key_marginal[image & key_mask] += count
            transcript_marginal[image & ~key_mask] += count
        joint_entropy += _dyadic_entropy(joint, len(columns))
        transcript_entropy += _dyadic_entropy(transcript_marginal, len(columns))
        key_entropy += _dyadic_entropy(key_marginal, len(columns))
    key_given_transcript = joint_entropy - transcript_entropy
    key_length = len(run.key_bits)
    return SecurityReport(
        security_index=Fraction(key_length) - key_given_transcript,
        key_entropy=key_entropy,
        key_given_transcript=key_given_transcript,
        uniformity_deficit=Fraction(key_length) - key_entropy,
        method="bruteforce",
    )


def audit(run: ProtocolRun, strict: bool = False) -> SecurityReport:
    """Full audit: per-terminal recovery plus the exact security index.

    The rank method always runs; brute force cross-checks it whenever the
    edge count permits, and any disagreement is an internal error.  With
    ``strict`` the audit raises instead of returning a failing report.
    """
    rank_report = security_index_rank(run)
    method = "rank"
    if run.graph.total_edges() <= BRUTEFORCE_EDGE_CAP:
        brute = security_index_bruteforce(run)
        if (brute.security_index != rank_report.security_index
                or brute.key_given_transcript != rank_report.key_given_transcript):
            raise AuditFailureError(
                f"method disagreement: rank says s={rank_report.security_index}, "
                f"brute force says s={brute.security_index}"
            )
        method = "rank+bruteforce"
    recoverability = {
        terminal: recover_key(run, terminal) == run.key_bits
        for terminal in run.target
    }
    report = replace(rank_report, method=method, recoverability=recoverability)
    if strict and not report.passed:
        failed = sorted(t for t, ok in recoverability.items() if not ok)
        raise AuditFailureError(
            f"audit failed: security index {report.security_index}, "
            f"terminals failing recovery: {failed}"
        )
    return report


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
