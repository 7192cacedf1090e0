"""XOR-propagation key generation over a tree packing.

Each multigraph edge carries one ideal uniform key bit, shared by its two
endpoints.  Within a tree, the lexicographically least edge is the
reference: its bit becomes the tree's shared bit b.  Propagation follows
``Tree.walk``, built once when the tree is checked: breadth-first outward
from the reference edge (children in lexicographic order), the
already-informed endpoint of each further edge e broadcasts b XOR k_e,
which lets the far endpoint recover b.  Every broadcast is therefore the
GF(2) sum of exactly two edge bits, and the group key, transcript and
residual bits together form a bijection of the edge bits.  The edge bits
are one tuple in canonical edge order and each map row is kept as the
canonical indices of its one or two edges, so every bit is read by index.
The copies of a packing group share one walk, and copy k's edges sit k
places after copy 0's in canonical order, so each group's walk is read
once and each walk step fills all of the group's copies with slices.

The transcript is kept as columns (bits, speakers, tree indices, and the
transcript map's rows for the supports), laid out group by group and,
within a group, copy by copy in walk order: the broadcast of walk step s
of copy k of a group whose broadcasts start at position p sits at
``p + k * steps + s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, xor
from typing import Sequence

from .errors import InvalidPackingError
from .gf2 import Gf2Matrix
from .model import EdgeRef, Multigraph, TerminalSet
from .packing import TreePacking


@dataclass(frozen=True)
class EdgeKeyBits:
    """One uniform bit per multigraph edge, in canonical edge order: bit k
    belongs to ``graph.edge_refs()[k]``.  The seed is kept for replay."""

    bits: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        try:
            only_bits = set(self.bits) <= {0, 1}
        except TypeError:  # an unhashable entry is no bit either
            only_bits = False
        if not only_bits:
            for k, bit in enumerate(self.bits):
                if bit not in (0, 1):
                    raise ValueError(f"edge bit {k} is the non-bit value {bit!r}")


def draw_edge_keys(graph: Multigraph, seed: int) -> EdgeKeyBits:
    """Deterministic i.i.d. uniform bits in canonical edge order."""
    getrandbits = random.Random(seed).getrandbits
    return EdgeKeyBits(bits=tuple(map(getrandbits, repeat(1, graph.total_edges()))),
                       seed=seed)


@dataclass(frozen=True)
class Broadcast:
    """One public message: the sum of the reference-edge bit and one other
    edge bit, sent by the already-informed endpoint of that edge."""

    tree: int
    terminal: int
    bit: int
    support: tuple[EdgeRef, EdgeRef]  # (reference edge, propagated edge)

    def __post_init__(self) -> None:
        if len(set(self.support)) != 2:
            raise ValueError("broadcast support must be two distinct edges")
        if self.bit not in (0, 1):
            raise ValueError(f"broadcast bit must be 0/1, got {self.bit!r}")

    @property
    def informed_terminal(self) -> int:
        """The endpoint that learns the shared bit from this broadcast."""
        i, j, _ = self.support[1]
        return j if self.terminal == i else i


class _Broadcasts(Sequence[Broadcast]):
    """A run's transcript, one ``Broadcast`` built from its columns when read."""

    __slots__ = ("_run",)

    def __init__(self, run: ProtocolRun) -> None:
        self._run = run

    def __len__(self) -> int:
        return len(self._run.transcript_bits)

    def __getitem__(self, index):
        position = range(len(self))[index]  # negative indices and slices as in a tuple
        if isinstance(position, range):
            return tuple(self[k] for k in position)
        run = self._run
        order = run.edge_order
        return Broadcast(run.broadcast_trees[position], run.speakers[position],
                         run.transcript_bits[position],
                         tuple(order[k] for k in run.transcript_map.rows[position]))


@dataclass(frozen=True)
class ProtocolRun:
    """A complete execution: key bits, transcript, residuals, linear maps.

    Broadcast r is sent by ``speakers[r]`` in tree ``broadcast_trees[r]``,
    carries ``transcript_bits[r]`` and sums the two edges named by
    ``transcript_map.rows[r]`` (reference edge first); ``transcript`` reads
    the same columns as ``Broadcast`` objects.  The accounting identity
    |E| = |K| + |F| + |K_R| holds structurally, and the stacked index rows
    (key and residual edges, broadcast edge pairs) form an invertible square
    GF(2) matrix in the edge bits.
    """

    graph: Multigraph
    packing: TreePacking
    keys: EdgeKeyBits
    target: TerminalSet
    key_bits: tuple[int, ...]
    transcript_bits: tuple[int, ...]
    speakers: tuple[int, ...]
    broadcast_trees: tuple[int, ...]
    residual_edges: tuple[EdgeRef, ...]
    residual_bits: tuple[int, ...]
    edge_order: tuple[EdgeRef, ...]
    key_map: Gf2Matrix
    transcript_map: Gf2Matrix

    def __post_init__(self) -> None:
        edges = len(self.edge_order)
        broadcasts = len(self.transcript_bits)
        if len(self.key_bits) + broadcasts + len(self.residual_edges) != edges:
            raise InvalidPackingError(
                "edge accounting failed: |E| != |K| + |F| + |K_R|"
            )
        if len(self.speakers) != broadcasts or len(self.broadcast_trees) != broadcasts:
            raise InvalidPackingError("transcript bits, speakers and trees disagree")
        if len(self.residual_bits) != len(self.residual_edges):
            raise InvalidPackingError("residual bits and edges disagree")
        if self.key_map.nrows != len(self.key_bits) or self.key_map.ncols != edges:
            raise InvalidPackingError("key map has wrong shape")
        if self.transcript_map.nrows != broadcasts or self.transcript_map.ncols != edges:
            raise InvalidPackingError("transcript map has wrong shape")

    @property
    def transcript(self) -> Sequence[Broadcast]:
        """The broadcasts in transcript order, each built when it is read;
        its length is the column length."""
        return _Broadcasts(self)


def _broadcast_trees(packing: TreePacking) -> tuple[int, ...]:
    """The tree index of every broadcast, in the transcript layout: each
    walk step of a group fills the indices of all its copies at once."""
    groups = packing.groups
    trees = [0] * sum(len(tree.walk) * copies for tree, copies in groups)
    start = first = 0  # the group's first broadcast and first tree
    for tree, copies in groups:
        steps = len(tree.walk)
        end = start + steps * copies
        for s in range(start, start + steps):
            trees[s:end:steps] = range(first, first + copies)
        start, first = end, first + copies
    return tuple(trees)


def run_protocol(
    graph: Multigraph,
    packing: TreePacking,
    keys: EdgeKeyBits,
    target: TerminalSet,
) -> ProtocolRun:
    """Execute propagation over every tree of a packing: each group's walk
    is read once, and each walk step fills the transcript columns of all
    the group's copies by slice assignment.  ``keys`` must hold one bit per
    edge of ``graph``."""
    if packing.graph != graph:
        raise InvalidPackingError("packing was built for a different graph")
    if packing.target != target:
        raise InvalidPackingError(
            f"packing targets {packing.target.members}, requested {target.members}"
        )
    edge_order = graph.edge_refs()
    bits = keys.bits
    if len(bits) != len(edge_order):
        raise InvalidPackingError(
            f"{len(bits)} key bits drawn for a graph of {len(edge_order)} edges")
    offsets = graph.pair_offsets()

    broadcasts = sum(len(tree.walk) * copies for tree, copies in packing.groups)
    key_bits: list[int] = []
    key_rows: list[tuple[int]] = []
    transcript_bits = [0] * broadcasts
    speakers = [0] * broadcasts
    transcript_rows: list = [None] * broadcasts
    # a tree edge is named by its copy's key row or by one transcript row
    residual = bytearray(b"\x01") * len(edge_order)
    start = 0  # the group's first broadcast
    for tree, copies in packing.groups:
        # the reference edge supplies each copy's shared bit; every further
        # edge, in walk order, costs one broadcast by an informed speaker
        i, j, c = tree.edges[0]
        reference = offsets[(i, j)] + c
        references = range(reference, reference + copies)
        shared = bits[reference:reference + copies]
        key_bits += shared
        key_rows += zip(references)
        residual[reference:reference + copies] = bytes(copies)
        steps = len(tree.walk)
        end = start + steps * copies
        for s, (speaker, (i, j, c)) in enumerate(tree.walk, start):
            position = offsets[(i, j)] + c
            transcript_bits[s:end:steps] = map(xor, shared,
                                               bits[position:position + copies])
            speakers[s:end:steps] = repeat(speaker, copies)
            transcript_rows[s:end:steps] = zip(references,
                                               range(position, position + copies))
            residual[position:position + copies] = bytes(copies)
        start = end

    run = ProtocolRun(
        graph=graph,
        packing=packing,
        keys=keys,
        target=target,
        key_bits=tuple(key_bits),
        transcript_bits=tuple(transcript_bits),
        speakers=tuple(speakers),
        broadcast_trees=_broadcast_trees(packing),
        residual_edges=tuple(compress(edge_order, residual)),
        residual_bits=tuple(compress(bits, residual)),
        edge_order=edge_order,
        key_map=Gf2Matrix(tuple(key_rows), len(edge_order)),
        transcript_map=Gf2Matrix(tuple(transcript_rows), len(edge_order)),
    )
    if not verify_linear_maps(run):
        raise AssertionError("recorded linear maps disagree with run values")
    return run


def verify_linear_maps(run: ProtocolRun) -> bool:
    """True when the recorded maps reproduce the run's key and transcript
    bits from the drawn edge bits (honest runs always pass; tampered ones
    need not)."""
    bits = run.keys.bits
    return (run.key_map.apply(bits) == run.key_bits
            and run.transcript_map.apply(bits) == run.transcript_bits)


def recover_key(run: ProtocolRun, terminal: int) -> tuple[int, ...]:
    """Reconstruct the group key at a target terminal from its own incident
    edge bits plus the public transcript, read by position, with no
    transcript scan: one Python step per group and walk step, each
    group's copies taken by slices.

    Per group, the terminal either holds the reference edge, and so every
    copy's shared bit, or decodes at the first walk step s whose edge it
    holds: copy k's bit is its transcript bit at ``p + k * steps + s``
    XOR its copy of that edge.  Reading by position needs the run's tree
    indices to follow that layout, which one tuple comparison checks the
    first time the transcript is read.
    """
    if terminal not in run.target:
        raise ValueError(
            f"terminal {terminal} is outside the target set "
            f"{run.target.members}; recovery is only guaranteed inside it"
        )
    bits = run.keys.bits
    offsets = run.graph.pair_offsets()
    recovered: list[int] = []
    checked = False
    start = first = 0  # the group's first broadcast and first tree
    for tree, copies in run.packing.groups:
        steps = len(tree.walk)
        i, j, c = tree.edges[0]
        if terminal == i or terminal == j:  # holds every copy's reference edge
            reference = offsets[(i, j)] + c
            recovered += bits[reference:reference + copies]
        else:
            if not checked:
                if run.broadcast_trees != _broadcast_trees(run.packing):
                    raise InvalidPackingError(
                        "broadcast tree indices do not follow the packing's layout")
                checked = True
            for s, (_, (i, j, c)) in enumerate(tree.walk, start):
                if terminal == i or terminal == j:
                    break
            else:
                raise InvalidPackingError(
                    f"terminal {terminal} has no incident edge in tree {first}"
                )
            position = offsets[(i, j)] + c
            recovered += map(xor, run.transcript_bits[s:start + steps * copies:steps],
                             bits[position:position + copies])
        start += steps * copies
        first += copies
    return tuple(recovered)


def _bits_to_hex(bits: tuple[int, ...]) -> str:
    """Big-endian nibble packing: first bit is the most significant."""
    if not bits:
        return ""
    width = (len(bits) + 3) // 4
    return format(int("".join(map(str, bits)), 2), f"0{width}x")


def export_transcript(run: ProtocolRun) -> str:
    """Line-oriented replayable record of a run.

    One ``broadcast`` line per message with the two support edge indices
    (into canonical edge order, read from the transcript map's row); key and
    residual bit strings in hex with explicit bit lengths; the drawing seed
    first.
    """
    lines = [
        f"seed {run.keys.seed if run.keys.seed is not None else 'none'}",
        f"edges {len(run.edge_order)}",
        f"trees {run.packing.count}",
        f"key bits={len(run.key_bits)} hex={_bits_to_hex(run.key_bits)}",
        f"residual bits={len(run.residual_bits)} hex={_bits_to_hex(run.residual_bits)}",
    ]
    rows = run.transcript_map.rows
    lines += map("broadcast tree=%d terminal=%d bit=%d support=%d,%d".__mod__,
                 zip(run.broadcast_trees, run.speakers, run.transcript_bits,
                     map(itemgetter(0), rows), map(itemgetter(1), rows)))
    return "\n".join(lines) + "\n"
