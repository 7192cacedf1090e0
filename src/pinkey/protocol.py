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
once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

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
        for k, bit in enumerate(self.bits):
            if bit not in (0, 1):
                raise ValueError(f"edge bit {k} is the non-bit value {bit!r}")


def draw_edge_keys(graph: Multigraph, seed: int) -> EdgeKeyBits:
    """Deterministic i.i.d. uniform bits in canonical edge order."""
    getrandbits = random.Random(seed).getrandbits
    return EdgeKeyBits(bits=tuple(getrandbits(1) for _ in graph.edge_refs()), seed=seed)


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


@dataclass(frozen=True)
class ProtocolRun:
    """A complete execution: key bits, transcript, residuals, linear maps.

    The accounting identity |E| = |K| + |F| + |K_R| holds structurally, and
    the stacked index rows (key and residual edges, broadcast edge pairs)
    form an invertible square GF(2) matrix in the edge bits.
    """

    graph: Multigraph
    packing: TreePacking
    keys: EdgeKeyBits
    target: TerminalSet
    key_bits: tuple[int, ...]
    transcript: tuple[Broadcast, ...]
    residual_edges: tuple[EdgeRef, ...]
    residual_bits: tuple[int, ...]
    edge_order: tuple[EdgeRef, ...]
    key_map: Gf2Matrix
    transcript_map: Gf2Matrix

    def __post_init__(self) -> None:
        edges = len(self.edge_order)
        if len(self.key_bits) + len(self.transcript) + len(self.residual_edges) != edges:
            raise InvalidPackingError(
                "edge accounting failed: |E| != |K| + |F| + |K_R|"
            )
        if len(self.residual_bits) != len(self.residual_edges):
            raise InvalidPackingError("residual bits and edges disagree")
        if self.key_map.nrows != len(self.key_bits) or self.key_map.ncols != edges:
            raise InvalidPackingError("key map has wrong shape")
        if (self.transcript_map.nrows != len(self.transcript)
                or self.transcript_map.ncols != edges):
            raise InvalidPackingError("transcript map has wrong shape")


def run_protocol(
    graph: Multigraph,
    packing: TreePacking,
    keys: EdgeKeyBits,
    target: TerminalSet,
) -> ProtocolRun:
    """Execute propagation over every tree of a packing: each group's walk
    is read once and its copies are found by index arithmetic.  ``keys``
    must hold one bit per edge of ``graph``."""
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

    key_bits: list[int] = []
    key_rows: list[tuple[int]] = []
    transcript: list[Broadcast] = []
    transcript_rows: list[tuple[int, int]] = []
    first_tree = 0
    for tree, copies in packing.groups:
        # the reference edge supplies each copy's shared bit; every further
        # edge, in walk order, costs one broadcast by an informed speaker
        i, j, c = tree.edges[0]
        reference = offsets[(i, j)] + c
        steps = [(speaker, offsets[edge[:2]] + edge[2]) for speaker, edge in tree.walk]
        for k in range(copies):
            ref = reference + k
            shared = bits[ref]
            ref_edge = edge_order[ref]
            key_bits.append(shared)
            key_rows.append((ref,))
            for speaker, position in steps:
                position += k
                transcript.append(Broadcast(first_tree + k, speaker,
                                            shared ^ bits[position],
                                            (ref_edge, edge_order[position])))
                transcript_rows.append((ref, position))
        first_tree += copies

    # a tree edge is named by its copy's key row or by one transcript row
    residual = bytearray(b"\x01") * len(edge_order)
    for (position,) in key_rows:
        residual[position] = 0
    for _, position in transcript_rows:
        residual[position] = 0
    run = ProtocolRun(
        graph=graph,
        packing=packing,
        keys=keys,
        target=target,
        key_bits=tuple(key_bits),
        transcript=tuple(transcript),
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
            and run.transcript_map.apply(bits) == tuple(b.bit for b in run.transcript))


def recover_key(run: ProtocolRun, terminal: int) -> tuple[int, ...]:
    """Reconstruct the group key at a target terminal from its own incident
    edge bits plus the public transcript, read at most once: O(|F| + trees),
    and O(trees) when the terminal holds every reference edge."""
    if terminal not in run.target:
        raise ValueError(
            f"terminal {terminal} is outside the target set "
            f"{run.target.members}; recovery is only guaranteed inside it"
        )
    first: dict[int, Broadcast] | None = None  # per tree, built on first need
    bits = run.keys.bits
    offsets = run.graph.pair_offsets()
    recovered: list[int] = []
    first_tree = 0
    for tree, copies in run.packing.groups:
        reference = tree.edges[0]
        if terminal in (reference[0], reference[1]):  # holds every copy's reference edge
            start = offsets[reference[:2]] + reference[2]
            recovered += bits[start:start + copies]
        else:
            if first is None:
                first = {}
                for broadcast in run.transcript:
                    edge = broadcast.support[1]
                    if terminal in (edge[0], edge[1]):
                        first.setdefault(broadcast.tree, broadcast)
            for tree_index in range(first_tree, first_tree + copies):
                broadcast = first.get(tree_index)
                if broadcast is None:
                    raise InvalidPackingError(
                        f"terminal {terminal} has no incident edge in tree {tree_index}"
                    )
                i, j, c = broadcast.support[1]
                recovered.append(broadcast.bit ^ bits[offsets[(i, j)] + c])
        first_tree += copies
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
    for broadcast, (ref_idx, edge_idx) in zip(run.transcript, run.transcript_map.rows):
        lines.append(
            f"broadcast tree={broadcast.tree} terminal={broadcast.terminal} "
            f"bit={broadcast.bit} support={ref_idx},{edge_idx}"
        )
    return "\n".join(lines) + "\n"
