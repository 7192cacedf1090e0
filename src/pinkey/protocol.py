"""XOR-propagation key generation over a tree packing.

Each multigraph edge carries one ideal uniform key bit, shared by its two
endpoints.  Within a tree, the lexicographically least edge is the
reference: its bit becomes the tree's shared bit b.  Propagation follows
``Tree.walk``, built once when the tree is checked: breadth-first outward
from the reference edge (children in lexicographic order), the
already-informed endpoint of each further edge e broadcasts b XOR k_e,
which lets the far endpoint recover b.  Every broadcast is therefore the
GF(2) sum of exactly two edge bits, and the group key, transcript and
residual bits together form a bijection of the edge bits.  Each map row is
kept as the canonical indices of its one or two edges.  The copies of a
packing group share one walk, and copy k's edges sit k places after copy
0's in canonical order, so each group's walk is read once.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

from .errors import InvalidPackingError, InvalidTreeError
from .gf2 import Gf2Matrix
from .model import EdgeRef, Multigraph, TerminalSet
from .packing import Tree, TreePacking


@dataclass(frozen=True)
class EdgeKeyBits:
    """One uniform bit per multigraph edge; seed kept for replay."""

    bits: Mapping[EdgeRef, int]
    seed: int | None = None

    def __post_init__(self) -> None:
        for edge, bit in self.bits.items():
            if bit not in (0, 1):
                raise ValueError(f"edge {edge} carries non-bit value {bit!r}")


def draw_edge_keys(graph: Multigraph, seed: int) -> EdgeKeyBits:
    """Deterministic i.i.d. uniform bits in canonical edge order."""
    rng = random.Random(seed)
    bits = {edge: rng.getrandbits(1) for edge in graph.edge_refs()}
    return EdgeKeyBits(bits=bits, seed=seed)


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


def _propagate(
    first_tree: int,
    copies: int,
    reference: int,
    steps: Sequence[tuple[int, int]],
    edges: Sequence[EdgeRef],
    bits: Sequence[int],
    out: tuple[list, list, list, list],
) -> None:
    """Share one bit across each copy of a tree, appending to ``out`` =
    (key bits, key rows, broadcasts, transcript rows).

    ``reference`` is the reference edge's index into ``edges`` and ``bits``,
    and ``steps`` holds (speaker, index) per walk step; copy k's edges sit at
    the same indices plus k.  Each further edge costs one broadcast, in walk
    order, where every speaker is already informed and every listener is a
    new vertex.
    """
    key_bits, key_rows, transcript, transcript_rows = out
    for k in range(copies):
        ref = reference + k
        shared = bits[ref]
        ref_edge = edges[ref]
        key_bits.append(shared)
        key_rows.append((ref,))
        for speaker, position in steps:
            position += k
            transcript.append(Broadcast(first_tree + k, speaker,
                                        shared ^ bits[position],
                                        (ref_edge, edges[position])))
            transcript_rows.append((ref, position))


def propagate_tree(
    tree: Tree, keys: EdgeKeyBits, tree_index: int = 0
) -> tuple[int, tuple[Broadcast, ...]]:
    """Share one bit across a tree; returns (bit, broadcasts).

    The reference edge (the least) supplies the bit; each further edge of
    ``tree.walk`` costs one broadcast.  This is one copy of ``_propagate``
    over the tree's own edges.
    """
    for edge in tree.edges:
        if edge not in keys.bits:
            raise InvalidTreeError(f"no key bit for tree edge {edge}")
    edges = (tree.edges[0],) + tuple(edge for _, edge in tree.walk)
    out: tuple[list, list, list, list] = ([], [], [], [])
    _propagate(tree_index, 1, 0,
               [(speaker, k) for k, (speaker, _) in enumerate(tree.walk, 1)],
               edges, [keys.bits[edge] for edge in edges], out)
    return out[0][0], tuple(out[2])


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

    def edge_index(self, edge: EdgeRef) -> int:
        index = bisect_left(self.edge_order, edge)
        if index == len(self.edge_order) or self.edge_order[index] != edge:
            raise KeyError(f"edge {edge} is not in this run")
        return index


def run_protocol(
    graph: Multigraph,
    packing: TreePacking,
    keys: EdgeKeyBits,
    target: TerminalSet,
) -> ProtocolRun:
    """Execute propagation over every tree of a packing: each group's walk
    is read once and its copies are found by index arithmetic."""
    if packing.graph != graph:
        raise InvalidPackingError("packing was built for a different graph")
    if packing.target != target:
        raise InvalidPackingError(
            f"packing targets {packing.target.members}, requested {target.members}"
        )
    edge_order = graph.edge_refs()
    try:
        bits = [keys.bits[edge] for edge in edge_order]
    except KeyError as exc:
        raise InvalidPackingError(f"no key bit drawn for edge {exc.args[0]}") from None
    offsets = graph.pair_offsets()

    out: tuple[list, list, list, list] = ([], [], [], [])
    first_tree = 0
    for tree, copies in packing.groups:
        reference = tree.edges[0]
        steps = [(speaker, offsets[edge[:2]] + edge[2]) for speaker, edge in tree.walk]
        _propagate(first_tree, copies, offsets[reference[:2]] + reference[2], steps,
                   edge_order, bits, out)
        first_tree += copies
    key_bits, key_rows, transcript, transcript_rows = out

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
    bits = [run.keys.bits[edge] for edge in run.edge_order]
    return (run.key_map.apply(bits) == run.key_bits
            and run.transcript_map.apply(bits) == tuple(b.bit for b in run.transcript))


def recover_key(run: ProtocolRun, terminal: int) -> tuple[int, ...]:
    """Reconstruct the group key at a target terminal from its own incident
    edge bits plus the public transcript, read once: O(|F| + trees)."""
    if terminal not in run.target:
        raise ValueError(
            f"terminal {terminal} is outside the target set "
            f"{run.target.members}; recovery is only guaranteed inside it"
        )
    first: dict[int, Broadcast] = {}
    for broadcast in run.transcript:
        edge = broadcast.support[1]
        if terminal in (edge[0], edge[1]):
            first.setdefault(broadcast.tree, broadcast)
    bits, edge_order = run.keys.bits, run.edge_order
    offsets = run.graph.pair_offsets()
    recovered: list[int] = []
    first_tree = 0
    # single copies (every spanning group) take no range or slice
    for tree, copies in run.packing.groups:
        reference = tree.edges[0]
        if terminal in (reference[0], reference[1]):  # holds every copy's reference edge
            if copies > 1:
                start = offsets[reference[:2]] + reference[2]
                recovered += [bits[edge] for edge in edge_order[start:start + copies]]
            else:
                recovered.append(bits[reference])
        else:
            for tree_index in (range(first_tree, first_tree + copies) if copies > 1
                               else (first_tree,)):
                broadcast = first.get(tree_index)
                if broadcast is None:
                    raise InvalidPackingError(
                        f"terminal {terminal} has no incident edge in tree {tree_index}"
                    )
                recovered.append(broadcast.bit ^ bits[broadcast.support[1]])
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
