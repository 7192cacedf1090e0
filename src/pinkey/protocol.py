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
are one tuple in canonical edge order, so every bit is read by index.

The packing alone therefore fixes the key and the transcript as linear
maps of the edge bits, and a run, given only the packing and the edge
bits, computes its bits by applying them.
The copies of a packing group share one walk, and copy k's edges sit k
places after copy 0's in canonical order, so each map is one
``Gf2Matrix`` block per group: a key block of one (reference) step and a
transcript block with a (reference, edge) step per walk step.  The
transcript is laid out group by group and, within a group, copy by copy
in walk order: the broadcast of walk step s of copy k of a group whose
broadcasts start at position p sits at ``p + k * steps + s``.  Only this
module knows that layout: ``transcript_steps`` reads the transcript one
walk step at a time, every copy of the step at once, for both renderers
and the ``Broadcast`` view; its speaker, support edges and tree indices
come from the packing, as the maps do.  The maps are the audit's record:
the rank audit, the brute force and ``verify_linear_maps`` read them, so
a run holding another map fails those checks and still prints the
packing's supports.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import InvalidPackingError
from .gf2 import Gf2Matrix
from .model import EdgeRef, Multigraph, TerminalSet
from .packing import TreePacking, is_edge_ref
from .value import Value, View


class EdgeKeyBits(Value):
    """One uniform bit per multigraph edge, in canonical edge order: bit k
    belongs to ``graph.edge_refs()[k]``.  The seed is kept for replay, so
    it is None or one that ``check_seed`` accepts.  ``bits`` may come as
    any sequence, ``bytes`` as a draw makes them, and is stored as a
    tuple."""

    bits: tuple[int, ...]
    seed: int | None

    def __init__(self, bits: tuple[int, ...], seed: int | None = None) -> None:
        # a draw's bytes, all 0 or 1, are checked in one pass in C
        drawn = type(bits) is bytes and not bits.translate(None, b"\0\1")
        bits = tuple(bits)
        if not drawn and not (set(map(type, bits)) <= {int} and set(bits) <= {0, 1}):
            # type(), not isinstance, above and here: a bool is no bit
            k = next(k for k, bit in enumerate(bits)
                     if type(bit) is not int or bit not in (0, 1))
            raise ValueError(f"edge bit {k} is the non-bit value {bits[k]!r}")
        if seed is not None:
            check_seed(seed)
        self._store(bits=bits, seed=seed)


def check_seed(seed: int) -> None:
    """Raise unless the edge-key seed is a non-negative int: ``random.Random``
    seeds ``-s`` exactly as ``s``, so a negative seed would replay another
    seed's bits, and a bool, float or string would not print as a seed
    that replays them."""
    if type(seed) is not int:  # type(), not isinstance: a bool is no seed
        raise ValueError(f"edge-key seed must be an int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"edge-key seed must be non-negative, got {seed}")


# byte -> its top bit, as a ``bytes.translate`` table
_TOP_BIT = bytes(byte >> 7 for byte in range(256))


def draw_edge_keys(graph: Multigraph, seed: int) -> EdgeKeyBits:
    """Deterministic i.i.d. uniform bits in canonical edge order, from a
    seed that ``check_seed`` accepts.

    Bit k is the bit ``getrandbits(1)`` would give on its k-th call: the
    top bit of the generator's k-th 32-bit word.  One ``getrandbits(32 * n)``
    draws the same n words, least significant first, so bit k is the top
    bit of byte ``4k + 3`` of its little-endian bytes."""
    check_seed(seed)
    n = graph.total_edges()
    words = random.Random(seed).getrandbits(32 * n).to_bytes(4 * n, "little")
    return EdgeKeyBits(bits=words[3::4].translate(_TOP_BIT), seed=seed)


class Broadcast(Value):
    """One public message: the sum of the reference-edge bit and one other
    edge bit, sent by the already-informed endpoint of that edge."""

    tree: int
    terminal: int
    bit: int
    support: tuple[EdgeRef, EdgeRef]  # (reference edge, propagated edge)

    def __init__(self, tree: int, terminal: int, bit: int,
                 support: tuple[EdgeRef, EdgeRef]) -> None:
        support = tuple(support)
        # type() rather than isinstance: a bool is no index, terminal or bit
        if type(tree) is not int or type(terminal) is not int:
            raise ValueError(f"broadcast tree and terminal must be integers, "
                             f"got {tree!r} and {terminal!r}")
        if not all(map(is_edge_ref, support)):  # each edge shaped as in a Tree
            raise ValueError(f"malformed edge in broadcast support {support!r}")
        if len(set(support)) != 2:
            raise ValueError("broadcast support must be two distinct edges")
        if terminal not in support[1][:2]:
            raise ValueError(f"broadcast speaker {terminal} is not an endpoint of "
                             f"the propagated edge {support[1]}")
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"broadcast bit must be 0/1, got {bit!r}")
        self._store(tree=tree, terminal=terminal, bit=bit, support=support)

    @property
    def informed_terminal(self) -> int:
        """The endpoint that learns the shared bit from this broadcast."""
        i, j, _ = self.support[1]
        return j if self.terminal == i else i


class ProtocolRun(Value):
    """A complete execution: key bits, transcript, linear maps.

    Only what the packing and the edge bits do not fix is stored; ``graph``
    and ``target`` are the packing's, and so is who speaks in which tree
    and which two edges each broadcast sums.  Broadcast r carries
    ``transcript_bits[r]`` and sums its tree's reference edge and one
    walk edge, the edges of ``transcript_map.rows[r]`` in an honest run;
    ``transcript`` reads it as a ``Broadcast`` from its walk step in
    ``transcript_steps``, with the step's speaker and supports.  The
    maps are the audit's record.  The residual bits, those of the edges
    no tree uses, are read off ``keys`` on first use.
    A copy's key row and walk steps number its edges, so |E| = |K| + |F|
    + |K_R| holds by construction, and the stacked index rows (key and
    residual edges, broadcast edge pairs) form an invertible square GF(2)
    matrix in the edge bits.  The key and transcript bits are stored, so a
    tampered run may disagree with its maps.
    """

    packing: TreePacking
    keys: EdgeKeyBits
    key_bits: tuple[int, ...]
    transcript_bits: tuple[int, ...]
    key_map: Gf2Matrix
    transcript_map: Gf2Matrix

    def __init__(self, packing: TreePacking, keys: EdgeKeyBits, key_bits: tuple[int, ...],
                 transcript_bits: tuple[int, ...], key_map: Gf2Matrix,
                 transcript_map: Gf2Matrix) -> None:
        # a caller's list becomes a tuple; a tuple, of any subclass, is kept
        key_bits, transcript_bits = (bits if isinstance(bits, tuple) else tuple(bits)
                                     for bits in (key_bits, transcript_bits))
        edges = _check_key_count(packing, keys)
        broadcasts = len(transcript_bits)
        if key_map.nrows != len(key_bits) or key_map.ncols != edges:
            raise InvalidPackingError("key map has wrong shape")
        if transcript_map.nrows != broadcasts or transcript_map.ncols != edges:
            raise InvalidPackingError("transcript map has wrong shape")
        steps = sum(copies * len(tree.walk) for tree, copies in packing.groups)
        if key_map.nrows != packing.count or broadcasts != steps:
            raise InvalidPackingError(
                f"maps of {key_map.nrows} key rows and {broadcasts} broadcasts "
                f"do not fit a packing of {packing.count} trees and {steps} "
                "walk steps")
        self._store(packing=packing, keys=keys, key_bits=key_bits,
                    transcript_bits=transcript_bits, key_map=key_map,
                    transcript_map=transcript_map)

    @property
    def graph(self) -> Multigraph:
        return self.packing.graph

    @property
    def target(self) -> TerminalSet:
        return self.packing.target

    @property
    def edge_order(self) -> tuple[EdgeRef, ...]:
        """Every edge in canonical order: the columns of both maps."""
        return self.graph.edge_refs()

    @cached_property
    def residual_bits(self) -> tuple[int, ...]:
        """The edge bits of the edges no tree uses, in canonical order."""
        return tuple(compress(self.keys.bits, self.packing.residual_mask()))

    @property
    def residual_edges(self) -> tuple[EdgeRef, ...]:
        """The edges no tree uses, in canonical order: where the residual
        bits come from."""
        return tuple(compress(self.graph.edge_refs(), self.packing.residual_mask()))

    @cached_property
    def _walk_steps(self) -> tuple[tuple[int, ...], tuple[tuple[Step, ...], ...]]:
        """Each walked group's first broadcast position (and then their
        count) and its steps in ``transcript_steps``, kept from the first
        read of a broadcast."""
        groups = tuple(map(tuple, transcript_steps(self)))
        return tuple(accumulate([len(steps) * len(steps[0][-1]) for steps in groups],
                                initial=0)), groups

    @property
    def transcript(self) -> Sequence[Broadcast]:
        """The broadcasts in transcript order, each built when it is read,
        from copy k of step s of its group (position ``p + k * steps +
        s``); its length is the bit column's, so ``len`` reads no step."""
        order = self.edge_order

        def broadcast(position: int) -> Broadcast:
            starts, groups = self._walk_steps
            g = bisect_right(starts, position) - 1
            copy, s = divmod(position - starts[g], len(groups[g]))
            speaker, bits, firsts, seconds, trees = groups[g][s]
            return Broadcast(trees[copy], speaker, bits[copy],
                             (order[firsts[copy]], order[seconds[copy]]))

        return View(len(self.transcript_bits), broadcast)


def _check_key_count(packing: TreePacking, keys: EdgeKeyBits) -> int:
    """The packing graph's edge count, once ``keys`` has one bit per edge."""
    edges = packing.graph.total_edges()
    if len(keys.bits) != edges:
        raise InvalidPackingError(
            f"{len(keys.bits)} key bits drawn for a graph of {edges} edges")
    return edges


def run_protocol(packing: TreePacking, keys: EdgeKeyBits) -> ProtocolRun:
    """Execute propagation over every tree of a packing: build the key and
    transcript maps, one block each per group, and apply them to the edge
    bits.  ``keys`` must hold one bit per edge of ``packing.graph``."""
    edges = _check_key_count(packing, keys)
    offsets = packing.graph.pair_offsets()

    key_blocks = []
    transcript_blocks = []
    for tree, copies in packing.groups:
        # the reference edge supplies each copy's shared bit; every further
        # edge, in walk order, costs one broadcast: reference XOR edge
        i, j, c = tree.edges[0]
        reference = offsets[(i, j)] + c
        key_blocks.append((copies, ((reference, None),)))
        if tree.walk:
            transcript_blocks.append((copies, tuple(
                (reference, offsets[(i, j)] + c) for _, (i, j, c) in tree.walk)))
    key_map = Gf2Matrix(tuple(key_blocks), edges)
    transcript_map = Gf2Matrix(tuple(transcript_blocks), edges)
    return ProtocolRun(
        packing=packing,
        keys=keys,
        key_bits=key_map.apply(keys.bits),
        transcript_bits=transcript_map.apply(keys.bits),
        key_map=key_map,
        transcript_map=transcript_map,
    )


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
    XOR its copy of that edge.
    """
    if type(terminal) is not int:  # type(), not isinstance: a bool is no terminal
        raise ValueError(f"terminal {terminal!r} is not an integer")
    if terminal not in run.target:
        raise ValueError(
            f"terminal {terminal} is outside the target set "
            f"{run.target.members}; recovery is only guaranteed inside it"
        )
    bits = run.keys.bits
    offsets = run.graph.pair_offsets()
    recovered: list[int] = []
    start = first = 0  # the group's first broadcast and first tree
    for tree, copies in run.packing.groups:
        steps = len(tree.walk)
        i, j, c = tree.edges[0]
        if terminal == i or terminal == j:  # holds every copy's reference edge
            reference = offsets[(i, j)] + c
            recovered += bits[reference:reference + copies]
        else:
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


Step = tuple[int, Sequence[int], range, range, range]


def transcript_steps(run: ProtocolRun) -> Iterator[list[Step]]:
    """The transcript one walk step at a time: per group with a walk, one
    (speaker, bits, firsts, seconds, trees) per walk step, each column
    holding that step's broadcast of every copy in copy order.  ``bits``
    is the slice ``transcript_bits[p + s : p + steps * copies : steps]``
    and ``trees`` the group's tree-index range; the speaker and both
    support ranges come from the packing, as ``run_protocol`` builds the
    maps: ``firsts`` the copies' reference edges, ``seconds`` their
    copies of the step's walk edge, as canonical edge indices."""
    offsets = run.graph.pair_offsets()
    bits = run.transcript_bits
    start = first = 0  # the group's first broadcast and first tree
    for tree, copies in run.packing.groups:
        walk = tree.walk
        if walk:
            steps = len(walk)
            end = start + steps * copies
            i, j, c = tree.edges[0]
            reference = range(offsets[(i, j)] + c, offsets[(i, j)] + c + copies)
            trees = range(first, first + copies)
            yield [(speaker, bits[s:end:steps], reference,
                    range(offsets[(a, b)] + k, offsets[(a, b)] + k + copies), trees)
                   for s, (speaker, (a, b, k)) in zip(range(start, start + steps), walk)]
            start = end
        first += copies


# items formatted by one template: the template, the item count and one
# column per ``%d`` of the template, holding its value in every item
ItemGroup = tuple[str, int, Sequence[Sequence[int]]]

# the most items formatted by one ``%``, hence in one piece of output
_BATCH = 4096


def format_items(groups: Iterable[ItemGroup], sep: str) -> Iterator[str]:
    """The text of ``sep.join`` over every item of the groups in turn, in
    pieces of at most ``_BATCH`` items: one ``%`` formats up to ``_BATCH``
    items of a group at once, through the template repeated, and each such
    text is one piece, after ``sep`` unless it is the first, so a write
    holds neither one piece per item nor every item at once.  A one-column
    group's column is its arguments as it stands (a range, for one-edge
    trees)."""
    lead = ""
    for template, size, columns in groups:
        for start in range(0, size, _BATCH):
            part = (columns if size <= _BATCH
                    else [column[start:start + _BATCH] for column in columns])
            yield lead + sep.join([template] * len(part[0])) % (
                tuple(part[0]) if len(part) == 1 else tuple(chain.from_iterable(zip(*part))))
            lead = sep


def export_transcript(run: ProtocolRun) -> str:
    """Line-oriented replayable record of a run.

    One ``broadcast`` line per message with the two support edge indices
    (into canonical edge order, read off the packing's walks);
    key and residual bit strings in hex with explicit bit lengths; the
    drawing seed first.  A group's lines are formatted by one template,
    its walk steps' lines with each step's speaker written in.
    """
    lines = [
        f"seed {run.keys.seed if run.keys.seed is not None else 'none'}",
        f"edges {run.graph.total_edges()}",
        f"trees {run.packing.count}",
        f"key bits={len(run.key_bits)} hex={_bits_to_hex(run.key_bits)}",
        f"residual bits={len(run.residual_bits)} hex={_bits_to_hex(run.residual_bits)}",
    ]

    def group(steps: list[Step]) -> ItemGroup:
        template = "\n".join(["broadcast tree=%%d terminal=%d bit=%%d support=%%d,%%d"
                              % speaker for speaker, *_ in steps])
        return template, len(steps[0][-1]), [
            column for _, bits, firsts, seconds, trees in steps
            for column in (trees, bits, firsts, seconds)]

    broadcasts = "".join(format_items(map(group, transcript_steps(run)), "\n"))
    if broadcasts:
        lines.append(broadcasts)
    return "\n".join(lines) + "\n"
