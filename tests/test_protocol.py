import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinkey.packing
import pinkey.protocol

from pinkey import (
    Broadcast,
    EdgeKeyBits,
    Gf2Matrix,
    InvalidPackingError,
    Multigraph,
    TerminalSet,
    Tree,
    TreePacking,
    audit,
    draw_edge_keys,
    export_transcript,
    flip_broadcast,
    gf2_rank,
    leak_key_bit,
    recover_key,
    run_protocol,
    spanning_packing,
    steiner_packing,
    verify_linear_maps,
)
from pinkey.cli import _transcript_json
from pinkey.protocol import format_items
from pinkey.value import replace

from helpers import (
    AUDIT_MODULE,
    columnar_export_transcript,
    columnar_transcript_json,
    dense_gf2_rows,
    elimination_gf2_rank,
    per_copy_trees,
    per_tree_run_protocol,
    random_multigraph,
    random_terminal_set,
    random_tree_edges,
    reference_propagate_tree,
    scan_recover_key,
    shift_bits_to_hex,
)

DOUBLED_TRIANGLE = Multigraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})
UNIT_TRIANGLE = Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})


def full_run(graph, seed=0):
    target = TerminalSet.full(graph.m)
    packing = spanning_packing(graph)
    keys = draw_edge_keys(graph, seed)
    return run_protocol(packing, keys)


def one_tree_graph(tree):
    """The least multigraph holding every edge of ``tree``."""
    counts = {}
    for i, j, c in tree.edges:
        counts[(i, j)] = max(counts.get((i, j), 0), c + 1)
    return Multigraph(max(tree.vertices()), counts)


def one_tree_run(tree, bits):
    """``run_protocol`` on the packing of ``tree`` alone, in the least graph
    holding it; ``bits`` gives that graph's edge bits in canonical order."""
    graph = one_tree_graph(tree)
    target = TerminalSet(tree.vertices())
    packing = TreePacking(graph=graph, target=target, groups=((tree, 1),))
    return run_protocol(packing, EdgeKeyBits(tuple(bits)))


class TestDrawEdgeKeys:
    def test_deterministic(self):
        a = draw_edge_keys(DOUBLED_TRIANGLE, 42)
        b = draw_edge_keys(DOUBLED_TRIANGLE, 42)
        assert a.bits == b.bits
        assert draw_edge_keys(DOUBLED_TRIANGLE, 43).bits != a.bits

    def test_empty_graph(self):
        graph = Multigraph(2, {(1, 2): 0})
        assert draw_edge_keys(graph, 1).bits == ()

    @pytest.mark.parametrize("seed", [-1, -5, -2**70])
    def test_rejects_negative_seed(self, seed):
        # Random(-s) seeds exactly as Random(s), so -5 would replay seed 5
        with pytest.raises(ValueError, match=re.escape(
                f"edge-key seed must be non-negative, got {seed}")):
            draw_edge_keys(DOUBLED_TRIANGLE, seed)

    def test_one_bit_per_edge_in_canonical_order(self):
        keys = draw_edge_keys(DOUBLED_TRIANGLE, 42)
        rng = random.Random(42)
        assert keys.bits == tuple(rng.getrandbits(1)
                                  for _ in DOUBLED_TRIANGLE.edge_refs())
        assert keys.seed == 42

    @pytest.mark.parametrize("seed", [0, 1, 5, 12345, 2**31 - 1, 2**40])
    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 100, 700, 5000])
    def test_one_draw_gives_the_per_bit_draws(self, seed, n):
        # getrandbits(32 * n) fills its words as n getrandbits(1) calls do
        getrandbits = random.Random(seed).getrandbits
        keys = draw_edge_keys(Multigraph(3, {(1, 2): n // 2, (2, 3): n - n // 2}), seed)
        assert keys.bits == tuple(getrandbits(1) for _ in range(n))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**80), st.integers(0, 400))
    def test_one_draw_gives_the_per_bit_draws_for_any_seed(self, seed, n):
        getrandbits = random.Random(seed).getrandbits
        keys = draw_edge_keys(Multigraph(2, {(1, 2): n}), seed)
        assert keys.bits == tuple(getrandbits(1) for _ in range(n))

    def test_unbiased(self):
        graph = Multigraph(2, {(1, 2): 10_000})
        bits = draw_edge_keys(graph, 7).bits
        ones = sum(bits)
        # 5 sigma band around n/2 for a fair coin
        assert abs(ones - 5000) < 5 * (10_000 * 0.25) ** 0.5

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            EdgeKeyBits((1, 0, 2))

    def test_bytes_of_bits_become_the_tuple(self):
        # the form a draw passes: one check over the bytes, a tuple stored
        assert EdgeKeyBits(b"\x01\x00\x01", seed=4) == EdgeKeyBits((1, 0, 1), seed=4)
        assert type(EdgeKeyBits(b"\x01").bits) is tuple
        with pytest.raises(ValueError, match=r"^edge bit 2 is the non-bit value 2$"):
            EdgeKeyBits(b"\x01\x00\x02")

    @pytest.mark.parametrize("bits, k, shown", [
        ((False, True, False), 0, "False"), ((0, 1, True), 2, "True"),
        ((1, 1.0), 1, "1.0"), ((0, [1]), 1, "[1]")])
    def test_rejects_entries_that_are_not_ints(self, bits, k, shown):
        # True == 1, but a bool bit would reach the hex export as "True"
        with pytest.raises(ValueError,
                           match=rf"^edge bit {k} is the non-bit value {re.escape(shown)}$"):
            EdgeKeyBits(bits)

    @pytest.mark.parametrize("seed, message", [
        ("abc", "must be an int, got 'abc'"), (True, "must be an int, got True"),
        (2.5, "must be an int, got 2.5"), (-3, "must be non-negative, got -3")])
    def test_rejects_a_seed_that_does_not_replay(self, seed, message):
        # the transcript prints the seed as its replay line
        with pytest.raises(ValueError, match=f"^edge-key seed {re.escape(message)}$"):
            EdgeKeyBits((1,), seed=seed)
        with pytest.raises(ValueError, match=f"^edge-key seed {re.escape(message)}$"):
            draw_edge_keys(DOUBLED_TRIANGLE, seed)
        assert EdgeKeyBits((1,), seed=0).seed == 0


class TestBroadcast:
    SUPPORT = ((1, 2, 0), (2, 3, 0))

    def test_informed_terminal(self):
        assert Broadcast(0, 2, 1, self.SUPPORT).informed_terminal == 3

    @pytest.mark.parametrize("tree, terminal, bit", [
        (True, 2, 1), (0, True, 1), (0, 2, True), (0, 2, False), (0.0, 2, 1),
        (0, 2.0, 1), (0, 2, 1.0), (0, "2", 1), (0, 2, 2)])
    def test_rejects_fields_that_are_not_ints(self, tree, terminal, bit):
        # type() rather than isinstance, as for EdgeKeyBits: True == 1
        with pytest.raises(ValueError):
            Broadcast(tree, terminal, bit, self.SUPPORT)

    def test_rejects_a_repeated_support_edge(self):
        with pytest.raises(ValueError, match="two distinct edges"):
            Broadcast(0, 2, 1, ((1, 2, 0), (1, 2, 0)))

    @pytest.mark.parametrize("support", [
        [(1, 2, 0), (2, 3, 0, "x")], [[1, 2, 0], [2, 3, 0]], [(1, 2, 0), (3, 2, 0)],
        [(1, 2, 0), (2, 3, -1)], [(1, 2, 0), (0, 3, 0)], [(1, 2, 0), (2, 3, True)],
        [(1, 2, 0), (2.0, 3, 0)]])
    def test_rejects_a_malformed_support_edge(self, support):
        # each support edge has the shape a Tree edge has
        with pytest.raises(ValueError, match="malformed edge in broadcast support"):
            Broadcast(0, 1, 1, support)


class TestPropagateTree:
    """Propagation over one tree, seen through ``run_protocol`` on a
    one-tree packing."""

    def test_single_edge(self):
        run = one_tree_run(Tree(((1, 2, 0),)), (1,))
        assert run.key_bits == (1,)
        assert tuple(run.transcript) == ()
        assert run.transcript_bits == run.speakers == run.broadcast_trees == ()

    def test_path_xor_bookkeeping(self):
        run = one_tree_run(Tree(((1, 2, 0), (2, 3, 0))), (1, 0))
        assert run.key_bits == (1,)
        assert len(run.transcript) == 1
        b = run.transcript[0]
        assert b.terminal == 2
        assert b.bit == 1  # 1 xor 0
        assert b.support == ((1, 2, 0), (2, 3, 0))
        assert b.informed_terminal == 3

    def test_star_supports(self):
        edges = ((1, 2, 0), (1, 3, 0), (1, 4, 0))
        run = one_tree_run(Tree(edges), (1, 0, 1))
        (bit,) = run.key_bits
        assert bit == 1
        assert len(run.transcript) == 2
        reference = (1, 2, 0)
        for b in run.transcript:
            assert b.support[0] == reference
            assert b.support[1] != reference
            assert b.terminal == 1  # the hub already knows the bit
            assert b.bit == bit ^ run.keys.bits[run.edge_order.index(b.support[1])]

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidPackingError, match="0 key bits drawn for a graph of 1 edges"):
            one_tree_run(Tree(((1, 2, 0),)), ())

    @given(st.integers(0, 10_000))
    def test_each_broadcast_informs_a_new_vertex(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        labels = rng.sample(range(1, 13), n)
        edges = []
        for k in range(1, n):
            u, v = sorted((labels[k], labels[rng.randrange(k)]))
            edges.append((u, v, rng.randint(0, 2)))
        tree = Tree(tuple(edges))
        graph = one_tree_graph(tree)
        run = one_tree_run(tree, [rng.getrandbits(1) for _ in graph.edge_refs()])
        assert run.key_bits == (run.keys.bits[graph.edge_refs().index(tree.edges[0])],)
        assert len(run.transcript) == len(edges) - 1
        informed = set(tree.edges[0][:2])
        for b in run.transcript:
            assert b.terminal in informed
            assert b.informed_terminal not in informed
            informed.add(b.informed_terminal)
        assert informed == set(tree.vertices())

    @given(st.integers(0, 10_000))
    def test_same_bit_and_broadcasts_as_reference_walk(self, seed):
        rng = random.Random(seed)
        edges = random_tree_edges(rng, rng.randint(2, 9))
        rng.shuffle(edges)
        tree = Tree(tuple(edges))
        graph = one_tree_graph(tree)
        bits = [rng.getrandbits(1) for _ in graph.edge_refs()]
        run = one_tree_run(tree, bits)
        shared, broadcasts = reference_propagate_tree(
            tree, dict(zip(graph.edge_refs(), bits)))
        assert run.key_bits == (shared,)
        assert tuple(run.transcript) == broadcasts


class TestRunProtocol:
    def test_empty_packing(self):
        target = TerminalSet.full(3)
        packing = TreePacking(graph=UNIT_TRIANGLE, target=target, groups=())
        keys = draw_edge_keys(UNIT_TRIANGLE, 0)
        run = run_protocol(packing, keys)
        assert run.key_bits == ()
        assert tuple(run.transcript) == ()
        assert run.transcript_bits == run.speakers == run.broadcast_trees == ()
        assert len(run.residual_edges) == 3

    def test_doubled_triangle_accounting(self):
        run = full_run(DOUBLED_TRIANGLE, seed=5)
        assert len(run.key_bits) == 3
        assert len(run.transcript) == 3
        assert len(run.residual_bits) == 0

    def test_unit_triangle_accounting(self):
        run = full_run(UNIT_TRIANGLE, seed=5)
        assert (len(run.key_bits), len(run.transcript),
                len(run.residual_bits)) == (1, 1, 1)

    def test_rejects_foreign_packing(self):
        # keys drawn for another graph fail the bit count
        packing = spanning_packing(UNIT_TRIANGLE)
        keys = draw_edge_keys(DOUBLED_TRIANGLE, 0)
        with pytest.raises(InvalidPackingError):
            run_protocol(packing, keys)

    def test_deterministic(self):
        assert full_run(DOUBLED_TRIANGLE, seed=9) == full_run(DOUBLED_TRIANGLE, seed=9)

    def test_rejects_maps_that_do_not_fit_the_packing(self):
        # every variant keeps each map's shape
        four = full_run(Multigraph(2, {(1, 2): 4}))  # four one-edge trees
        with pytest.raises(InvalidPackingError, match=re.escape(
                "maps of 1 key rows and 1 broadcasts do not fit a packing of "
                "4 trees and 0 walk steps")):
            replace(four, key_bits=(0,), transcript_bits=(0,),
                    key_map=Gf2Matrix.from_rows([(0,)], 4),
                    transcript_map=Gf2Matrix.from_rows([(1, 2)], 4))
        unit = full_run(UNIT_TRIANGLE)  # one key row, one broadcast, one residual
        with pytest.raises(InvalidPackingError, match="1 key rows and 2 broadcasts"):
            replace(unit, transcript_bits=(0, 0),
                    transcript_map=Gf2Matrix.from_rows(unit.transcript_map.rows + ((2,),), 3))
        doubled = full_run(DOUBLED_TRIANGLE)  # a key row moved into the transcript
        with pytest.raises(InvalidPackingError, match="2 key rows and 4 broadcasts"):
            replace(doubled, key_bits=doubled.key_bits[1:],
                    transcript_bits=doubled.transcript_bits + doubled.key_bits[:1],
                    key_map=Gf2Matrix.from_rows(doubled.key_map.rows[1:], 6),
                    transcript_map=Gf2Matrix.from_rows(
                        doubled.transcript_map.rows + doubled.key_map.rows[:1], 6))

    @pytest.mark.parametrize("change", (-1, 1))
    def test_rejects_bit_count_other_than_edge_count(self, change):
        target = TerminalSet.full(3)
        packing = spanning_packing(DOUBLED_TRIANGLE)
        bits = draw_edge_keys(DOUBLED_TRIANGLE, 0).bits
        keys = EdgeKeyBits(bits[:-1] if change < 0 else bits + (1,))
        with pytest.raises(InvalidPackingError,
                           match=f"{6 + change} key bits drawn for a graph of 6 edges"):
            run_protocol(packing, keys)

    def test_run_refuses_keys_for_another_edge_count(self):
        # the constructor makes the key-count check, so ``replace`` makes it too
        run = full_run(Multigraph(2, {(1, 2): 4}))
        with pytest.raises(InvalidPackingError,
                           match="3 key bits drawn for a graph of 4 edges"):
            replace(run, keys=EdgeKeyBits((0,) * 3))

    def test_residual_bits_follow_the_keys(self):
        run = full_run(UNIT_TRIANGLE, seed=5)  # one two-edge tree, one residual edge
        (residual,) = run.residual_edges
        assert run.residual_bits == (run.keys.bits[run.edge_order.index(residual)],)
        flipped = replace(run, keys=EdgeKeyBits(tuple(1 - bit for bit in run.keys.bits)))
        assert flipped.residual_bits == (1 - run.residual_bits[0],)
        assert flipped.key_bits == run.key_bits  # stored, so left as they were

    @pytest.mark.parametrize("seed", range(10))
    def test_transcript_rows_index_the_supports(self, seed):
        # export_transcript and structured simulate read supports off the rows
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        run = full_run(graph, seed=seed)
        variants = [run]
        if run.transcript:
            variants += [flip_broadcast(run, 0), leak_key_bit(run, 0, 0)]
        for variant in variants:
            assert variant.transcript_map.rows == tuple(
                (variant.edge_order.index(b.support[0]),
                 variant.edge_order.index(b.support[1]))
                for b in variant.transcript)

    @pytest.mark.parametrize("seed", range(20))
    def test_accounting_and_bijection(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        run = full_run(graph, seed=seed)
        edges = len(run.edge_order)
        assert len(run.key_bits) + len(run.transcript) + len(run.residual_bits) == edges
        # stacked key, transcript and residual-unit rows are invertible
        rows = list(run.key_map.rows) + list(run.transcript_map.rows)
        rows += [(run.edge_order.index(e),) for e in run.residual_edges]
        assert len(rows) == edges
        assert gf2_rank(rows, edges) == edges
        assert elimination_gf2_rank(dense_gf2_rows(rows), edges) == edges
        assert verify_linear_maps(run)

    def test_per_tree_independence(self):
        run = full_run(DOUBLED_TRIANGLE, seed=3)
        edges = len(run.edge_order)
        for tree_index, tree in enumerate(run.packing.trees):
            key_row = run.key_map.rows[tree_index]
            broadcast_rows = [
                row
                for b, row in zip(run.transcript, run.transcript_map.rows)
                if b.tree == tree_index
            ]
            for rank in (gf2_rank, lambda rows, n: elimination_gf2_rank(
                    dense_gf2_rows(rows), n)):
                assert rank([key_row] + broadcast_rows, edges) == len(tree.edges)
                # the key row is outside the span of the broadcasts
                assert rank(broadcast_rows, edges) == len(broadcast_rows)
                assert rank([key_row] + broadcast_rows, edges) == \
                    len(broadcast_rows) + 1


def random_grouped_run(rng: random.Random):
    """A run over a packing of one to five groups built directly: trees
    grown at random over the target and a few other vertices, or, for a
    two-terminal target, often the one edge between them (an empty walk);
    each group of 1 to 300 copies, with spare edges left over."""
    m = rng.randint(2, 6)
    target = random_terminal_set(rng, m, 2 if rng.random() < 0.5 else None)
    counts: Counter = Counter()
    groups = []
    for _ in range(rng.randint(1, 5)):
        if len(target) == 2 and rng.random() < 0.4:
            pairs = [tuple(target.members)]
        else:
            order = list(target.members) + rng.sample(
                [v for v in range(1, m + 1) if v not in target], rng.randint(0, m - len(target)))
            rng.shuffle(order)
            pairs = [tuple(sorted((order[k], rng.choice(order[:k]))))
                     for k in range(1, len(order))]
        copies = rng.choice((1, 2, rng.randint(3, 300)))
        edges = []
        for pair in pairs:
            edges.append((*pair, counts[pair]))
            counts[pair] += copies
        groups.append((Tree(tuple(edges)), copies))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            counts[(i, j)] += rng.randint(0, 2)
    graph = Multigraph(m, dict(counts))
    packing = TreePacking(graph, target, groups)
    return run_protocol(packing, draw_edge_keys(graph, rng.randrange(100)))


class TestTranscriptRenderers:
    """``export_transcript`` and the ``transcript`` JSON field read the
    transcript one walk step at a time; the columnar renderers they
    replaced are the oracles, on honest runs and on runs whose bits or
    transcript map were replaced."""

    @staticmethod
    def variants(run, rng):
        yield run
        ncols, nrows = run.transcript_map.ncols, run.transcript_map.nrows
        if nrows:
            yield flip_broadcast(run, rng.randrange(nrows))
        # equal rows in one-row blocks, which no longer follow the groups
        yield replace(run, transcript_map=Gf2Matrix.from_rows(run.transcript_map.rows, ncols))
        if ncols >= 2:
            # other rows, in one-row blocks and in blocks shaped like the groups
            rows = [tuple(rng.sample(range(ncols), 2)) for _ in range(nrows)]
            yield replace(run, transcript_map=Gf2Matrix.from_rows(rows, ncols))
            blocks = []
            for copies, steps in run.transcript_map.blocks:
                if copies < ncols:
                    starts = range(ncols - copies + 1)
                    blocks.append((copies, tuple(tuple(rng.sample(starts, 2))
                                                 for _ in steps)))
            if len(blocks) == len(run.transcript_map.blocks):
                yield replace(run, transcript_map=Gf2Matrix(tuple(blocks), ncols))

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_per_step_renderers_match_the_columnar_ones(self, seed):
        rng = random.Random(seed)
        run = random_grouped_run(rng)
        for variant in self.variants(run, rng):
            assert "".join(_transcript_json(variant)) == columnar_transcript_json(variant)
            assert export_transcript(variant) == columnar_export_transcript(variant)

    def test_the_property_sees_empty_walks_many_copies_and_several_groups(self):
        runs = [random_grouped_run(random.Random(seed)) for seed in range(40)]
        groups = [group for run in runs for group in run.packing.groups]
        assert any(not tree.walk for tree, _ in groups)
        assert any(copies > 100 and tree.walk for tree, copies in groups)
        assert any(len(run.packing.groups) >= 4 for run in runs)
        assert any(any(not tree.walk for tree, _ in run.packing.groups)
                   and any(tree.walk for tree, _ in run.packing.groups) for run in runs)

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 3)), max_size=6),
           st.integers(1, 4))
    def test_format_items_joins_every_item_in_bounded_pieces(self, shapes, batch):
        # groups of 1-9 items with 1-3 columns, across batches of 1-4 items
        groups = [("<" + ",".join(["%d"] * width) + ">", size,
                   [range(10 * g + w, 10 * g + w + size) for w in range(width)])
                  for g, (size, width) in enumerate(shapes)]
        with pytest.MonkeyPatch.context() as patch:  # a fixture would span examples
            patch.setattr(pinkey.protocol, "_BATCH", batch)
            pieces = list(format_items(groups, "|"))
        assert "".join(pieces) == "|".join(
            template % row for template, _, columns in groups for row in zip(*columns))
        assert all(piece.count("<") < 2 * batch for piece in pieces)

    def test_a_one_column_row_fails_both_renderers_alike(self):
        run = full_run(DOUBLED_TRIANGLE, seed=2)
        rows = list(run.transcript_map.rows)
        rows[0] = rows[0][:1]
        variant = replace(run, transcript_map=Gf2Matrix.from_rows(
            rows, run.transcript_map.ncols))
        for render in (lambda r: "".join(_transcript_json(r)), columnar_transcript_json,
                       export_transcript, columnar_export_transcript):
            with pytest.raises(TypeError):
                render(variant)


class TestGroupsAgainstPerCopyOracles:
    """A packing keeps (tree, copies) groups and the protocol works once per
    group; both must expand to exactly what one tree per copy gives."""

    @given(st.integers(0, 10_000), st.sampled_from(("paths", "greedy", "exact")))
    @settings(deadline=None)
    def test_groups_expand_to_the_per_copy_packing_and_run(self, seed, route):
        rng = random.Random(seed)
        if route == "paths":
            graph = random_multigraph(rng, max_m=6, max_mult=6)
            target = random_terminal_set(rng, graph.m, 2)
        else:
            # at most 20 edges, under the exact search's cap of 24
            m = rng.randint(4, 5)
            graph = Multigraph(m, {(i, j): rng.randint(0, 2)
                                   for i in range(1, m + 1) for j in range(i + 1, m + 1)})
            target = random_terminal_set(rng, m, rng.randint(3, m - 1))
        entries = []
        assign = pinkey.packing._assign_copies

        def spy(graph, target, chosen):
            entries.append(list(chosen))
            return assign(graph, target, chosen)

        with mock.patch.object(pinkey.packing, "_assign_copies", spy):
            packing = steiner_packing(graph, target,
                                      mode="greedy" if route == "greedy" else "exact")
        expected = per_copy_trees(entries[-1])  # exact search assigns its best last
        assert [tree.edges for tree in packing.trees] == [tree.edges for tree in expected]
        assert packing.count == len(expected)
        # consecutive equal entries share one group
        assert all(a.pairs() != b.pairs()
                   for (a, _), (b, _) in zip(packing.groups, packing.groups[1:]))

        keys = draw_edge_keys(graph, seed)
        run = run_protocol(packing, keys)
        oracle, broadcasts = per_tree_run_protocol(packing, keys)
        assert run.key_bits == oracle.key_bits
        assert tuple(run.transcript) == broadcasts
        assert run.transcript_bits == oracle.transcript_bits
        assert run.speakers == tuple(b.terminal for b in broadcasts)
        assert run.broadcast_trees == tuple(b.tree for b in broadcasts)
        assert run.key_map == oracle.key_map
        assert run.transcript_map == oracle.transcript_map
        assert run.residual_edges == oracle.residual_edges
        assert run.residual_bits == oracle.residual_bits

    @given(st.integers(0, 10_000), st.sampled_from(("paths", "spanning", "greedy", "exact")))
    @settings(deadline=None)
    def test_columnar_run_matches_the_per_tree_run(self, seed, route):
        # every column, and the Broadcast view built from them, against the
        # run that propagates one tree per copy and the Broadcasts it builds
        rng = random.Random(seed)
        m = rng.randint(2, 5) if route in ("paths", "spanning") else rng.randint(4, 5)
        graph = Multigraph(m, {(i, j): rng.choice((0, 1, 2, 3))
                               for i in range(1, m + 1) for j in range(i + 1, m + 1)})
        if route == "paths":
            target = random_terminal_set(rng, m, 2)
        elif route == "spanning":
            target = TerminalSet.full(m)
        else:
            target = random_terminal_set(rng, m, rng.randint(3, m - 1))
        # up to 30 edges at m = 5, above the default exact-search cap of 24
        with pytest.MonkeyPatch.context() as patch:  # a fixture would span examples
            patch.setattr(pinkey.packing, "STEINER_EXACT_EDGE_CAP", 30)
            packing = steiner_packing(graph, target,
                                      mode="greedy" if route == "greedy" else "exact")
        keys = draw_edge_keys(graph, seed)
        run = run_protocol(packing, keys)
        oracle, broadcasts = per_tree_run_protocol(packing, keys)
        assert tuple(run.transcript) == broadcasts
        assert len(run.transcript) == len(broadcasts) == len(run.transcript_bits)
        assert run == oracle
        # tampering changes bits and maps, never who speaks in which tree
        variants = [run]
        if broadcasts:
            variants += [flip_broadcast(run, 0), leak_key_bit(run, 0, len(broadcasts) - 1)]
        for variant in variants:
            assert variant.speakers == tuple(b.terminal for b in broadcasts)
            assert variant.broadcast_trees == tuple(b.tree for b in broadcasts)

    def test_multi_copy_groups_appear(self):
        # the property above must see groups of several copies
        graph = Multigraph(4, {(1, 2): 3, (2, 4): 2, (1, 3): 1, (3, 4): 2, (1, 4): 1})
        paths = steiner_packing(graph, TerminalSet.of(1, 4))
        assert [copies for _, copies in paths.groups] == [2, 1, 1]
        greedy = steiner_packing(
            Multigraph(4, {p: 2 * c for p, c in graph.multiplicities.items()}),
            TerminalSet.of(1, 2, 4), mode="greedy")
        assert [copies for _, copies in greedy.groups] == [2, 4]


class TestRecoverKey:
    def test_path_tree_far_terminal(self):
        graph = Multigraph(3, {(1, 2): 1, (2, 3): 1})
        target = TerminalSet.of(1, 3)
        packing = steiner_packing(graph, target)
        keys = EdgeKeyBits((1, 1))
        run = run_protocol(packing, keys)
        # terminal 3 decodes via the broadcast and its own edge bit
        assert recover_key(run, 3) == run.key_bits
        # terminal 1 holds the reference edge and ignores the transcript
        assert recover_key(run, 1) == run.key_bits

    def test_outside_target_rejected(self):
        run = full_run(UNIT_TRIANGLE)
        with pytest.raises(ValueError):
            recover_key(run, 4)

    @pytest.mark.parametrize("seed", range(100))
    def test_everyone_recovers(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        keys = draw_edge_keys(graph, seed)
        run = run_protocol(packing, keys)
        for terminal in target:
            assert recover_key(run, terminal) == run.key_bits


    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scan_on_honest_and_tampered_runs(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        self.check_matches_scan(
            run_protocol(packing, draw_edge_keys(graph, seed)))
        # a path packing of doubled multiplicities: every path is a group
        # of an even number of copies
        small = random_multigraph(rng, max_m=5, max_mult=3)
        doubled = Multigraph(small.m, {p: 2 * c for p, c in small.multiplicities.items()})
        pair = random_terminal_set(rng, small.m, 2)
        paths = steiner_packing(doubled, pair)
        assert all(copies % 2 == 0 for _, copies in paths.groups)
        self.check_matches_scan(
            run_protocol(paths, draw_edge_keys(doubled, seed)))

    def test_terminal_holding_every_reference_edge_skips_the_transcript(self):
        # on the path 1-2-3 every unit path starts with edge (1, 2)
        graph = Multigraph(3, {(1, 2): 3, (2, 3): 2})
        target = TerminalSet.of(1, 3)
        run = run_protocol(steiner_packing(graph, target), draw_edge_keys(graph, 4))

        class Unread(tuple):
            def __iter__(self):
                raise AssertionError("the transcript was read")

            def __getitem__(self, index):
                raise AssertionError("the transcript was read")

        unread = replace(run, transcript_bits=Unread(run.transcript_bits))
        assert recover_key(unread, 1) == run.key_bits
        with pytest.raises(AssertionError, match="transcript was read"):
            recover_key(unread, 3)

    @pytest.mark.parametrize("graph", [
        Multigraph(4, {(i, j): 8 for i in range(1, 5) for j in range(i + 1, 5)}),
        # the two triangles of the tie-heavy packing set, which alone are
        # disconnected, joined by nine copies of pair (3, 4)
        Multigraph(6, {(1, 2): 40, (1, 3): 2, (2, 3): 2, (3, 4): 9, (4, 5): 9,
                       (4, 6): 9, (5, 6): 9}),
    ], ids=["K4x8", "joined_two_triangles"])
    def test_merged_spanning_groups_recover_and_show_tampering(self, graph, monkeypatch):
        run = full_run(graph, seed=3)
        groups = run.packing.groups
        assert all(copies > 1 for _, copies in groups)
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 0)  # rank audit only
        # every group's reference edge misses some terminal, which must read
        # the transcript to recover that group's bits
        assert all(any(t not in tree.edges[0][:2] for t in run.target)
                   for tree, _ in groups)
        for terminal in run.target:
            assert recover_key(run, terminal) == scan_recover_key(run, terminal)
            assert recover_key(run, terminal) == run.key_bits
        copy_of = [k for _, copies in groups for k in range(copies)]
        later = [index for index, b in enumerate(run.transcript) if copy_of[b.tree] > 0]
        assert later
        for index in later:
            broadcast = run.transcript[index]
            tampered = flip_broadcast(run, index)
            assert not audit(tampered).passed
            for terminal in run.target:
                recovered = recover_key(tampered, terminal)
                assert recovered == scan_recover_key(tampered, terminal)
                wrong = [k for k, (got, bit) in enumerate(zip(recovered, run.key_bits))
                         if got != bit]
                informed = terminal == broadcast.informed_terminal
                assert wrong == ([broadcast.tree] if informed else [])

    def test_flip_on_a_later_path_copy_fails_the_audit(self):
        # a path packing whose groups hold several copies: flipping any
        # broadcast of a copy after the first misleads exactly the terminal
        # it informs, as the transcript scan says, and the audit fails
        # whenever that terminal is in the target
        graph = Multigraph(4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 1})
        target = TerminalSet.of(1, 4)
        run = run_protocol(steiner_packing(graph, target), draw_edge_keys(graph, 11))
        assert any(copies > 1 and tree.walk for tree, copies in run.packing.groups)
        copy_of = [k for _, copies in run.packing.groups for k in range(copies)]
        later = [index for index, tree in enumerate(run.broadcast_trees)
                 if copy_of[tree] > 0]
        informs = [run.transcript[index].informed_terminal for index in later]
        assert 4 in informs and {2, 3} & set(informs)
        for index, informed in zip(later, informs):
            tampered = flip_broadcast(run, index)
            for terminal in target:
                recovered = recover_key(tampered, terminal)
                assert recovered == scan_recover_key(tampered, terminal)
                assert (recovered != run.key_bits) == (terminal == informed)
            report = audit(tampered)
            assert report.recoverability == {t: t != informed for t in target}
            assert report.passed == (informed not in target)

    @staticmethod
    def check_matches_scan(run):
        target = run.target
        variants = [run]
        variants += [flip_broadcast(run, k) for k in range(len(run.transcript))]
        variants += [leak_key_bit(run, i, k) for i in range(len(run.key_bits))
                     for k in range(len(run.transcript))]
        for variant in variants:
            for terminal in target:
                try:
                    expected = scan_recover_key(variant, terminal)
                except InvalidPackingError as exc:
                    with pytest.raises(InvalidPackingError, match=re.escape(str(exc))):
                        recover_key(variant, terminal)
                else:
                    assert recover_key(variant, terminal) == expected


class TestTranscriptExport:
    def test_structure_and_determinism(self):
        run = full_run(DOUBLED_TRIANGLE, seed=5)
        text = export_transcript(run)
        assert text == export_transcript(full_run(DOUBLED_TRIANGLE, seed=5))
        lines = text.splitlines()
        assert lines[0] == "seed 5"
        assert lines[1] == "edges 6"
        assert lines[2] == "trees 3"
        assert lines[3].startswith("key bits=3 hex=")
        assert lines[4] == "residual bits=0 hex="
        assert len([l for l in lines if l.startswith("broadcast ")]) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcast_lines_name_reference_then_edge(self, seed):
        run = full_run(random_multigraph(random.Random(seed), max_m=5, max_mult=3),
                       seed=seed)
        lines = [l for l in export_transcript(run).splitlines()
                 if l.startswith("broadcast ")]
        assert lines == [
            f"broadcast tree={b.tree} terminal={b.terminal} bit={b.bit} "
            f"support={run.edge_order.index(b.support[0])},"
            f"{run.edge_order.index(b.support[1])}"
            for b in run.transcript]

    def test_hex_encoding(self):
        from pinkey.protocol import _bits_to_hex

        assert _bits_to_hex(()) == ""
        assert _bits_to_hex((1,)) == "1"
        assert _bits_to_hex((1, 0, 1)) == "5"
        assert _bits_to_hex((1, 0, 0, 0, 1)) == "11"  # 5 bits, 2 hex digits

    @given(st.integers(0, 10_000))
    def test_hex_matches_shift_packing(self, seed):
        from pinkey.protocol import _bits_to_hex

        rng = random.Random(seed)
        length = rng.randint(0, 4100)
        zeros = rng.randint(0, length)  # leading zeros must keep their digits
        bits = (0,) * zeros + tuple(rng.getrandbits(1) for _ in range(length - zeros))
        assert _bits_to_hex(bits) == shift_bits_to_hex(bits)
