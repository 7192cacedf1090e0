"""Block GF(2) maps against the per-row oracle.

``Gf2Matrix`` checks, applies and ranks its maps once per block step;
``helpers.RowGf2Matrix`` and ``helpers.row_forest_sizes`` do the same one
row at a time over the rows that ``helpers.block_rows`` lays out.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinkey.gf2
from pinkey import (
    Gf2Matrix,
    Multigraph,
    TerminalSet,
    draw_edge_keys,
    flip_broadcast,
    leak_key_bit,
    run_protocol,
    security_index_rank,
    steiner_packing,
    verify_linear_maps,
)
from pinkey.gf2 import _forest_sizes, _interval_nodes

from helpers import RowGf2Matrix, block_rows, random_terminal_set, row_forest_sizes


def oracle_or_error(rows, ncols):
    try:
        return RowGf2Matrix(rows, ncols)
    except ValueError:
        return None


@st.composite
def block_maps(draw, ncols, valid):
    """Blocks over ``ncols`` columns.  Valid ones fit every copy in range
    and keep a step's two starts apart; the others may break either rule
    (but keep positive copy counts).  Starts come from a few values, so
    intervals often share a start, nest or overlap."""
    starts = draw(st.lists(st.integers(-2 if not valid else 0, ncols + 1),
                           min_size=1, max_size=6))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        copies = draw(st.integers(1, min(4, ncols) if valid else ncols + 1))
        fits = [start for start in starts if 0 <= start <= ncols - copies]
        pool = fits if valid else starts
        if not pool:
            continue
        start = st.sampled_from(pool)
        steps = draw(st.lists(st.tuples(start, st.none() | start), max_size=3))
        if valid:
            steps = [(first, second) for first, second in steps if first != second]
        blocks.append((copies, tuple(steps)))
    return tuple(blocks)


def maps_over_shared_columns(valid):
    return st.integers(1, 16).flatmap(lambda ncols: st.tuples(
        st.just(ncols), block_maps(ncols, valid), block_maps(ncols, valid)))


def check_against_oracle(first, second, bits):
    """Every block operation of two maps over the same columns against the
    oracle over their rows."""
    ncols = first.ncols
    rows = [tuple(block_rows(matrix.blocks)) for matrix in (first, second)]
    for matrix, matrix_rows in zip((first, second), rows):
        oracle = RowGf2Matrix(matrix_rows, ncols)
        assert matrix.rows == oracle.rows
        assert matrix.nrows == len(oracle.rows)
        firsts, seconds = matrix.row_columns()
        assert list(zip(firsts, seconds)) == [
            (row[0], row[1] if len(row) == 2 else None) for row in oracle.rows]
        assert matrix.apply(bits) == oracle.apply(bits)
        assert matrix.rank() == oracle.rank()
        assert matrix == Gf2Matrix.from_rows(matrix_rows, ncols)
        assert hash(matrix) == hash(Gf2Matrix.from_rows(matrix_rows, ncols))
    assert _forest_sizes(first.blocks, second.blocks) == \
        row_forest_sizes(ncols, *rows)


class TestBlocksAgainstRowOracle:
    @given(maps_over_shared_columns(valid=False))
    def test_row_check_accepts_exactly_what_the_oracle_accepts(self, case):
        ncols, blocks, _ = case
        expected = oracle_or_error(block_rows(blocks), ncols)
        try:
            Gf2Matrix(blocks, ncols)
        except ValueError:
            assert expected is None
        else:
            assert expected is not None

    @given(maps_over_shared_columns(valid=True), st.randoms(use_true_random=False))
    def test_apply_rank_and_forest_sizes_match_on_hand_built_blocks(self, case, rng):
        ncols, first, second = case
        bits = [rng.getrandbits(1) for _ in range(ncols)]
        check_against_oracle(Gf2Matrix(first, ncols), Gf2Matrix(second, ncols), bits)

    @pytest.mark.parametrize("first, second", [
        # nested: [1, 3) inside [0, 3)
        (((3, ((0, 5),)),), ((2, ((1, None),)),)),
        # the same start, different lengths
        (((3, ((0, 5),)),), ((2, ((0, None), (6, 8))),)),
        # partial overlap inside one step: [0, 2) and [1, 3)
        (((2, ((0, 1),)),), ()),
        # partial overlap across maps, with a cycle through ground
        (((3, ((0, 5), (2, None))),), ((3, ((5, None), (7, 2))),)),
    ], ids=["nested", "same_start", "within_step", "across_maps"])
    def test_overlapping_intervals_fall_back_to_rows(self, first, second):
        assert _interval_nodes((first, second)) is None
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        check_against_oracle(Gf2Matrix(first, 10), Gf2Matrix(second, 10), bits)

    def test_equal_or_disjoint_intervals_rank_by_blocks(self):
        # a cycle over the intervals [0, 3), [3, 6) and [6, 9), then ground:
        # the second step of the cycle closes it, each join adds 3
        first = Gf2Matrix(((3, ((0, 3), (3, 6), (6, 0))),), 9)
        second = Gf2Matrix(((3, ((3, None),)), (3, ((0, None),))), 9)
        assert _interval_nodes((first.blocks, second.blocks)) == {0: 0, 3: 1, 6: 2}
        assert _forest_sizes(first.blocks, second.blocks) == [6, 9]
        check_against_oracle(first, second, [1, 1, 0, 1, 0, 0, 1, 0, 1])

    @pytest.mark.parametrize("blocks", [
        ((0, ((0, None),)),),
        ((-1, ((0, 1),)),),
        ((2, ((1, 1),)),),
        ((2, ((-1, None),)),),
        ((2, ((3, None),)),),
        ((2, ((0, 3),)),),
        ((1, ((0, 4),)),),
        ((5, ((0, None),)),),
        ((1.5, ((0, None),)),),
        ((2.0, ((0, None),)),),
        ((True, ((0, None),)),),
        ((1, ((0.0, None),)),),
        ((1, ((1, 2.0),)),),
        ((1, ((True, None),)),),
        ((1, ((0, True),)),),
    ], ids=["zero_copies", "negative_copies", "same_start", "negative_start",
            "first_past_end", "second_past_end", "second_out_of_range",
            "more_copies_than_columns", "fractional_copies", "float_copies",
            "bool_copies", "float_first", "float_second", "bool_first",
            "bool_second"])
    def test_rejects_bad_blocks(self, blocks):
        with pytest.raises(ValueError):
            Gf2Matrix(blocks, 4)

    @pytest.mark.parametrize("row", [(), (0, 1, 2)])
    def test_from_rows_rejects_rows_of_other_lengths(self, row):
        with pytest.raises(ValueError, match="one or two distinct columns"):
            Gf2Matrix.from_rows(((0,), row), 3)

    def test_apply_needs_one_bit_per_column(self):
        with pytest.raises(ValueError, match="2 bits given for 3 columns"):
            Gf2Matrix(((1, ((0, 2),)),), 3).apply([1, 0])


def honest_run(rng, seed):
    """A run on a random packing route: paths, spanning or greedy Steiner."""
    m = rng.randint(2, 5)
    graph = Multigraph(m, {(i, j): rng.choice((0, 1, 2, 3))
                           for i in range(1, m + 1) for j in range(i + 1, m + 1)})
    size = rng.choice((2, m, rng.randint(2, m)))
    target = TerminalSet.full(m) if size == m else random_terminal_set(rng, m, size)
    return run_protocol(graph, steiner_packing(graph, target, mode="greedy"),
                        draw_edge_keys(graph, seed), target)


def protocol_runs(seed):
    """An honest run, its flipped-broadcast and leaked-key variants."""
    rng = random.Random(seed)
    run = honest_run(rng, seed)
    variants = [run]
    if run.transcript_bits:
        broadcast = rng.randrange(len(run.transcript_bits))
        variants.append(flip_broadcast(run, broadcast))
        if run.key_bits:
            variants.append(leak_key_bit(run, rng.randrange(len(run.key_bits)),
                                         broadcast))
    return variants


class TestProtocolMaps:
    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_honest_flipped_and_leaked_runs_match_the_oracle(self, seed):
        for run in protocol_runs(seed):
            check_against_oracle(run.transcript_map, run.key_map, run.keys.bits)
            assert _forest_sizes(run.key_map.blocks, run.transcript_map.blocks) == \
                row_forest_sizes(run.key_map.ncols, run.key_map.rows,
                                 run.transcript_map.rows)

    @settings(deadline=None)
    @given(st.integers(0, 10_000))
    def test_honest_runs_work_per_block_step(self, seed):
        run = honest_run(random.Random(seed), seed)
        groups = run.packing.groups
        assert run.key_map.blocks == tuple(
            (copies, ((run.graph.pair_offsets()[tree.edges[0][:2]] + tree.edges[0][2],
                       None),))
            for tree, copies in groups)
        assert [copies for copies, _ in run.transcript_map.blocks] == [
            copies for tree, copies in groups if tree.walk]
        # neither rank of the audit expands a block to rows, and neither
        # they, the row check nor apply reads the per-row view
        with mock.patch.object(pinkey.gf2, "_row_blocks", side_effect=AssertionError):
            security_index_rank(run)
        assert verify_linear_maps(run)
        assert "rows" not in vars(run.key_map) and "rows" not in vars(run.transcript_map)

    def test_one_key_block_per_group_on_a_multi_copy_packing(self):
        graph = Multigraph(4, {(1, 2): 3, (2, 4): 2, (1, 3): 1, (3, 4): 2, (1, 4): 1})
        target = TerminalSet.of(1, 4)
        run = run_protocol(graph, steiner_packing(graph, target),
                           draw_edge_keys(graph, 0), target)
        assert [copies for copies, _ in run.key_map.blocks] == [2, 1, 1]
        assert len(run.key_map.blocks) == len(run.packing.groups)
