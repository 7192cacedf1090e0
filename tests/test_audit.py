import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinkey import (
    AuditFailureError,
    EdgeKeyBits,
    Gf2Matrix,
    Multigraph,
    ProtocolRun,
    SizeLimitError,
    TerminalSet,
    Tree,
    TreePacking,
    audit,
    draw_edge_keys,
    flip_broadcast,
    gf2_rank,
    leak_key_bit,
    recover_key,
    run_protocol,
    security_index_bruteforce,
    security_index_rank,
    spanning_packing,
    steiner_packing,
    verify_linear_maps,
)
from pinkey.audit import BRUTEFORCE_EDGE_CAP
from pinkey.value import replace

from helpers import (
    AUDIT_MODULE,
    dense_gf2_rows,
    elimination_gf2_rank,
    gray_code_bruteforce,
    random_multigraph,
    random_terminal_set,
)

PATH_GRAPH = Multigraph(3, {(1, 2): 1, (2, 3): 1})
DOUBLED_TRIANGLE = Multigraph(3, {(1, 2): 2, (1, 3): 2, (2, 3): 2})


def path_run(seed=0):
    target = TerminalSet.of(1, 3)
    packing = steiner_packing(PATH_GRAPH, target)
    keys = draw_edge_keys(PATH_GRAPH, seed)
    return run_protocol(packing, keys)


def spanning_run(graph, seed=0):
    target = TerminalSet.full(graph.m)
    packing = spanning_packing(graph)
    keys = draw_edge_keys(graph, seed)
    return run_protocol(packing, keys)


class TestGf2:
    def test_rank(self):
        assert gf2_rank([(0,), (1,)], 2) == 2
        assert gf2_rank([(0,), (0,)], 2) == 1
        assert gf2_rank([(0, 1), (0,), (1,)], 2) == 2
        assert gf2_rank([(0, 1), (1, 2), (0, 2)], 3) == 2  # a cycle
        assert gf2_rank([(0, 1), (1, 2), (0, 2), (2,)], 3) == 3
        assert gf2_rank([], 4) == 0

    def test_matrix_apply(self):
        matrix = Gf2Matrix.from_rows(((0, 1), (1, 2), (2,)), 3)
        assert matrix.apply([1, 0, 0]) == (1, 0, 0)
        assert matrix.apply([1, 1, 0]) == (0, 1, 0)
        assert matrix.apply([1, 1, 1]) == (0, 0, 1)

    def test_rejects_overflow_row(self):
        with pytest.raises(ValueError):
            Gf2Matrix.from_rows(((2,),), 2)

    @pytest.mark.parametrize("row", [(), (0, 1, 2), (1, 1), (0, 3), (-1,)])
    def test_rejects_malformed_row(self, row):
        with pytest.raises(ValueError, match="one or two distinct columns"):
            Gf2Matrix.from_rows(((0,), row), 3)

    @given(st.integers(1, 60).flatmap(lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=2,
                          unique=True).map(tuple),
                 max_size=60))))
    def test_rank_matches_elimination_on_two_bit_rows(self, case):
        # protocol key and transcript rows name one or two edges
        ncols, rows = case
        expected = elimination_gf2_rank(dense_gf2_rows(rows), ncols)
        assert gf2_rank(rows, ncols) == expected
        assert Gf2Matrix.from_rows(tuple(rows), ncols).rank() == expected


class TestRankMethod:
    def test_path_run_no_leak(self):
        # K = k_ref, F = k_ref xor k_other: independent of each other
        report = security_index_rank(path_run())
        assert report.security_index == 0
        assert report.key_entropy == 1
        assert report.key_given_transcript == 1
        assert report.uniformity_deficit == 0

    def test_full_leak_via_injection(self):
        leaky = leak_key_bit(path_run(), 0, 0)  # K row becomes the F row
        report = security_index_rank(leaky)
        assert report.security_index == 1
        assert report.key_given_transcript == 0

    def test_doubled_triangle(self):
        report = security_index_rank(spanning_run(DOUBLED_TRIANGLE, seed=2))
        assert report.security_index == 0
        assert report.key_entropy == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_all_fields_match_dense_elimination_on_leaked_runs(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        run = run_protocol(packing, draw_edge_keys(graph, seed))
        variants = [run] + [leak_key_bit(run, i, k)
                            for i in range(len(run.key_bits))
                            for k in range(len(run.transcript))]
        edges = len(run.edge_order)
        for variant in variants:
            key_rows = dense_gf2_rows(variant.key_map.rows)
            transcript_rows = dense_gf2_rows(variant.transcript_map.rows)
            key_rank = elimination_gf2_rank(key_rows, edges)
            transcript_rank = elimination_gf2_rank(transcript_rows, edges)
            joint_rank = elimination_gf2_rank(key_rows + transcript_rows, edges)
            key_length = len(variant.key_bits)
            report = security_index_rank(variant)
            assert report.security_index == \
                key_length - joint_rank + transcript_rank
            assert report.key_entropy == key_rank
            assert report.key_given_transcript == joint_rank - transcript_rank
            assert report.uniformity_deficit == key_length - key_rank


    @pytest.mark.parametrize("seed", range(20))
    def test_all_fields_match_dense_elimination_on_cyclic_rows(self, seed):
        # hand-built maps: the transcript rows crowd a few columns, so they
        # close cycles (through ground too), and key rows fall both inside
        # and outside the transcript's span
        rng = random.Random(seed)
        run = spanning_run(Multigraph(4, {(1, 2): 2, (1, 3): 2, (1, 4): 2,
                                          (2, 3): 1, (3, 4): 2}), seed)
        edges = len(run.edge_order)
        crowded = rng.sample(range(edges), 4)

        def row(columns):
            return tuple(rng.sample(columns, rng.choice((1, 2, 2))))

        transcript_rows = tuple(row(crowded) for _ in run.transcript)
        key_rows = tuple(row(rng.choice((crowded, range(edges)))) for _ in run.key_bits)
        assert gf2_rank(transcript_rows, edges) < len(transcript_rows)
        variant = replace(run, transcript_map=Gf2Matrix.from_rows(transcript_rows, edges),
                          key_map=Gf2Matrix.from_rows(key_rows, edges))
        key_rank = elimination_gf2_rank(dense_gf2_rows(key_rows), edges)
        transcript_rank = elimination_gf2_rank(dense_gf2_rows(transcript_rows), edges)
        joint_rank = elimination_gf2_rank(dense_gf2_rows(key_rows + transcript_rows),
                                          edges)
        key_length = len(run.key_bits)
        report = security_index_rank(variant)
        assert report.security_index == key_length - joint_rank + transcript_rank
        assert report.key_entropy == key_rank
        assert report.key_given_transcript == joint_rank - transcript_rank
        assert report.uniformity_deficit == key_length - key_rank


class TestBruteForceMethod:
    def test_path_run(self):
        report = security_index_bruteforce(path_run())
        assert report.security_index == 0
        assert report.method == "bruteforce"

    def test_full_leak(self):
        report = security_index_bruteforce(leak_key_bit(path_run(), 0, 0))
        assert report.security_index == 1

    def test_cap(self):
        big = Multigraph(2, {(1, 2): 21})
        with pytest.raises(SizeLimitError):
            security_index_bruteforce(spanning_run(big))

    def test_audit_passes_its_cap_through(self, monkeypatch):
        # 21 edges: one over the default cap, within the patched one
        graph = Multigraph(3, {(1, 2): 1, (2, 3): 20})
        target = TerminalSet.of(1, 3)
        run = run_protocol(steiner_packing(graph, target), draw_edge_keys(graph, 0))
        assert len(run.edge_order) == BRUTEFORCE_EDGE_CAP + 1 == 21
        assert audit(run).method == "rank"
        with pytest.raises(SizeLimitError, match="capped at 20 edges, got 21$"):
            security_index_bruteforce(run)
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 21)
        report = audit(run)
        assert report.method == "rank+bruteforce"
        assert report.security_index == 0
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 3)
        with pytest.raises(SizeLimitError, match="capped at 3 edges, got 21$"):
            security_index_bruteforce(run)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_rank(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=4, max_mult=2)
        run = spanning_run(graph, seed=seed)
        if len(run.edge_order) > 14:
            pytest.skip("keep brute force quick")
        rank_report = security_index_rank(run)
        brute_report = security_index_bruteforce(run)
        assert brute_report.security_index == rank_report.security_index
        assert brute_report.key_given_transcript == rank_report.key_given_transcript
        assert brute_report.key_entropy == rank_report.key_entropy

    @pytest.mark.parametrize("seed", range(12))
    def test_all_fields_agree_with_rank_on_honest_and_leaked_runs(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=4, max_mult=2)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        run = run_protocol(packing, draw_edge_keys(graph, seed))
        if len(run.edge_order) > 12:
            pytest.skip("keep brute force quick")
        variants = [run] + [leak_key_bit(run, i, k)
                            for i in range(len(run.key_bits))
                            for k in range(len(run.transcript))]
        if run.transcript:
            # every key bit copies broadcast 0: a non-uniform key
            leaked = run
            for i in range(len(run.key_bits)):
                leaked = leak_key_bit(leaked, i, 0)
            variants.append(leaked)
        for variant in variants:
            rank_report = security_index_rank(variant)
            brute_report = security_index_bruteforce(variant)
            for name in ("security_index", "key_entropy",
                         "key_given_transcript", "uniformity_deficit"):
                assert getattr(brute_report, name) == getattr(rank_report, name)

    def test_third_route_reexecution(self):
        """Re-run the whole protocol for every edge-bit assignment and
        compute the index from the empirical joint distribution; this
        touches neither the recorded maps nor the rank identities."""
        target = TerminalSet.full(3)
        graph = Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        packing = spanning_packing(graph)
        edges = graph.edge_refs()
        joint: Counter = Counter()
        transcript_marginal: Counter = Counter()
        for bits in itertools.product((0, 1), repeat=len(edges)):
            keys = EdgeKeyBits(bits)
            run = run_protocol(packing, keys)
            key_value = run.key_bits
            transcript_value = tuple(b.bit for b in run.transcript)
            joint[(key_value, transcript_value)] += 1
            transcript_marginal[transcript_value] += 1
        total = 2 ** len(edges)

        def entropy(counter):
            return -sum(
                (c / total) * math.log2(c / total) for c in counter.values()
            )

        h_key_given_transcript = entropy(joint) - entropy(transcript_marginal)
        key_length = len(packing.trees)
        s_empirical = key_length - h_key_given_transcript

        reference = run_protocol(packing, draw_edge_keys(graph, 0))
        assert float(security_index_rank(reference).security_index) == \
            pytest.approx(s_empirical, abs=1e-9)
        assert float(security_index_bruteforce(reference).security_index) == \
            pytest.approx(s_empirical, abs=1e-9)


def leak_variants(run):
    """The run, every single ``leak_key_bit`` copy and, with a transcript,
    the copy whose every key bit is broadcast 0."""
    variants = [run] + [leak_key_bit(run, i, k)
                        for i in range(len(run.key_bits))
                        for k in range(len(run.transcript))]
    if run.transcript:
        leaked = run
        for i in range(len(run.key_bits)):
            leaked = leak_key_bit(leaked, i, 0)
        variants.append(leaked)
    return variants


@st.composite
def chained_runs(draw):
    """Hand-built runs on 3..14 edges whose index rows chain into large
    blocks, mix key and transcript rows, and leave some edges unused.

    The rows are drawn first; the packing is then built to fit their
    counts, k key rows and t broadcasts: k - 1 one-edge (1, 2) trees, one
    1-to-2 path tree of t + 1 edges through vertices 3..t + 2, and the
    remaining (1, 2) copies unused."""
    edges = draw(st.integers(3, 14))
    used = draw(st.permutations(range(edges)))[:edges - draw(st.integers(1, min(2, edges - 2)))]
    rows = []
    for i in range(len(used)):
        j = draw(st.integers(0, i))  # i starts a new block
        rows.append((used[i], used[j]) if j < i else (used[i],))
    extras = draw(st.lists(
        st.lists(st.sampled_from(used), min_size=1, max_size=2, unique=True),
        max_size=edges - len(rows)))
    for extra in map(tuple, extras):
        if not any(set(extra) == set(row) for row in rows):
            rows.append(extra)
    rows = draw(st.permutations(rows))
    split = draw(st.integers(1, len(rows) - 1))
    transcript_rows, key_rows = tuple(rows[:split]), tuple(rows[split:])
    keys, steps = len(key_rows), len(transcript_rows)
    residual = edges - len(rows)
    path = [1, *range(3, steps + 3), 2]
    pairs = {tuple(sorted(pair)): 1 for pair in zip(path, path[1:])}
    graph = Multigraph(steps + 2, {**pairs, (1, 2): keys - 1 + residual})
    groups = ((Tree(tuple((*pair, 0) for pair in pairs)), 1),)
    if keys > 1:
        groups += ((Tree(((1, 2, 0),)), keys - 1),)
    return ProtocolRun(
        packing=TreePacking(graph, TerminalSet.of(1, 2), groups),
        keys=EdgeKeyBits((0,) * edges),
        key_bits=(0,) * keys,
        transcript_bits=(0,) * steps,
        key_map=Gf2Matrix.from_rows(key_rows, edges),
        transcript_map=Gf2Matrix.from_rows(transcript_rows, edges),
    )


class TestBlockBruteForce:
    """Blockwise enumeration against the whole-space Gray-code oracle."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_oracle_on_honest_and_leaked_runs(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        assume(graph.total_edges() <= 14)
        target = random_terminal_set(rng, graph.m)
        keys = draw_edge_keys(graph, seed)
        runs = [run_protocol(steiner_packing(graph, target, mode="greedy"), keys),
                run_protocol(spanning_packing(graph), keys)]
        for run in runs:
            for variant in leak_variants(run):
                assert security_index_bruteforce(variant) == \
                    gray_code_bruteforce(variant)

    @settings(max_examples=150, deadline=None)
    @given(chained_runs())
    def test_matches_oracle_on_chained_rows(self, run):
        assert security_index_bruteforce(run) == gray_code_bruteforce(run)

    def test_single_fourteen_edge_block(self):
        # one 15-vertex path tree: every row holds its reference edge
        graph = Multigraph(15, {(v, v + 1): 1 for v in range(1, 15)})
        target = TerminalSet.of(1, 15)
        run = run_protocol(steiner_packing(graph, target), draw_edge_keys(graph, 5))
        assert len(run.edge_order) == 14 and run.packing.count == 1
        for variant in leak_variants(run):
            assert security_index_bruteforce(variant) == \
                gray_code_bruteforce(variant)

    def test_21_edge_spanning_run_cross_checks_quickly(self, monkeypatch):
        # K3 x 7: ten two-edge trees and a residual edge
        run = spanning_run(Multigraph(3, {(1, 2): 7, (1, 3): 7, (2, 3): 7}))
        assert len(run.edge_order) == 21 and run.packing.count == 10
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 21)
        start = time.perf_counter()
        report = audit(run)
        assert time.perf_counter() - start < 1.0
        assert report.method == "rank+bruteforce"
        assert report.security_index == 0


class TestAudit:
    def test_valid_run_passes(self):
        report = audit(spanning_run(DOUBLED_TRIANGLE, seed=4))
        assert report.passed
        assert report.security_index == 0
        assert report.method == "rank+bruteforce"
        assert set(report.recoverability) == {1, 2, 3}
        assert all(report.recoverability.values())

    def test_flipped_broadcast_breaks_recovery(self):
        run = spanning_run(DOUBLED_TRIANGLE, seed=4)
        tampered = flip_broadcast(run, 0)
        victim = run.transcript[0].informed_terminal
        report = audit(tampered)
        assert not report.passed
        assert report.security_index == 0  # the maps are untouched
        assert report.recoverability[victim] is False
        assert recover_key(tampered, victim) != tampered.key_bits
        assert not verify_linear_maps(tampered)

    def test_leaked_key_bit_raises_index(self):
        run = spanning_run(DOUBLED_TRIANGLE, seed=4)
        report = audit(leak_key_bit(run, 0, 0))
        assert report.security_index >= 1

    def test_failing_run_is_reported_not_raised(self):
        # the audit returns every report; a caller that must stop raises
        run = spanning_run(DOUBLED_TRIANGLE, seed=4)
        assert audit(run).passed
        assert not audit(flip_broadcast(run, 0)).passed

    def test_method_disagreement_raises(self, monkeypatch):
        # brute force off by one bit of H(K|F) is an internal error
        real = AUDIT_MODULE.security_index_bruteforce

        def off_by_one(run):
            report = real(run)
            return replace(report, key_given_transcript=report.key_given_transcript + 1)

        monkeypatch.setattr(AUDIT_MODULE, "security_index_bruteforce", off_by_one)
        with pytest.raises(AuditFailureError, match="rank says s=0, brute force says s=-1"):
            audit(spanning_run(DOUBLED_TRIANGLE, seed=4))

    def test_key_entropy_disagreement_raises(self, monkeypatch):
        # brute force off by one bit of H(K) alone: equal s, still an error
        real = AUDIT_MODULE.security_index_bruteforce

        def off_by_one(run):
            report = real(run)
            return replace(report, key_entropy=report.key_entropy - 1)

        monkeypatch.setattr(AUDIT_MODULE, "security_index_bruteforce", off_by_one)
        with pytest.raises(AuditFailureError,
                           match=r"rank says H\(K\)=3, brute force says H\(K\)=2"):
            audit(spanning_run(DOUBLED_TRIANGLE, seed=4))

    def test_no_verdict_without_a_recovery_check(self):
        # each entropy method alone checks no recovery, so neither can pass
        # a run that ``audit`` fails
        flipped = flip_broadcast(spanning_run(DOUBLED_TRIANGLE, seed=7), 0)
        rank, brute = security_index_rank(flipped), security_index_bruteforce(flipped)
        assert (rank.security_index, brute.security_index) == (0, 0)
        assert not rank.passed and not brute.passed and not audit(flipped).passed

    def test_derived_figures_follow_the_entropies(self):
        report = audit(spanning_run(DOUBLED_TRIANGLE, seed=4))
        leaky = replace(report, key_given_transcript=report.key_given_transcript - 1)
        assert (leaky.security_index, leaky.passed) == (1, False)
        skewed = replace(report, key_entropy=Fraction(5, 2))
        assert (skewed.uniformity_deficit, skewed.security_index) == (Fraction(1, 2), 0)

    def test_subadditivity_witness(self):
        # interleaved per-tree transcripts still leak nothing overall
        run = spanning_run(DOUBLED_TRIANGLE, seed=8)
        assert len(run.packing.trees) == 3
        assert audit(run).security_index == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_runs_are_clean(self, seed, monkeypatch):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_m=5, max_mult=3)
        target = random_terminal_set(rng, graph.m)
        packing = steiner_packing(graph, target, mode="greedy")
        run = run_protocol(packing, draw_edge_keys(graph, seed))
        monkeypatch.setattr(AUDIT_MODULE, "BRUTEFORCE_EDGE_CAP", 14)
        report = audit(run)
        assert report.passed
        assert report.security_index == 0
        assert report.uniformity_deficit == 0


class TestDyadicEntropy:
    def test_rejects_non_power_of_two(self):
        from pinkey.audit import _log_weight

        # 3 bits tallied 4 and 4: entropy 3 - 16 / 2^3 = 1
        assert _log_weight(Counter({0: 4, 1: 4}).values()) == 16
        with pytest.raises(ArithmeticError):
            _log_weight(Counter({0: 3, 1: 5}).values())
