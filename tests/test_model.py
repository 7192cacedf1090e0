import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinkey import (
    InvalidScaleError,
    Multigraph,
    PairPmf,
    PinModel,
    SizeLimitError,
    TerminalSet,
    UnsupportedModeError,
    base_scale,
    format_rational,
    mutual_information,
    parse_rational,
    realize_multigraph,
)

from pinkey.model import MAX_TERMINALS, all_pairs

from helpers import random_pmf


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestMutualInformation:
    def test_perfectly_correlated_uniform_bit(self):
        pmf = PairPmf.from_rows([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_independent_uniform_bits(self):
        pmf = PairPmf.from_rows([[0.25, 0.25], [0.25, 0.25]])
        assert mutual_information(pmf) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_pair(self):
        # p(0,0)=p(1,1)=3/8, p(0,1)=p(1,0)=1/8: MI = 1 - h(1/4)
        pmf = PairPmf.from_rows([[3 / 8, 1 / 8], [1 / 8, 3 / 8]])
        expected = 1.0 - binary_entropy(0.25)
        assert expected == pytest.approx(0.1887219, abs=1e-7)
        assert mutual_information(pmf) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, seed):
        pmf = random_pmf(random.Random(seed))
        mi = mutual_information(pmf)
        cap = min(math.log2(pmf.rows), math.log2(pmf.cols))
        assert -1e-12 <= mi <= cap + 1e-9

    def test_entropy_identities(self):
        pmf = random_pmf(random.Random(99))
        joint = pmf.joint_entropy()
        assert pmf.row_given_col_entropy() == pytest.approx(
            joint - pmf.col_entropy(), abs=1e-12
        )
        assert mutual_information(pmf) == pytest.approx(
            pmf.row_entropy() + pmf.col_entropy() - joint, abs=1e-9
        )


class TestPairPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PairPmf.from_rows([[1.5, -0.5]])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PairPmf.from_rows([[0.5, 0.4]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            PairPmf(((0.5,), (0.25, 0.25)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PairPmf.from_rows([[bad, 1.0]])


class TestTerminalSet:
    def test_sorts_and_dedupes(self):
        assert TerminalSet.of(3, 1, 3).members == (1, 3)

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            TerminalSet.of(2)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            TerminalSet.of(0, 1)

    def test_rejects_entries_that_are_not_ints(self):
        # a float or bool would sort, mask and compare as a number
        for members in ((1.5, 3), (1.0, 3), (True, 3), (1, 2, "3"), (1, None)):
            with pytest.raises(ValueError, match="is not an integer"):
                TerminalSet(members)
        with pytest.raises(ValueError, match=r"^terminal 1\.5 is not an integer$"):
            TerminalSet((1.5, 3))

    def test_mask(self):
        assert TerminalSet.of(1, 3).mask() == 0b101

    def test_validate_within(self):
        with pytest.raises(ValueError):
            TerminalSet.of(1, 4).validate_within(3)


class TestPinModel:
    def test_missing_pairs_default_to_zero(self):
        model = PinModel.from_weights(3, {(1, 2): 1})
        assert model.weight(2, 3) == 0
        assert model.weight(1, 2) == 1

    def test_symmetric_access(self):
        model = PinModel.from_weights(3, {(2, 1): Fraction(3, 2)})
        assert model.weight(1, 2) == Fraction(3, 2)
        assert model.weight(2, 1) == Fraction(3, 2)

    def test_conflicting_orientations_rejected(self):
        with pytest.raises(ValueError):
            PinModel.from_weights(3, {(1, 2): 1, (2, 1): 2})
        with pytest.raises(ValueError):
            PinModel.from_weights(3, {(2, 1): 2, (1, 2): 1})
        # agreeing duplicates are fine
        model = PinModel.from_weights(3, {(1, 2): 1, (2, 1): 1})
        assert model.weight(1, 2) == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            PinModel.from_weights(2, {(1, 2): Fraction(-1, 2)})

    # exactly an int or a Fraction: Fraction() would take a bool as 0 or 1,
    # a float or a string as a rational, and fail on None or a list
    @pytest.mark.parametrize("weight", [True, False, None, [1], 1.5, "1/2"])
    def test_rejects_bool_weights(self, weight):
        with pytest.raises(ValueError, match=re.escape(
                f"weight for pair (1, 2) is not a rational: {weight!r}")):
            PinModel.from_weights(2, {(1, 2): weight})

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            PinModel.from_weights(2, {(1, 1): 1})

    @pytest.mark.parametrize("pair, shown", [
        ((0, 1), (0, 1)), ((1, 0), (0, 1)), ((-1, 2), (-1, 2)), ((1, 3), (1, 3))])
    def test_rejects_pairs_outside_the_terminals(self, pair, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"pair {shown} is outside terminals 1..2")):
            PinModel.from_weights(2, {pair: 1, (1, 2): 1})
        pmf = PairPmf.from_rows([[1.0]])
        with pytest.raises(ValueError, match=re.escape(
                f"pmf pair {shown} outside terminals 1..2")):
            PinModel.from_pmfs(2, {pair: pmf})

    def test_terminal_cap(self):
        assert PinModel.from_weights(MAX_TERMINALS, {}).m == MAX_TERMINALS
        with pytest.raises(SizeLimitError, match="MAX_TERMINALS"):
            PinModel.from_weights(MAX_TERMINALS + 1, {})
        with pytest.raises(SizeLimitError, match="MAX_TERMINALS"):
            PinModel.from_pmfs(10**11, {})

    @pytest.mark.parametrize("m", [True, 3.0, Fraction(3), "3", None])
    def test_rejects_terminal_counts_that_are_not_ints(self, m):
        with pytest.raises(ValueError, match=re.escape(
                f"terminal count {m!r} is not an integer")):
            PinModel.from_weights(m, {})
        with pytest.raises(ValueError, match="not an integer"):
            PinModel.from_pmfs(m, {})

    def test_pmf_weight_agreement_enforced(self):
        correlated = PairPmf.from_rows([[0.5, 0.0], [0.0, 0.5]])
        PinModel.from_weights(2, {(1, 2): 1}, pmfs={(1, 2): correlated})
        with pytest.raises(ValueError):
            PinModel.from_weights(2, {(1, 2): Fraction(1, 2)},
                                  pmfs={(1, 2): correlated})

    def test_float_mode_round_trip(self):
        rng = random.Random(5)
        pmfs = {(1, 2): random_pmf(rng), (1, 3): random_pmf(rng)}
        model = PinModel.from_pmfs(3, pmfs)
        assert not model.exact
        for pair, pmf in pmfs.items():
            assert model.mi(*pair) == pytest.approx(mutual_information(pmf))
        assert model.mi(2, 3) == 0.0

    def test_float_mode_rejects_exact_ops(self):
        model = PinModel.from_pmfs(2, {(1, 2): PairPmf.from_rows([[1.0]])})
        with pytest.raises(UnsupportedModeError):
            base_scale(model)
        with pytest.raises(UnsupportedModeError):
            model.weight(1, 2)


class TestBaseScale:
    def test_integer_weights(self):
        model = PinModel.from_weights(3, {(1, 2): 2, (2, 3): 5})
        assert base_scale(model) == 1

    def test_single_half_integer(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        assert base_scale(model) == 2

    def test_lcm_of_denominators(self):
        model = PinModel.from_weights(
            3, {(1, 2): Fraction(1, 2), (2, 3): Fraction(1, 3)}
        )
        assert base_scale(model) == 6

    def test_base_weights_are_the_multiplicities_at_the_base_scale(self):
        model = PinModel.from_weights(
            4, {(1, 2): Fraction(1, 2), (2, 3): Fraction(4, 3), (1, 4): 2})
        assert model.base_weights == {(1, 2): 3, (1, 3): 0, (1, 4): 12,
                                      (2, 3): 8, (2, 4): 0, (3, 4): 0}
        assert model.base_weights == realize_multigraph(model, 6).multiplicities

    def test_base_weights_built_once_outside_the_fields(self):
        model = PinModel.from_weights(3, {(1, 2): Fraction(1, 2), (2, 3): 1})
        fresh = PinModel.from_weights(3, {(1, 2): Fraction(1, 2), (2, 3): 1})
        text = repr(model)
        assert model.base_weights is model.base_weights
        assert model == fresh
        assert repr(model) == text == repr(fresh)

    def test_float_mode_has_no_base_weights(self):
        model = PinModel.from_pmfs(2, {(1, 2): PairPmf.from_rows([[1.0]])})
        with pytest.raises(UnsupportedModeError, match="^integer base weights needs"):
            model.base_weights
        with pytest.raises(UnsupportedModeError, match="^multigraph realization needs"):
            realize_multigraph(model, 1)


class TestRealizeMultigraph:
    def test_triangle_doubling(self):
        model = PinModel.from_weights(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        graph = realize_multigraph(model, 2)
        assert all(graph.multiplicity(i, j) == 2 for (i, j) in model.pairs())

    def test_half_integer(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        assert realize_multigraph(model, 2).multiplicity(1, 2) == 3

    def test_mixed_denominators(self):
        model = PinModel.from_weights(
            3, {(1, 2): Fraction(1, 2), (2, 3): Fraction(1, 3)}
        )
        graph = realize_multigraph(model, 6)
        assert graph.multiplicity(1, 2) == 3
        assert graph.multiplicity(2, 3) == 2
        assert graph.multiplicity(1, 3) == 0

    def test_rejects_scale_off_progression(self):
        model = PinModel.from_weights(2, {(1, 2): Fraction(3, 2)})
        for n in (3, 0, -2):
            with pytest.raises(InvalidScaleError) as err:
                realize_multigraph(model, n)
            assert str(err.value) == (
                f"scale {n} is not a positive multiple of the base scale 2")

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2), "2", None])
    def test_rejects_scales_that_are_not_ints(self, n):
        model = PinModel.from_weights(2, {(1, 2): 1})  # base scale 1
        with pytest.raises(InvalidScaleError, match=re.escape(
                f"scale {n!r} is not a positive multiple of the base scale 1")):
            realize_multigraph(model, n)

    @given(st.integers(0, 2_000), st.integers(2, 7), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_counts_are_weight_times_scale(self, seed, m, k):
        from helpers import random_exact_model

        model = random_exact_model(random.Random(seed), m=m, max_num=40, max_den=12)
        n = k * base_scale(model)
        graph = realize_multigraph(model, n)
        assert graph.multiplicities == {
            pair: int(w * n) for pair, w in model.weights.items()}

    @given(st.integers(0, 2_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_multiples_scale_linearly(self, seed, k):
        from helpers import random_exact_model

        model = random_exact_model(random.Random(seed), m=4)
        n0 = base_scale(model)
        small = realize_multigraph(model, n0)
        big = realize_multigraph(model, k * n0)
        for pair in model.pairs():
            assert big.multiplicity(*pair) == k * small.multiplicity(*pair)


class TestMultigraph:
    def test_terminal_cap(self):
        assert Multigraph(MAX_TERMINALS, {}).m == MAX_TERMINALS
        # rejected before the m(m-1)/2 pair table is built
        for m in (MAX_TERMINALS + 1, 3000, 10**11):
            with pytest.raises(SizeLimitError, match="MAX_TERMINALS"):
                Multigraph(m, {})

    @pytest.mark.parametrize("m", [True, 3.0, Fraction(3), "3", None])
    def test_rejects_vertex_counts_that_are_not_ints(self, m):
        with pytest.raises(ValueError, match=re.escape(
                f"terminal count {m!r} is not an integer")):
            Multigraph(m, {})

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(ValueError):
            Multigraph(2, {(1, 2): -1})

    @pytest.mark.parametrize("count", [2.5, 2.0, True, Fraction(2), "2", None])
    def test_rejects_non_integer_multiplicity(self, count):
        with pytest.raises(ValueError, match="not an integer"):
            Multigraph(3, {(1, 2): 1, (2, 3): count})

    @pytest.mark.parametrize("pair, shown", [
        ((0, 1), (0, 1)), ((2, 0), (0, 2)), ((-3, 1), (-3, 1)), ((1, 3), (1, 3))])
    def test_rejects_pairs_outside_the_vertices(self, pair, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"pair {shown} outside vertices 1..2")):
            Multigraph(2, {(1, 2): 1, pair: 1})

    def test_conflicting_entries_rejected(self):
        for entries in ({(1, 2): 3, (2, 1): 5}, {(2, 1): 5, (1, 2): 3}):
            with pytest.raises(ValueError, match=re.escape(
                    "conflicting multiplicities for pair (1, 2)")):
                Multigraph(2, entries)
        # equal repeats are fine, as in PinModel
        assert Multigraph(2, {(1, 2): 3, (2, 1): 3}).multiplicity(1, 2) == 3

    @pytest.mark.parametrize("seed", range(40))
    def test_pair_table_is_in_sorted_order(self, seed):
        # entries in any order and orientation give the table in all_pairs
        # order, which the edge order, offsets and max flow read unsorted
        rng = random.Random(seed)
        m = rng.randint(1, 7)
        entries = [((j, i) if rng.random() < 0.5 else (i, j), rng.randint(0, 3))
                   for i, j in all_pairs(m) if rng.random() < 0.7]
        rng.shuffle(entries)
        graph = Multigraph(m, dict(entries))
        assert list(graph.multiplicities) == list(all_pairs(m)) == sorted(graph.multiplicities)
        assert list(graph.pair_offsets()) == list(all_pairs(m))
        assert graph.edge_refs() == tuple(sorted(graph.edge_refs()))
        assert graph.support_pairs() == tuple(sorted(graph.support_pairs()))

    def test_edge_refs_canonical(self):
        graph = Multigraph(3, {(2, 3): 2, (1, 2): 1})
        assert graph.edge_refs() == ((1, 2, 0), (2, 3, 0), (2, 3, 1))

    def test_edge_refs_built_once_outside_the_fields(self):
        graph = Multigraph(3, {(2, 3): 2, (1, 2): 1})
        fresh = Multigraph(3, {(2, 3): 2, (1, 2): 1})
        text = repr(graph)
        assert graph.edge_refs() is graph.edge_refs()
        assert graph == fresh
        assert repr(graph) == text == repr(fresh)

    def test_total_and_support(self):
        graph = Multigraph(3, {(1, 2): 2, (2, 3): 0, (1, 3): 1})
        assert graph.total_edges() == 3
        assert graph.support_pairs() == ((1, 2), (1, 3))


class TestRationalFormatting:
    @pytest.mark.parametrize(
        "value,text",
        [(Fraction(3, 2), "3/2"), (Fraction(4, 2), "2"), (Fraction(0), "0")],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text

    def test_parse(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational(4) == Fraction(4)
        assert parse_rational("-1/2") == Fraction(-1, 2)
        for bad in ("1.5", "3/0", "a/b", True, None,
                    "1_0", "\u0663/\u0662", " 3 ", "+3", "3/ 2"):
            with pytest.raises(ValueError):
                parse_rational(bad)
