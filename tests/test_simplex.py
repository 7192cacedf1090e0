import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pinkey import TerminalSet, solve_capacity, subset_family, upper_bound
from pinkey.capacity import _lp_costs
from pinkey.simplex import solve_lp

from helpers import fraction_solve_lp, random_exact_model, random_terminal_set


def _dense(masks, m):
    """The cover LP as the oracle takes it: 0/1 rows, rhs 1, and the
    singleton columns as the identity basis."""
    rows = [[mask >> t & 1 for mask in masks] for t in range(m)]
    basis = [masks.index(1 << t) for t in range(m)]
    return rows, [1] * m, basis


def test_single_constraint():
    # one terminal, one column: min 5x  s.t.  x = 1
    result = solve_lp([5], [0b1], 1)
    assert result.value == 5
    assert result.solution == (Fraction(1),)
    assert result.basis == (0,)


def test_prefers_cheap_column():
    # {1} + {2} costs 4, {1, 2} costs 3: the pair covers both at once
    result = solve_lp([2, 2, 3], [0b01, 0b10, 0b11], 2)
    assert result.value == 3
    assert result.solution == (Fraction(0), Fraction(0), Fraction(1))
    # degenerate tie in the ratio test: the lower basic index leaves
    assert result.basis == (2, 1)


def test_exact_fractions():
    # the three pairs of three terminals, each at cost 1, against singletons
    # at cost 2: every pair at weight 1/2 covers each terminal exactly once
    masks = [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    result = solve_lp([2, 2, 2, 1, 1, 1], masks, 3)
    assert result.value == Fraction(3, 2)
    assert result.solution == (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_negative_costs_and_value_in_cost_units():
    # costs need not be positive; the value is in the units of the costs
    result = solve_lp([-3, 4, -5], [0b10, 0b01, 0b11], 2)
    assert result.value == -5
    assert result.solution == (0, 0, 1)
    assert result.basis == (1, 2)  # the singleton of terminal 0 is column 1


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="costs"):
        solve_lp([1, 2], [0b1], 1)


@pytest.mark.parametrize("bad", [0, 0b1000, -1])
def test_mask_out_of_range_rejected(bad):
    with pytest.raises(ValueError, match="nonempty subset"):
        solve_lp([1, 1, 1, 1], [0b001, 0b010, 0b100, bad], 3)


@pytest.mark.parametrize("masks", [[0b01], [0b10, 0b11], [0b01, 0b11], []])
def test_every_singleton_must_be_a_column(masks):
    with pytest.raises(ValueError, match="singleton"):
        solve_lp([1] * len(masks), masks, 2)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def cover_lps(draw):
    """Distinct nonempty masks over m terminals holding every singleton, in
    shuffled order, with any-sign rational costs cleared to ints."""
    m = draw(st.integers(1, 6))
    others = draw(st.sets(st.integers(1, (1 << m) - 1), max_size=12))
    masks = draw(st.permutations(sorted(others | {1 << t for t in range(m)})))
    costs = draw(st.lists(_rationals, min_size=len(masks), max_size=len(masks)))
    scale = math.lcm(*(c.denominator for c in costs))
    return [int(c * scale) for c in costs], list(masks), m


@given(cover_lps())
@settings(max_examples=300, deadline=None)
def test_matches_fraction_tableau_on_cover_lps(lp):
    costs, masks, m = lp
    assert solve_lp(costs, masks, m) == fraction_solve_lp(costs, *_dense(masks, m))


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matches_fraction_tableau_on_capacity_lps(m, seed):
    rng = random.Random(seed)
    model = random_exact_model(rng, m=m)
    family = subset_family(m, random_terminal_set(rng, m))
    costs, _ = _lp_costs(model, family)
    expected = fraction_solve_lp(costs, *_dense(family.subsets, m))
    assert solve_lp(costs, family.subsets, m) == expected


@pytest.mark.parametrize("m", range(2, 8))
def test_capacity_lp_sweep_matches_fraction_tableau(m):
    # LP k of 400 has m = 2 + k % 6 terminals, and each m runs through every
    # target size in turn, with random members and weights
    rng = random.Random(1000 + m)
    for k in range(m - 2, 400, 6):
        model = random_exact_model(rng, m=m)
        size = 2 + (k // 6) % (m - 1)
        family = subset_family(m, random_terminal_set(rng, m, size))
        costs, _ = _lp_costs(model, family)
        result = solve_lp(costs, family.subsets, m)
        assert result == fraction_solve_lp(costs, *_dense(family.subsets, m))


def test_capacity_meets_partition_bound_at_nine_terminals():
    # A = M is a tight case of the paper: C(M) equals the partition bound.
    model = random_exact_model(random.Random(9), m=9, zero_chance=0.0)
    full = TerminalSet.full(9)
    assert solve_capacity(model, full).value == upper_bound(model, full)


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    others = [mask for mask in range(1, 1 << m) if mask & (mask - 1)]
    masks = [1 << t for t in range(m)] + rng.sample(others, rng.randint(0, len(others)))
    rng.shuffle(masks)
    costs = [rng.randint(-9, 9) for _ in masks]
    exact = solve_lp(costs, masks, m)

    rows, rhs, _ = _dense(masks, m)
    reference = linprog(
        c=np.array(costs, dtype=float),
        A_eq=np.array(rows, dtype=float),
        b_eq=np.array(rhs, dtype=float),
        bounds=[(0, None)] * len(costs),
        method="highs",
    )
    assert reference.status == 0
    assert float(exact.value) == pytest.approx(reference.fun, abs=1e-8)

    # the solution itself must satisfy the constraints exactly
    for row, b in zip(rows, rhs):
        assert sum(r * x for r, x in zip(row, exact.solution)) == b
    assert all(x >= 0 for x in exact.solution)
