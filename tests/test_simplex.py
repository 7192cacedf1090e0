import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pinkey import TerminalSet, simplex, solve_capacity, subset_family, upper_bound
from pinkey.capacity import _lp_costs
from pinkey.simplex import solve_lp

from helpers import fraction_solve_lp, random_exact_model, random_terminal_set


def _dense(masks, m):
    """The cover LP as the oracle takes it: 0/1 rows, rhs 1, and the
    singleton columns as the identity basis."""
    rows = [[mask >> t & 1 for mask in masks] for t in range(m)]
    basis = [masks.index(1 << t) for t in range(m)]
    return rows, [1] * m, basis


def _basic_solution(masks, m, basis):
    """``x_B`` with ``B·x_B = 1`` over the columns ``basis``, or None when
    they are linearly dependent (Gauss-Jordan over Fractions)."""
    rows = [[Fraction(masks[j] >> t & 1) for j in basis] + [Fraction(1)]
            for t in range(m)]
    for c in range(m):
        pivot = next((r for r in range(c, m) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(m):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


def _assert_matches_oracle(result, costs, masks, m):
    """Value and solution equal the Bland oracle's, and ``basis`` is a basis
    of that solution: m distinct independent columns holding its support."""
    expected = fraction_solve_lp(costs, *_dense(masks, m))
    assert (result.value, result.solution) == (expected.value, expected.solution)
    assert len(set(result.basis)) == len(result.basis) == m
    off = set(range(len(masks))) - set(result.basis)
    assert all(result.solution[j] == 0 for j in off)
    assert _basic_solution(masks, m, result.basis) == [
        result.solution[j] for j in result.basis]


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


@pytest.mark.parametrize("costs, masks", [
    # floor division would truncate these duals to a wrong optimum
    ([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)], [1, 2, 3]),
    ([0.5, 0.5, 1.0], [1, 2, 3]),
    ([True, 1, 1], [1, 2, 3]),
    ([1, 1, 1], [1, 2, 3.0]),
    ([1, 1, 1], [True, 2, 3]),
    ([1, 1, 1], [1, 2, Fraction(3)]),
])
def test_non_int_costs_and_masks_rejected(costs, masks):
    with pytest.raises(ValueError, match="is not an int"):
        solve_lp(costs, masks, 2)


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
    _assert_matches_oracle(solve_lp(costs, masks, m), costs, masks, m)


@given(cover_lps())
@settings(max_examples=300, deadline=None)
def test_bland_loop_matches_fraction_tableau_in_full(lp):
    # the fallback keeps the oracle's whole path, so its basis matches too
    costs, masks, m = lp
    result = simplex._bland_lp(costs, masks, simplex._start_basis(costs, masks, m))
    assert result == fraction_solve_lp(costs, *_dense(masks, m))


def _optimal_vertices(costs, masks, m):
    """Every optimal vertex, by enumerating all m-column bases."""
    best, vertices = None, set()
    for basis in itertools.combinations(range(len(masks)), m):
        x = _basic_solution(masks, m, basis)
        if x is None or min(x) < 0:
            continue
        vertex = [Fraction(0)] * len(masks)
        for j, v in zip(basis, x):
            vertex[j] = v
        value = sum(c * v for c, v in zip(costs, vertex))
        if best is None or value < best:
            best, vertices = value, set()
        if value == best:
            vertices.add(tuple(vertex))
    return vertices


@st.composite
def tie_heavy_lps(draw):
    """Cover LPs with m <= 4 and costs in 0..3, so optima are often shared."""
    m = draw(st.integers(1, 4))
    others = draw(st.sets(st.integers(1, (1 << m) - 1), max_size=8))
    masks = draw(st.permutations(sorted(others | {1 << t for t in range(m)})))
    costs = draw(st.lists(st.integers(0, 3), min_size=len(masks), max_size=len(masks)))
    return costs, list(masks), m


def test_certificate_matches_vertex_enumeration():
    # the fallback runs exactly when the LP has several optimal vertices
    paths = {"fast": 0, "fallback": 0}

    @given(tie_heavy_lps())
    @settings(max_examples=500, deadline=None)
    def check(lp):
        costs, masks, m = lp
        with mock.patch.object(simplex, "_bland_lp", wraps=simplex._bland_lp) as spy:
            result = solve_lp(costs, masks, m)
        unique = len(_optimal_vertices(costs, masks, m)) == 1
        assert spy.called is not unique
        paths["fallback" if spy.called else "fast"] += 1
        _assert_matches_oracle(result, costs, masks, m)

    check()
    assert paths["fast"] and paths["fallback"]


def test_shared_optimum_returns_blands_vertex():
    # most-negative pricing stops at {1: 1, 6: 1}, an optimal vertex of
    # value 1 that is not Bland's; the certificate sees the tie and the
    # fallback returns Bland's vertex
    costs, masks = [1, 3, 2, 2, 0, 0], [1, 2, 4, 3, 5, 6]
    tableau = simplex._Tableau.singletons(costs, simplex._start_basis(costs, masks, 3))
    reduced = simplex._most_negative(tableau, costs, masks)
    assert tableau.result(6).solution == (1, 0, 0, 0, 0, 1)
    assert not simplex._unique(tableau, reduced, masks)
    result = solve_lp(costs, masks, 3)
    assert result.value == 1
    assert result.solution == (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("costs, masks", [
    # after m degenerate pivots in a row Bland's rule takes over: here it
    # moves, and most-negative pricing resumes
    ([-1, 3, -2, 2, -2, -1, -1, 3, 3, 1, -1], [1, 8, 15, 2, 10, 6, 13, 4, 3, 5, 14]),
    # here it reaches optimality without moving
    ([-3, -2, 3, -3, -1, 2, -2, -2, 2, 1, 3, 0, 3],
     [10, 6, 7, 15, 13, 1, 8, 11, 3, 9, 14, 4, 2]),
])
def test_stalled_phase_one_hands_over_to_bland(costs, masks):
    tableau = simplex._Tableau.singletons(costs, simplex._start_basis(costs, masks, 4))
    with mock.patch.object(simplex, "_bland", wraps=simplex._bland) as spy:
        reduced = simplex._most_negative(tableau, costs, masks)
    assert spy.called
    assert min(reduced) == 0
    _assert_matches_oracle(solve_lp(costs, masks, 4), costs, masks, 4)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_all_zero_costs_return_the_singleton_vertex(m):
    # every vertex is optimal; no column prices negative, so Bland's rule
    # stays at the start
    masks = list(range(1, 1 << m))
    result = solve_lp([0] * len(masks), masks, m)
    assert result.value == 0
    assert result.solution == tuple(Fraction(int(mask & (mask - 1) == 0)) for mask in masks)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matches_fraction_tableau_on_capacity_lps(m, seed):
    rng = random.Random(seed)
    model = random_exact_model(rng, m=m)
    family = subset_family(m, random_terminal_set(rng, m))
    costs, _ = _lp_costs(model, family)
    _assert_matches_oracle(solve_lp(costs, family.subsets, m), costs, family.subsets, m)


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
        _assert_matches_oracle(solve_lp(costs, family.subsets, m),
                               costs, family.subsets, m)


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
