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

from pinkey import PinModel, TerminalSet, simplex, solve_capacity, subset_family, upper_bound
from pinkey.capacity import _lp_costs
from pinkey.model import all_pairs
from pinkey.simplex import solve_lp

from helpers import (
    fraction_solve_lp, random_exact_model, random_terminal_set, singleton_phases)


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
    result = singleton_phases([5], [0b1], 1)
    assert result.value == 5
    assert result.solution == (Fraction(1),)
    assert result.basis == (0,)


def test_prefers_cheap_column():
    # {1} + {2} costs 4, {1, 2} costs 3: the pair covers both at once
    result = singleton_phases([2, 2, 3], [0b01, 0b10, 0b11], 2)
    assert result.value == 3
    assert result.solution == (Fraction(0), Fraction(0), Fraction(1))
    # degenerate tie in the ratio test: the lower basic index leaves
    assert result.basis == (2, 1)


def test_exact_fractions():
    # the three pairs of three terminals, each at cost 1, against singletons
    # at cost 2: every pair at weight 1/2 covers each terminal exactly once
    masks = [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    result = singleton_phases([2, 2, 2, 1, 1, 1], masks, 3)
    assert result.value == Fraction(3, 2)
    assert result.solution == (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_negative_costs_and_value_in_cost_units():
    # costs need not be positive; the value is in the units of the costs
    result = singleton_phases([-3, 4, -5], [0b10, 0b01, 0b11], 2)
    assert result.value == -5
    assert result.solution == (0, 0, 1)
    assert result.basis == (1, 2)  # the singleton of terminal 0 is column 1


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="3 costs but 2 columns"):
        solve_lp([1, 2, 3], subset_family(2, TerminalSet.full(2)))


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
    _assert_matches_oracle(singleton_phases(costs, masks, m), costs, masks, m)


@given(cover_lps())
@settings(max_examples=300, deadline=None)
def test_bland_loop_matches_fraction_tableau_in_full(lp):
    # the fallback keeps the oracle's whole path, so its basis matches too
    costs, masks, m = lp
    result = simplex._bland_lp(costs, masks, _dense(masks, m)[2])
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
            result = singleton_phases(costs, masks, m)
        unique = len(_optimal_vertices(costs, masks, m)) == 1
        assert spy.called is not unique
        paths["fallback" if spy.called else "fast"] += 1
        _assert_matches_oracle(result, costs, masks, m)

    check()
    assert paths["fast"] and paths["fallback"]


def test_rational_view_is_built_when_read_and_compared_by_value():
    costs, masks = [1, 3, 2, 2, 0, 0], [1, 2, 4, 3, 5, 6]
    result = singleton_phases(costs, masks, 3)
    assert "value" not in vars(result) and "solution" not in vars(result)
    assert result.value == Fraction(result.objective, result.d) == 1
    assert result.solution == (0, 0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    # the same vertex over another denominator is equal; another basis is not
    doubled = simplex.SimplexResult(result.basis, 2 * result.d,
                                    tuple(2 * b for b in result.beta),
                                    2 * result.objective, result.columns)
    assert doubled == result and hash(doubled) == hash(result)
    assert simplex.SimplexResult(result.basis[::-1], result.d, result.beta[::-1],
                                 result.objective, result.columns) != result


def test_shared_optimum_returns_blands_vertex():
    # most-negative pricing stops at {1: 1, 6: 1}, an optimal vertex of
    # value 1 that is not Bland's; the certificate sees the tie and the
    # fallback returns Bland's vertex
    costs, masks = [1, 3, 2, 2, 0, 0], [1, 2, 4, 3, 5, 6]
    tableau = simplex._Tableau.singletons(costs, _dense(masks, 3)[2])
    reduced = simplex._most_negative(tableau, costs, masks)
    assert tableau.result(6).solution == (1, 0, 0, 0, 0, 1)
    assert not simplex._unique(tableau, reduced, masks)
    result = singleton_phases(costs, masks, 3)
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
    tableau = simplex._Tableau.singletons(costs, _dense(masks, 4)[2])
    with mock.patch.object(simplex, "_bland", wraps=simplex._bland) as spy:
        reduced = simplex._most_negative(tableau, costs, masks)
    assert spy.called
    assert min(reduced) == 0
    _assert_matches_oracle(singleton_phases(costs, masks, 4), costs, masks, 4)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_all_zero_costs_return_the_singleton_vertex(m):
    # every vertex is optimal; no column prices negative, so Bland's rule
    # stays at the start
    masks = list(range(1, 1 << m))
    result = singleton_phases([0] * len(masks), masks, m)
    assert result.value == 0
    assert result.solution == tuple(Fraction(int(mask & (mask - 1) == 0)) for mask in masks)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matches_fraction_tableau_on_capacity_lps(m, seed):
    rng = random.Random(seed)
    model = random_exact_model(rng, m=m)
    family = subset_family(m, random_terminal_set(rng, m))
    costs, _ = _lp_costs(model, family)
    _assert_matches_oracle(solve_lp(costs, family), costs, family.subsets, m)


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
        _assert_matches_oracle(solve_lp(costs, family), costs, family.subsets, m)


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
    exact = singleton_phases(costs, masks, m)

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


def _co_atom_start(costs, family):
    """The co-atom start tableau of a capacity LP."""
    return simplex._Tableau.co_atoms(costs, family.subsets, family.m,
                                     [t - 1 for t in family.target])


def _assert_scaled_inverse(tableau, costs, masks, m):
    """R·B = d·I, β = R·1, y = C_B·R and the objective C_B·β."""
    d, base, inverse = tableau.d, tableau.base, tableau.inverse
    for i, row in enumerate(inverse):
        assert [sum(row[t] for t in range(m) if masks[j] >> t & 1) for j in base] == [
            d * (k == i) for k in range(m)]
    assert tableau.values == [sum(row) for row in inverse]
    assert tableau.duals == [sum(costs[j] * row[k] for j, row in zip(base, inverse))
                             for k in range(m)]
    assert tableau.objective == sum(costs[j] * b for j, b in zip(base, tableau.values))


@pytest.mark.parametrize("m", [3, 4, 6])
def test_co_atom_tableau_is_the_scaled_inverse(m):
    # R·B = d·I with d = |det B| = |A| - 1, β = R·1, y = C_B·R, objective
    # C_B·β; random costs give random partitions, each target in its own
    # atom, and A = M gives the co-singleton tableau J - (m - 1)·I
    rng, full = random.Random(m), (1 << m) - 1
    for lp in range(60):
        target = random_terminal_set(rng, m, 2 + lp % (m - 1))
        family = subset_family(m, target)
        masks = family.subsets
        costs = [rng.randint(-9, 9) for _ in masks]
        tableau = _co_atom_start(costs, family)
        d, base, inverse = tableau.d, tableau.base, tableau.inverse
        assert d == len(target) - 1 == abs(round(np.linalg.det(
            [[masks[j] >> t & 1 for j in base] for t in range(m)])))
        _assert_scaled_inverse(tableau, costs, masks, m)
        # position a holds M∖P_a, position u of P_a's non-targets M∖P_a
        # with those from u up put back
        targets = [t - 1 for t in target.members]
        atoms = {a: full ^ masks[base[a]] for a in targets}
        assert sorted(t for atom in atoms.values() for t in range(m) if atom >> t & 1) == list(
            range(m))
        for a, atom in atoms.items():
            assert atom >> a & 1 and not atom & target.mask() & ~(1 << a)
            for u in range(m):
                if atom >> u & 1 and u != a:
                    assert masks[base[u]] == full ^ (atom & ~(-1 << u) | 1 << a)
        if len(target) == m:
            assert inverse == [[1 - d * (k == i) for k in range(m)] for i in range(m)]


@st.composite
def small_weight_lps(draw):
    """Capacity LPs at m = 2..7 on weights from {0, 1, 1, 2}, with any
    target set of at least two terminals: (costs, family)."""
    m = draw(st.integers(2, 7))
    weights = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=m * (m - 1) // 2,
                            max_size=m * (m - 1) // 2))
    model = PinModel.from_weights(m, dict(zip(all_pairs(m), weights)))
    target = draw(st.sets(st.integers(1, m), min_size=2))
    family = subset_family(m, TerminalSet(tuple(target)))
    return _lp_costs(model, family)[0], family


@given(small_weight_lps())
@settings(max_examples=60, deadline=None)
def test_co_atom_start_is_valid_on_every_capacity_family(lp):
    # every column the start prices is in the family, m = 2 included,
    # where the co-atoms are the two singletons
    costs, family = lp
    m, targets = family.m, [t - 1 for t in family.target]
    tableau = _co_atom_start(costs, family)
    assert tableau.d == len(targets) - 1
    assert tableau.values == [int(t in targets) for t in range(m)]
    _assert_scaled_inverse(tableau, costs, family.subsets, m)
    _assert_matches_oracle(solve_lp(costs, family), costs, family.subsets, m)


def _recording_start(starts):
    """A stand-in for ``_Tableau.co_atoms`` that appends each start's basis
    to ``starts``."""
    co_atoms = simplex._Tableau.co_atoms

    def start(*args):
        tableau = co_atoms(*args)
        starts.append(list(tableau.base))
        return tableau

    return start


def test_capacity_lps_start_at_the_co_atoms_and_match_fraction_tableau():
    # the unit K_m models and small-integer weights give many shared
    # optima, where phase 3 returns Bland's vertex from the singletons
    rng = random.Random(47)
    models = [PinModel.from_weights(m, dict.fromkeys(all_pairs(m), 1)) for m in range(3, 8)]
    models += [PinModel.from_weights(m, {pair: rng.choice([0, 1, 1, 2])
                                         for pair in all_pairs(m)})
               for m in (3, 4, 5, 6) for _ in range(25)]
    phase_three, starts = 0, []
    for model in models:
        m = model.m
        family = subset_family(m, random_terminal_set(rng, m))
        costs, _ = _lp_costs(model, family)
        with mock.patch.object(simplex._Tableau, "co_atoms", _recording_start(starts)), \
                mock.patch.object(simplex, "_bland_lp", wraps=simplex._bland_lp) as bland:
            result = solve_lp(costs, family)
        phase_three += bland.called
        _assert_matches_oracle(result, costs, family.subsets, m)
    assert len(starts) == len(models)
    assert phase_three >= 10


@st.composite
def capacity_lps_with_shifts(draw):
    """``small_weight_lps`` with some columns' costs shifted by -2..2."""
    costs, family = draw(small_weight_lps())
    shifts = draw(st.lists(st.tuples(st.integers(0, len(costs) - 1), st.integers(-2, 2)),
                           max_size=8))
    for j, shift in shifts:
        costs[j] += shift
    return costs, family


@given(capacity_lps_with_shifts())
@settings(max_examples=100, deadline=None)
def test_co_atom_start_matches_fraction_tableau_on_tie_heavy_capacity_lps(lp):
    # the start is a feasible basis, and the vertex is Bland's
    costs, family = lp
    masks, m, starts = family.subsets, family.m, []
    with mock.patch.object(simplex._Tableau, "co_atoms", _recording_start(starts)):
        result = solve_lp(costs, family)
    start = _basic_solution(masks, m, starts[0])
    assert start is not None and min(start) >= 0
    _assert_matches_oracle(result, costs, masks, m)


def test_co_atom_start_takes_few_phase_one_pivots():
    # analyze-shaped LPs: m = 6, a quarter of the pairs zero, the rest p/q
    # with p <= 8 and q <= 4, |A| = 2 or 3; the singleton start takes about
    # 5 to 6 pivots each
    rng, counts = random.Random(48), []
    most_negative = simplex._most_negative

    def phase_one(*args):
        with mock.patch.object(simplex, "_pivot", wraps=simplex._pivot) as pivot:
            reduced = most_negative(*args)
        counts.append(pivot.call_count)
        return reduced

    for k in range(80):
        family = subset_family(6, random_terminal_set(rng, 6, 2 + k % 2))
        costs, _ = _lp_costs(random_exact_model(rng, m=6), family)
        with mock.patch.object(simplex, "_most_negative", phase_one):
            solve_lp(costs, family)
    assert len(counts) == 80
    assert sum(counts) / len(counts) <= 2.5
