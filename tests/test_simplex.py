import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pinkey import TerminalSet, solve_capacity, subset_family, upper_bound
from pinkey.capacity import _cover_lp, _lp_costs
from pinkey.simplex import solve_lp

from helpers import fraction_solve_lp, random_exact_model, random_terminal_set


def test_single_constraint():
    # min x + 2y  s.t.  x + y = 1  ->  1 at (1, 0)
    result = solve_lp(
        costs=[Fraction(1), Fraction(2)],
        rows=[[Fraction(1), Fraction(1)]],
        rhs=[Fraction(1)],
        basis=[0],
    )
    assert result.value == 1
    assert result.solution == (Fraction(1), Fraction(0))


def test_prefers_cheap_column():
    # min 3x + y + 0s  s.t.  x + y + s = 2  ->  0 at s = 2
    result = solve_lp(
        costs=[Fraction(3), Fraction(1), Fraction(0)],
        rows=[[Fraction(1), Fraction(1), Fraction(1)]],
        rhs=[Fraction(2)],
        basis=[2],
    )
    assert result.value == 0


def test_exact_fractions():
    # min x  s.t.  3x + y = 1 with basis on y -> 0; then force x via cost on y
    result = solve_lp(
        costs=[Fraction(1), Fraction(5)],
        rows=[[Fraction(3), Fraction(1)]],
        rhs=[Fraction(1)],
        basis=[1],
    )
    # entering x: ratio 1/3, objective 1/3 < 5
    assert result.value == Fraction(1, 3)
    assert result.solution[0] == Fraction(1, 3)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_lp([Fraction(1)], [[Fraction(1)]], [Fraction(1), Fraction(2)], [0])


def test_infeasible_start_rejected():
    with pytest.raises(ValueError):
        solve_lp([Fraction(1)], [[Fraction(1)]], [Fraction(-1)], [0])


@pytest.mark.parametrize("basis", [[0], [1], [2], [-1]])
def test_basis_must_name_identity_columns(basis):
    # neither column is e_0 (2 and 1/2), and 2 and -1 name no column
    rows = [[Fraction(2), Fraction(1, 2)]]
    with pytest.raises(ValueError, match="identity"):
        solve_lp([Fraction(1), Fraction(1)], rows, [Fraction(1)], basis)


def _outcome(solver, costs, rows, rhs, basis):
    try:
        return solver(costs, rows, rhs, basis)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def general_lps(draw):
    """[permuted identity | rational block] x = b >= 0, any-sign costs;
    unbounded problems included."""
    m = draw(st.integers(1, 5))
    n = m + draw(st.integers(0, 6))
    order = draw(st.permutations(range(n)))
    basis = list(order[:m])
    rows = [[draw(_rationals) for _ in range(n)] for _ in range(m)]
    for i, row in enumerate(rows):
        for k, var in enumerate(basis):
            row[var] = Fraction(int(i == k))
    rhs = [abs(draw(_rationals)) for _ in range(m)]
    costs = [draw(_rationals) for _ in range(n)]
    return costs, rows, rhs, basis


@given(general_lps())
@settings(max_examples=300, deadline=None)
def test_matches_fraction_tableau_on_general_lps(lp):
    assert _outcome(solve_lp, *lp) == _outcome(fraction_solve_lp, *lp)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matches_fraction_tableau_on_capacity_lps(m, seed):
    rng = random.Random(seed)
    model = random_exact_model(rng, m=m)
    family = subset_family(m, random_terminal_set(rng, m))
    costs = _lp_costs(model, family)
    rows = [[Fraction(mask >> t & 1) for mask in family.subsets]
            for t in range(m)]
    basis = [family.index_of(1 << t) for t in range(m)]
    expected = fraction_solve_lp(costs, rows, [Fraction(1)] * m, basis)
    assert _cover_lp(family, costs) == expected
    assert solve_lp(costs, rows, [Fraction(1)] * m, basis) == expected


@pytest.mark.parametrize("m", range(2, 8))
def test_capacity_lp_sweep_matches_fraction_tableau(m):
    # LP k of 400 has m = 2 + k % 6 terminals, and each m runs through every
    # target size in turn, with random members and weights
    rng = random.Random(1000 + m)
    for k in range(m - 2, 400, 6):
        model = random_exact_model(rng, m=m)
        size = 2 + (k // 6) % (m - 1)
        family = subset_family(m, random_terminal_set(rng, m, size))
        costs = _lp_costs(model, family)
        rows = [[mask >> t & 1 for mask in family.subsets] for t in range(m)]
        basis = [family.index_of(1 << t) for t in range(m)]
        result = solve_lp(costs, rows, [1] * m, basis)
        assert result == fraction_solve_lp(costs, rows, [1] * m, basis)


def test_capacity_meets_partition_bound_at_nine_terminals():
    # A = M is a tight case of the paper: C(M) equals the partition bound.
    model = random_exact_model(random.Random(9), m=9, zero_chance=0.0)
    full = TerminalSet.full(9)
    assert solve_capacity(model, full).value == upper_bound(model, full)


def _random_problem(rng: random.Random, m: int, extra: int):
    """[I | R] x = b with b >= 0 and nonnegative costs: feasible, bounded."""
    n = m + extra
    rows = []
    for i in range(m):
        row = [Fraction(1 if j == i else 0) for j in range(m)]
        row += [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(extra)]
        rows.append(row)
    rhs = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
    costs = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
    return costs, rows, rhs, list(range(m))


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    extra = rng.randint(1, 5)
    costs, rows, rhs, basis = _random_problem(rng, m, extra)
    exact = solve_lp(costs, rows, rhs, basis)

    reference = linprog(
        c=np.array([float(c) for c in costs]),
        A_eq=np.array([[float(v) for v in row] for row in rows]),
        b_eq=np.array([float(b) for b in rhs]),
        bounds=[(0, None)] * len(costs),
        method="highs",
    )
    assert reference.status == 0
    assert float(exact.value) == pytest.approx(reference.fun, abs=1e-8)

    # the solution itself must satisfy the constraints exactly
    for row, b in zip(rows, rhs):
        assert sum(r * x for r, x in zip(row, exact.solution)) == b
    assert all(x >= 0 for x in exact.solution)
