import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from flatpoly import lpexact, totpos
from flatpoly.lpexact import LinearProgram, lp_solve
from flatpoly.polyshape import _box_lp


def solve(objective, eq_lhs, eq_rhs):
    return lp_solve(LinearProgram.build(objective, eq_lhs, eq_rhs))


def with_upper_bounds(lhs, ub):
    """Rows of lhs with one slack column per variable, plus the rows
    x_j + s_j = ub_j: the bounds 0 <= x_j <= ub_j in standard form."""
    n = len(ub)
    rows = [list(row) + [0] * n for row in lhs]
    return rows + oracles.upper_bound_rows(n, 0), list(ub)


def test_single_bounded_variable():
    # 0 <= x <= 1 as x + s = 1.
    out = solve([1, 0], [[1, 1]], [1])
    assert out.status == lpexact.OPTIMAL and out.optimum == 1
    assert out.witness == (1, 0)


def test_empty_bound_interval():
    # 1 <= x <= 0 as the pair of rows x - s1 = 1, x + s2 = 0.
    out = solve([0, 0, 0], [[1, -1, 0], [1, 0, 1]], [1, 0])
    assert out.status == lpexact.INFEASIBLE


def test_unbounded_ray():
    assert solve([1], [], []).status == lpexact.UNBOUNDED


def test_inconsistent_equalities():
    # A free x as x+ - x-.
    out = solve([0, 0], [[1, -1], [2, -2]], [1, 1])
    assert out.status == lpexact.INFEASIBLE


def test_witness_feasibility():
    # max x0 + 2 x1, x0 + x1 = 5, 0 <= x <= 3.
    rows, rhs = with_upper_bounds([[1, 1]], [3, 3])
    out = solve([1, 2, 0, 0], rows, [5] + rhs)
    assert out.status == lpexact.OPTIMAL
    x = out.witness
    assert x[0] + x[1] == 5
    assert all(0 <= v <= 3 for v in x[:2])
    assert x[0] + x[2] == x[1] + x[3] == 3
    assert out.optimum == x[0] + 2 * x[1] == 8


def test_free_variable():
    # max -x0, x0 + x1 = 3, x0 free as x0+ - x0-, 0 <= x1 <= 2 with slack s.
    out = solve([-1, 1, 0, 0], [[1, -1, 1, 0], [0, 0, 1, 1]], [3, 2])
    assert out.status == lpexact.OPTIMAL and out.optimum == -1
    assert out.witness[0] - out.witness[1] == 1


def test_negative_rhs_rows():
    # max x, -x = -2, 0 <= x <= 5.
    out = solve([1, 0], [[-1, 0], [1, 1]], [-2, 5])
    assert out.status == lpexact.OPTIMAL and out.optimum == 2


def test_rational_data():
    out = solve([1], [[Fraction(2, 3)]], [Fraction(1, 2)])
    assert out.optimum == Fraction(3, 4)


def test_malformed():
    with pytest.raises(lpexact.MalformedProgram):
        LinearProgram.build([1], [[1, 2]], [0])
    with pytest.raises(lpexact.MalformedProgram):
        LinearProgram.build([1], [[1]], [0, 0])
    with pytest.raises(lpexact.MalformedProgram):
        LinearProgram.build([1, 1], [[1]], [0])


def test_build_keeps_ints():
    prog = LinearProgram.build([1, Fraction(1, 2)], [[2, Fraction(1, 3)]],
                               [3])
    assert [type(x) for x in prog.objective] == [int, Fraction]
    assert [type(x) for x in prog.eq_lhs[0]] == [int, Fraction]
    assert type(prog.eq_rhs[0]) is int


def test_duality_bound_by_hand():
    # max x1 + x2 s.t. x1 + 2 x2 = 4, x >= 0. Dual bound: y = 1 gives
    # y * 4 = 4 >= optimum; actual optimum is 4 at (4, 0).
    out = solve([1, 1], [[1, 2]], [4])
    assert out.status == lpexact.OPTIMAL
    assert out.optimum == 4
    # max 2 x1 + 3 x2, x1 + x2 = 1, x >= 0: optimum 3 <= dual bound 3.
    out = solve([2, 3], [[1, 1]], [1])
    assert out.optimum == 3


small = st.integers(min_value=-4, max_value=4)


@given(st.lists(small, min_size=3, max_size=3),
       st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=1, max_size=2),
       st.lists(small, min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_deterministic_and_feasible(c, lhs, rhs):
    lhs = lhs[:len(rhs)]
    rhs = rhs[:len(lhs)]
    rows, ub = with_upper_bounds(lhs, [3] * 3)
    prog = LinearProgram.build(c + [0] * 3, rows, rhs + ub)
    a = lp_solve(prog)
    b = lp_solve(prog)
    assert a == b
    if a.status == lpexact.OPTIMAL:
        x = a.witness[:3]
        for row, r in zip(lhs, rhs):
            assert sum(ri * xi for ri, xi in zip(row, x)) == r
        assert all(0 <= xi <= 3 for xi in x)
        assert sum(ci * xi for ci, xi in zip(c, x)) == a.optimum


@given(st.lists(small, min_size=2, max_size=2),
       st.lists(small, min_size=2, max_size=2), small)
@settings(max_examples=60, deadline=None)
def test_box_lp_matches_vertex_scan(c, row, r):
    # All-bounded 2-variable programs: the optimum over the segment/region
    # equals the best vertex of the feasible polytope.
    rows, ub = with_upper_bounds([row], [2, 2])
    prog = LinearProgram.build(c + [0, 0], rows, [r] + ub)
    out = lp_solve(prog)
    # Brute force on a fine rational grid of candidate points.
    grid = [Fraction(k, 4) for k in range(9)]
    feas = [(x, y) for x in grid for y in grid
            if row[0] * x + row[1] * y == r]
    if not feas:
        # The grid can miss feasible points only when the line avoids it;
        # in that case just require determinism (already checked above).
        return
    best = max(c[0] * x + c[1] * y for x, y in feas)
    assert out.status == lpexact.OPTIMAL
    assert out.optimum >= best


# ---------------------------------------------------------------------------
# The integer tableau against the Fraction oracle: same outcome, same pivots.

def integer_route(prog):
    """lp_solve's outcome and the (row, column) of every pivot it made."""
    pivots = []
    pivot = lpexact._Simplex.pivot

    def recording(self, r, col):
        pivots.append((r, col))
        pivot(self, r, col)

    with mock.patch.object(lpexact._Simplex, "pivot", recording):
        out = lp_solve(prog)
    return out, pivots


def assert_routes_agree(prog):
    out, pivots = integer_route(prog)
    oracle_pivots = []
    assert out == oracles.fraction_lp_solve(prog, oracle_pivots)
    assert pivots == oracle_pivots
    if out.witness is not None:
        assert all(type(x) is Fraction for x in out.witness)
    return out, pivots


entries = st.one_of(st.sampled_from([0, 0, 1, -1, 2]),
                    st.fractions(-4, 4, max_denominator=3))


@st.composite
def programs(draw):
    """Rational rows and rhs, zero rows, and repeated rows, whose
    artificials stay basic at zero (degenerate)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    row = st.lists(entries, min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(st.just([0] * n), row),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        rows.append(rows[0])
        rhs.append(rhs[0])
    c = draw(st.lists(entries, min_size=n, max_size=n))
    return LinearProgram.build(c, rows, rhs)


@given(programs())
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_fraction_oracle(prog):
    assert_routes_agree(prog)


def test_beale_degenerate_program():
    # Beale's example cycles under the largest-coefficient rule; two rows
    # have rhs 0, so its first pivots are degenerate.
    q = Fraction
    prog = LinearProgram.build(
        [0, 0, 0, q(3, 4), -20, q(1, 2), -6],
        [[1, 0, 0, q(1, 4), -8, -1, 9],
         [0, 1, 0, q(1, 2), -12, q(-1, 2), 3],
         [0, 0, 1, 0, 0, 1, 0]],
        [0, 0, 1])
    out, pivots = assert_routes_agree(prog)
    assert out.status == lpexact.OPTIMAL and out.optimum == q(5, 4)
    assert len(pivots) > 3


def tp_box_programs():
    """Every LP that box_certificate's LP route solves on seeded TP
    instances with d = 2..5: the closed-form polynomial, which is
    box-positive, and the same polynomial with its constant term raised by
    one, which is not palindromic and so has no certificate. They are
    solved directly, since box_certificate decides both kinds before any
    LP wherever it can."""
    progs = []

    def recording(prog):
        progs.append(prog)
        return lp_solve(prog)

    rng = random.Random(77)
    with mock.patch.object(lpexact, "lp_solve", recording):
        for d in range(2, 6):
            for N in (d + 1, d + 3, d + 5):
                fmp = totpos.flat_maxpos_from_network(
                    totpos.random_network(d, N, rng))
                poly, _ = totpos.f_tp_closed(fmp)
                assert _box_lp(poly, d) is not None
                assert _box_lp([poly[0] + 1] + poly[1:], d) is None
    return progs


def test_tp_box_certificate_programs_match_fraction_oracle():
    progs = tp_box_programs()
    assert len(progs) == 24
    outcomes = [assert_routes_agree(prog)[0].status for prog in progs]
    assert outcomes.count(lpexact.INFEASIBLE) == 12


def test_box_certificate_rows_are_integers():
    progs = tp_box_programs()
    assert progs
    for prog in progs:
        assert all(type(x) is int for row in prog.eq_lhs for x in row)
        assert all(type(x) is int for x in prog.objective)
