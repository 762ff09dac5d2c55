"""Exact rational linear programming in standard form: a two-phase simplex
with Bland's rule, on a fraction-free integer tableau.

Programs read: maximize c . x subject to A x = b and x >= 0.

The tableau holds Python ints over one positive common denominator
den = |det B| of the current basis B, as in the integer pivoting of
Edmonds (1967) and Avis's lrs.  Each equality row is cleared of its
denominators once at set-up.  A pivot replaces every other entry x by
(x * p - f * y) // den, which is an exact division because every entry is
a minor of the integer system, and den becomes |p|: exactnum._pivot, the
pivot that every fraction-free elimination in flatpoly shares.  Pricing
tests one reduced-cost sign at a time in Bland order and stops at the
first column that may enter.  The ratio test compares ratios by cross-multiplication
and breaks ties by the smaller basic index.  Witnesses are exact
Fractions, so a returned witness satisfies every constraint as a rational
identity.  Bland's rule guarantees termination, and since pivot selection
is deterministic, solving the same program twice yields identical
outcomes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .exactnum import _integer_rows, _pivot

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class MalformedProgram(ValueError):
    pass


class LinearProgram(namedtuple("LinearProgram", "objective eq_lhs eq_rhs")):
    """maximize objective . x  subject to  eq_lhs x = eq_rhs,  x >= 0.

    eq_lhs is a tuple of rows. Entries are ints or Fractions: the tableau
    reads only their numerators and denominators."""

    __slots__ = ()

    @staticmethod
    def build(objective, eq_lhs, eq_rhs):
        objective = tuple(objective)
        n = len(objective)
        eq_lhs = tuple(map(tuple, eq_lhs))
        eq_rhs = tuple(eq_rhs)
        if any(len(row) != n for row in eq_lhs):
            raise MalformedProgram("constraint row length mismatch")
        if len(eq_lhs) != len(eq_rhs):
            raise MalformedProgram("constraint/rhs count mismatch")
        return LinearProgram(objective, eq_lhs, eq_rhs)


class LpOutcome(namedtuple("LpOutcome", "status optimum witness",
                           defaults=(None, None))):
    """status, then the optimum (a Fraction) and the witness (a tuple)
    when the status is OPTIMAL, None otherwise."""

    __slots__ = ()


class _Simplex:
    """Simplex state over columns 0..n-1 (real) plus n..n+m-1 (artificial),
    on an integer tableau.

    Row i of the integer system reads s_i L_i (a_i . x) + L_i art_i =
    s_i L_i b_i, where L_i clears the denominators of row i and the sign
    s_i makes art_i start nonnegative.  Row i of T holds den * B^-1 times
    the real columns and then the right-hand side, with den = |det B|, so
    its last entry is den times the value of basis[i].  The artificial
    columns never enter and are never priced, so T leaves them out; den
    still counts them through det B.
    """

    def __init__(self, p: LinearProgram):
        self.m = len(p.eq_lhs)
        self.n = len(p.objective)
        # The initial basis is diag(L_i), so den starts at the product.
        den = 1
        for row, b in zip(p.eq_lhs, p.eq_rhs):
            den *= lcm(b.denominator, *(a.denominator for a in row))
        self.den = den
        self.T = []
        for row, b in zip(p.eq_lhs, p.eq_rhs):
            s = -den if b < 0 else den
            self.T.append([s * a.numerator // a.denominator
                           for a in (*row, b)])
        self.basis = list(range(self.n, self.n + self.m))
        self.in_basis = [False] * self.n + [True] * self.m

    def pivot(self, r, col):
        """Make col basic in row r; den becomes |p|."""
        self.den, _ = _pivot(self.T, r, col, self.den)
        self.in_basis[self.basis[r]] = False
        self.in_basis[col] = True
        self.basis[r] = col

    def _entering(self, obj):
        """First nonbasic real column in Bland order with a positive
        reduced cost; None at an optimum.

        Only the sign of each reduced cost matters, so den times it is
        computed in integers, one column at a time."""
        den = self.den
        priced = [(obj[bi], row) for bi, row in zip(self.basis, self.T)
                  if obj[bi]]
        for j in range(self.n):
            if not self.in_basis[j] and \
                    obj[j] * den > sum(c * row[j] for c, row in priced):
                return j
        return None

    def run(self, obj, hold_artificials):
        """Maximize obj (integer coefficients) over the real columns.
        Returns True if an optimum was reached, False on unboundedness.

        With hold_artificials, a basic artificial is held at zero: its row
        gives ratio 0 whenever the entering column has a nonzero entry."""
        n = self.n
        while True:
            enter = self._entering(obj)
            if enter is None:
                return True
            # Ratio test: the smallest b_i / d_i, then the smaller basic
            # index; r is the leaving row, and br / dr its ratio.
            r = None
            for i, (row, bi) in enumerate(zip(self.T, self.basis)):
                b, d = row[-1], row[enter]
                if hold_artificials and bi >= n and d:
                    b, d = 0, 1
                elif d <= 0:
                    continue
                if r is None or b * dr < br * d or \
                        (b * dr == br * d and bi < self.basis[r]):
                    r, br, dr = i, b, d
            if r is None:
                return False
            self.pivot(r, enter)


def lp_solve(p: LinearProgram) -> LpOutcome:
    """Solve an exact LP; deterministic given the fixed pivot rule."""
    s = _Simplex(p)
    n, m = s.n, s.m

    # Phase 1: drive the artificials to zero.
    s.run([0] * n + [-1] * m, hold_artificials=False)
    if any(row[-1] for row, bi in zip(s.T, s.basis) if bi >= n):
        return LpOutcome(INFEASIBLE)

    # A positive scale to integers keeps every reduced-cost sign, and so
    # every pivot.
    (obj2,), scale = _integer_rows([p.objective])
    if not s.run(obj2 + [0] * m, hold_artificials=True):
        return LpOutcome(UNBOUNDED)
    x = [Fraction(0)] * n
    opt = 0
    for row, bi in zip(s.T, s.basis):
        if bi < n:
            x[bi] = Fraction(row[-1], s.den)
            opt += obj2[bi] * row[-1]
    # Every nonbasic value is zero, so c . x = sum obj2[bi] * T[i][-1] over
    # scale * den.
    return LpOutcome(OPTIMAL, Fraction(opt, scale * s.den), tuple(x))
