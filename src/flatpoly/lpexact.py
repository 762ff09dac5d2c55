"""Exact rational linear programming: bounded-variable simplex with
Bland's rule, on a fraction-free integer tableau.

Programs have equality constraints and per-variable bounds.  Bounds are
handled natively (nonbasic variables rest at a finite bound) rather than
through slack rows, which keeps the tableau small.

The tableau holds Python ints over one positive common denominator
den = |det B| of the current basis B, as in the integer pivoting of
Edmonds (1967) and Avis's lrs.  Each equality row is cleared of its
denominators once at set-up.  A pivot replaces every other entry x by
(x * p - f * y) // den, which is an exact division because every entry is
a minor of the integer system, and den becomes |p|.  Pricing tests one
reduced-cost sign at a time in Bland order and stops at the first column
that may enter.  Ratios, basic values and witnesses are exact Fractions,
so a returned witness satisfies every constraint as a rational identity.
Bland's rule guarantees termination, and since pivot selection is
deterministic, solving the same program twice yields identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import _integer_rows, frac

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class MalformedProgram(ValueError):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  eq_lhs x = eq_rhs,  lo <= x <= hi.

    bounds is one (lo, hi) pair per variable; None means unbounded on that
    side.  A pair with lo > hi makes the program infeasible (not malformed).
    """

    objective: tuple
    eq_lhs: tuple       # tuple of rows
    eq_rhs: tuple
    bounds: tuple       # tuple of (lo | None, hi | None)

    @staticmethod
    def build(objective, eq_lhs, eq_rhs, bounds):
        objective = tuple(frac(c) for c in objective)
        n = len(objective)
        eq_lhs = tuple(tuple(frac(x) for x in row) for row in eq_lhs)
        eq_rhs = tuple(frac(b) for b in eq_rhs)
        if any(len(row) != n for row in eq_lhs):
            raise MalformedProgram("constraint row length mismatch")
        if len(eq_lhs) != len(eq_rhs):
            raise MalformedProgram("constraint/rhs count mismatch")
        bnds = []
        for lo, hi in bounds:
            bnds.append((None if lo is None else frac(lo),
                         None if hi is None else frac(hi)))
        if len(bnds) != n:
            raise MalformedProgram("one bound pair per variable required")
        return LinearProgram(objective, eq_lhs, eq_rhs, tuple(bnds))


@dataclass(frozen=True)
class LpOutcome:
    status: str
    optimum: Fraction | None = None
    witness: tuple | None = None


class _Simplex:
    """Bounded-variable simplex state over columns 0..n-1 (real) plus
    n..n+m-1 (artificial), on an integer tableau.

    Row i of the integer system reads s_i L_i (a_i . x) + L_i art_i =
    s_i L_i b_i, where L_i clears the denominators of row i and the sign
    s_i makes art_i start nonnegative.  T and beta hold den * B^-1 times
    the real columns and the right-hand side, with den = |det B|.  The
    artificial columns never enter and are never priced, so T leaves them
    out; den still counts them through det B.
    """

    def __init__(self, p: LinearProgram):
        self.m = len(p.eq_lhs)
        self.n = len(p.objective)
        m, n = self.m, self.n
        self.lo = [b[0] for b in p.bounds] + [Fraction(0)] * m
        self.hi = [b[1] for b in p.bounds] + [None] * m
        # Nonbasic start: rest each real variable at a finite bound (or 0).
        self.value = []
        for l, h in zip(self.lo[:n], self.hi[:n]):
            self.value.append(l if l is not None else
                              (h if h is not None else Fraction(0)))
        self.value += [Fraction(0)] * m
        # The initial basis is diag(L_i), so den starts at the product.
        den = 1
        for row, b in zip(p.eq_lhs, p.eq_rhs):
            den *= lcm(b.denominator, *(a.denominator for a in row))
        self.den = den
        self.T = []
        self.beta = []
        resting = [(j, v) for j, v in enumerate(self.value) if v]
        for row, b in zip(p.eq_lhs, p.eq_rhs):
            # The residual's sign decides the artificial's sign.
            s = -den if b < sum(row[j] * v for j, v in resting) else den
            self.T.append([s * a.numerator // a.denominator for a in row])
            self.beta.append(s * b.numerator // b.denominator)
        self.basis = list(range(n, n + m))
        self.in_basis = [False] * n + [True] * m

    def _resting(self):
        """Nonbasic real columns that rest at a nonzero value."""
        return [(j, v) for j, v in enumerate(self.value[:self.n])
                if v and not self.in_basis[j]]

    def _basic_num(self, i, resting):
        """den times the value of the variable basic in row i."""
        row = self.T[i]
        return self.beta[i] - sum(row[j] * v for j, v in resting)

    def pivot(self, r, col):
        """Make col basic in row r: every other row becomes
        (x * p - f * y) // den, an exact division, and den becomes |p|."""
        T, beta, den = self.T, self.beta, self.den
        prow, br = T[r], beta[r]
        p = prow[col]
        if p < 0:
            # Negating the pivot row first keeps the new den positive.
            p, br = -p, -br
            T[r] = prow = [-y for y in prow]
            beta[r] = br
        for i, row in enumerate(T):
            if i == r:
                continue
            f = row[col]
            if f:
                T[i] = [(x * p - f * y) // den for x, y in zip(row, prow)]
                beta[i] = (beta[i] * p - f * br) // den
            elif p != den:
                T[i] = [x * p // den for x in row]
                beta[i] = beta[i] * p // den
        self.den = p
        self.in_basis[self.basis[r]] = False
        self.in_basis[col] = True
        self.basis[r] = col

    def _entering(self, obj, allowed):
        """First allowed column in Bland order whose reduced cost lets it
        move off its bound, with its direction; (None, 0) at an optimum.

        Only the sign of each reduced cost matters, so den times it is
        computed in integers, one column at a time."""
        den = self.den
        priced = [(obj[bi], row) for bi, row in zip(self.basis, self.T)
                  if obj[bi]]
        for j in allowed:
            if self.in_basis[j]:
                continue
            v = self.value[j]
            at_lo = self.lo[j] is not None and v == self.lo[j]
            at_hi = self.hi[j] is not None and v == self.hi[j]
            if at_lo and at_hi:
                continue   # fixed variable, cannot move
            rc = obj[j] * den - sum(c * row[j] for c, row in priced)
            if rc > 0 and (at_lo or not at_hi):
                return j, 1
            if rc < 0 and (at_hi or not at_lo):
                return j, -1
        return None, 0

    def run(self, obj, allowed):
        """Maximize obj (integer coefficients) over the allowed entering
        columns. Returns True if an optimum was reached, False on
        unboundedness."""
        while True:
            enter, sigma = self._entering(obj, allowed)
            if enter is None:
                return True
            # Ratio test: x_enter moves by sigma * t, t >= 0.
            limit = None           # (t, kind, row)
            if sigma > 0 and self.hi[enter] is not None:
                limit = (self.hi[enter] - self.value[enter], "flip", None)
            elif sigma < 0 and self.lo[enter] is not None:
                limit = (self.value[enter] - self.lo[enter], "flip", None)
            resting = self._resting()
            for i in range(self.m):
                d = sigma * self.T[i][enter]
                bi = self.basis[i]
                if d > 0 and self.lo[bi] is not None:
                    bound = self.lo[bi]
                elif d < 0 and self.hi[bi] is not None:
                    bound = self.hi[bi]
                else:
                    continue
                t = Fraction(self._basic_num(i, resting) - bound * self.den,
                             d)
                if limit is None or t < limit[0] or \
                        (t == limit[0] and limit[1] == "pivot"
                         and bi < self.basis[limit[2]]):
                    limit = (t, "pivot", i)
            if limit is None:
                return False
            t, kind, row = limit
            if kind == "flip":
                self.value[enter] += sigma * t
            else:
                bi = self.basis[row]
                d = sigma * self.T[row][enter]
                self.value[bi] = self.lo[bi] if d > 0 else self.hi[bi]
                self.value[enter] += sigma * t
                self.pivot(row, enter)

    def solution(self):
        resting = self._resting()
        x = list(self.value)
        for i, bi in enumerate(self.basis):
            x[bi] = Fraction(self._basic_num(i, resting), self.den)
        return x


def lp_solve(p: LinearProgram) -> LpOutcome:
    """Solve an exact LP; deterministic given the fixed pivot rule."""
    for lo, hi in p.bounds:
        if lo is not None and hi is not None and lo > hi:
            return LpOutcome(INFEASIBLE)
    s = _Simplex(p)
    n, m = s.n, s.m

    # Phase 1: drive the artificials to zero.
    s.run([0] * n + [-1] * m, range(n))
    x = s.solution()
    if any(x[j] != 0 for j in range(n, n + m)):
        return LpOutcome(INFEASIBLE)
    # Freeze artificials at zero for phase 2 (basic ones stay degenerate).
    for j in range(n, n + m):
        s.hi[j] = Fraction(0)
        s.value[j] = Fraction(0)

    # A positive scale to integers keeps every reduced-cost sign, and so
    # every pivot.
    (obj2,), _ = _integer_rows([p.objective])
    if not s.run(obj2 + [0] * m, range(n)):
        return LpOutcome(UNBOUNDED)
    x = s.solution()[:n]
    opt = sum((c * v for c, v in zip(p.objective, x)), Fraction(0))
    return LpOutcome(OPTIMAL, opt, tuple(x))
