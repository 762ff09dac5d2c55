"""Exact rational matrices: determinants, pencil determinants, the
fraction-free pivot, and the table of maximal minors.

A Matrix stores integer rows: each row's entries times one positive
multiplier, the lcm of that row's denominators. Fractions appear only at
its interface, as the entries it is built from and reads back. Bareiss
elimination gives determinants, and the determinant of a pencil A + tB
is interpolated from its values. One pivot kernel, _pivot, does every
other exact-division update: Gauss-Jordan here and the simplex tableau
in lpexact. One Gauss-Jordan elimination yields the first basis B0 and
the Cramer coefficients chi(B0, b_i -> j) of every column, from which
rank, flatness and linear expansions are read; Cramer expansion fills
every other minor with one exact division. The table chi
is keyed by the int mask sum of 2^c over a subset's columns, and its keys
run in the order of combinations(range(N), d). The minor with column b
replaced by column j in place is the entry at mask ^ (1 << b) | (1 << j),
negated when an odd number of the subset's columns lie strictly between
b and j. Every result is exact.
Matrices are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


class Matrix:
    """Dense matrix over the rationals with optional column labels.

    Built from rows of ints and Fractions. Row i is stored as the integer
    row num[i] over the positive multiplier den[i], the lcm of its
    denominators, so the entry (i, j) is num[i][j] / den[i]; this form is
    canonical. Column labels, when present, must be distinct and one per
    column (they name ground-set elements such as graph edges).
    """

    __slots__ = ("rows", "cols", "num", "den", "labels")

    def __init__(self, entries, labels=None):
        num, den = [], []
        for row in entries:
            ints, m = _cleared(row)
            num.append(ints)
            den.append(m)
        self._store(num, den, labels)

    def _store(self, num, den, labels):
        if not num:
            raise ValueError("matrix must have at least one row")
        ncols = len(num[0])
        if any(len(row) != ncols for row in num):
            raise ValueError("ragged rows")
        if labels is not None:
            labels = list(labels)
            if len(labels) != ncols:
                raise ValueError("labels must match column count")
            if len(set(labels)) != ncols:
                raise ValueError("labels must be distinct")
        self.rows = len(num)
        self.cols = ncols
        self.num = num
        self.den = den
        self.labels = labels

    @property
    def scale(self):
        """The product of the row multipliers: a maximal minor of num is
        scale times the true minor."""
        return prod(self.den)

    @property
    def entries(self):
        """The rows as Fractions, rebuilt on every read."""
        return [[Fraction(x, m) for x in row]
                for row, m in zip(self.num, self.den)]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.num == other.num and \
            self.den == other.den

    def __repr__(self):
        return f"Matrix({self.entries!r})"


def _integer_matrix(num, den):
    """The Matrix of integer rows num over canonical row multipliers den."""
    m = Matrix.__new__(Matrix)
    m._store(num, den, None)
    return m


def _cleared(row):
    """(ints, m): a row of ints and Fractions times m, the lcm of its
    denominators. Any other entry raises TypeError."""
    row = list(row)
    if all(type(x) is int for x in row):
        return row, 1
    for x in row:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot build an exact rational from {x!r}")
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row], m


def _integer_rows(vectors):
    """Vectors of ints and Fractions, each scaled by its denominators' lcm;
    returns (int rows, scale), where scale is the product of the row
    multipliers."""
    rows, scale = [], 1
    for v in vectors:
        ints, m = _cleared(v)
        rows.append(ints)
        scale *= m
    return rows, scale


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, so entries stay integers."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def pencil_det(A, B):
    """Integer coefficients of det(A + tB), constant term first and without
    trailing zeros, for square integer matrices A and B of one size n.

    bareiss_det gives the values at t = 0..n, and forward differences turn
    them into the Newton form sum_k c_k t(t-1)...(t-k+1). The k-th
    difference at i is k! times a Newton coefficient of the polynomial
    shifted by i, an integer because the polynomial has integer
    coefficients, so every division below is exact.
    """
    n = len(A)
    values = [bareiss_det([[a + t * b for a, b in zip(ra, rb)]
                           for ra, rb in zip(A, B)]) for t in range(n + 1)]
    newton = []
    for k in range(1, n + 2):
        newton.append(values[0])
        values = [(y - x) // k for x, y in zip(values, values[1:])]
    # Horner in the falling-factorial basis: p := p * (t - k) + c_k.
    coeffs = []
    for k in range(n, -1, -1):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += newton[k]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pivot(a, r, c, den):
    """Fraction-free pivot on a[r][c] of an integer tableau over the
    positive denominator den, in place (Edmonds 1967, Bareiss 1968).

    A negative pivot negates row r first, so den stays |p| > 0. Every other
    row becomes (row * p - f * a[r]) // den, an exact division, skipped
    where f = 0 and p = den. Returns (|p|, -1 if row r was negated else 1).
    """
    ar = a[r]
    p, flip = ar[c], 1
    if p < 0:
        p, flip = -p, -1
        a[r] = ar = [-y for y in ar]
    for i, row in enumerate(a):
        if i == r:
            continue
        f = row[c]
        if f:
            a[i] = [(x * p - f * y) // den for x, y in zip(row, ar)]
        elif p != den:
            a[i] = [x * p // den for x in row]
    return p, flip


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix, pivots
    taken left to right.

    Returns (basis, m): basis is the lexicographically first set of
    independent columns, and m[i][j] is the determinant of those columns
    with basis[i] replaced by column j in place. A row swap or a negated
    pivot row negates the determinant, so both are undone by a final
    sign. Returns None when the rank is below the row count.
    """
    a = [list(r) for r in rows]
    d = len(a)
    basis, den, sign = [], 1, 1
    for c in range(len(a[0])):
        r = len(basis)
        if r == d:
            break
        piv = next((i for i in range(r, d) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        den, flip = _pivot(a, r, c, den)
        sign *= flip if piv == r else -flip
        basis.append(c)
    if len(basis) < d:
        return None
    if sign < 0:
        a = [[-x for x in row] for row in a]
    return tuple(basis), a


def _columns(mask):
    """The columns of a chirotope key, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _lex_masks(n, d):
    """The keys of the d-subsets of range(n), in the lexicographic order of
    combinations(range(n), d): the subsets of range(s, n) holding s come
    first, then those without it. A d-subset's k-element tail starts at
    d - k or later, so no other tail is built."""
    tails = [[0]] * (n + 1)  # tails[s]: the keys of 0-subsets of range(s, n)
    for size in range(1, d + 1):
        heads = [[] for _ in range(n + 1)]
        for s in range(n - size, d - size - 1, -1):
            heads[s] = [1 << s | m for m in tails[s + 1]] + heads[s + 1]
        tails = heads
    return tails[0]


def maximal_minors(A: Matrix):
    """Integer maximal minors of A's integer rows.

    Returns (chi, scale): chi maps the key of every A.rows-subset of
    columns to an integer, and the true minor at those columns is
    chi / scale. The scale is positive, so chi carries the signs of the
    true minors. A rank-deficient matrix has the all-zero table.
    """
    reduced = _gauss_jordan(A.num)
    if reduced is None:
        return dict.fromkeys(_lex_masks(A.cols, A.rows), 0), A.scale
    return _minor_table(*reduced), A.scale


def _minor_table(b0, m):
    """Every maximal minor from one elimination, as _gauss_jordan returns
    it: the first basis b0 and, for every column j, the minors m[i][j] of
    b0 with b0[i] replaced by j.

    The other entries follow by the Grassmann-Pluecker relation: with c a
    column of S outside B0, expanding c in B0 gives chi(S) * chi(B0) = sum
    over b_i in B0 - S of chi(B0, b_i -> c) * chi(S, c -> b_i), replacements
    in place. Each term has one column fewer outside B0, so entries are
    filled in order of that count, each with one exact division. c is the
    top column of S outside B0, and chi(S, c -> b) is the entry of
    S - c + b, negated when an odd number of columns of S - c lie strictly
    between b and c.
    """
    d, n = len(m), len(m[0])
    chi = dict.fromkeys(_lex_masks(n, d), 0)
    inside = sum(1 << b for b in b0)
    cb = chi[inside] = m[0][b0[0]]
    outside = ((1 << n) - 1) ^ inside
    levels = [[] for _ in range(d + 1)]
    for key in chi:
        levels[(key & outside).bit_count()].append(key)
    # Per column c: (bit of b, chi(B0, b -> c), columns between b and c).
    terms = [[(1 << b, x, (1 << max(b, c)) - (2 << min(b, c)))
              for b, x in zip(b0, col) if x]
             for c, col in enumerate(zip(*m))]
    for level in levels[1:]:
        for key in level:
            c = (key & outside).bit_length() - 1
            rest = key ^ (1 << c)
            total = 0
            for bit, x, between in terms[c]:
                if not rest & bit:
                    y = chi[rest | bit]
                    if (rest & between).bit_count() & 1:
                        total -= x * y
                    else:
                        total += x * y
            chi[key] = total // cb
    return chi


def _swapped_minor(chi, mask, b, j):
    """chi of the basis with key mask with its column b replaced by column
    j, in place: the entry of mask - b + j, negated when an odd number of
    basis columns lie strictly between b and j.

    By Cramer's rule, this over chi(mask) is the coefficient of b in the
    expansion of column j.
    """
    c = chi[mask ^ (1 << b) | (1 << j)]
    lo, hi = (b, j) if b < j else (j, b)
    return -c if (mask & ((1 << hi) - (2 << lo))).bit_count() & 1 else c
