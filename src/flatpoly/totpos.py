"""Flat max-positive matrices from totally positive networks, the minor
interleaving formula, the closed-form external semi-activity of ordered
bases, and the explicit box-positive expansion of the basis polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations

from .exactnum import (Matrix, _columns, _integer_matrix, bareiss_det,
                       maximal_minors)
from .polyshape import BoxCertificate, _q_combination


class NotMaxPositive(ValueError):
    pass


class GridNetwork(namedtuple("GridNetwork", "d N horizontal_weights")):
    """Planar grid network whose path-weight matrix is totally positive.

    d rows by N columns; horizontal edges run right to left with the given
    positive weights (horizontal_weights: d rows of N - 1), vertical edges
    run down with weight 1. Source i sits at the right end of row i, sink j
    below column j of the bottom row. Unit weights on the bottom row force
    an all-ones last row of the path matrix.
    """

    __slots__ = ()

    def __new__(cls, d, N, horizontal_weights):
        if d < 1:
            raise ValueError("a network needs at least one row")
        if len(horizontal_weights) != d or \
                any(len(r) != N - 1 for r in horizontal_weights):
            raise ValueError("need d rows of N - 1 horizontal weights")
        for row in horizontal_weights:
            if any(w <= 0 for w in row):
                raise ValueError("weights must be positive")
        return super().__new__(cls, d, N, horizontal_weights)

    @property
    def last_row_unit(self):
        return all(w == 1 for w in self.horizontal_weights[-1])


def tp_from_network(net: GridNetwork) -> Matrix:
    """d x N matrix of weighted path sums, totally positive by construction."""
    w = net.horizontal_weights
    rows = []
    for i in range(net.d):
        # value[r][c]: weighted paths from source i to grid node (r, c).
        value = [[0] * net.N for _ in range(net.d)]
        value[i][net.N - 1] = 1
        for r in range(i, net.d):
            for c in range(net.N - 2, -1, -1):
                value[r][c] += value[r][c + 1] * w[r][c]
            if r + 1 < net.d:
                for c in range(net.N):
                    value[r + 1][c] += value[r][c]
        rows.append(value[net.d - 1])
    return Matrix(rows)


def random_network(d, N, rng) -> GridNetwork:
    """Weights drawn by rng, a random.Random, from a small-denominator pool,
    seeded for reproducibility; the last row has unit weights."""
    pool = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1, 2, 3, 4]
    weights = []
    for i in range(d):
        if i == d - 1:
            weights.append((1,) * (N - 1))
        else:
            weights.append(tuple(rng.choice(pool) for _ in range(N - 1)))
    return GridNetwork(d, N, tuple(weights))


class FlatMaxPositive(namedtuple("FlatMaxPositive", "A C chi scale")):
    """Suffix-sum matrix A with an all-ones last row, built from a matrix C
    whose maximal minors are all positive.  C's maximal minors are
    chi / scale, keyed by column mask as maximal_minors tabulates them."""

    __slots__ = ()


def flat_maxpos_from_C(C: Matrix) -> FlatMaxPositive:
    d = C.rows + 1
    N = C.cols
    if d - 1 > N:
        raise NotMaxPositive("C must have at least as many columns as rows")
    chi, scale = maximal_minors(C)
    for key, c in chi.items():
        if c <= 0:
            raise NotMaxPositive(f"non-positive maximal minor at columns "
                                 f"{_columns(key)}")
    # Suffix sums are a unimodular map of each row, so row i keeps its
    # multiplier C.den[i].
    rows = [list(accumulate(row[::-1]))[::-1] for row in C.num]
    rows.append([1] * N)
    return FlatMaxPositive(_integer_matrix(rows, C.den + [1]), C, chi, scale)


def flat_maxpos_from_network(net: GridNetwork) -> FlatMaxPositive:
    """FlatMaxPositive of a network with a unit last row: C is recovered
    from the path matrix A by first differences of consecutive columns of
    A's top rows (C's last column is A's). For d = 1, C is unused by the
    closed form and stays a zero placeholder with an empty minor table."""
    if not net.last_row_unit:
        raise ValueError("the network's last row needs unit weights")
    A = tp_from_network(net)
    # First differences are a unimodular map of each row, so row i keeps
    # its multiplier A.den[i].
    rows = [[a - b for a, b in zip(row, row[1:] + [0])]
            for row in A.num[:-1]]
    if not rows:
        return FlatMaxPositive(A, Matrix([[0] * net.N]), {}, 1)
    return flat_maxpos_from_C(_integer_matrix(rows, A.den[:-1]))


def minor_via_C(fmp: FlatMaxPositive, cols) -> Fraction:
    """Interleaved sum of C-minors equal to the selected maximal A-minor.

    The sum runs over j-tuples with i_1 <= j_1 < i_2 <= j_2 < ... < i_d;
    the C-minors are read from fmp's minor table, and the result is
    asserted equal to the direct determinant, the Bareiss determinant of
    the selected columns of A's integer rows over A's scale.
    """
    cols = list(cols)
    d = fmp.A.rows
    if len(cols) != d or sorted(cols) != cols:
        raise ValueError("need a strictly increasing d-subset of columns")
    if d == 1:
        total = Fraction(1)  # empty product over C-minors
    else:
        total = Fraction(sum(
            c for key, c in fmp.chi.items()
            if all(cols[r] <= j < cols[r + 1]
                   for r, j in enumerate(_columns(key)))),
            fmp.scale)
    direct = Fraction(bareiss_det([[row[c] for c in cols]
                                   for row in fmp.A.num]), fmp.A.scale)
    if total != direct:
        raise AssertionError("interleaving formula disagrees with determinant")
    return total


def ext_closed_form(basis, N) -> int:
    """Closed-form external semi-activity of an ordered basis when all
    maximal minors are positive: gaps before i_1, between i_2 and i_3,
    between i_4 and i_5, and so on (with sentinels 0 and N + 1)."""
    b = list(basis)
    if sorted(b) != b or len(set(b)) != len(b):
        raise ValueError("basis must be strictly increasing")
    if b and not (1 <= b[0] and b[-1] <= N):
        raise ValueError("basis elements must lie in 1..N")
    d = len(b)
    seq = [0] + b + [N + 1]
    total = 0
    k = 1
    while k <= d + 1:
        total += seq[k] - seq[k - 1] - 1
        k += 2
    return total


def f_tp_closed(fmp: FlatMaxPositive):
    """Explicit expansion of the basis polynomial as a positive combination
    of q-number products, one term per (d-1)-subset js of [N-1], weighted
    by the C-minor at columns js - 1.

    The polynomial is summed from the integer minors and each coefficient
    is divided by the table's scale once. The certificate carries every
    term's coefficient as a Fraction. Its expand() runs the same q-number
    combination on the same terms, so it is no second route; the minor
    table's f_poly_frac is.

    Returns (coefficients as Fractions, BoxCertificate).
    """
    d = fmp.A.rows
    N = fmp.A.cols
    if d == 1:
        terms = [((N,), 1)]
    else:
        terms = []
        for js in combinations(range(1, N), d - 1):
            comp = (js[0],) + tuple(js[r + 1] - js[r] for r in range(d - 2)) \
                + (N - js[-1],)
            terms.append((comp, fmp.chi[sum(1 << (j - 1) for j in js)]))
    cert = BoxCertificate(d, tuple((comp, Fraction(x, fmp.scale))
                                   for comp, x in terms))
    return [Fraction(a, fmp.scale) for a in _q_combination(terms)], cert
