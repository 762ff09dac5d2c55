"""Oriented matroids of matrix columns and external semi-activity.

The central computation: enumerate the bases of the column matroid of a
flat full-row-rank matrix, orient each fundamental circuit with a generic
vector, count externally semi-active elements, and assemble the
basis-volume generating polynomial. Everything is read from one table of
integer maximal minors (the chirotope, up to a positive scale): bases are
its nonzero entries, volumes its absolute values, and by Cramer's rule the
fundamental circuits are ratios of its entries. A basis is named by its
key in that table, the int mask sum of 2^c over its columns. The basis B
with column b replaced by column j in place has its minor at the key
B ^ (1 << b) | (1 << j), negated when an odd number of B's columns lie
strictly between b and j. cographic_f_poly reads the f of the Gale dual
from the same table, through the cocircuits of each basis.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (Matrix, _columns, _gauss_jordan, _integer_rows,
                       _minor_table)

#: Symbolic generic vector: orient every circuit so its minimal support
#: element lands in the positive part (the epsilon-power order).
LEX_ORDER = "lex"

RESAMPLE_LIMIT = 32


class NotGeneric(ValueError):
    """The supplied vector lies on a secondary-arrangement hyperplane."""


class NotFlat(ValueError):
    pass


class MatroidContext:
    """A flat matrix of full row rank with its table of maximal minors.

    Both conditions are read from one elimination at the first basis B0:
    full row rank means B0 exists, and flatness means the Cramer
    coefficients of every column in B0 sum to 1, that is every column of
    the elimination sums to chi(B0). The table is then filled from it.
    """

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.rank_d = matrix.rows
        self.scale = matrix.scale
        reduced = _gauss_jordan(matrix.num)
        if reduced is None:
            raise ValueError("matrix must have full row rank")
        basis, m = reduced
        if any(sum(col) != m[0][basis[0]] for col in zip(*m)):
            raise NotFlat("no linear form evaluates to 1 on every column")
        self.chi = _minor_table(basis, m)
        self.first_basis = sum(1 << b for b in basis)

    @property
    def n_elements(self):
        return self.matrix.cols


def enumerate_bases(ctx: MatroidContext):
    """Yield the key of every basis, the mask sum of 2^c over its columns,
    in the lexicographic order of the column tuples (exactnum._columns
    lists them); the volume of basis B is abs(ctx.chi[B]) / ctx.scale."""
    for cand, c in ctx.chi.items():
        if c != 0:
            yield cand


def ext_semiactivity(ctx: MatroidContext, basis, rho):
    """(Ext set, count): non-basis elements j in the positive part of their
    fundamental circuit, oriented by rho, for the basis with key basis.

    That circuit is sum_i X_i * column(b_i) - column(j) with
    X_i = chi(basis, b_i -> j) / chi(basis), where chi(basis, b_i -> j) is
    the entry at basis ^ (1 << b_i) | (1 << j), negated when an odd number
    of basis columns lie strictly between b_i and j. With k basis columns
    below j, that number is k - i - 1 for i < k and i - k otherwise.
    Under LEX_ORDER, j is active iff the circuit's smallest element is j
    or has X_i < 0, so the basis columns below j are read lowest first;
    for a vector rho, iff rho sees the circuit negatively, read from every
    basis column. rho orthogonal to a circuit raises NotGeneric.
    """
    chi = ctx.chi
    cb = chi.get(basis, 0)
    if cb == 0:
        raise ValueError("selected columns are not a basis")
    lex = rho == LEX_ORDER
    cols = None if lex else _columns(basis)
    below = []  # 1 << b for the basis columns b below j, lowest first
    ext = []
    for j in range(ctx.n_elements):
        bit = 1 << j
        if basis & bit:
            below.append(bit)
            continue
        key = basis | bit
        k = len(below)
        if lex:
            active = True
            for i, b in enumerate(below):
                c = chi[key ^ b]
                if c != 0:
                    active = (c * cb < 0) != (k - i - 1) % 2
                    break
        else:
            val = -rho[j] * cb
            for i, b in enumerate(cols):
                c = chi[key ^ (1 << b)] * rho[b]
                val += -c if (k - i - (i < k)) % 2 else c
            if val == 0:
                raise NotGeneric(f"rho is orthogonal to the fundamental "
                                 f"circuit of {j} in {cols}")
            active = val * cb < 0
        if active:
            ext.append(j)
    return ext, len(ext)


def f_poly_frac(ctx: MatroidContext, rho=LEX_ORDER):
    """Coefficient of t^k = total basis volume at external semi-activity k.

    The integer volumes |chi(B)| are summed per activity count and each
    sum is divided by the table's scale, so the coefficients are Fractions;
    use f_poly for the integer-coefficient form. A vector rho is cleared of
    its denominators first: a positive scale keeps the sign of every
    circuit value, so the same elements are active and the same bases
    raise NotGeneric.
    """
    if rho != LEX_ORDER:
        (rho,), _ = _integer_rows([rho])
    chi = ctx.chi
    coeffs = {}
    for basis in enumerate_bases(ctx):
        _, ext = ext_semiactivity(ctx, basis, rho)
        coeffs[ext] = coeffs.get(ext, 0) + abs(chi[basis])
    # A MatroidContext has a basis, and every volume is positive, so the
    # top coefficient is nonzero.
    return [Fraction(coeffs.get(k, 0), ctx.scale)
            for k in range(max(coeffs) + 1)]


def f_poly(ctx: MatroidContext, rho=LEX_ORDER):
    """Integer-coefficient basis-activity polynomial.

    Raises if a non-integer coefficient survives, which cannot happen for
    integer input matrices.
    """
    out = f_poly_frac(ctx, rho)
    if any(c.denominator != 1 for c in out):
        raise ValueError("non-integer coefficient; use f_poly_frac")
    return [int(c) for c in out]


def _first_swap(chi, basis, b):
    """chi(basis, b -> j) in place for the smallest column j < b outside
    basis where it is nonzero, or 0 if there is none; b is internally
    active iff it is 0. The sign is corrected by the number of basis
    columns strictly between j and b, counted down as j rises."""
    key, between = basis ^ (1 << b), (basis & ((1 << b) - 1)).bit_count()
    for j in range(b):
        if basis >> j & 1:
            between -= 1
        elif c := chi[key | 1 << j]:
            return -c if between & 1 else c
    return 0


def cographic_f_poly(A: Matrix):
    """f_poly of the Gale dual of A, a matrix of full row rank, under
    LEX_ORDER, read from A's own minor table; on graphkit.graphic_matrix(D)
    it is the f of D's cographic matroid, flat iff D is Eulerian.

    The dual's bases are the complements of A's bases B, and its
    fundamental circuit of b in B is A's fundamental cocircuit of b, with
    sign + at b and the sign of chi(B, b -> j) * chi(B) at j. So b is
    active iff _first_swap is 0 or has the sign of chi(B). The dual's
    first basis, the complement of A's first basis B0, gets volume 1, so
    B weighs |chi(B) / chi(B0)|; a non-integer coefficient raises.
    """
    reduced = _gauss_jordan(A.num)
    if reduced is None:
        raise ValueError("matrix must have full row rank")
    b0, m = reduced
    chi = _minor_table(b0, m)
    coeffs = {}
    for basis, cb in chi.items():
        if cb:
            ext = sum(s == 0 or (s > 0) == (cb > 0) for s in
                      (_first_swap(chi, basis, b) for b in _columns(basis)))
            coeffs[ext] = coeffs.get(ext, 0) + abs(cb)
    out = [divmod(coeffs.get(k, 0), abs(m[0][b0[0]]))
           for k in range(max(coeffs) + 1)]
    if any(r for _, r in out):
        raise ValueError("non-integer coefficient")
    return [q for q, _ in out]


def sample_generic_rho(ctx: MatroidContext, rng):
    """(rho, f_poly_frac(ctx, rho)) for a generic vector rho with
    small-denominator rational entries drawn by rng, a random.Random.

    f_poly_frac visits every basis, so it raises NotGeneric exactly when
    rho is not generic; one pass both checks the sample and computes its
    polynomial. Resamples on hyperplane hits, up to RESAMPLE_LIMIT attempts.
    """
    for _ in range(RESAMPLE_LIMIT):
        rho = [Fraction(rng.randint(-40, 40), rng.randint(1, 8))
               for _ in range(ctx.n_elements)]
        try:
            return rho, f_poly_frac(ctx, rho)
        except NotGeneric:
            pass
    raise NotGeneric("failed to sample a generic vector")
