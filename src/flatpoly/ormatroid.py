"""Oriented matroids of matrix columns and external semi-activity.

The central computation: enumerate the bases of the column matroid of a
flat full-row-rank matrix, orient each fundamental circuit with a generic
vector, count externally semi-active elements, and assemble the
basis-volume generating polynomial. Everything is read from one table of
integer maximal minors (the chirotope, up to a positive scale): bases are
its nonzero entries, volumes its absolute values, and by Cramer's rule the
fundamental circuits are ratios of its entries.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

from .exactnum import Matrix, dot, flat_witness, maximal_minors
from .polyshape import normalize

#: Symbolic generic vector: orient every circuit so its minimal support
#: element lands in the positive part (the epsilon-power order).
LEX_ORDER = "lex"

RESAMPLE_LIMIT = 32


class NotGeneric(ValueError):
    """The supplied vector lies on a secondary-arrangement hyperplane."""


class NotFlat(ValueError):
    pass


class MatroidContext:
    """A flat matrix of full row rank together with its flatness witness."""

    def __init__(self, matrix: Matrix, witness=None):
        if matrix.rank() != matrix.rows:
            raise ValueError("matrix must have full row rank")
        if witness is None:
            witness = flat_witness(matrix)
            if witness is None:
                raise NotFlat("no linear form evaluates to 1 on every column")
        for j in range(matrix.cols):
            if dot(witness, matrix.column(j)) != 1:
                raise NotFlat("witness does not certify flatness")
        self.matrix = matrix
        self.witness = list(witness)
        self.rank_d = matrix.rows
        self._chi = None

    @property
    def n_elements(self):
        return self.matrix.cols


def minor_table(ctx: MatroidContext):
    """(chi, scale) of the context's matrix, computed once and cached: the
    integer maximal minors by sorted column tuple, and their common scale."""
    if ctx._chi is None:
        ctx._chi = maximal_minors(ctx.matrix)
    return ctx._chi


def enumerate_bases(ctx: MatroidContext):
    """Yield (basis tuple, |det| volume) in lexicographic order."""
    chi, scale = minor_table(ctx)
    for cand, c in chi.items():
        if c != 0:
            yield cand, Fraction(abs(c), scale)


def _swapped_minor(chi, basis, i, j):
    """chi of the basis with its i-th column replaced by column j, in place.

    By Cramer's rule, this over chi(basis) is the coefficient of basis[i]
    in the expansion of column j.
    """
    rest = basis[:i] + basis[i + 1:]
    p = bisect_left(rest, j)
    c = chi[rest[:p] + (j,) + rest[p:]]
    return -c if (p - i) % 2 else c


def ext_semiactivity(ctx: MatroidContext, basis, rho):
    """(Ext set, count): non-basis elements j in the positive part of their
    fundamental circuit, oriented by rho.

    That circuit is sum_i X_i * column(basis[i]) - column(j) with
    X_i = _swapped_minor(i, j) / chi(basis). Under LEX_ORDER, j is active
    iff the circuit's smallest element is j or has X_i < 0; for a vector
    rho, iff rho sees the circuit negatively. rho orthogonal to a circuit
    raises NotGeneric.
    """
    chi, _ = minor_table(ctx)
    basis = tuple(sorted(basis))
    cb = chi.get(basis, 0)
    if cb == 0:
        raise ValueError("selected columns are not a basis")
    lex = rho == LEX_ORDER
    ext = []
    for j in range(ctx.n_elements):
        if j in basis:
            continue
        if lex:
            active = True
            for i, b in enumerate(basis):
                if b > j:
                    break
                c = _swapped_minor(chi, basis, i, j)
                if c != 0:
                    active = c * cb < 0
                    break
        else:
            val = sum(_swapped_minor(chi, basis, i, j) * rho[b]
                      for i, b in enumerate(basis)) - rho[j] * cb
            if val == 0:
                raise NotGeneric(f"rho is orthogonal to the fundamental "
                                 f"circuit of {j} in {basis}")
            active = val * cb < 0
        if active:
            ext.append(j)
    return ext, len(ext)


def f_poly_frac(ctx: MatroidContext, rho=LEX_ORDER):
    """Coefficient of t^k = total basis volume at external semi-activity k.

    Coefficients are Fractions; use f_poly for the integer-coefficient form.
    """
    coeffs = {}
    for basis, vol in enumerate_bases(ctx):
        _, ext = ext_semiactivity(ctx, basis, rho)
        coeffs[ext] = coeffs.get(ext, Fraction(0)) + vol
    if not coeffs:
        return []
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return normalize(out)


def f_poly(ctx: MatroidContext, rho=LEX_ORDER):
    """Integer-coefficient basis-activity polynomial.

    Raises if a non-integer coefficient survives, which cannot happen for
    integer input matrices.
    """
    out = f_poly_frac(ctx, rho)
    if any(c.denominator != 1 for c in out):
        raise ValueError("non-integer coefficient; use f_poly_frac")
    return [int(c) for c in out]


def is_generic(ctx: MatroidContext, rho) -> bool:
    """True iff rho avoids every secondary-arrangement hyperplane, that is,
    is orthogonal to no circuit. Every circuit is the fundamental circuit
    of some basis, so checking those suffices."""
    if rho == LEX_ORDER:
        return True
    try:
        for basis, _vol in enumerate_bases(ctx):
            ext_semiactivity(ctx, basis, rho)
    except NotGeneric:
        return False
    return True


def sample_generic_rho(ctx: MatroidContext, rng: random.Random):
    """(rho, f_poly_frac(ctx, rho)) for a random generic vector rho with
    small-denominator rational entries.

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
