"""Zonotopes of integer matrices: trimming, levels and lattice points.

The matrix is flat and of full row rank, and everything is read from its
table of maximal minors in one walk over the bases, trimmed_points. Each
basis B gives one trimmed point, its tile shifted by its externally
semi-active columns plus the basis columns where a direction l expands
negatively, and adds 2^int(B) to the lattice point count; the walk also
checks that every |chi(B)| is 1. l is expanded once in the first basis,
and its expansion in every other basis follows from the table.
Every column lies on level 1, so a sum of k columns lies on level k. A
bipartite graph enters through its graphic matrix, the incidence matrix
without its last row; incidence_point lifts points to vertex coordinates.
"""

from __future__ import annotations

from collections import namedtuple

from . import graphkit, ormatroid
from .exactnum import (Matrix, _columns, _gauss_jordan, _integer_rows,
                       _swapped_minor)
from .polyshape import normalize


class NotUnimodular(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class ZonotopeContext:
    """A flat integer matrix of full row rank, its minor table and its
    columns as integer tuples (vectors)."""

    def __init__(self, matrix: Matrix):
        # Every row multiplier is 1 iff every entry is an integer.
        if matrix.scale != 1:
            raise ValueError("zonotope matrices must be integral")
        self.matrix = matrix
        self.mctx = ormatroid.MatroidContext(matrix)
        self.d = self.mctx.rank_d
        self.vectors = list(zip(*matrix.num))


class TrimmedPoints(namedtuple("TrimmedPoints",
                               "points levels lattice_points")):
    """Sorted integer tuples (points), the level of each point (levels,
    parallel to points), and the number of integer points of the whole
    zonotope (lattice_points). len() counts the points."""

    __slots__ = ()

    def __len__(self):
        return len(self.points)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, behind _replace, checks the field count
        # with len().
        return tuple.__new__(cls, iterable)


def basis_expansions(ctx: ZonotopeContext, l):
    """The coefficients of l, of ints or Fractions, in every basis: yields
    (basis key, numerators, denominator) in the order of enumerate_bases,
    the numerators integers in the order of the basis columns and the
    denominator positive and shared by them.

    l is expanded once in the first basis B0 by Cramer's rule, as
    l = sum_k a_k B0[k] with a_k = det(B0 with B0[k] -> l) / chi(B0): one
    elimination of [B0 | l] puts those determinants in its last column. By
    linearity chi(B, b_i -> l) = sum_k a_k chi(B, b_i -> B0[k]), where
    B0[k] = b_i gives chi(B) and any other B0[k] in B repeats a column and
    gives 0. The coefficient of b_i is chi(B, b_i -> l) / chi(B).
    """
    if len(l) != ctx.d:
        raise ValueError("direction length must equal row count")
    (l_int,), scale = _integer_rows([l])
    chi, b0 = ctx.mctx.chi, ctx.mctx.first_basis
    b0_cols = _columns(b0)
    _, m = _gauss_jordan([[ctx.vectors[b][i] for b in b0_cols] + [x]
                          for i, x in enumerate(l_int)])
    # Pairs (a_k * chi(B0) * scale, B0[k]) with a_k != 0.
    a = [(row[-1], c) for row, c in zip(m, b0_cols) if row[-1]]
    den0 = chi[b0] * scale
    for basis in ormatroid.enumerate_bases(ctx.mctx):
        cb = chi[basis]
        den = den0 * cb
        sign = 1 if den > 0 else -1
        nums = []
        for b in _columns(basis):
            num = 0
            for n, c in a:
                if c == b:
                    num += n * cb
                elif not basis >> c & 1:
                    num += n * _swapped_minor(chi, basis, b, c)
            nums.append(sign * num)
        yield basis, nums, sign * den


class AdmissibleVector(namedtuple("AdmissibleVector", "l m")):
    """A direction l whose expansion in every basis has m positive
    coefficients."""

    __slots__ = ()


def _last_part2_vertex(n_vertices, part1):
    # Walk down past part 1 rather than list part 2, which could be huge.
    part1 = set(part1)
    v = n_vertices - 1
    while v in part1:
        v -= 1
    if v < 0:
        raise ValueError("part 2 is empty")
    return v


def bipartite_graph_context(n_vertices, edges, part1):
    """ZonotopeContext of the standard orientation's graphic matrix.

    Every column is 1 on the part-1 coordinate sum of incidence_point, so
    levels sum the part-1 vertex coordinates.
    """
    D = graphkit.standard_orientation(n_vertices, edges, part1)
    # An empty part 2 leaves no admissible direction.
    _last_part2_vertex(n_vertices, part1)
    return ZonotopeContext(graphkit.graphic_matrix(D))


def bipartite_admissible_l(n_vertices, part1) -> AdmissibleVector:
    """m-admissible direction for the graphic matrix, m = |part1|: in
    incidence coordinates, 1 everywhere except -(n - 1) at the last part-2
    vertex, so it sums to zero; its last coordinate is dropped."""
    l = [1] * n_vertices
    l[_last_part2_vertex(n_vertices, part1)] = -(n_vertices - 1)
    return AdmissibleVector(tuple(l[:-1]), len(set(part1)))


def incidence_point(p):
    """A point of the graphic matrix's column span in incidence
    coordinates: every incidence column sums to zero, so the dropped last
    coordinate is minus the sum of the others."""
    return tuple(p) + (-sum(p),)


def trimmed_points(ctx: ZonotopeContext, adm: AdmissibleVector):
    """Integer points that can move a positive distance along l and stay
    inside, one per basis B, with their levels and the zonotope's lattice
    point count, from one walk over the basis expansions.

    l is m-admissible when every basis expansion of it has m positive and
    d - m negative coefficients. The walk checks that and sums each point:
    Ext(B) under LEX_ORDER, which shifts B's tile, and the basis columns
    with negative coefficients, which pick the tile's trimming vertex. Its
    level is the number of columns summed. A unimodular zonotope has one
    lattice point per independent set of columns (Stanley 1991), and by
    Crapo's activity expansion that is T(2, 1) = sum over bases B of
    2^int(B). A basis column b is internally active iff no smaller column
    j outside B can replace it, that is chi(B, b -> j) = 0. The matrix is
    unimodular iff every |chi(B)| is 1; NotUnimodular is raised after the
    walk, so NotAdmissible comes first.
    """
    chi, vectors, origin = ctx.mctx.chi, ctx.vectors, (0,) * ctx.d
    levels, count, unimodular = {}, 0, True
    for basis, nums, _den in basis_expansions(ctx, adm.l):
        cols = _columns(basis)
        # The denominator is positive, so the signs are the numerators'.
        negative = [b for n, b in zip(nums, cols) if n < 0]
        if 0 in nums or len(negative) != ctx.d - adm.m:
            raise NotAdmissible(f"direction fails at basis {cols}")
        ext, _ = ormatroid.ext_semiactivity(ctx.mctx, basis,
                                            ormatroid.LEX_ORDER)
        summed = ext + negative
        point = tuple(map(sum, zip(origin, *(vectors[j] for j in summed))))
        levels[point] = len(summed)
        internal = sum(not ormatroid._first_swap(chi, basis, b)
                       for b in cols)
        count += 2 ** internal
        unimodular = unimodular and chi[basis] in (1, -1)
    if not unimodular:
        raise NotUnimodular("trimming by tile vertices needs a unimodular "
                            "matrix")
    pts = sorted(levels)
    return TrimmedPoints(tuple(pts), tuple(levels[p] for p in pts), count)


def level_poly(points: TrimmedPoints):
    """Coefficient of t^z = number of points on level z.

    Returns (coefficients, shift) where shift is the amount added to every
    level to make the exponents nonnegative (0 when already nonnegative).
    """
    if not points.points:
        return [], 0
    lo = min(points.levels)
    shift = -lo if lo < 0 else 0
    out = [0] * (max(points.levels) + shift + 1)
    for z in points.levels:
        out[z + shift] += 1
    return normalize(out), shift
