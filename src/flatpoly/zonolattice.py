"""Zonotopes of integer matrices: semi-activity tiling, lattice points,
admissible directions, trimming, and level polynomials.

The matrix is flat and of full row rank. A bipartite graph enters through
its graphic matrix, the incidence matrix without its last row, and
incidence_point lifts a point back to vertex coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphkit, ormatroid
from .exactnum import Matrix, _integer_rows, bareiss_det, frac
from .polyshape import normalize


class NotUnimodular(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class ZonotopeContext:
    """A flat integer matrix of full row rank with its minor table.

    The level form is the linear form that is 1 on every column. By
    Cramer's rule on the first basis B, h_r = det(B with row r replaced by
    ones) / det(B); it is kept as integer numerators over chi(B).
    """

    def __init__(self, matrix: Matrix):
        for row in matrix.entries:
            for x in row:
                if x.denominator != 1:
                    raise ValueError("zonotope matrices must be integral")
        self.matrix = matrix
        self.mctx = ormatroid.MatroidContext(matrix)
        self.d = self.mctx.rank_d
        self._columns = [[int(x) for x in matrix.column(j)]
                         for j in range(matrix.cols)]
        chi, basis = self.mctx.chi, self.mctx.first_basis
        B = [[self._columns[b][r] for b in basis] for r in range(self.d)]
        ones = [1] * self.d
        self._level_nums = [bareiss_det(B[:r] + [ones] + B[r + 1:])
                            for r in range(self.d)]
        self._level_den = chi[basis]
        # The matrix is integral, so the table's scale is 1.
        self.unimodular = all(abs(c) <= 1 for c in chi.values())
        self._tiling = None

    def column(self, j):
        return list(self._columns[j])

    def level(self, point):
        val, rem = divmod(sum(h * x for h, x in
                              zip(self._level_nums, point, strict=True)),
                          self._level_den)
        if rem:
            raise ValueError("level functional is not integral on the point")
        return val


@dataclass(frozen=True)
class Tile:
    basis: tuple
    shift: tuple   # sum of externally semi-active columns

    def lattice_points(self, ctx: ZonotopeContext):
        """All 2^d vertices of the shifted parallelepiped (unimodular case)."""
        pts = [tuple(self.shift)]
        for b in self.basis:
            col = ctx.column(b)
            pts = [p for p in pts] + \
                  [tuple(x + c for x, c in zip(p, col)) for p in pts]
        return pts


def tiling(ctx: ZonotopeContext):
    """One shifted parallelepiped per basis, shifted by its externally
    semi-active columns under LEX_ORDER; together they tile the zonotope.

    Trimming and lattice enumeration share the tiling, so it is built once
    per context."""
    if ctx._tiling is not None:
        return ctx._tiling
    tiles = []
    for basis, _vol in ormatroid.enumerate_bases(ctx.mctx):
        ext, _ = ormatroid.ext_semiactivity(ctx.mctx, basis,
                                            ormatroid.LEX_ORDER)
        shift = [0] * ctx.d
        for j in ext:
            for i, c in enumerate(ctx.column(j)):
                shift[i] += c
        tiles.append(Tile(tuple(basis), tuple(shift)))
    ctx._tiling = tuple(tiles)
    return ctx._tiling


@dataclass(frozen=True)
class LatticePointSet:
    points: tuple          # sorted integer tuples
    levels: tuple          # level per point, parallel to points

    def __len__(self):
        return len(self.points)


def _point_set(ctx: ZonotopeContext, pts):
    pts = sorted(set(map(tuple, pts)))
    return LatticePointSet(tuple(pts), tuple(ctx.level(p) for p in pts))


def _tile_vertices(ctx: ZonotopeContext):
    """Integer points of the zonotope, as the union of tile vertex sets."""
    if not ctx.unimodular:
        raise NotUnimodular("lattice enumeration needs a unimodular matrix")
    return {p for tile in tiling(ctx) for p in tile.lattice_points(ctx)}


def lattice_points(ctx: ZonotopeContext):
    """Integer points of the zonotope with their levels."""
    return _point_set(ctx, _tile_vertices(ctx))


def lattice_point_count(ctx: ZonotopeContext) -> int:
    """Number of integer points of the zonotope, without their levels."""
    return len(_tile_vertices(ctx))


def basis_expansions(ctx: ZonotopeContext, l):
    """The coefficients of l in every basis, keyed by basis tuple.

    By Cramer's rule, the coefficient of basis[i] is the minor with l in
    place of column basis[i], over the basis minor from the context's
    minor table. The matrix has full row rank, so l is in the column span.
    """
    if len(l) != ctx.d:
        raise ValueError("direction length must equal row count")
    (l_int,), scale = _integer_rows([[frac(x) for x in l]])
    chi = ctx.mctx.chi
    out = {}
    for basis, _vol in ormatroid.enumerate_bases(ctx.mctx):
        B = [ctx._columns[b] for b in basis]
        nums = [bareiss_det(B[:i] + [l_int] + B[i + 1:])
                for i in range(len(B))]
        den = chi[basis] * scale
        out[basis] = [Fraction(n, den) for n in nums]
    return out


def _first_violation(ctx: ZonotopeContext, expansions, m):
    """The first basis whose expansion does not have exactly m positive
    and d - m negative coefficients, or None."""
    for basis, alphas in expansions.items():
        pos = sum(1 for a in alphas if a > 0)
        neg = sum(1 for a in alphas if a < 0)
        if pos != m or neg != ctx.d - m:
            return basis
    return None


def check_admissible(ctx: ZonotopeContext, l, m):
    """Definition check: every basis expansion of l has exactly m positive
    and d - m negative coefficients. Returns (True, None) or
    (False, first violating basis)."""
    bad = _first_violation(ctx, basis_expansions(ctx, l), m)
    return bad is None, bad


@dataclass(frozen=True)
class AdmissibleVector:
    l: tuple
    m: int


def _last_part2_vertex(n_vertices, part1):
    part1 = set(part1)
    part2 = [v for v in range(n_vertices) if v not in part1]
    if not part2:
        raise ValueError("part 2 is empty")
    return part2[-1]


def bipartite_graph_context(n_vertices, edges, part1):
    """ZonotopeContext of the standard orientation's graphic matrix.

    Every column is 1 on the part-1 coordinate sum of incidence_point, and
    the level form is the one linear form on the span that is 1 on every
    column, so levels sum the part-1 vertex coordinates.
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
    inside: the trimming vertex of each tile, one point per tile. The
    expansion of l in each basis is solved once, for both the admissibility
    check and the vertices."""
    expansions = basis_expansions(ctx, adm.l)
    bad = _first_violation(ctx, expansions, adm.m)
    if bad is not None:
        raise NotAdmissible(f"direction fails at basis {bad}")
    if not ctx.unimodular:
        raise NotUnimodular("trimming by tile vertices needs a unimodular "
                            "matrix")
    return _point_set(ctx, [trimming_vertex(ctx, tile, expansions[tile.basis])
                            for tile in tiling(ctx)])


def level_poly(points: LatticePointSet):
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


def trimming_vertex(ctx: ZonotopeContext, tile: Tile, alphas):
    """The unique trimmed point of a tile: its shift plus the basis columns
    carrying negative coefficients in alphas, the expansion of l in the
    tile's basis."""
    p = list(tile.shift)
    for a, b in zip(alphas, tile.basis):
        if a < 0:
            for i, c in enumerate(ctx.column(b)):
                p[i] += c
        elif a == 0:
            raise NotAdmissible("zero coefficient in basis expansion")
    return tuple(p)
