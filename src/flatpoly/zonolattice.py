"""Zonotopes of integer matrices: semi-activity tiling, lattice points,
admissible directions, trimming, and level polynomials.

Ambient dimension k may exceed the rank d (incidence matrices); a fixed
row subset of full rank plays the role of projection coordinates, both for
basis volumes and for the Cramer expansions read from its minor table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphkit, ormatroid
from .exactnum import (Matrix, _integer_rows, _swapped_minor, bareiss_det, dot,
                       frac)
from .polyshape import normalize


class NotUnimodular(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class NotInSpan(ValueError):
    pass


class ZonotopeContext:
    """Integer matrix with a flatness witness and a projection row set.

    proj_rows defaults to all rows. The projected matrix must have full row
    rank; it defines the volume form and is the presentation for matroid
    computations. Every column must be, in all rows, the combination of
    the first basis that the projected rows give it, so the projected rows
    lose no rank. The witness defaults to the linear form that is 1 on the
    first basis, supported on the projected rows.
    """

    def __init__(self, matrix: Matrix, witness=None, proj_rows=None):
        for row in matrix.entries:
            for x in row:
                if x.denominator != 1:
                    raise ValueError("zonotope matrices must be integral")
        self.matrix = matrix
        self.k = matrix.rows
        self.proj_rows = list(range(self.k) if proj_rows is None
                              else proj_rows)
        self.projected = matrix.submatrix(self.proj_rows, range(matrix.cols))
        self.mctx = ormatroid.MatroidContext(self.projected)
        self.d = self.mctx.rank_d
        self._columns = [[int(x) for x in matrix.column(j)]
                         for j in range(matrix.cols)]
        chi, basis = self.mctx.chi, self.mctx.first_basis
        for j in range(matrix.cols):
            if j not in basis and not _combines_to(
                    self, basis,
                    [_swapped_minor(chi, basis, i, j)
                     for i in range(self.d)],
                    chi[basis], self._columns[j]):
                raise ValueError("projection rows do not have full rank")
        if witness is None:
            witness = self._cramer_witness(basis)
        self.witness = [frac(x) for x in witness]
        (w,), scale = _integer_rows([self.witness])
        if len(w) != self.k or any(
                sum(a * c for a, c in zip(w, col)) != scale
                for col in self._columns):
            raise ormatroid.NotFlat("witness does not certify flatness")
        self.unimodular = all(
            vol == 1 for _, vol in ormatroid.enumerate_bases(self.mctx))
        self._tiling = None

    def _cramer_witness(self, basis):
        """h with h(column b) = 1 for b in the basis, by Cramer's rule on the
        projected rows: h_r = det(B, row r replaced by ones) / det(B)."""
        B = [[self._columns[b][r] for b in basis] for r in self.proj_rows]
        ones = [1] * self.d
        h = [Fraction(0)] * self.k
        for i, r in enumerate(self.proj_rows):
            h[r] = Fraction(bareiss_det(B[:i] + [ones] + B[i + 1:]),
                            self.mctx.chi[basis])
        return h

    def column(self, j):
        return list(self._columns[j])

    def level(self, point):
        val = dot(self.witness, [frac(x) for x in point])
        if val.denominator != 1:
            raise ValueError("level functional is not integral on the point")
        return int(val)


def _combines_to(ctx: ZonotopeContext, basis, nums, den, v) -> bool:
    """True iff den * v equals sum_i nums[i] * column(basis[i]) in all k
    rows: whether v is the combination of the basis columns whose Cramer
    numerators over the basis minor den are nums."""
    cols = [ctx._columns[b] for b in basis]
    return all(den * v[r] == sum(n * c[r] for n, c in zip(nums, cols))
               for r in range(ctx.k))


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
        shift = [0] * ctx.k
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

    By Cramer's rule, the coefficient of basis[i] is the minor of the
    projected rows with l in place of column basis[i], over the basis
    minor from the context's minor table. l is in the column span iff its
    expansion in the first basis reproduces it in all rows.
    """
    if len(l) != ctx.k:
        raise ValueError("direction length must equal row count")
    (l_int,), scale = _integer_rows([[frac(x) for x in l]])
    l_col = [l_int[r] for r in ctx.proj_rows]
    cols = [[col[r] for r in ctx.proj_rows] for col in ctx._columns]
    chi = ctx.mctx.chi
    out = {}
    for basis, _vol in ormatroid.enumerate_bases(ctx.mctx):
        B = [cols[b] for b in basis]
        nums = [bareiss_det(B[:i] + [l_col] + B[i + 1:])
                for i in range(len(B))]
        if not out and not _combines_to(ctx, basis, nums, chi[basis], l_int):
            raise NotInSpan("vector outside the column span")
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
    """ZonotopeContext of the standard-orientation incidence matrix.

    Projection drops the last part-2 vertex coordinate; the flatness
    witness is the part-1 indicator, so levels sum the part-1 coordinates.
    """
    D = graphkit.standard_orientation(n_vertices, edges, part1)
    if not graphkit.is_connected(D):
        raise graphkit.Disconnected("graph must be connected")
    dropped = _last_part2_vertex(n_vertices, part1)
    A = graphkit.incidence_matrix(D)
    part1 = set(part1)
    witness = [Fraction(int(v in part1)) for v in range(n_vertices)]
    proj_rows = [v for v in range(n_vertices) if v != dropped]
    return ZonotopeContext(A, witness, proj_rows)


def bipartite_admissible_l(n_vertices, part1) -> AdmissibleVector:
    """Sum-zero integer vector: positive everywhere except one negative
    part-2 coordinate; m-admissible for the incidence matrix with
    m = |part1|."""
    l = [1] * n_vertices
    l[_last_part2_vertex(n_vertices, part1)] = -(n_vertices - 1)
    return AdmissibleVector(tuple(l), len(set(part1)))


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
