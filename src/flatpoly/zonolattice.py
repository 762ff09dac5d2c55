"""Zonotopes of integer matrices: semi-activity tiling, lattice points,
admissible directions, trimming, and level polynomials.

Ambient dimension k may exceed the rank d (incidence matrices); a fixed
row subset of full rank plays the role of projection coordinates, both for
basis volumes and for solving square systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphkit, ormatroid
from .exactnum import Matrix, dot, flat_witness, frac, independent_rows
from .polyshape import normalize


class NotUnimodular(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class NotInSpan(ValueError):
    pass


class ZonotopeContext:
    """Integer matrix with a flatness witness and a projection row set.

    proj_rows defaults to the lexicographically first row subset of full
    rank; the projected matrix defines the volume form and serves as the
    full-row-rank presentation for matroid computations.
    """

    def __init__(self, matrix: Matrix, witness=None, proj_rows=None):
        for row in matrix.entries:
            for x in row:
                if x.denominator != 1:
                    raise ValueError("zonotope matrices must be integral")
        self.matrix = matrix
        self.k = matrix.rows
        d = matrix.rank()
        self.d = d
        if proj_rows is None:
            proj_rows = independent_rows(matrix)
        self.proj_rows = list(proj_rows)
        self.projected = matrix.submatrix(self.proj_rows, range(matrix.cols))
        if self.projected.rank() != d:
            raise ValueError("projection rows do not have full rank")
        if witness is None:
            witness = flat_witness(matrix)
            if witness is None:
                raise ormatroid.NotFlat("matrix is not flat")
        self.witness = list(witness)
        self.mctx = ormatroid.MatroidContext(
            self.projected, flat_witness(self.projected))
        self.unimodular = all(
            vol == 1 for _, vol in ormatroid.enumerate_bases(self.mctx))

    def column(self, j):
        return [int(x) for x in self.matrix.column(j)]

    def level(self, point):
        val = dot(self.witness, [frac(x) for x in point])
        if val.denominator != 1:
            raise ValueError("level functional is not integral on the point")
        return int(val)


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


def tiling(ctx: ZonotopeContext, rho=ormatroid.LEX_ORDER):
    """One shifted parallelepiped per basis; together they tile the zonotope."""
    tiles = []
    for basis, _vol in ormatroid.enumerate_bases(ctx.mctx):
        ext, _ = ormatroid.ext_semiactivity(ctx.mctx, basis, rho)
        shift = [0] * ctx.k
        for j in ext:
            for i, c in enumerate(ctx.column(j)):
                shift[i] += c
        tiles.append(Tile(tuple(basis), tuple(shift)))
    return tiles


@dataclass(frozen=True)
class LatticePointSet:
    points: tuple          # sorted integer tuples
    levels: tuple          # level per point, parallel to points

    def __len__(self):
        return len(self.points)


def _point_set(ctx: ZonotopeContext, pts):
    pts = sorted(set(map(tuple, pts)))
    return LatticePointSet(tuple(pts), tuple(ctx.level(p) for p in pts))


def lattice_points(ctx: ZonotopeContext):
    """Integer points of the zonotope, as the union of tile vertex sets."""
    if not ctx.unimodular:
        raise NotUnimodular("lattice enumeration needs a unimodular matrix")
    pts = []
    for tile in tiling(ctx):
        pts.extend(tile.lattice_points(ctx))
    return _point_set(ctx, pts)


def _expand_in_basis(ctx: ZonotopeContext, basis, vec):
    """Coefficients of vec in the chosen basis columns, solved exactly."""
    sub = ctx.projected.submatrix(range(ctx.d), basis)
    proj_vec = [frac(vec[i]) for i in ctx.proj_rows]
    sol = sub.solve(proj_vec)
    if sol is None:
        raise NotInSpan("vector outside the column span")
    return sol[0]


def check_admissible(ctx: ZonotopeContext, l, m):
    """Definition check: every basis expansion of l has exactly m positive
    and d - m negative coefficients. Returns (True, None) or
    (False, first violating basis)."""
    full = ctx.matrix.solve([frac(x) for x in l])
    if full is None:
        raise NotInSpan("vector outside the column span")
    for basis, _vol in ormatroid.enumerate_bases(ctx.mctx):
        alphas = _expand_in_basis(ctx, basis, l)
        pos = sum(1 for a in alphas if a > 0)
        neg = sum(1 for a in alphas if a < 0)
        if pos != m or neg != ctx.d - m:
            return False, basis
    return True, None


@dataclass(frozen=True)
class AdmissibleVector:
    l: tuple
    m: int


def bipartite_graph_context(n_vertices, edges, part1):
    """ZonotopeContext of the standard-orientation incidence matrix.

    Projection drops the last part-2 vertex coordinate; the flatness
    witness is the part-1 indicator, so levels sum the part-1 coordinates.
    """
    D = graphkit.standard_orientation(n_vertices, edges, part1)
    if not graphkit.is_connected(D):
        raise graphkit.Disconnected("graph must be connected")
    A = graphkit.incidence_matrix(D)
    part1 = set(part1)
    part2 = [v for v in range(n_vertices) if v not in part1]
    witness = [Fraction(int(v in part1)) for v in range(n_vertices)]
    proj_rows = [v for v in range(n_vertices) if v != part2[-1]]
    return ZonotopeContext(A, witness, proj_rows)


def bipartite_admissible_l(n_vertices, part1) -> AdmissibleVector:
    """Sum-zero integer vector: positive everywhere except one negative
    part-2 coordinate; m-admissible for the incidence matrix with
    m = |part1|."""
    part1 = set(part1)
    part2 = [v for v in range(n_vertices) if v not in part1]
    if not part2:
        raise ValueError("part 2 is empty")
    l = [1] * n_vertices
    l[part2[-1]] = -(n_vertices - 1)
    return AdmissibleVector(tuple(l), len(part1))


def trimmed_points(ctx: ZonotopeContext, adm: AdmissibleVector):
    """Integer points that can move a positive distance along l and stay
    inside: the trimming vertex of each tile, one point per tile."""
    ok, bad = check_admissible(ctx, adm.l, adm.m)
    if not ok:
        raise NotAdmissible(f"direction fails at basis {bad}")
    if not ctx.unimodular:
        raise NotUnimodular("trimming by tile vertices needs a unimodular "
                            "matrix")
    return _point_set(ctx, [trimming_vertex(ctx, tile, adm)
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


def trimming_vertex(ctx: ZonotopeContext, tile: Tile, adm: AdmissibleVector):
    """The unique trimmed point of a tile: its shift plus the basis columns
    carrying negative coefficients in the expansion of l."""
    alphas = _expand_in_basis(ctx, tile.basis, adm.l)
    p = list(tile.shift)
    for a, b in zip(alphas, tile.basis):
        if a < 0:
            for i, c in enumerate(ctx.column(b)):
                p[i] += c
        elif a == 0:
            raise NotAdmissible("zero coefficient in basis expansion")
    return tuple(p)
