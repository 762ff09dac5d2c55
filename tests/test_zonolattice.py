from fractions import Fraction

import pytest

from flatpoly import corpus, graphkit, ormatroid, zonolattice
from flatpoly.exactnum import Matrix
from flatpoly.polyshape import poly_shift, shape_report
from flatpoly.zonolattice import (AdmissibleVector, NotAdmissible,
                                  NotUnimodular, ZonotopeContext,
                                  bipartite_admissible_l,
                                  bipartite_graph_context, check_admissible,
                                  lattice_points, level_poly, tiling,
                                  trimmed_points, trimming_vertex)

from oracles import (max_epsilon, translated, trimmed_points_lp,
                     trimmed_zonotope_points, zonotope_membership)


def seg_ctx():
    return ZonotopeContext(Matrix([[1, 1]]))


def test_context_rejects_rational_entries():
    with pytest.raises(ValueError):
        ZonotopeContext(Matrix([[Fraction(1, 2)]]))


def test_tiling_segment():
    tiles = tiling(seg_ctx())
    assert [(t.basis, t.shift) for t in tiles] == [((0,), (0,)), ((1,), (1,))]


def test_tiling_identity():
    ctx = ZonotopeContext(Matrix.identity(2))
    tiles = tiling(ctx)
    assert len(tiles) == 1 and tiles[0].shift == (0, 0)


def test_tiling_c4_incidence():
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    tiles = tiling(ctx)
    assert len(tiles) == 4
    vols = sum(vol for _, vol in ormatroid.enumerate_bases(ctx.mctx))
    assert vols == 4


def test_lattice_points_segment():
    pts = lattice_points(seg_ctx())
    assert pts.points == ((0,), (1,), (2,))
    assert pts.levels == (0, 1, 2)


def test_lattice_points_square():
    ctx = ZonotopeContext(Matrix.identity(2))
    assert lattice_points(ctx).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_lattice_points_require_unimodular():
    ctx = ZonotopeContext(Matrix([[2, 1], [0, 1]]))
    assert not ctx.unimodular
    with pytest.raises(NotUnimodular):
        lattice_points(ctx)


def test_lattice_points_match_membership_lp():
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    pts = lattice_points(ctx)
    for p in pts.points:
        assert zonotope_membership(ctx, p)
    # A point outside is rejected.
    outside = tuple(x + 5 for x in pts.points[0])
    assert not zonotope_membership(ctx, outside)


def test_check_admissible_segment():
    ctx = seg_ctx()
    ok, bad = check_admissible(ctx, [1], 1)
    assert ok and bad is None
    ok, bad = check_admissible(ctx, [1], 0)
    assert not ok and bad is not None


def test_check_admissible_k12():
    # Star with center 0 and leaves 1, 2; netflows (1, 1, -2).
    # Center is vertex 0 (part 2), so l = (-2, 1, 1) in vertex order.
    ctx = bipartite_graph_context(3, [(1, 0), (2, 0)], [1, 2])
    ok, _ = check_admissible(ctx, [-2, 1, 1], 2)
    assert ok


def test_bipartite_admissible_l():
    adm = bipartite_admissible_l(4, [0, 2])
    assert adm.l == (1, 1, 1, -3) and adm.m == 2
    assert sum(adm.l) == 0
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    ok, _ = check_admissible(ctx, adm.l, adm.m)
    assert ok


def test_max_epsilon_and_trimming_segment():
    ctx = seg_ctx()
    assert max_epsilon(ctx, [2], [1]) == 0
    assert max_epsilon(ctx, [0], [1]) == 2
    tr = trimmed_points(ctx, AdmissibleVector((1,), 1))
    assert tr.points == ((0,), (1,))
    tr = trimmed_points(ctx, AdmissibleVector((-1,), 0))
    assert tr.points == ((1,), (2,))


def test_trimming_identity_square():
    ctx = ZonotopeContext(Matrix.identity(2))
    tr = trimmed_points(ctx, AdmissibleVector((1, -1), 1))
    assert tr.points == ((0, 1),)
    assert list(tr.points) == trimmed_points_lp(
        ctx, AdmissibleVector((1, -1), 1))


def test_trimming_rejects_inadmissible():
    ctx = seg_ctx()
    with pytest.raises(NotAdmissible):
        trimmed_points(ctx, AdmissibleVector((1,), 0))


def test_trimming_requires_unimodular():
    # (1, -1) is 1-admissible here, so the unimodularity check decides.
    ctx = ZonotopeContext(Matrix([[2, 1], [0, 1]]))
    with pytest.raises(NotUnimodular):
        trimmed_points(ctx, AdmissibleVector((1, -1), 1))


def test_trimmed_points_match_lp_oracle():
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        assert list(trimmed_points(ctx, adm).points) == \
            trimmed_points_lp(ctx, adm), name


def test_trimmed_points_match_membership_oracle():
    for name in ("C4", "C6", "K23", "theta222", "grid2x3", "C4-doubled",
                 "C4-one-double", "C4-two-doubles", "C6-one-double"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        tr = trimmed_points(ctx, adm)
        assert translated(n, part1, tr.points) == \
            trimmed_zonotope_points(n, edges, part1), name


def test_level_poly():
    tr = trimmed_points(seg_ctx(), AdmissibleVector((1,), 1))
    assert level_poly(tr) == ([1, 1], 0)
    empty = zonolattice.LatticePointSet((), ())
    assert level_poly(empty) == ([], 0)
    single = zonolattice.LatticePointSet(((3,),), (3,))
    assert level_poly(single) == ([0, 0, 0, 1], 0)


def test_level_identity_small_corpus():
    for name in ("C4", "C6", "K23", "grid2x3"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        levels, shift = level_poly(trimmed_points(ctx, adm))
        f = ormatroid.f_poly(ctx.mctx)
        assert shift == 0
        assert levels == poly_shift(f, ctx.d - adm.m)


def test_per_tile_unique_trimmed_point():
    # Distinct tiles give distinct trimming vertices, and together they are
    # exactly the points the LP keeps.
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    adm = bipartite_admissible_l(n, part1)
    tiles = tiling(ctx)
    verts = {trimming_vertex(ctx, tile, adm) for tile in tiles}
    assert len(verts) == len(tiles)
    assert sorted(verts) == trimmed_points_lp(ctx, adm)


def test_trimmed_zonotope_points_examples():
    assert len(trimmed_zonotope_points(2, [(0, 1)], [0])) == 1
    assert len(trimmed_zonotope_points(3, [(0, 1), (0, 2)], [0])) == 1
    assert len(trimmed_zonotope_points(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])) == 4


def test_volume_corollary():
    for name in ("C4", "K23", "theta222"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        tr = trimmed_points(ctx, adm)
        D = graphkit.standard_orientation(n, edges, part1)
        assert len(tr) == graphkit.tree_count(D)


def test_bipartite_f_poly_shape():
    for name in ("C4", "C6", "K23", "grid2x3", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        s = shape_report(ormatroid.f_poly(ctx.mctx))
        assert s.log_concave and s.no_internal_zeros and s.palindromic
