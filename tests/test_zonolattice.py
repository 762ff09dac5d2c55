import random
from fractions import Fraction

import pytest

from flatpoly import corpus, graphkit, ormatroid, zonolattice
from flatpoly.exactnum import Matrix, _columns
from flatpoly.polyshape import poly_shift, shape_report
from flatpoly.zonolattice import (AdmissibleVector, NotAdmissible,
                                  NotUnimodular, ZonotopeContext,
                                  basis_expansions, bipartite_admissible_l,
                                  bipartite_graph_context, incidence_point,
                                  level_poly, trimmed_points)

from oracles import (LatticePointSet, admissible_direction, check_admissible,
                     flat_witness, identity, lattice_points, max_epsilon,
                     rank, solve, tile_vertices, tiling, translated,
                     tree_count, trimmed_points_by_tiles, trimmed_points_lp,
                     trimmed_zonotope_points, trimming_vertex,
                     zonotope_membership)


def seg_ctx():
    return ZonotopeContext(Matrix([[1, 1]]))


def test_context_rejects_rational_entries():
    with pytest.raises(ValueError):
        ZonotopeContext(Matrix([[Fraction(1, 2)]]))


def test_tiling_segment():
    tiles = tiling(seg_ctx())
    assert [(t.basis, t.shift) for t in tiles] == [(0b01, (0,)), (0b10, (1,))]


def test_tiling_identity():
    ctx = ZonotopeContext(identity(2))
    tiles = tiling(ctx)
    assert len(tiles) == 1 and tiles[0].shift == (0, 0)


def test_tiling_c4_incidence():
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    tiles = tiling(ctx)
    assert len(tiles) == 4
    vols = sum(Fraction(abs(ctx.mctx.chi[B]), ctx.mctx.scale)
               for B in ormatroid.enumerate_bases(ctx.mctx))
    assert vols == 4


def test_lattice_points_segment():
    pts = lattice_points(seg_ctx())
    assert pts.points == ((0,), (1,), (2,))
    assert pts.levels == (0, 1, 2)


def test_lattice_points_square():
    ctx = ZonotopeContext(identity(2))
    assert lattice_points(ctx).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_lattice_points_require_unimodular():
    # The lattice point count is a field of trimmed_points, and (1, -1) is
    # 1-admissible here, so the walk reaches its unimodularity check.
    ctx = ZonotopeContext(Matrix([[2, 1], [0, 1]]))
    with pytest.raises(NotUnimodular):
        lattice_points(ctx)
    with pytest.raises(NotUnimodular):
        trimmed_points(ctx, AdmissibleVector((1, -1), 1))


def test_lattice_points_match_membership_lp():
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    ctx = bipartite_graph_context(n, edges, part1)
    pts = lattice_points(ctx)
    for p in pts.points:
        assert zonotope_membership(ctx.matrix, p)
    # A point outside is rejected.
    outside = tuple(x + 5 for x in pts.points[0])
    assert not zonotope_membership(ctx.matrix, outside)


def test_check_admissible_segment():
    ctx = seg_ctx()
    ok, bad = check_admissible(ctx, [1], 1)
    assert ok and bad is None
    ok, bad = check_admissible(ctx, [1], 0)
    assert not ok and bad is not None


def test_check_admissible_k12():
    # Star with center 0 and leaves 1, 2; netflows (1, 1, -2).
    # Center is vertex 0 (part 2), so l = (-2, 1, 1) in vertex order, and
    # (-2, 1) in graphic-matrix coordinates.
    ctx = bipartite_graph_context(3, [(1, 0), (2, 0)], [1, 2])
    ok, _ = check_admissible(ctx, [-2, 1], 2)
    assert ok


def test_bipartite_admissible_l():
    adm = bipartite_admissible_l(4, [0, 2])
    assert incidence_point(adm.l) == (1, 1, 1, -3) and adm.m == 2
    assert sum(incidence_point(adm.l)) == 0
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
    ctx = ZonotopeContext(identity(2))
    tr = trimmed_points(ctx, AdmissibleVector((1, -1), 1))
    assert tr.points == ((0, 1),)
    assert list(tr.points) == trimmed_points_lp(
        ctx, AdmissibleVector((1, -1), 1))


def test_trimming_rejects_inadmissible():
    ctx = seg_ctx()
    with pytest.raises(NotAdmissible):
        trimmed_points(ctx, AdmissibleVector((1,), 0))


def test_trimming_rejects_zero_coefficients():
    # +-(1, 1) is +- the middle column, so its expansion in a basis holding
    # that column has a zero, and no m makes it admissible. Apart from the
    # zeros, (1, 1) expands with no negative coefficient and (-1, -1) with
    # no positive one, so a zero read as either sign would pass.
    ctx = ZonotopeContext(Matrix([[1, 1, 1], [0, 1, 2]]))
    for l in ((1, 1), (-1, -1)):
        for m in (0, 1, 2):
            with pytest.raises(NotAdmissible):
                trimmed_points(ctx, AdmissibleVector(l, m))


def test_trimming_requires_unimodular():
    # (1, -1) is 1-admissible here, so the unimodularity check decides.
    # It runs after the walk, so an inadmissible direction is reported
    # first.
    ctx = ZonotopeContext(Matrix([[2, 1], [0, 1]]))
    with pytest.raises(NotUnimodular):
        trimmed_points(ctx, AdmissibleVector((1, -1), 1))
    with pytest.raises(NotAdmissible):
        trimmed_points(ctx, AdmissibleVector((1, -1), 0))


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
        assert translated(n, part1, map(incidence_point, tr.points)) == \
            trimmed_zonotope_points(n, edges, part1), name


def test_level_poly():
    tr = trimmed_points(seg_ctx(), AdmissibleVector((1,), 1))
    assert level_poly(tr) == ([1, 1], 0)
    empty = LatticePointSet((), ())
    assert level_poly(empty) == ([], 0)
    single = LatticePointSet(((3,),), (3,))
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
    expansions = {basis: nums
                  for basis, nums, _den in basis_expansions(ctx, adm.l)}
    verts = {trimming_vertex(ctx, tile, expansions[tile.basis])
             for tile in tiles}
    assert len(verts) == len(tiles)
    assert sorted(verts) == trimmed_points_lp(ctx, adm)


def test_trimming_expands_l_once(monkeypatch):
    # One expansion of l per call and one Ext read per basis: the
    # admissibility check, the Ext sum and the trimming vertex share a walk.
    expansions, ext_reads = [], []
    expand = zonolattice.basis_expansions
    ext_semiactivity = ormatroid.ext_semiactivity

    def counting_expand(ctx, l):
        expansions.append(l)
        return expand(ctx, l)

    def counting_ext(mctx, basis, rho):
        ext_reads.append(basis)
        return ext_semiactivity(mctx, basis, rho)

    monkeypatch.setattr(zonolattice, "basis_expansions", counting_expand)
    monkeypatch.setattr(ormatroid, "ext_semiactivity", counting_ext)
    for name in ("C4", "K23", "theta222", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        assert len(trimmed_points(ctx, adm)) == len(tiling(ctx)), name
        assert expansions == [adm.l], name
        assert ext_reads == list(ormatroid.enumerate_bases(ctx.mctx)), name
        expansions.clear()
        ext_reads.clear()


def test_trimmed_points_match_tile_oracle():
    # The one-walk trimming against a tiling and a second walk of
    # trimming vertices, on the corpus and on random plane bipartite graphs.
    graphs = [(name, (n, edges, part1)) for name, (n, edges, part1, _c, _b)
              in corpus.PLANE_BIPARTITE.items()]
    rng = random.Random(11)
    for i in range(40):
        P, part1 = corpus.random_plane_bipartite(rng)
        graphs.append((i, (P.digraph.n, P.digraph.edges, part1)))
    for name, (n, edges, part1) in graphs:
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        tr = trimmed_points(ctx, adm)
        assert (tr.points, tr.levels) == \
            trimmed_points_by_tiles(ctx, adm), name


def test_basis_expansions_match_solve():
    # Cramer ratios against one exact linear solve per basis, with an
    # integer and a rational direction.
    for name in ("C4", "K23", "theta222", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        rational = [Fraction(x, 2 + i % 3) for i, x in enumerate(adm.l)]
        entries = ctx.matrix.entries
        for l in (adm.l, rational):
            for basis, nums, den in basis_expansions(ctx, l):
                sub = Matrix([[row[b] for b in _columns(basis)]
                              for row in entries])
                assert den > 0 and all(type(n) is int for n in nums)
                alphas = [Fraction(n, den) for n in nums]
                assert alphas == solve(sub, l)[0], (name, basis)


def test_lattice_point_count_matches_point_set():
    # The internal-activity count of the trimming walk against the union
    # of all tile vertices, on the corpus and on random plane bipartite
    # graphs.
    graphs = [(name, (n, edges, part1)) for name, (n, edges, part1, _c, _b)
              in corpus.PLANE_BIPARTITE.items()]
    rng = random.Random(7)
    for i in range(40):
        P, part1 = corpus.random_plane_bipartite(rng)
        graphs.append((i, (P.digraph.n, P.digraph.edges, part1)))
    for name, (n, edges, part1) in graphs:
        ctx = bipartite_graph_context(n, edges, part1)
        tr = trimmed_points(ctx, bipartite_admissible_l(n, part1))
        vertices = {p for t in tiling(ctx) for p in tile_vertices(ctx, t)}
        assert tr.lattice_points == len(vertices), name


def test_zonotope_reads_bareiss_only_to_expand_l(monkeypatch):
    # Besides the elimination behind the matroid context, zonolattice
    # eliminates only to expand l in the first basis: one Gauss-Jordan of
    # [B0 | l] per expansion, none for the lattice point count or the
    # trimmed points.
    calls = []
    gauss_jordan = zonolattice._gauss_jordan

    def counting(rows):
        calls.append(len(rows))
        return gauss_jordan(rows)

    monkeypatch.setattr(zonolattice, "_gauss_jordan", counting)
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        ctx = bipartite_graph_context(n, edges, part1)
        assert calls == [], name
        adm = bipartite_admissible_l(n, part1)
        list(basis_expansions(ctx, adm.l))
        assert calls == [ctx.d], name
        calls.clear()
        trimmed_points(ctx, adm)
        assert calls == [ctx.d], name
        calls.clear()


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
        assert len(tr) == tree_count(D)


def test_bipartite_f_poly_shape():
    for name in ("C4", "C6", "K23", "grid2x3", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        s = shape_report(ormatroid.f_poly(ctx.mctx))
        assert s.log_concave and s.no_internal_zeros and s.palindromic


def outcome(build):
    """'ok', 'rank' or 'not flat', as a context constructor reports it."""
    try:
        build()
    except ormatroid.NotFlat:
        return "not flat"
    except ValueError:
        return "rank"
    return "ok"


def oracle_outcome(m):
    """The same verdict by Fraction row reduction: the rows must be
    independent, and some linear form must be 1 on every column."""
    if rank(m) != m.rows:
        return "rank"
    return "ok" if flat_witness(m) is not None else "not flat"


def stacked(m, row):
    return Matrix(m.entries + [row])


def test_context_checks_match_elimination_oracles(flat_corpus):
    # Full row rank and flatness (MatroidContext and ZonotopeContext), the
    # tile levels and the lattice point count (ZonotopeContext and
    # trimmed_points), each read from the minor table, against Fraction row
    # reduction and the tile vertex sets.
    rng = random.Random(7)
    seen, counted = set(), set()
    for name, m in flat_corpus:
        d, N = m.rows, m.cols
        entries = m.entries
        integral = all(x.denominator == 1 for row in entries for x in row)
        bumped = [row[:] for row in entries]
        bumped[rng.randrange(d)][rng.randrange(N)] += 1
        cases = [m, Matrix(bumped),                       # non-flat
                 stacked(m, [0] * N),                     # rank-deficient
                 stacked(m, [a + b for a, b in zip(entries[0],
                                                   entries[-1])])]
        for case in cases:
            got = outcome(lambda: ormatroid.MatroidContext(case))
            assert got == oracle_outcome(case), name
            seen.add(got)
            if integral:
                assert outcome(lambda: ZonotopeContext(case)) == got, name
                seen.add(("zonotope", got))
        if not integral:
            continue
        ctx = ZonotopeContext(m)
        h = flat_witness(m)
        # A tile's shift sums its Ext columns, so its level is their count.
        for t in tiling(ctx):
            assert t.ext == sum(a * x for a, x in zip(h, t.shift)), name
        # The count is a field of trimmed_points, which needs an admissible
        # direction: the bipartite one for graphs, else a searched one.
        kind, _, graph = name.partition(":")
        if kind == "graphic":
            n, _edges, part1, _c, _b = corpus.PLANE_BIPARTITE[graph]
            adm = bipartite_admissible_l(n, part1)
        else:
            adm = admissible_direction(ctx)
            assert adm is not None, name
        assert check_admissible(ctx, adm.l, adm.m)[0], name
        try:
            points = lattice_points(ctx)
        except NotUnimodular:
            with pytest.raises(NotUnimodular):
                trimmed_points(ctx, adm)
            continue
        assert trimmed_points(ctx, adm).lattice_points == len(points), name
        counted.add(kind)
    assert seen >= {"ok", "rank", "not flat", ("zonotope", "ok"),
                    ("zonotope", "rank"), ("zonotope", "not flat")}
    assert counted >= {"graphic", "cographic"}


def test_context_rejects_incidence_matrix():
    # The incidence matrix has rank n - 1 < n; graphs enter through
    # graphic_matrix.
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    D = graphkit.standard_orientation(n, edges, part1)
    with pytest.raises(ValueError, match="full row rank"):
        ZonotopeContext(graphkit.incidence_matrix(D))


def test_graphic_coordinates_on_random_graphs():
    # On random plane bipartite graphs, some with the dropped last vertex
    # in part 1: the lifted columns are the incidence columns, a trimmed
    # point's level is the part-1 sum of its incidence coordinates, and
    # the level identity holds.
    rng = random.Random(0)
    dropped_part1 = 0
    for i in range(40):
        P, part1 = corpus.random_plane_bipartite(rng)
        n, edges = P.digraph.n, P.digraph.edges
        dropped_part1 += (n - 1) in part1
        ctx = bipartite_graph_context(n, edges, part1)
        A = graphkit.incidence_matrix(
            graphkit.standard_orientation(n, edges, part1))
        assert [incidence_point(ctx.vectors[j]) for j in range(A.cols)] == \
            list(zip(*A.entries)), i
        adm = bipartite_admissible_l(n, part1)
        tr = trimmed_points(ctx, adm)
        h = flat_witness(ctx.matrix)
        for p, z in zip(tr.points, tr.levels):
            q = incidence_point(p)
            assert sum(q) == 0, i
            assert sum(a * x for a, x in zip(h, p)) == z == \
                sum(q[v] for v in part1), i
        levels, shift = level_poly(tr)
        assert shift == 0, i
        assert levels == poly_shift(ormatroid.f_poly(ctx.mctx),
                                    ctx.d - adm.m), i
    assert dropped_part1 > 0
