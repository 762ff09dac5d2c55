import random
from fractions import Fraction

import pytest

from flatpoly import corpus, graphkit, ormatroid, zonolattice
from flatpoly.exactnum import Matrix, dot
from flatpoly.polyshape import poly_shift, shape_report
from flatpoly.zonolattice import (AdmissibleVector, NotAdmissible,
                                  NotUnimodular, ZonotopeContext,
                                  basis_expansions, bipartite_admissible_l,
                                  bipartite_graph_context, check_admissible,
                                  lattice_point_count, lattice_points,
                                  level_poly, tiling,
                                  trimmed_points, trimming_vertex)

from oracles import (apply, flat_witness, max_epsilon, rank, solve,
                     translated, tree_count, trimmed_points_lp,
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
    expansions = basis_expansions(ctx, adm.l)
    verts = {trimming_vertex(ctx, tile, expansions[tile.basis])
             for tile in tiles}
    assert len(verts) == len(tiles)
    assert sorted(verts) == trimmed_points_lp(ctx, adm)


def test_trimming_expands_l_once(monkeypatch):
    # The admissibility check and the tile vertices read one expansion.
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["K23"]
    ctx = bipartite_graph_context(n, edges, part1)
    adm = bipartite_admissible_l(n, part1)
    calls = []
    expand = zonolattice.basis_expansions

    def counting(ctx, l):
        calls.append(l)
        return expand(ctx, l)

    monkeypatch.setattr(zonolattice, "basis_expansions", counting)
    assert len(trimmed_points(ctx, adm)) == len(tiling(ctx))
    assert calls == [adm.l]


def test_basis_expansions_match_solve():
    # Cramer ratios against one exact linear solve per basis, with an
    # integer and a rational direction.
    for name in ("C4", "K23", "theta222", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        rational = [Fraction(x, 2 + i % 3) for i, x in enumerate(adm.l)]
        rational[-1] -= sum(rational)   # back into the sum-zero span
        for l in (adm.l, rational):
            proj_l = [Fraction(l[i]) for i in ctx.proj_rows]
            for basis, alphas in basis_expansions(ctx, l).items():
                sub = ctx.projected.submatrix(range(ctx.d), basis)
                assert alphas == solve(sub, proj_l)[0], (name, basis)


def test_lattice_point_count_matches_point_set():
    for name in ("C4", "C6", "K23", "theta222", "C4-doubled"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = bipartite_graph_context(n, edges, part1)
        assert lattice_point_count(ctx) == len(lattice_points(ctx)), name


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


def oracle_outcome(m, proj_rows):
    """The same verdict by Fraction row reduction: the projected rows must
    be independent and carry the whole rank, and some linear form must be
    1 on every column."""
    if rank(m.submatrix(proj_rows, range(m.cols))) != len(proj_rows) or \
            rank(m) != len(proj_rows):
        return "rank"
    return "ok" if flat_witness(m) is not None else "not flat"


def stacked(m, row):
    return Matrix(m.entries + [row])


def test_context_checks_match_elimination_oracles(flat_corpus):
    # Full row rank and flatness (MatroidContext), span of the projected
    # rows, the default witness's levels and NotInSpan (ZonotopeContext),
    # each read from the minor table, against Fraction row reduction.
    rng = random.Random(7)
    seen = set()
    for name, m in flat_corpus:
        d, N = m.rows, m.cols
        rows = range(d)
        bumped = [row[:] for row in m.entries]
        bumped[rng.randrange(d)][rng.randrange(N)] += 1
        cases = [m, Matrix(bumped),                       # non-flat
                 stacked(m, [0] * N),                     # rank-deficient
                 stacked(m, [a + b for a, b in zip(m.entries[0],
                                                   m.entries[-1])])]
        for case in cases:
            got = outcome(lambda: ormatroid.MatroidContext(case))
            assert got == oracle_outcome(case, range(case.rows)), name
            seen.add(got)
        if any(x.denominator != 1 for row in m.entries for x in row):
            continue
        # k = d + 1 rows projected to the first d: the extra row is in the
        # row space (the last row doubled) or, mostly, outside it.
        for extra in ([2 * x for x in m.entries[-1]],
                      [rng.randint(-2, 2) for _ in range(N)]):
            big = stacked(m, extra)
            got = outcome(lambda: ZonotopeContext(big, proj_rows=rows))
            assert got == oracle_outcome(big, rows), name
            seen.add(("zonotope", got))
            if got != "ok":
                continue
            ctx = ZonotopeContext(big, proj_rows=rows)
            h = flat_witness(big)
            # Tile vertices: every lattice point when ctx is unimodular.
            for p in {p for t in tiling(ctx) for p in t.lattice_points(ctx)}:
                assert ctx.level(p) == dot(h, p), name
            for l in (apply(big, [rng.randint(-3, 3) for _ in range(N)]),
                      [rng.randint(-3, 3) for _ in range(d + 1)]):
                try:
                    basis_expansions(ctx, l)
                    inside = True
                except zonolattice.NotInSpan:
                    inside = False
                assert inside == (solve(big, l) is not None), name
                seen.add(("span", inside))
    assert seen >= {"ok", "rank", "not flat", ("zonotope", "ok"),
                    ("zonotope", "rank"), ("span", True), ("span", False)}


def test_supplied_witness_is_checked():
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["C4"]
    A = graphkit.incidence_matrix(
        graphkit.standard_orientation(n, edges, part1))
    rows = [0, 1, 2]
    part2 = [Fraction(int(v not in part1)) for v in range(n)]
    with pytest.raises(ormatroid.NotFlat):
        ZonotopeContext(A, part2, rows)       # -1 on every column
    with pytest.raises(ormatroid.NotFlat):
        ZonotopeContext(A, [1, 0, 1], rows)   # wrong length
    part1_ind = [Fraction(int(v in part1)) for v in range(n)]
    assert ZonotopeContext(A, part1_ind, rows).witness == part1_ind
