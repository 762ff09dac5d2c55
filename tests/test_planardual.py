import math
import random

import pytest

from flatpoly import (corpus, graphkit, ormatroid, planardual,
                      planarembed, polyshape)
from flatpoly.exactnum import pencil_det
from flatpoly.graphkit import Digraph
from flatpoly.planardual import (DegenerateDual, MalformedRotation,
                                 PlaneGraph, alexander_poly,
                                 dual_with_orientation, faces, normalized,
                                 plane_from_coords)

from conftest import K33, subdivided_k33
from oracles import (dual_plane_graph, is_alternating_dimap,
                     pencil_det_cofactor, poly_mul, seifert_matrix,
                     seifert_poly, tree_count)


def plane_c4():
    return corpus.plane_bipartite("C4")


def test_rotation_validation():
    # Dart 1 leaves vertex 0 along edge 0, dart 0 leaves vertex 1.
    D = Digraph(2, [(0, 1)])
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[1], []])            # dart 0 missing
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[0], [1]])           # darts swapped
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[1, 1], [0]])        # dart 1 twice
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[1], [0, 2]])        # no edge 1
    PlaneGraph(D, [[1], [0]])               # valid


@pytest.mark.parametrize("dart", [True, (0, "tail"), 1.0, "1"])
def test_rotation_rejects_non_int_dart(dart):
    with pytest.raises(MalformedRotation, match="bad dart"):
        PlaneGraph(Digraph(2, [(0, 1)]), [[dart], [0]])


def test_faces_c4():
    P, _ = plane_c4()
    walks = faces(P)
    assert len(walks) == 2
    assert sorted(len(w) for w in walks) == [4, 4]


def test_faces_k4():
    # K4 drawn at (0, 0), (20, 0), (10, 17) with vertex 3 inside at
    # (10, 6); rotations are counterclockwise.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    P = PlaneGraph(Digraph(4, edges), [
        [1, 5, 3],
        [7, 9, 0],
        [2, 11, 6],
        [4, 8, 10]])
    walks = faces(P)
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)
    # Each walk starts at its smallest dart, and the walks come in the
    # order of their first darts.
    assert [w[0] for w in walks] == sorted(min(w) for w in walks)
    assert sorted(d for w in walks for d in w) == list(range(12))


def test_faces_single_vertex():
    # A point is planar: one face, which no dart bounds.
    assert faces(PlaneGraph(Digraph(1, []), [[]])) == [[]]


def cyclic(seq):
    """A cyclic order as the rotation of seq that starts at its minimum."""
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def float_rotation(P, coords, bends, v):
    """The rotation at v from float atan2 on the drawing."""
    x0, y0 = coords[v]

    def angle(d):
        # The dart d leaves v toward the end of edge d // 2 at index d % 2.
        x, y = bends.get(d // 2, coords[P.digraph.edges[d // 2][d % 2]])
        return math.atan2(float(y - y0), float(x - x0))
    return sorted(P.rotations[v], key=angle)


def test_exact_rotations_match_float_angles():
    for name, (_n, _e, _p, coords, bends) in corpus.PLANE_BIPARTITE.items():
        P, _ = corpus.plane_bipartite(name)
        for v, rot in enumerate(P.rotations):
            assert cyclic(rot) == cyclic(
                float_rotation(P, coords, bends or {}, v)), (name, v)
    # A star whose rays include both axes and the diagonals, listed out of
    # order: the exact sort must agree with atan2 on the half-plane seams.
    tips = [(0, -1), (1, 1), (-1, 0), (1, 0), (-1, -1), (0, 1), (1, -1),
            (-1, 1)]
    P = plane_from_coords(9, [(0, i + 1) for i in range(8)],
                          [(0, 0)] + tips, part1=[0])
    assert P.rotations[0] == float_rotation(P, [(0, 0)] + tips, {}, 0)


def test_faces_single_edge():
    P = plane_from_coords(2, [(0, 1)], [(0, 0), (1, 0)], part1=[0])
    walks = faces(P)
    assert len(walks) == 1 and len(walks[0]) == 2


def test_dual_c4():
    P, part1 = plane_c4()
    res = dual_with_orientation(P, part1)
    assert res.dual.n == 2
    assert len(res.dual.edges) == 4
    # Alternating directions between the two faces.
    heads = [h for _t, h in res.dual.edges]
    assert len(set(heads)) == 2


def test_dual_bridge_rejected():
    P = plane_from_coords(2, [(0, 1)], [(0, 0), (1, 0)],
                          part1=[0])
    with pytest.raises(DegenerateDual):
        dual_with_orientation(P, [0])
    path = plane_from_coords(3, [(0, 1), (2, 1)],
                             [(0, 0), (1, 0), (2, 0)],
                             part1=[0, 2])
    with pytest.raises(DegenerateDual):
        dual_with_orientation(path, [0, 2])


def test_dual_requires_standard_orientation():
    P, part1 = plane_c4()
    with pytest.raises(graphkit.NotBipartite):
        dual_with_orientation(P, [1, 3])


def test_dual_is_alternating_dimap():
    for name in corpus.PLANE_BIPARTITE:
        P, part1 = corpus.plane_bipartite(name)
        res = dual_with_orientation(P, part1)
        dual_pg = dual_plane_graph(res.face_walks)
        assert dual_pg.digraph.edges == res.dual.edges, name
        assert is_alternating_dimap(dual_pg), name
        assert planardual._alternating(res.face_walks), name


def reoriented(P, flipped):
    """P with the edges in flipped reversed: their two darts trade."""
    edges = [(h, t) if e in flipped else (t, h)
             for e, (t, h) in enumerate(P.digraph.edges)]
    return PlaneGraph(Digraph(P.digraph.n, edges),
                      [[d ^ 1 if d // 2 in flipped else d for d in rot]
                       for rot in P.rotations])


def test_walk_parity_matches_dual_rotations():
    # The walk check in alexander_poly against the dual PlaneGraph's
    # rotations, on plane graphs whose edges run both ways: none, all,
    # one or a random set of edges reversed from part1 -> part2.
    rng = random.Random(7)
    graphs = [corpus.plane_bipartite(name)[0]
              for name in corpus.PLANE_BIPARTITE]
    graphs += [corpus.random_plane_bipartite(rng)[0] for _ in range(40)]
    seen = set()
    for P in graphs:
        m = len(P.digraph.edges)
        for flipped in (set(), set(range(m)), {rng.randrange(m)},
                        {e for e in range(m) if rng.random() < 0.5}):
            walks = faces(reoriented(P, flipped))
            alternates = planardual._alternating(walks)
            assert alternates == is_alternating_dimap(
                dual_plane_graph(walks)), (P.digraph.edges, flipped)
            seen.add(alternates)
    assert seen == {True, False}


def test_is_alternating_dimap_negative():
    D = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    # Rotation out,out,in,in at vertex 0: not alternating.
    P = PlaneGraph(D, [[1, 3, 4, 6], [0, 2, 5, 7]])
    assert not is_alternating_dimap(P)


def test_is_alternating_dimap_odd_degree():
    P = plane_from_coords(2, [(0, 1)], [(0, 0), (1, 0)], part1=[0])
    assert not is_alternating_dimap(P)


def test_alexander_checks_alternating_dual(monkeypatch):
    # A walk whose first two darts trade places no longer alternates.
    real = planardual.dual_with_orientation

    def swapped(P, part1):
        res = real(P, part1)
        (a, b, *rest), *others = res.face_walks
        return res._replace(face_walks=((b, a, *rest), *others))

    monkeypatch.setattr(planardual, "dual_with_orientation", swapped)
    with pytest.raises(AssertionError, match="alternating dimap"):
        alexander_poly(*plane_c4())


def test_normalized():
    assert normalized([0, 0, 2, 2]) == [2, 2]
    assert normalized([-1, -1]) == [1, 1]
    assert normalized([]) == []


def test_alexander_c4():
    P, part1 = plane_c4()
    assert alexander_poly(P, part1) == [2, 2]


def test_alexander_c6():
    P, part1 = corpus.plane_bipartite("C6")
    assert alexander_poly(P, part1) == [3, 3]


def test_alexander_bipartition_swap():
    n, edges, part1, coords, bends = corpus.PLANE_BIPARTITE["K23"]
    P1 = plane_from_coords(n, edges, coords, part1=part1, bends=bends)
    part2 = [v for v in range(n) if v not in part1]
    P2 = plane_from_coords(n, edges, coords, part1=part2, bends=bends)
    assert alexander_poly(P1, part1) == alexander_poly(P2, part2)


def test_alexander_coefficient_sum_is_tree_count():
    for name in ("C4", "grid2x3", "theta222", "K23"):
        P, part1 = corpus.plane_bipartite(name)
        poly = alexander_poly(P, part1)
        res = dual_with_orientation(P, part1)
        assert sum(poly) == tree_count(P.digraph) == tree_count(res.dual)


def test_duality_corollary():
    # f(graphic of primal) = f(cographic of dual dimap) = alexander.
    for name in ("C4", "C6", "K23", "C4-doubled"):
        P, part1 = corpus.plane_bipartite(name)
        f_primal = normalized(ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.graphic_matrix(P.digraph))))
        res = dual_with_orientation(P, part1)
        f_dual = normalized(ormatroid.cographic_f_poly(
            graphkit.graphic_matrix(res.dual)))
        assert f_primal == f_dual == alexander_poly(P, part1)


def primal_f(P):
    return normalized(ormatroid.f_poly(
        ormatroid.MatroidContext(graphkit.graphic_matrix(P.digraph))))


def murasugi_crowell_degree(P):
    return len(P.digraph.edges) - P.digraph.n + 1


def test_seifert_matches_primal_and_dual_for_every_dropped_face():
    for name in corpus.PLANE_BIPARTITE:
        P, part1 = corpus.plane_bipartite(name)
        res = dual_with_orientation(P, part1)
        expected = primal_f(P)
        assert normalized(graphkit.p_poly(res.dual, 0)) == expected, name
        assert len(expected) - 1 == murasugi_crowell_degree(P), name
        for i in range(len(res.face_walks)):
            assert seifert_poly(res.face_walks, i) == expected, (name, i)


def test_seifert_matches_primal_and_dual_on_random_graphs():
    rng = random.Random(0)
    for i in range(40):
        P, part1 = corpus.random_plane_bipartite(rng)
        res = dual_with_orientation(P, part1)
        seifert = seifert_poly(res.face_walks)
        assert seifert == primal_f(P) == \
            normalized(graphkit.p_poly(res.dual, 0)), i
        assert len(seifert) - 1 == murasugi_crowell_degree(P), i
        assert alexander_poly(P, part1) == seifert, i


def reduced_pencil(D, r):
    """The pencil (L0, L1) that p_poly_det hands to pencil_det for D at
    root r."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphkit, "pencil_det",
                   lambda A, B: seen.append((A, B)) or [1])
        graphkit.p_poly_det(D, r)
    (pencil,) = seen
    return pencil


def dual_pencils(graphs):
    """(graph index, face r, dual pencil at r, Seifert matrix without r)
    for every face of every graph."""
    for i, (P, part1) in enumerate(graphs):
        res = dual_with_orientation(P, part1)
        for r in range(res.dual.n):
            yield (i, r, reduced_pencil(res.dual, r),
                   seifert_matrix(res.face_walks, r))


def corpus_graphs():
    return [corpus.plane_bipartite(name) for name in corpus.PLANE_BIPARTITE]


def test_dual_laplacian_pencil_is_minus_seifert_pencil():
    # alexander_poly rests on this identity: every face has as many
    # outgoing as incoming dual edges, so at every face r the oriented
    # dual's out-degree Laplacian pencil reduced at r is (-V^T, -V), for
    # the Seifert matrix V on the other faces.
    rng = random.Random(5)
    graphs = corpus_graphs()
    graphs += [corpus.random_plane_bipartite(rng) for _ in range(100)]
    for i, r, (L0, L1), V in dual_pencils(graphs):
        assert L0 == [[-x for x in col] for col in zip(*V)], (i, r)
        assert L1 == [[-x for x in row] for row in V], (i, r)


def test_pencil_det_matches_cofactor_on_dual_pencils():
    # The evaluator alexander_poly uses, against first-row cofactor
    # expansion, on the dual pencils of the corpus at every face.
    for i, r, (L0, L1), _V in dual_pencils(corpus_graphs()):
        assert pencil_det(L0, L1) == pencil_det_cofactor(L0, L1), (i, r)


def test_alexander_on_6x6_grid():
    # 60 edges: a tree scan would test C(60, 25) edge subsets. The route is
    # one determinant of a 25 x 25 pencil, so this runs in well under a
    # second.
    n, edges, part1, coords, _b = corpus._grid(6, 6)
    P = planardual.plane_from_coords(n, edges, coords, part1)
    a = alexander_poly(P, part1)
    assert len(a) - 1 == murasugi_crowell_degree(P) == 25
    assert sum(a) == tree_count(P.digraph)
    shape = polyshape.shape_report(a)
    assert shape.trapezoidal and shape.log_concave


def test_random_plane_bipartite_is_seeded():
    def draw(seed):
        rng = random.Random(seed)
        return [corpus.random_plane_bipartite(rng) for _ in range(20)]
    first, again = draw(3), draw(3)
    assert [(P.digraph.edges, P.rotations, part1) for P, part1 in first] == \
        [(P.digraph.edges, P.rotations, part1) for P, part1 in again]
    # Parallel edges occur, so the bent copies are exercised.
    assert any(len(set(P.digraph.edges)) < len(P.digraph.edges)
               for P, _ in first)


def test_alexander_checks_murasugi_crowell_degree(monkeypatch):
    monkeypatch.setattr(graphkit, "p_poly_det", lambda D, r=0: [2])
    with pytest.raises(AssertionError, match="degree"):
        alexander_poly(*plane_c4())


def test_euler_formula_enforced():
    # Three parallel edges with the same cyclic order at both endpoints
    # embed on the torus, not the plane; the Euler check rejects them.
    D = Digraph(2, [(0, 1), (0, 1), (0, 1)])
    P = PlaneGraph(D, [[1, 3, 5], [0, 2, 4]])
    with pytest.raises(MalformedRotation):
        faces(P)


# ---------------------------------------------------------------------------
# graphic_f_poly: blocks, a computed embedding of each, and the dual's
# determinant, against the minor table.

def table_f(n, edges, part1):
    """The graphic f of a bipartite graph from its minor table."""
    D = graphkit.standard_orientation(n, edges, part1)
    return ormatroid.f_poly(
        ormatroid.MatroidContext(graphkit.graphic_matrix(D)))


def embedded_f(n, edges, part1):
    return planardual.graphic_f_poly(
        graphkit.standard_orientation(n, edges, part1))


def scrambled(rng, n, edges, part1):
    """The same bipartite graph with its vertices relabelled, its edges
    reordered and some of them written backwards."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.randint(0, 1) else (perm[v], perm[u])
             for u, v in edges]
    rng.shuffle(edges)
    return n, edges, [perm[v] for v in part1]


def test_graphic_f_matches_table_on_bare_plane_graphs():
    rng = random.Random(3)
    graphs = [corpus.plane_bipartite(name) for name in corpus.PLANE_BIPARTITE]
    graphs += [corpus.random_plane_bipartite(rng) for _ in range(60)]
    for P, part1 in graphs:
        # Only the graph goes in; its drawing's rotations are dropped.
        bare = scrambled(rng, P.digraph.n, P.digraph.edges, part1)
        assert embedded_f(*bare) == table_f(*bare) == \
            table_f(P.digraph.n, P.digraph.edges, part1)


def glue(g, h, at):
    """h's vertices renumbered after g's, with h's vertex at[1] identified
    with g's vertex at[0]; the parts are kept, so the two must agree."""
    n, edges, part1 = g
    m, h_edges, h_part1 = h
    others = [v for v in range(m) if v != at[1]]
    new = {v: n + i for i, v in enumerate(others)}
    new[at[1]] = at[0]
    assert (at[0] in part1) == (at[1] in h_part1)
    return (n + m - 1, edges + [(new[u], new[v]) for u, v in h_edges],
            sorted(set(part1) | {new[v] for v in h_part1}))


def bigraph(name):
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
    return n, edges, part1


def test_graphic_f_multiplies_over_glued_blocks():
    rng = random.Random(5)
    pendant = (2, [(0, 1)], [0])
    bundle = (2, [(0, 1), (1, 0), (0, 1)], [0])
    c6 = bigraph("C6-one-double")
    grid = glue(bigraph("grid2x3"), c6, (0, 2))
    cases = [
        (grid, [bigraph("grid2x3"), c6]),
        (glue(glue(bigraph("K23"), pendant, (2, 1)), pendant, (0, 0)),
         [bigraph("K23")]),
        (glue(bigraph("C4"), bundle, (1, 1)), [bigraph("C4"), bundle]),
        (glue(glue(grid, bundle, (3, 1)), pendant, (5, 1)),
         [bigraph("grid2x3"), c6, bundle]),
    ]
    for g, blocks in cases:
        expected = [1]
        for b in blocks:
            expected = poly_mul(expected, table_f(*b))
        for bare in (g, scrambled(rng, *g)):
            assert embedded_f(*bare) == table_f(*bare) == expected


def test_graphic_f_of_a_bundle_and_of_trees():
    assert embedded_f(2, [(0, 1)] * 4, [0]) == [1, 1, 1, 1]
    assert embedded_f(2, [(0, 1)], [1]) == [1]
    assert embedded_f(5, [(0, 1), (0, 2), (3, 1), (4, 2)], [0, 3, 4]) == [1]


def test_graphic_f_reads_the_table_only_for_non_planar_blocks(monkeypatch):
    cases = [(K33, [9]), (subdivided_k33(), [11]),
             (glue(K33, bigraph("C4"), (0, 0)), [9]),
             (glue(bigraph("C6-doubled"), bigraph("grid2x4"), (1, 1)), [])]
    expected = [table_f(*g) for g, _sizes in cases]
    real = ormatroid.f_poly
    sizes = []

    def recorded(ctx, *args):
        sizes.append(ctx.n_elements)
        return real(ctx, *args)

    monkeypatch.setattr(ormatroid, "f_poly", recorded)
    for (g, table_sizes), f in zip(cases, expected):
        sizes.clear()
        assert embedded_f(*g) == f
        assert sizes == table_sizes


def test_blocks_of_a_long_path_need_no_recursion():
    # One block per edge of a path far longer than the recursion limit,
    # with a 4-cycle at its far end.
    n = 5000
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n), (n, n + 1),
                                                  (n + 1, n - 2)]
    blocks = planarembed.blocks(n + 2, edges)
    assert sorted(map(len, blocks)) == [1] * (n - 2) + [4]
    part1 = list(range(0, n + 2, 2))
    assert embedded_f(n + 2, edges, part1) == [2, 2]


def test_graphic_f_on_grids():
    n, edges, part1, coords, _b = corpus._grid(4, 4)
    assert embedded_f(n, edges, part1) == [
        384, 2560, 8160, 16352, 22720, 22720, 16352, 8160, 2560, 384]
    # The drawn 8 x 8 grid's rotations are an embedding found
    # independently of the route's own.
    n, edges, part1, coords, _b = corpus._grid(8, 8)
    P = plane_from_coords(n, edges, coords, part1)
    drawn = graphkit.p_poly_det(dual_with_orientation(P, part1).dual, 0)
    assert embedded_f(n, edges, part1) == drawn


def test_graphic_f_checks_its_input():
    with pytest.raises(graphkit.Disconnected):
        planardual.graphic_f_poly(Digraph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="at least one row"):
        planardual.graphic_f_poly(Digraph(1, []))
    # Vertex 1 is a head and a tail: not a standard orientation.
    with pytest.raises(graphkit.NotBipartite):
        planardual.graphic_f_poly(Digraph(3, [(0, 1), (1, 2), (0, 2)]))
