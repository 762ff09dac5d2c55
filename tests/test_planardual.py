import math
import random

import pytest

from flatpoly import corpus, graphkit, ormatroid, planardual, polyshape
from flatpoly.graphkit import Digraph
from flatpoly.planardual import (DegenerateDual, MalformedRotation,
                                 PlaneGraph, alexander_poly,
                                 dual_plane_graph, dual_with_orientation,
                                 faces, is_alternating_dimap, normalized,
                                 plane_from_coords, seifert_poly)

from oracles import tree_count


def plane_c4():
    return corpus.plane_bipartite("C4")


def test_rotation_validation():
    D = Digraph(2, [(0, 1)])
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[(0, "tail")], []])           # head missing
    with pytest.raises(MalformedRotation):
        PlaneGraph(D, [[(0, "head")], [(0, "tail")]])  # ends swapped
    PlaneGraph(D, [[(0, "tail")], [(0, "head")]])    # valid


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
        [(0, "tail"), (2, "tail"), (1, "tail")],
        [(3, "tail"), (4, "tail"), (0, "head")],
        [(1, "head"), (5, "tail"), (3, "head")],
        [(2, "head"), (4, "head"), (5, "head")]])
    walks = faces(P)
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)


def cyclic(seq):
    """A cyclic order as the rotation of seq that starts at its minimum."""
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def float_rotation(P, coords, bends, v):
    """The rotation at v from float atan2 on the drawing."""
    x0, y0 = coords[v]

    def angle(ref):
        e, end = ref
        t, h = P.digraph.edges[e]
        x, y = bends.get(e, coords[h if end == "tail" else t])
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
    for name in ("C4", "C6", "K23", "grid2x3", "theta222"):
        P, part1 = corpus.plane_bipartite(name)
        res = dual_with_orientation(P, part1)
        assert is_alternating_dimap(dual_plane_graph(res))


def test_is_alternating_dimap_negative():
    D = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    # Rotation in,in,out,out at vertex 0: not alternating.
    rot0 = [(0, "tail"), (1, "tail"), (2, "head"), (3, "head")]
    rot1 = [(0, "head"), (1, "head"), (2, "tail"), (3, "tail")]
    P = PlaneGraph(D, [rot0, rot1])
    assert not is_alternating_dimap(P)


def test_is_alternating_dimap_odd_degree():
    P = plane_from_coords(2, [(0, 1)], [(0, 0), (1, 0)], part1=[0])
    assert not is_alternating_dimap(P)


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
        f_dual = normalized(ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.cographic_matrix(res.dual))))
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
        walks = res.face_walks
        for i in range(len(walks)):
            dropped_first = (walks[i],) + walks[:i] + walks[i + 1:]
            assert seifert_poly(dropped_first) == expected, (name, i)


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


def test_alexander_on_6x6_grid():
    # 60 edges: a tree scan would test C(60, 25) edge subsets. Both routes
    # are determinants, so this runs in well under a second.
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
    monkeypatch.setattr(planardual, "seifert_poly", lambda walks: [2])
    with pytest.raises(AssertionError, match="degree"):
        alexander_poly(*plane_c4())


def test_euler_formula_enforced():
    # Three parallel edges with the same cyclic order at both endpoints
    # embed on the torus, not the plane; the Euler check rejects them.
    D = Digraph(2, [(0, 1), (0, 1), (0, 1)])
    rot0 = [(0, "tail"), (1, "tail"), (2, "tail")]
    rot1 = [(0, "head"), (1, "head"), (2, "head")]
    P = PlaneGraph(D, [rot0, rot1])
    with pytest.raises(MalformedRotation):
        faces(P)
