import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from flatpoly import corpus, graphkit, ormatroid, planardual
from flatpoly.exactnum import maximal_minors
from flatpoly.graphkit import (Digraph, Disconnected, NotBipartite,
                               NotEulerian, _grow_trees, graphic_matrix,
                               incidence_matrix, is_semibalanced, p_poly,
                               p_poly_det, standard_orientation)

from oracles import (NotSpanningTree, apply, cographic_presentation, det,
                     eulerian_small, flat_witness, kernel_basis, p_poly_cuts,
                     spanning_trees, tree_cographic_matrix, tree_count,
                     tree_graphic_matrix)

# The worked five-vertex digraph used in the matrix-presentation figures:
# e1: 1->2, e2: 1->3, e3: 3->4, e4: 1->5, e5: 2->3, e6: 4->1, e7: 4->5
# (0-based below), spanning tree T = {e1, e2, e3, e4}.
FIG_D = Digraph(5, [(0, 1), (0, 2), (2, 3), (0, 4), (1, 2), (3, 0), (3, 4)])
FIG_T = (0, 1, 2, 3)


def ints(m):
    return [[int(x) for x in row] for row in m.entries]


def test_digraph_rejects_self_loops():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])


def test_spanning_trees_cycle():
    D = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(list(spanning_trees(D))) == 4


def test_spanning_trees_tree_input():
    D = Digraph(3, [(0, 1), (1, 2)])
    assert list(spanning_trees(D)) == [(0, 1)]


def test_spanning_trees_k4():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    D = Digraph(4, edges)
    trees = list(spanning_trees(D))
    assert len(trees) == 16 == tree_count(D)


def test_spanning_trees_disconnected():
    with pytest.raises(Disconnected):
        list(spanning_trees(Digraph(4, [(0, 1), (2, 3)])))


def test_incidence_single_edge():
    assert ints(incidence_matrix(Digraph(2, [(0, 1)]))) == [[1], [-1]]


def test_incidence_reversal_negates():
    D = Digraph(3, [(0, 1), (1, 2)])
    R = Digraph(3, [(1, 0), (2, 1)])
    a = incidence_matrix(D)
    b = incidence_matrix(R)
    assert ints(b) == [[-x for x in row] for row in ints(a)]


def test_incidence_figure():
    assert ints(incidence_matrix(FIG_D)) == [
        [1, 1, 0, 1, 0, -1, 0],
        [-1, 0, 0, 0, 1, 0, 0],
        [0, -1, 1, 0, -1, 0, 0],
        [0, 0, -1, 0, 0, 1, 1],
        [0, 0, 0, -1, 0, 0, -1],
    ]


def test_graphic_matrix_figure():
    assert ints(tree_graphic_matrix(FIG_D, FIG_T)) == [
        [1, 0, 0, 0, -1, 0, 0],
        [0, 1, 0, 0, 1, -1, -1],
        [0, 0, 1, 0, 0, -1, -1],
        [0, 0, 0, 1, 0, 0, 1],
    ]


def test_cographic_matrix_figure():
    assert ints(tree_cographic_matrix(FIG_D, FIG_T)) == [
        [1, -1, 0, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 1, 0],
        [0, 1, 1, -1, 0, 0, 1],
    ]


def test_graphic_matrix_is_reduced_incidence():
    assert ints(graphic_matrix(FIG_D)) == ints(incidence_matrix(FIG_D))[:-1]
    with pytest.raises(Disconnected, match="graph is not connected"):
        graphic_matrix(Digraph(4, [(0, 1), (2, 3)]))


def test_graphic_cographic_duality():
    # B = [K | I] with K = -M^T where A = [I | M].
    A = tree_graphic_matrix(FIG_D, FIG_T)
    B = tree_cographic_matrix(FIG_D, FIG_T)
    M = [row[4:7] for row in A.entries]
    K = [row[:4] for row in B.entries]
    minus_mt = [[-M[i][r] for i in range(4)] for r in range(3)]
    assert K == minus_mt
    # The presentations are orthogonal: every cycle row of the
    # cographic matrix is in the kernel of the reduced incidence matrix.
    for row in B.entries:
        assert all(x == 0 for x in apply(graphic_matrix(FIG_D), row))


def test_graphic_tree_only():
    D = Digraph(3, [(0, 1), (1, 2)])
    assert ints(tree_graphic_matrix(D, (0, 1))) == [[1, 0], [0, 1]]


def test_graphic_rejects_non_tree():
    with pytest.raises(NotSpanningTree):
        tree_graphic_matrix(FIG_D, (0, 1, 2))
    with pytest.raises(NotSpanningTree):
        tree_graphic_matrix(Digraph(3, [(0, 1), (1, 2), (2, 0)]), (0, 1, 2))


def test_cographic_directed_3cycle():
    D = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert ints(tree_cographic_matrix(D, (0, 1))) == [[1, 1, 1]]


def test_same_dependences_graphic_vs_incidence():
    A = tree_graphic_matrix(FIG_D, FIG_T)
    I = incidence_matrix(FIG_D)
    for v in kernel_basis(A):
        assert all(x == 0 for x in apply(I, v))
    for v in kernel_basis(I):
        assert all(x == 0 for x in apply(A, v))


def flat(m):
    """Flatness read from the minor table, checked against the oracle's
    row-reduced witness."""
    try:
        ormatroid.MatroidContext(m)
        ok = True
    except ormatroid.NotFlat:
        ok = False
    assert ok == (flat_witness(m) is not None)
    return ok


def test_flatness_characterizations():
    # Graphic matrix flat iff bipartite (with standard orientation).
    bip = standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])
    tree = next(spanning_trees(bip))
    assert flat(tree_graphic_matrix(bip, tree))
    assert flat(graphic_matrix(bip))
    odd = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    tree = next(spanning_trees(odd))
    assert not flat(tree_graphic_matrix(odd, tree))
    assert not flat(graphic_matrix(odd))
    # Cographic matrix flat iff Eulerian orientation.
    assert flat(tree_cographic_matrix(odd, tree))  # Eulerian
    non_euler = Digraph(3, [(0, 1), (2, 1), (0, 2)])
    tree2 = next(spanning_trees(non_euler))
    assert not flat(tree_cographic_matrix(non_euler, tree2))


def test_flatness_characterizations_on_corpus():
    # Graphic: flat iff the levels drop by one along every edge, which for
    # standard orientations means bipartite. Cographic: flat iff Eulerian;
    # reversing one edge of an Eulerian digraph unbalances two vertices.
    for n, edges, part1, _c, _b in corpus.PLANE_BIPARTITE.values():
        D = standard_orientation(n, edges, part1)
        assert flat(graphic_matrix(D))
        assert not flat(cographic_presentation(D))
    for D in eulerian_small(max_edges=5):
        assert flat(graphic_matrix(D)) == is_semibalanced(D)
        assert flat(cographic_presentation(D))
        (t, h), *rest = D.edges
        assert not flat(cographic_presentation(Digraph(D.n, [(h, t)] + rest)))


def test_p_poly_rejects_disconnected_or_bad_root():
    two_cycles = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    for route in (p_poly, p_poly_det):
        with pytest.raises(NotEulerian, match="^graph is not connected$"):
            route(two_cycles, 0)
        for r in (2, -1):
            with pytest.raises(ValueError,
                               match=rf"^root {r} is not a vertex \(0..1\)$"):
                route(Digraph(2, [(0, 1), (1, 0)]), r)


def test_p_poly_two_cycle():
    assert p_poly(Digraph(2, [(0, 1), (1, 0)]), 0) == [1, 1]


def test_p_poly_directed_3cycle():
    assert p_poly(Digraph(3, [(0, 1), (1, 2), (2, 0)]), 0) == [1, 1, 1]


def test_p_poly_doubled_two_cycle():
    D = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert p_poly(D, 0) == [2, 2]


def test_p_poly_root_independence():
    D = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (1, 0)])
    polys = {tuple(route(D, r)) for r in range(4)
             for route in (p_poly, _grow_trees, p_poly_det)}
    assert len(polys) == 1


def test_p_poly_grows_trees_from_a_minimum_degree_vertex(monkeypatch):
    # Whatever root is asked for, the search starts at the first vertex of
    # least degree, counting parallel edges.
    roots = []

    def record(D, r):
        roots.append(r)
        return _grow_trees(D, r)

    monkeypatch.setattr(graphkit, "_grow_trees", record)
    # Degrees 4, 4, 2, 4, 2: vertices 2 and 4 tie, and 2 comes first.
    D = Digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 4),
                    (4, 3), (3, 0)])
    for r in range(5):
        assert p_poly(D, r) == p_poly_det(D, r)
    assert roots == [2] * 5
    roots.clear()
    rng = random.Random(5)
    for _ in range(20):
        D = corpus.random_eulerian(rng, 14)
        degree = [sum(v in e for e in D.edges) for v in range(D.n)]
        r = rng.randrange(D.n)
        p_poly(D, r)
        assert roots.pop() == degree.index(min(degree)), (D, r)


def test_p_poly_tree_count():
    D = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    p = p_poly(D, 0)
    assert sum(p) == tree_count(D) == len(list(spanning_trees(D)))
    assert p_poly_det(D, 0) == p


def test_p_poly_rejects_non_eulerian():
    for route in (p_poly, p_poly_det):
        with pytest.raises(NotEulerian,
                           match="^in-degree != out-degree at some vertex$"):
            route(Digraph(3, [(0, 1), (1, 2)]), 0)


def test_p_poly_det_one_vertex():
    # The reduced Laplacian is 0 x 0, whose determinant is 1: one tree.
    assert p_poly_det(Digraph(1, []), 0) == p_poly(Digraph(1, []), 0) == [1]


def test_p_poly_det_matches_scan_on_larger_digraphs():
    # The tree search grown from every root, Tutte's determinant and the
    # cut oracle's subset scan at every root of 60 random Eulerian digraphs
    # with up to 14 edges, larger than the presentation corpus's.
    rng = random.Random(0)
    for _ in range(60):
        D = corpus.random_eulerian(rng, 14)
        p = p_poly(D, 0)
        for r in range(D.n):
            assert p == _grow_trees(D, r) == p_poly_det(D, r) \
                == p_poly_cuts(D, r), (D, r)


@st.composite
def cycle_unions(draw):
    """Eulerian multi-digraphs on 2-10 vertices: a directed cycle through
    every vertex and up to three more cycles, which repeat its edges or, as
    2-cycles, reverse them. At most 14 edges keep the oracle's scan short."""
    n = draw(st.integers(2, 10))
    cycles = [draw(st.permutations(range(n)))]
    budget = 14 - n
    for _ in range(draw(st.integers(0, 3))):
        if budget < 2:
            break
        length = draw(st.integers(2, min(n, budget)))
        cycles.append(draw(st.lists(st.integers(0, n - 1), min_size=length,
                                    max_size=length, unique=True)))
        budget -= length
    edges = [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    return Digraph(n, draw(st.permutations(edges)))


@settings(max_examples=100, deadline=None)
@given(cycle_unions())
def test_p_poly_matches_routes_on_cycle_unions(D):
    p = p_poly(D, 0)
    for r in range(D.n):
        assert p == _grow_trees(D, r) == p_poly_det(D, r) \
            == p_poly_cuts(D, r), (D, r)
    assert p == ormatroid.cographic_f_poly(graphic_matrix(D)) == \
        ormatroid.f_poly(ormatroid.MatroidContext(cographic_presentation(D)))


@st.composite
def bundled_cycle_unions(draw):
    """Eulerian multi-digraphs on 2-8 vertices with heavy bundles: a
    directed cycle through every vertex and up to two more cycles, each
    repeated 1-50 times. A repeated 2-cycle, or a cycle that reverses an
    edge of another, makes an antiparallel bundle."""
    n = draw(st.integers(2, 8))
    cycles = [draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 2))):
        length = draw(st.integers(2, n))
        cycles.append(draw(st.lists(st.integers(0, n - 1), min_size=length,
                                    max_size=length, unique=True)))
    edges = []
    for c in cycles:
        edges += [(c[i - 1], c[i]) for i in range(len(c))] \
            * draw(st.integers(1, 50))
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    return Digraph(n, edges)


@settings(max_examples=60, deadline=None)
@given(bundled_cycle_unions())
def test_p_poly_matches_routes_on_heavy_bundles(D):
    # The bundle weights c0 + c1 t and the packed digits of the search
    # grown from every root against the determinant, and against the
    # per-tree cut oracle where its subset scan is short; against the
    # cographic f and its cut presentation where their minor tables are
    # small.
    p = p_poly(D, 0)
    for r in range(D.n):
        assert p == _grow_trees(D, r) == p_poly_det(D, r), (D, r)
        if len(D.edges) <= 14:
            assert p == p_poly_cuts(D, r), (D, r)
    if comb(len(D.edges), D.n - 1) <= 5000:
        assert p == ormatroid.cographic_f_poly(graphic_matrix(D)) == \
            ormatroid.f_poly(
                ormatroid.MatroidContext(cographic_presentation(D))), D


def test_p_poly_work_follows_the_simple_graph():
    # A 6-cycle with every edge copied 200 times has 6 * 200^5 = 1.92e12
    # spanning trees, far past any search with one leaf per tree; the
    # simple graph underneath has six.
    D = Digraph(6, [(i, (i + 1) % 6) for i in range(6)] * 200)
    p = p_poly(D, 0)
    assert sum(p) == 6 * 200 ** 5 == 1_920_000_000_000
    assert p == p_poly_det(D, 0) == [200 ** 5] * 6


def test_p_poly_packing_width_on_long_cycles():
    # A directed n-cycle has P_D = 1 + t + ... + t^(n-1). Every bundle
    # points one way there, so the frame keeps its power of t apart and
    # its packed int stays short. With every edge tripled each of the n
    # trees of the simple graph carries 3^(n-1) trees of D, so the digits
    # are hundreds of bits wide and must still split exactly.
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]

    for n in (300, 600):
        assert p_poly(Digraph(n, cycle(n)), 0) == [1] * n
    assert p_poly(Digraph(300, cycle(300) * 3), 7) == [3 ** 299] * 300


def test_p_poly_work_follows_the_tree_count():
    # A 40-cycle with 20 more copies of (0, 1) and 20 of (1, 0) has 1,600
    # spanning trees among C(80, 39) ~ 1.05e23 edge subsets, so no subset
    # scan finishes within the per-test time limit; the tree search takes
    # a fraction of a second.
    D = Digraph(40, [(i, (i + 1) % 40) for i in range(40)]
                + [(0, 1)] * 20 + [(1, 0)] * 20)
    p = p_poly(D, 0)
    assert sum(p) == 1600
    assert p == p_poly_det(D, 0)


def test_p_poly_equals_cographic_f():
    E = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)])
    p = p_poly(E, 0)
    f = ormatroid.f_poly(ormatroid.MatroidContext(cographic_presentation(E)))
    assert p == f == ormatroid.cographic_f_poly(graphic_matrix(E))


def test_standard_orientation():
    D = standard_orientation(2, [(1, 0)], [0])
    assert D.edges == [(0, 1)]
    D = standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])
    assert D.edges == [(0, 1), (2, 1), (2, 3), (0, 3)]
    with pytest.raises(NotBipartite):
        standard_orientation(3, [(0, 1), (1, 2), (2, 0)], [0])


def test_is_semibalanced():
    bip = standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])
    assert is_semibalanced(bip)
    assert not is_semibalanced(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert is_semibalanced(Digraph(3, [(0, 1), (1, 2)]))


def test_total_unimodularity_spot_check():
    from itertools import combinations
    for B in (tree_cographic_matrix(FIG_D, FIG_T), graphic_matrix(FIG_D)):
        entries = B.entries
        for size in range(1, B.rows + 1):
            for rows in combinations(range(B.rows), size):
                for cols in combinations(range(B.cols), size):
                    assert det([[entries[i][j] for j in cols]
                                for i in rows]) in (-1, 0, 1)


def test_remark_tree_choice_invariance():
    D = standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])
    polys = set()
    for tree in spanning_trees(D):
        ctx = ormatroid.MatroidContext(tree_graphic_matrix(D, tree))
        polys.add(tuple(ormatroid.f_poly(ctx)))
    assert polys == {tuple(ormatroid.f_poly(
        ormatroid.MatroidContext(graphic_matrix(D))))}


@pytest.fixture(scope="module")
def presentation_corpus():
    """(digraph, is Eulerian) for the standard orientations of the plane
    bipartite corpus, their oriented duals, the small Eulerian digraphs and
    40 random Eulerian digraphs."""
    out = []
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        out.append((standard_orientation(n, edges, part1), False))
        P, _ = corpus.plane_bipartite(name)
        out.append((planardual.dual_with_orientation(P, part1).dual, True))
    out += [(D, True) for D in eulerian_small()]
    rng = random.Random(2024)
    out += [(corpus.random_eulerian(rng), True) for _ in range(40)]
    return out


def same_up_to_sign(A, B):
    (chi_a, scale_a), (chi_b, scale_b) = maximal_minors(A), maximal_minors(B)
    assert scale_a == scale_b == 1
    sign = 1 if chi_a == chi_b else -1
    return all(chi_a[key] == sign * c for key, c in chi_b.items())


def test_presentations_match_tree_references(presentation_corpus):
    # The reference uses the last spanning tree, so it differs from the
    # first-basis presentation whenever the graph has two trees.
    for D, _eulerian in presentation_corpus:
        tree = list(spanning_trees(D))[-1]
        assert same_up_to_sign(graphic_matrix(D),
                               tree_graphic_matrix(D, tree)), D


def test_f_poly_matches_tree_references(presentation_corpus):
    rng = random.Random(7)
    for D, eulerian in presentation_corpus:
        tree = list(spanning_trees(D))[-1]
        if eulerian:
            new = cographic_presentation(D)
            ref = tree_cographic_matrix(D, tree)
            assert ormatroid.cographic_f_poly(graphic_matrix(D)) == \
                ormatroid.f_poly(ormatroid.MatroidContext(ref)), D
        else:
            new, ref = graphic_matrix(D), tree_graphic_matrix(D, tree)
        ctx = ormatroid.MatroidContext(new)
        ref_ctx = ormatroid.MatroidContext(ref)
        assert ormatroid.f_poly_frac(ctx) == ormatroid.f_poly_frac(ref_ctx)
        for _ in range(3):
            rho, poly = ormatroid.sample_generic_rho(ctx, rng)
            assert ormatroid.f_poly_frac(ref_ctx, rho) == poly, D


def test_p_poly_matches_cut_oracle(presentation_corpus):
    # The tree search grown from every root, Tutte's determinant and the
    # cut oracle agree at every root, and P(1) is the Kirchhoff count of
    # undirected spanning trees.
    for D, eulerian in presentation_corpus:
        if eulerian:
            trees = tree_count(D)
            for r in range(D.n):
                p = p_poly_det(D, r)
                assert p == p_poly(D, r) == _grow_trees(D, r) \
                    == p_poly_cuts(D, r), (D, r)
                assert sum(p) == trees, (D, r)


def test_p_poly_is_palindromic(presentation_corpus):
    # Reversing every edge swaps the tree edges that point away from r
    # with those that point toward it, so t^(n-1) P_D(1/t) is P of the
    # reversed digraph. Its cographic matrix is the negated one, with the
    # same f, so by Theorem 5.3 it is P_D again. The constant term counts
    # the arborescences into r, of which a connected Eulerian digraph has
    # at least one, so the degree is n - 1.
    rng = random.Random(11)
    digraphs = [D for D, eulerian in presentation_corpus if eulerian]
    digraphs += [corpus.random_eulerian(rng, 14) for _ in range(100)]
    for D in digraphs:
        for r in range(D.n):
            for route in (p_poly, p_poly_det):
                p = route(D, r)
                assert len(p) == D.n and p == p[::-1], (D, r, route)
