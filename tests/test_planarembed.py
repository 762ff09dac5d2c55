import random

from flatpoly import corpus, graphkit, planarembed
from flatpoly.graphkit import Digraph
from flatpoly.planardual import faces

from conftest import K33, subdivided_k33


def test_embed_refuses_non_planar_graphs():
    n, edges, _part1 = K33
    assert planarembed.embed(Digraph(n, edges)) is None
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert planarembed.embed(Digraph(5, k5)) is None
    n, edges, _part1 = subdivided_k33()
    assert planarembed.embed(Digraph(n, edges)) is None


def random_planar_block(rng):
    """A 2-connected planar graph: a random triangulation, built by adding
    each vertex inside a random triangle, with about a quarter of its
    edges dropped, drawn again until what is left is one block."""
    while True:
        n = rng.randint(5, 9)
        triangles = [(0, 1, 2), (0, 2, 1)]
        edges = {(0, 1), (1, 2), (0, 2)}
        for v in range(3, n):
            a, b, c = triangles.pop(rng.randrange(len(triangles)))
            triangles += [(a, b, v), (b, c, v), (c, a, v)]
            edges |= {(a, v), (b, v), (c, v)}
        kept = [e for e in sorted(edges) if rng.random() < 0.75]
        D = Digraph(n, kept)
        if graphkit.is_connected(D) and len(planarembed.blocks(n, kept)) == 1:
            return D


def test_embed_finds_an_embedding_of_every_planar_block():
    # Here the order of path addition matters: a fragment that only one
    # face admits must go there before another takes that face.
    rng = random.Random(1)
    for _ in range(300):
        D = random_planar_block(rng)
        P = planarembed.embed(D)
        assert P is not None, D
        assert len(faces(P)) == len(D.edges) - D.n + 2


def test_embed_keeps_parallel_edges_together():
    # Edge i + 6 doubles edge i. Each bundle is consecutive at both ends,
    # in reverse order at one of them.
    P, _part1 = corpus.plane_bipartite("C6-doubled")
    E = planarembed.embed(P.digraph)
    assert len(faces(E)) == len(faces(P))
    for i in range(6):
        u, w = E.digraph.edges[i]
        at_u = [d >> 1 for d in E.rotations[u] if d >> 1 in (i, i + 6)]
        at_w = [d >> 1 for d in E.rotations[w] if d >> 1 in (i, i + 6)]
        assert at_u == at_w[::-1]
    for v, rot in enumerate(E.rotations):
        far = [E.digraph.edges[d >> 1][d & 1] for d in rot]
        assert sum(w != far[i - 1] for i, w in enumerate(far)) == 2, v
