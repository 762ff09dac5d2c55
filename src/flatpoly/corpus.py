"""Built-in test corpus: plane bipartite graphs with embeddings, Eulerian
digraphs, and generators for random plane bipartite graphs, Eulerian
digraphs and flat matrices.

The verify suites and the acceptance tests both draw on these instances;
every rng argument is a random.Random.
"""

from __future__ import annotations

from fractions import Fraction

from .graphkit import Digraph, _component


def _circle_points(k):
    """k rational points counterclockwise on the unit circle: the
    Pythagorean parametrization ((1 - s^2)/(1 + s^2), 2s/(1 + s^2)) at
    increasing s."""
    out = []
    for i in range(k):
        s = Fraction(2 * i - k + 1, 2)
        out.append(((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)))
    return out


def _cycle(k):
    """Even plane cycle on vertices 0..k-1, parts = parity classes."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    part1 = [i for i in range(k) if i % 2 == 0]
    return k, edges, part1, _circle_points(k), None


def _grid(rows, cols):
    """rows x cols grid graph; parts = checkerboard classes."""
    n = rows * cols
    vid = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    coords = [(c, -r) for r in range(rows) for c in range(cols)]
    part1 = [vid(r, c) for r in range(rows) for c in range(cols)
             if (r + c) % 2 == 0]
    return n, edges, part1, coords, None


def _theta(lengths):
    """Two hubs joined by internally disjoint paths of the given even
    lengths, drawn as stacked arcs of subdivision points."""
    assert all(l % 2 == 0 for l in lengths)
    u, v = 0, 1
    n = 2
    edges = []
    coords = [(-2, 0), (2, 0)]
    # The paths are even, so the vertices at even distance from u, the
    # hubs and every second subdivision vertex, form one colour class.
    part1 = [u, v]
    for pi, length in enumerate(lengths):
        y = len(lengths) - 1 - 2 * pi
        prev = u
        for s in range(length - 1):
            coords.append((Fraction(4 * (s + 1), length) - 2, y))
            edges.append((prev, n))
            if s % 2:
                part1.append(n)
            prev = n
            n += 1
        edges.append((prev, v))
    return n, edges, part1, coords, None


def _doubled_cycle(k, doubled):
    """Even cycle with the listed edge positions doubled; the extra copy
    bends outward, off the midpoint along the outer normal, so rotations
    stay planar."""
    coords = _circle_points(k)
    edges = [(i, (i + 1) % k) for i in range(k)]
    bends = {}
    for pos in doubled:
        (ax, ay), (bx, by) = coords[pos], coords[(pos + 1) % k]
        bends[len(edges)] = ((ax + bx + by - ay) / 2,
                             (ay + by + ax - bx) / 2)
        edges.append((pos, (pos + 1) % k))
    part1 = [i for i in range(k) if i % 2 == 0]
    return k, edges, part1, coords, bends


def _k23():
    n = 5
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    coords = [(-1, 0), (1, 0), (0, 1), (0, 0), (0, -1)]
    part1 = [0, 1]
    return n, edges, part1, coords, None


#: name -> (n, edges, part1, coords, bends); all connected, bridgeless,
#: plane, bipartite.
PLANE_BIPARTITE = {
    "C4": _cycle(4),
    "C6": _cycle(6),
    "C8": _cycle(8),
    "C10": _cycle(10),
    "grid2x3": _grid(2, 3),
    "grid2x4": _grid(2, 4),
    "theta222": _theta((2, 2, 2)),
    "theta224": _theta((2, 2, 4)),
    "theta244": _theta((2, 4, 4)),
    "K23": _k23(),
    "C4-doubled": _doubled_cycle(4, (0, 1, 2, 3)),
    "C4-one-double": _doubled_cycle(4, (0,)),
    "C4-two-doubles": _doubled_cycle(4, (0, 2)),
    "C6-one-double": _doubled_cycle(6, (0,)),
    "C6-doubled": _doubled_cycle(6, (0, 1, 2, 3, 4, 5)),
}


def plane_bipartite(name):
    from .planardual import plane_from_coords

    n, edges, part1, coords, bends = PLANE_BIPARTITE[name]
    P = plane_from_coords(n, edges, coords, part1=part1, bends=bends)
    return P, part1


def _bridgeless(edges):
    """True iff the edges form one connected graph in which every edge lies
    on a cycle: its endpoints stay connected without it."""
    ends = {v for e in edges for v in e}
    n = max(ends) + 1
    if _component(n, edges, min(ends)) != ends:
        return False
    return all(edges[i][1] in _component(n, edges[:i] + edges[i + 1:],
                                         edges[i][0])
               for i in range(len(edges)))


def random_plane_bipartite(rng):
    """Random connected, bridgeless plane bipartite graph: a subgraph of a
    grid of at most 3 x 4 vertices, with up to two edges doubled.

    Grid edges are dropped, each with probability 1/2 and in random order,
    while the rest stays connected and bridgeless. A doubled edge bends
    through a point a quarter off its midpoint, inside a grid cell, so
    nothing crosses it. The drawing is the grid under a random rational
    scale and shear, so coordinates are ints and Fractions, and either
    checkerboard class may be part 1.

    Returns (PlaneGraph, part1).
    """
    from .planardual import plane_from_coords

    rows, cols = rng.randint(2, 3), rng.randint(2, 4)
    _n, edges, _part1, coords, _b = _grid(rows, cols)
    order = list(range(len(edges)))
    rng.shuffle(order)
    kept = set(order)
    for i in order:
        if rng.randint(0, 1) and _bridgeless(
                [edges[j] for j in sorted(kept - {i})]):
            kept.discard(i)
    edges = [edges[j] for j in sorted(kept)]
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    shear = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    draw = lambda x, y: (scale * x + shear * y, y)
    bends = {}
    for i in rng.sample(range(len(edges)), rng.randint(0, 2)):
        u, v = edges[i]
        (ax, ay), (bx, by) = coords[u], coords[v]
        side = Fraction(rng.choice((-1, 1)), 4)
        bends[len(edges)] = draw(Fraction(ax + bx, 2) - side * (by - ay),
                                 Fraction(ay + by, 2) + side * (bx - ax))
        edges.append((u, v))
    used = sorted({v for e in edges for v in e})
    relabel = {v: i for i, v in enumerate(used)}
    parity = rng.randint(0, 1)
    part1 = [relabel[v] for v in used if sum(coords[v]) % 2 == parity]
    P = plane_from_coords(len(used),
                          [(relabel[u], relabel[v]) for u, v in edges],
                          [draw(*coords[v]) for v in used], part1=part1,
                          bends=bends)
    return P, part1


def random_eulerian(rng, max_edges=10):
    """Random connected Eulerian multi-digraph built from directed cycles
    through a shared vertex."""
    from .graphkit import is_connected

    while True:
        n = rng.randint(3, 5)
        edges = []
        while max_edges - len(edges) >= 2:
            length = rng.randint(2, min(n, max_edges - len(edges)))
            verts = [0] + rng.sample(range(1, n), length - 1)
            rng.shuffle(verts)
            for i in range(length):
                edges.append((verts[i], verts[(i + 1) % length]))
            if len(edges) >= rng.randint(4, max_edges):
                break
        used = sorted({v for e in edges for v in e})
        relabel = {v: i for i, v in enumerate(used)}
        D = Digraph(len(used), [(relabel[t], relabel[h]) for t, h in edges])
        if len(D.edges) <= max_edges and is_connected(D):
            return D


def random_flat_matrix(rng):
    """MatroidContext of a random integer flat matrix of full row rank:
    all-ones last row with small random integers above."""
    from .exactnum import Matrix
    from .ormatroid import MatroidContext

    d = rng.randint(2, 4)
    N = rng.randint(d + 1, d + 4)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(N)]
                for _ in range(d - 1)]
        rows.append([1] * N)
        try:
            return MatroidContext(Matrix(rows))
        except ValueError:
            # The all-ones row makes every draw flat, so this is the full
            # row rank check: draw again.
            continue


def random_semibalanced(rng):
    """Random connected leveled digraph: heads one level below tails.

    Returns a Digraph whose incidence matrix is flat (witnessed by the
    level functional).
    """
    from .graphkit import is_connected

    while True:
        n = rng.randint(3, 6)
        levels = [rng.randint(0, 2) for _ in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n)
                 if levels[a] == levels[b] + 1]
        if not pairs:
            continue
        m = rng.randint(n - 1, min(len(pairs) * 2, n + 4))
        edges = [rng.choice(pairs) for _ in range(m)]
        D = Digraph(n, edges)
        if is_connected(D):
            return D, levels
