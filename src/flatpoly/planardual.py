"""Plane graphs via rotation systems, faces, the oriented planar dual, the
Alexander polynomial of a plane bipartite graph as the tree-reversal
polynomial of its oriented dual, and the graphic f of a bipartite graph
under its standard orientation, read the same way from a computed
embedding of each block.

A dart is an int: 2e + 1 runs edge e from its tail to its head, 2e runs
it back, and d ^ 1 reverses d. Each vertex stores the counterclockwise
cyclic order of the darts that leave it (a combinatorial map, Edmonds
1960).

graphic_f_poly splits the graph into blocks and embeds each block with
planarembed, which only it loads. Only a block with no plane embedding
reads the minor table, through ormatroid, which is loaded for that block
alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key

from . import graphkit
from .graphkit import Digraph, NotBipartite
from .polyshape import normalize


class MalformedRotation(ValueError):
    pass


class DegenerateDual(ValueError):
    """A bridge in the primal would give the dual a self-loop."""


class PlaneGraph:
    __slots__ = ("digraph", "rotations")

    def __init__(self, digraph: Digraph, rotations):
        rotations = [list(r) for r in rotations]
        if len(rotations) != digraph.n:
            raise MalformedRotation("one rotation per vertex required")
        seen = [False] * (2 * len(digraph.edges))
        for v, rot in enumerate(rotations):
            for d in rot:
                if type(d) is not int or not 0 <= d < len(seen):
                    raise MalformedRotation(f"bad dart {d!r}")
                if digraph.edges[d >> 1][1 - (d & 1)] != v:
                    raise MalformedRotation(
                        f"dart {d} of edge {d >> 1} listed at wrong "
                        f"vertex {v}")
                seen[d] = True
        if not all(seen) or sum(map(len, rotations)) != len(seen):
            raise MalformedRotation("each dart must appear exactly once")
        self.digraph = digraph
        self.rotations = rotations


def faces(P: PlaneGraph):
    """Face boundary walks; every dart is used exactly once overall, and
    each walk starts at its smallest dart. The dart after d on a walk
    follows d ^ 1 counterclockwise at d's target. A single vertex has one
    face, which no dart bounds."""
    if not graphkit.is_connected(P.digraph):
        raise graphkit.Disconnected("plane graph must be connected")
    after = [0] * (2 * len(P.digraph.edges))
    for rot in P.rotations:
        for i, d in enumerate(rot):
            after[rot[i - 1]] = d
    seen = [False] * len(after)
    walks = []
    for start in range(len(after)):
        walk = []
        d = start
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = after[d ^ 1]
        if walk:
            walks.append(walk)
    walks = walks or [[]]
    euler = P.digraph.n - len(P.digraph.edges) + len(walks)
    if euler != 2:
        raise MalformedRotation(
            f"rotation system is not planar: Euler characteristic {euler}")
    return walks


class DualResult(namedtuple("DualResult", "dual face_walks")):
    """dual: a Digraph whose edge e crosses primal edge e; face_walks: the
    primal face walks, dual vertex i being face i."""

    __slots__ = ()


def dual_with_orientation(P: PlaneGraph, part1) -> DualResult:
    """Oriented planar dual of a plane bipartite graph.

    The primal must carry the part1 -> part2 orientation. Each dual edge
    crosses its primal edge, directed from the face holding the dart 2e
    to the face holding the dart 2e + 1. A face's walk is its dual
    vertex's rotation, up to reversing each dart, so alexander_poly checks
    that the dual is an alternating dimap on the walks before it takes the
    dual's tree-reversal polynomial.
    """
    part1 = set(part1)
    for t, h in P.digraph.edges:
        if t not in part1 or h in part1:
            raise NotBipartite("edges must run from part1 to part2")
    walks = faces(P)
    face_of = _face_of(walks)
    dual_edges = list(zip(face_of[::2], face_of[1::2]))
    for e, (left, right) in enumerate(dual_edges):
        if left == right:
            raise DegenerateDual(
                f"edge {e} is a bridge; its dual would be a self-loop")
    dual = Digraph(len(walks), dual_edges)
    return DualResult(dual, tuple(tuple(w) for w in walks))


def _face_of(walks):
    """The index of the walk that holds each dart, by dart."""
    face_of = [0] * sum(map(len, walks))
    for f, walk in enumerate(walks):
        for d in walk:
            face_of[d] = f
    return face_of


def normalized(coeffs):
    """Representative up to +-t^k: nonnegative, nonzero constant term."""
    coeffs = normalize(coeffs)
    if not coeffs:
        return []
    first = next(i for i, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[first:]
    if sum(coeffs) < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def alexander_poly(P: PlaneGraph, part1):
    """Alexander polynomial (evaluated at -t, normalized) of the special
    alternating link of a plane bipartite graph, the link's Seifert graph
    (Seifert circles are vertices, crossings are edges).

    All faces but face 0 give a basis of the Seifert surface's first
    homology. Its Seifert matrix V has V[f][f] = -len(f)/2, plus 1 at
    V[a][b] per edge whose dart 2e + 1 is in face a and 2e in face b
    (Seifert 1934). Every face has len(f)/2 outgoing and len(f)/2 incoming
    dual edges, so the dual's out-degree Laplacian pencil reduced at face
    0 is L0 + t L1 = -(V^T + tV), and one determinant, p_poly_det of the
    dual at root 0, gives det(V + tV^T) up to sign. No tree is enumerated.

    The oriented dual must be an alternating dimap: a dual vertex's
    rotation is its face walk with each dart reversed, so every walk must
    alternate dart parity. The degree must be |E| - |V| + 1 (Murasugi and
    Crowell: the Seifert surface of a reduced alternating diagram has
    minimal genus).
    """
    poly = normalized(_dual_pd(P, part1))
    degree = len(P.digraph.edges) - P.digraph.n + 1
    if len(poly) - 1 != degree:
        raise AssertionError(
            f"dual determinant has degree {len(poly) - 1}, "
            f"not |E| - |V| + 1 = {degree}")
    return poly


def _dual_pd(P: PlaneGraph, part1):
    """P_D of P's oriented dual at face 0, once the dual is checked to be
    an alternating dimap."""
    res = dual_with_orientation(P, part1)
    if not _alternating(res.face_walks):
        raise AssertionError("dual orientation is not an alternating dimap")
    return graphkit.p_poly_det(res.dual, 0)


def _alternating(face_walks):
    """True iff every walk alternates odd and even darts, cyclically."""
    return all((walk[i - 1] ^ d) & 1
               for walk in face_walks for i, d in enumerate(walk))


def _half(x, y):
    """0 for directions at angles in (-pi, 0], 1 for angles in (0, pi]."""
    return 0 if y < 0 or (y == 0 and x > 0) else 1


def _ccw_cmp(u, v):
    """Order directions by angle in (-pi, pi]: by half-plane, then by the
    sign of the cross product, which within a half-plane is exact."""
    hu, hv = _half(*u), _half(*v)
    if hu != hv:
        return hu - hv
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def plane_from_coords(n_vertices, edges, coords, part1, bends=None):
    """Build a plane graph from a drawing with straight or singly-bent edges,
    its edges directed from part1 to part 2.

    Coordinates are ints or Fractions. Rotations sort incident edges
    counterclockwise by the direction of their initial segment, exactly.
    bends, when given, maps edge index to an interior waypoint, which lets
    parallel edges coexist.
    """
    D = graphkit.standard_orientation(n_vertices, edges, part1)
    bends = bends or {}
    incident = [[] for _ in range(n_vertices)]
    for i, (t, h) in enumerate(D.edges):
        toward_h = bends.get(i, coords[h])
        toward_t = bends.get(i, coords[t])
        incident[t].append((2 * i + 1, toward_h))
        incident[h].append((2 * i, toward_t))
    key = cmp_to_key(_ccw_cmp)
    rotations = []
    for v in range(n_vertices):
        x0, y0 = coords[v]
        rot = sorted(incident[v],
                     key=lambda item: key((item[1][0] - x0, item[1][1] - y0)))
        rotations.append([d for (d, _c) in rot])
    return PlaneGraph(D, rotations)


def graphic_f_poly(D: Digraph):
    """f of D's graphic matroid under LEX_ORDER, for the standard
    orientation D of a connected bipartite graph: every vertex is a tail
    only or a head only, and the tails are part 1.

    The graphic matroid is the direct sum of its blocks' matroids, so f is
    the product of the blocks' f. A bridge contributes [1]. A block with a
    plane embedding contributes the P_D of its oriented dual at face 0,
    as given, since f equals that P_D for a plane bipartite graph in its
    standard orientation (Theorem 5.3 and Corollary 5.4), and f does not
    depend on which embedding is taken. A block with none contributes
    ormatroid.f_poly of its graphic matrix, the minor table. The result
    is a list of ints, equal to ormatroid.f_poly of D's graphic matrix.
    planarembed finds the blocks and the embeddings.

    A disconnected graph raises Disconnected, and a single vertex raises
    ValueError as the table route does: its graphic matrix has no row.
    A computed embedding that fails a check of its own (a rotation that
    is not one, Euler's formula in faces, the alternating dual) raises
    AssertionError, not MalformedRotation: the input held no rotation to
    blame.
    """
    if not graphkit.is_connected(D):
        raise graphkit.Disconnected("graph is not connected")
    if D.n == 1:
        raise ValueError("matrix must have at least one row")
    tails = {t for t, _h in D.edges}
    if any(h in tails for _t, h in D.edges):
        raise NotBipartite("edges must run from part1 to part2")
    from . import planarembed

    f = [1]
    for block in planarembed.blocks(D.n, D.edges):
        if len(block) == 1:
            continue
        edges = [D.edges[e] for e in block]
        ids = {v: i for i, v in enumerate(sorted({v for e in edges
                                                  for v in e}))}
        B = Digraph(len(ids), [(ids[t], ids[h]) for t, h in edges])
        try:
            P = planarembed.embed(B)
            if P is not None:
                f = _times(f, _dual_pd(P, {t for t, _h in B.edges}))
                continue
        except ValueError as e:
            raise AssertionError(f"computed embedding failed its check: "
                                 f"{e}") from e
        from . import ormatroid

        f = _times(f, ormatroid.f_poly(ormatroid.MatroidContext(
            graphkit.graphic_matrix(B))))
    return f


def _times(p, q):
    """The product of two coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out

