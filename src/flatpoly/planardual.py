"""Plane graphs via rotation systems, faces, the oriented planar dual, and
the Alexander polynomial of a plane bipartite graph from its Seifert
matrix.

A half-edge reference is (edge index, "tail" | "head"); each vertex stores
the counterclockwise cyclic order of its incident half-edges. A dart is a
traversal direction of an edge: (edge, True) runs tail -> head.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key

from . import graphkit
from .exactnum import pencil_det
from .graphkit import Digraph, NotBipartite
from .polyshape import normalize


class MalformedRotation(ValueError):
    pass


class DegenerateDual(ValueError):
    """A bridge in the primal would give the dual a self-loop."""


class PlaneGraph:
    __slots__ = ("digraph", "rotations")

    def __init__(self, digraph: Digraph, rotations):
        expected = set()
        for i in range(len(digraph.edges)):
            expected.add((i, "tail"))
            expected.add((i, "head"))
        seen = []
        rotations = [list(r) for r in rotations]
        if len(rotations) != digraph.n:
            raise MalformedRotation("one rotation per vertex required")
        for v, rot in enumerate(rotations):
            for (e, end) in rot:
                if end not in ("tail", "head"):
                    raise MalformedRotation(f"bad end marker {end!r}")
                t, h = digraph.edges[e]
                at = t if end == "tail" else h
                if at != v:
                    raise MalformedRotation(
                        f"half-edge ({e},{end}) listed at wrong vertex {v}")
                seen.append((e, end))
        if sorted(seen) != sorted(expected):
            raise MalformedRotation("each half-edge must appear exactly once")
        self.digraph = digraph
        self.rotations = rotations


def _dart_target(P: PlaneGraph, dart):
    e, fwd = dart
    t, h = P.digraph.edges[e]
    return h if fwd else t


def _arrival_ref(dart):
    e, fwd = dart
    return (e, "head" if fwd else "tail")


def _next_dart(P: PlaneGraph, dart):
    v = _dart_target(P, dart)
    rot = P.rotations[v]
    idx = rot.index(_arrival_ref(dart))
    e, end = rot[(idx + 1) % len(rot)]
    return (e, end == "tail")


def faces(P: PlaneGraph):
    """Face boundary walks; every dart is used exactly once overall."""
    if not graphkit.is_connected(P.digraph):
        raise graphkit.Disconnected("plane graph must be connected")
    remaining = {(e, fwd) for e in range(len(P.digraph.edges))
                 for fwd in (True, False)}
    walks = []
    while remaining:
        start = min(remaining)
        walk = []
        d = start
        while True:
            walk.append(d)
            remaining.discard(d)
            d = _next_dart(P, d)
            if d == start:
                break
        walks.append(walk)
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
    crosses its primal edge, directed from the face holding the reversed
    dart to the face holding the forward dart; the construction is
    validated downstream by the alternating-dimap check.
    """
    part1 = set(part1)
    for t, h in P.digraph.edges:
        if t not in part1 or h in part1:
            raise NotBipartite("edges must run from part1 to part2")
    walks = faces(P)
    face_of = {}
    for fi, walk in enumerate(walks):
        for d in walk:
            face_of[d] = fi
    dual_edges = []
    for e in range(len(P.digraph.edges)):
        left = face_of[(e, False)]
        right = face_of[(e, True)]
        if left == right:
            raise DegenerateDual(
                f"edge {e} is a bridge; its dual would be a self-loop")
        dual_edges.append((left, right))
    dual = Digraph(len(walks), dual_edges)
    return DualResult(dual, tuple(tuple(w) for w in walks))


def is_alternating_dimap(P: PlaneGraph) -> bool:
    """True iff every rotation alternates incoming and outgoing edges."""
    for rot in P.rotations:
        if len(rot) % 2 != 0:
            return False
        outs = [end == "tail" for (e, end) in rot]
        if any(outs[i] == outs[(i + 1) % len(outs)] for i in range(len(outs))):
            return False
    return True


def dual_plane_graph(res: DualResult) -> PlaneGraph:
    """Plane structure on the dual: a face's rotation is its walk order."""
    rotations = [[] for _ in range(res.dual.n)]
    for fi, walk in enumerate(res.face_walks):
        for (e, fwd) in walk:
            # Dual edge e runs face_of(rev) -> face_of(fwd).
            end = "head" if fwd else "tail"
            rotations[fi].append((e, end))
    return PlaneGraph(res.dual, rotations)


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


def seifert_poly(face_walks):
    """det(V - tV^T) at -t, normalized, for the Seifert matrix V of the
    special alternating link of a plane bipartite graph (Seifert 1934).

    The graph is the link's Seifert graph: vertices are Seifert circles and
    edges are crossings. All faces but face_walks[0] give a basis of the
    Seifert surface's first homology. V[f][f] is -len(f)/2, an integer
    since every face of a bipartite plane graph has even length, and each
    edge adds 1 to V[a][b], where face a holds its dart (e, True) and face
    b its dart (e, False).
    """
    kept = face_walks[1:]
    face_of = {d: i for i, walk in enumerate(kept) for d in walk}
    V = [[0] * len(kept) for _ in kept]
    for i, walk in enumerate(kept):
        V[i][i] = -(len(walk) // 2)
    for (e, fwd), a in face_of.items():
        if fwd and (e, False) in face_of:
            V[a][face_of[(e, False)]] += 1
    minus_vt = [[-x for x in col] for col in zip(*V)]
    coeffs = pencil_det(V, minus_vt)
    return normalized([-c if k % 2 else c for k, c in enumerate(coeffs)])


def alexander_poly(P: PlaneGraph, part1):
    """Alexander polynomial (evaluated at -t, normalized) of the special
    alternating link of a plane bipartite graph.

    Computed from the Seifert matrix. Its degree must be |E| - |V| + 1
    (Murasugi and Crowell: the Seifert surface of a reduced alternating
    diagram has minimal genus), and it must equal the tree-reversal
    polynomial of the oriented dual, an independent route: the dual's
    reduced Laplacian and Tutte's matrix-tree theorem, which share only
    the pencil evaluator with the Seifert route. Both are polynomial time,
    so no spanning tree is enumerated.
    """
    res = dual_with_orientation(P, part1)
    dual_pg = dual_plane_graph(res)
    if not is_alternating_dimap(dual_pg):
        raise AssertionError("dual orientation is not an alternating dimap")
    via_seifert = seifert_poly(res.face_walks)
    degree = len(P.digraph.edges) - P.digraph.n + 1
    if len(via_seifert) - 1 != degree:
        raise AssertionError(
            f"Seifert determinant has degree {len(via_seifert) - 1}, "
            f"not |E| - |V| + 1 = {degree}")
    via_dual = normalized(graphkit.p_poly_det(res.dual, 0))
    if via_seifert != via_dual:
        raise AssertionError("Seifert and dual tree routes disagree")
    return via_seifert


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
        incident[t].append((i, "tail", toward_h))
        incident[h].append((i, "head", toward_t))
    key = cmp_to_key(_ccw_cmp)
    rotations = []
    for v in range(n_vertices):
        x0, y0 = coords[v]
        rot = sorted(incident[v],
                     key=lambda item: key((item[2][0] - x0, item[2][1] - y0)))
        rotations.append([(i, end) for (i, end, _c) in rot])
    return PlaneGraph(D, rotations)
