"""Blocks and plane embeddings of multigraphs, which
planardual.graphic_f_poly reads; only fa --bigraph loads this module, so
alexander, which is given its embedding, does not compile it.

blocks splits a connected multigraph into its blocks (Hopcroft and Tarjan
1973), and embed finds a plane embedding of a 2-connected one by path
addition (Demoucron, Malgrange and Pertuiset 1964), or reports that it
has none.
"""

from __future__ import annotations

from .graphkit import Digraph
from .planardual import PlaneGraph


def blocks(n, edges):
    """The blocks of a connected multigraph on vertices 0..n-1, each the
    sorted list of its edge indices; a bridge is a block of one edge.

    A depth-first search keeps an explicit stack, so a long path cannot
    reach the recursion limit (Hopcroft and Tarjan 1973). An edge is
    pushed when the search first walks it, down a tree edge or back to an
    ancestor along any other edge, parallel ones included, which it never
    confuses with the tree edge it came in by, since it skips that edge by
    index. When v's subtree under tree edge e reaches no proper ancestor
    of v's parent u, the edges pushed since e, and e, form one block.
    """
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    count = 1
    pushed = []
    found = []
    # A frame is (v, the tree edge into v, v's edges still to walk, the
    # place of that tree edge in pushed).
    stack = [(0, -1, iter(adj[0]), 0)]
    while stack:
        v, into, walk, _mark = stack[-1]
        for w, e in walk:
            if e == into:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                stack.append((w, e, iter(adj[w]), len(pushed)))
                pushed.append(e)
                break
            if disc[w] < disc[v]:
                pushed.append(e)
                low[v] = min(low[v], disc[w])
        else:
            _v, _into, _walk, mark = stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    found.append(sorted(pushed[mark:]))
                    del pushed[mark:]
    return found


def embed(D: Digraph):
    """A plane embedding of the 2-connected digraph D as a PlaneGraph, or
    None if D has none.

    The parallel edges between two vertices are one edge of the simple
    graph underneath, which path addition embeds (_simple_rings). Each
    bundle then takes its place in both rotations, consecutive and in
    input order at its smaller end, reversed at the larger, so the
    consecutive copies bound digons.
    """
    bundles = {}
    for e, (t, h) in enumerate(D.edges):
        bundles.setdefault((min(t, h), max(t, h)), []).append(e)
    nbrs = [[] for _ in range(D.n)]
    for u, v in bundles:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rings = _simple_rings(nbrs)
    if rings is None:
        return None
    rotations = []
    for v, ring in enumerate(rings):
        rot = []
        for w in ring:
            bundle = bundles[min(v, w), max(v, w)]
            rot += [2 * e + (D.edges[e][0] == v)
                    for e in (bundle if v < w else reversed(bundle))]
        rotations.append(rot)
    return PlaneGraph(D, rotations)


def _simple_rings(nbrs):
    """The cyclic order of the neighbours at each vertex in a plane
    embedding of the 2-connected simple graph with adjacency lists nbrs,
    or None if it has none (Demoucron, Malgrange and Pertuiset 1964).

    The embedded part H starts as a cycle with its two faces. A fragment
    is an edge outside H between two vertices of H, or a component of the
    vertices outside H with its edges to H, whose ends there are its
    attachments. A face admits a fragment when it holds all of them.
    Each step takes a fragment that only one face admits, or else any
    fragment and its first admitting face, and lays a path of it between
    two of its attachments across that face, which splits in two. If some
    fragment has no admitting face, the graph is not planar. Otherwise
    this never happens, whatever the choices (the algorithm's theorem),
    and H grows to the whole graph, O(n) steps of O(n + m) work.

    Faces are vertex cycles, each edge walked once each way over all
    faces. A vertex v is in a walk ..., u, v, w, ... exactly when w
    follows u around v, which gives the rings.
    """
    n = len(nbrs)
    if n == 2:
        return [[1], [0]]
    placed = bytearray(n)
    cycle = _cycle(nbrs)
    for v in cycle:
        placed[v] = 1
    done = {(min(e), max(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
    faces = [cycle, cycle[::-1]]
    holds = [set(cycle), set(cycle)]
    m = sum(map(len, nbrs)) // 2
    while len(done) < m:
        pick = None
        for att, comp in _fragments(nbrs, placed, done):
            homes = [i for i, s in enumerate(holds) if att <= s]
            if not homes:
                return None
            if pick is None or len(homes) == 1:
                pick = att, comp, homes[0]
                if len(homes) == 1:
                    break
        att, comp, i = pick
        path = _fragment_path(nbrs, placed, att, comp)
        for v in path:
            placed[v] = 1
        done.update((min(e), max(e)) for e in zip(path, path[1:]))
        face = faces[i]
        a, b = face.index(path[0]), face.index(path[-1])
        inner = path[1:-1]
        ab = face[a:b + 1] if a < b else face[a:] + face[:b + 1]
        ba = face[b:a + 1] if b < a else face[b:] + face[:a + 1]
        faces[i] = ab + inner[::-1]
        faces.append(ba + inner)
        holds[i] = set(faces[i])
        holds.append(set(faces[-1]))
    after = [{} for _ in range(n)]
    for face in faces:
        for k, v in enumerate(face):
            after[v][face[k - 1]] = face[(k + 1) % len(face)]
    rings = []
    for v in range(n):
        ring = [nbrs[v][0]]
        for _ in range(len(nbrs[v]) - 1):
            ring.append(after[v][ring[-1]])
        rings.append(ring)
    return rings


def _cycle(nbrs):
    """A cycle of a simple graph in which every vertex has two neighbours
    or more: walk on from 0, never straight back, until the walk meets
    itself."""
    at = {0: 0}
    walk = [0]
    prev = -1
    while True:
        v = walk[-1]
        w = nbrs[v][0] if nbrs[v][0] != prev else nbrs[v][1]
        if w in at:
            return walk[at[w]:]
        at[w] = len(walk)
        walk.append(w)
        prev = v


def _fragments(nbrs, placed, done):
    """(attachments, component) for each fragment of the embedded part:
    an unembedded edge between placed vertices comes with component None,
    and a component of unplaced vertices as the list of its vertices."""
    seen = bytearray(len(nbrs))
    for v, ws in enumerate(nbrs):
        if placed[v]:
            for w in ws:
                if v < w and placed[w] and (v, w) not in done:
                    yield {v, w}, None
        elif not seen[v]:
            seen[v] = 1
            comp = [v]
            att = set()
            for x in comp:
                for w in nbrs[x]:
                    if placed[w]:
                        att.add(w)
                    elif not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            yield att, comp


def _fragment_path(nbrs, placed, att, comp):
    """A path of the fragment between two distinct attachments, its inner
    vertices unplaced. A block's fragment has two attachments or more."""
    if comp is None:
        return sorted(att)
    start = next(x for x in comp if any(placed[w] for w in nbrs[x]))
    a = next(w for w in nbrs[start] if placed[w])
    parent = {start: None}
    queue = [start]
    for x in queue:
        b = next((w for w in nbrs[x] if placed[w] and w != a), None)
        if b is not None:
            path = [b]
            while x is not None:
                path.append(x)
                x = parent[x]
            return path + [a]
        for w in nbrs[x]:
            if not placed[w] and w not in parent:
                parent[w] = x
                queue.append(w)
    raise AssertionError("a fragment of a block has one attachment")
