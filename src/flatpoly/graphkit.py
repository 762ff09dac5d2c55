"""Digraphs, the graphic matrix, and the k-spanning-tree polynomial P_D
of an Eulerian digraph, by two routes: p_poly grows each spanning tree of
the simple graph underneath once from a vertex of minimum degree (P_D does
not depend on the root), with the parallel edges between two vertices
merged into one weighted bundle and one frontier stack shared by the whole
search, and p_poly_det takes a determinant (Tutte's matrix-tree theorem).
planardual.alexander_poly calls p_poly_det too, on the oriented planar dual
of a plane bipartite graph.

Edges are an ordered list of (tail, head) pairs; the input order is the
ground-set order everywhere. Parallel edges are distinct ground-set
elements; self-loops are rejected at construction.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod

from .exactnum import Matrix, pencil_det
from .polyshape import normalize


class Disconnected(ValueError):
    pass


class NotEulerian(ValueError):
    pass


class NotBipartite(ValueError):
    pass


class Digraph:
    __slots__ = ("n", "edges")

    def __init__(self, n_vertices, edges):
        edges = [(int(t), int(h)) for t, h in edges]
        for t, h in edges:
            if not (0 <= t < n_vertices and 0 <= h < n_vertices):
                raise ValueError("vertex index out of range")
            if t == h:
                raise ValueError("self-loops are not supported")
        self.n = n_vertices
        self.edges = edges

    def __repr__(self):
        return f"Digraph({self.n}, {self.edges})"


def _component(n, edge_pairs, start=0):
    """Vertices reachable from start through the given undirected edges."""
    adj = [[] for _ in range(n)]
    for t, h in edge_pairs:
        adj[t].append(h)
        adj[h].append(t)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected(D: Digraph) -> bool:
    # Fewer than n - 1 edges cannot connect n vertices. Answering that
    # first keeps a huge vertex count from allocating per vertex.
    return len(D.edges) >= D.n - 1 and len(_component(D.n, D.edges)) == D.n


def incidence_matrix(D: Digraph) -> Matrix:
    """|V| x |E| signed incidence matrix: column e_tail - e_head per edge."""
    rows = [[0] * len(D.edges) for _ in range(D.n)]
    for j, (t, h) in enumerate(D.edges):
        rows[t][j] = 1
        rows[h][j] = -1
    return Matrix(rows)


def graphic_matrix(D: Digraph) -> Matrix:
    """The incidence matrix with its last row dropped.

    D must be connected, so the incidence matrix has rank n - 1 and any
    n - 1 of its rows are independent. For a spanning tree T, the tree's
    [I | X] presentation is M_T^-1 times this matrix with det M_T = +-1, so
    every maximal minor agrees up to one global sign.
    """
    if not is_connected(D):
        raise Disconnected("graph is not connected")
    return Matrix(incidence_matrix(D).num[:-1])


def _check_eulerian(D: Digraph, r):
    """Reject a root that is not a vertex, a disconnected graph and one with
    in-degree != out-degree somewhere: P_D's root independence and its
    matroid interpretation need a connected Eulerian digraph."""
    if not 0 <= r < D.n:
        raise ValueError(f"root {r} is not a vertex (0..{D.n - 1})")
    if not is_connected(D):
        raise NotEulerian("graph is not connected")
    balance = [0] * D.n
    for t, h in D.edges:
        balance[t] += 1
        balance[h] -= 1
    if any(balance):
        raise NotEulerian("in-degree != out-degree at some vertex")


def p_poly(D: Digraph, r=0):
    """Spanning trees graded by the number of edges pointing away from r.

    Coefficient k counts the trees in which exactly k tree edges must be
    reversed to obtain an oriented spanning tree rooted at r.

    P_D is the basis polynomial of D's cographic matroid (Theorem 5.3), a
    polynomial that names no root, so every root of a connected Eulerian
    digraph gives the same answer. r is checked to be a vertex, and the
    trees are grown from a vertex of minimum degree, the smallest such on
    a tie. On random cycle-union digraphs with 7-11 vertices that root
    opened about 9% fewer search frames than the average root, and a
    vertex of maximum degree the most.
    """
    _check_eulerian(D, r)
    degree = _degrees(D)
    return _grow_trees(D, degree.index(min(degree)))


def _degrees(D: Digraph):
    """Each vertex's number of incident edges, parallel ones counted."""
    degree = [0] * D.n
    for t, h in D.edges:
        degree[t] += 1
        degree[h] += 1
    return degree


def _grow_trees(D: Digraph, r):
    """P_D with every spanning tree grown from r; D is connected and
    Eulerian.

    The parallel edges between two vertices, in either direction, form one
    bundle, an edge of the simple graph underneath. A tree of D is a tree
    of that simple graph with one edge chosen from each of its bundles. A
    bundle that attaches y to the tree vertex x has weight c0 + c1 t, where
    c1 counts its edges x->y (their tail is the tree end, so they point
    away from r) and c0 its edges y->x; P_D is the sum over the simple
    graph's trees of the product of their bundle weights.

    Each simple tree is grown once from r (Gabow and Myers 1978, after Read
    and Tarjan 1975). One frontier stack F, shared by the whole search,
    holds the live bundles with one end in the tree. A search node takes
    the top bundle of F whose far end is still outside the tree and
    branches two ways: include it, so its far end joins the tree and
    pushes its bundles to outside vertices, or exclude it, which kills it
    and is taken only while the far end still reaches the tree through
    live bundles. Entries whose far end joined since they were pushed are
    stale; a node pops them on its way to a live one and keeps everything
    it popped, cuts F back to where its include pushed, and when it ends
    pushes what it popped back and revives the bundles it killed. So F is
    never copied, and its live entries always come in the order they would
    have if the stale ones were removed as each vertex joined. Every leaf
    is one tree of the simple graph, so the work follows that tree count,
    not D's. The search keeps an explicit stack, one frame per tree
    vertex, and does not recurse.

    A frame carries the product of its bundle weights as t^k x, where the
    int x is a polynomial evaluated at t = 2^B (Kronecker substitution):
    an away-only bundle is t * c1, a toward-only one c0, and a mixed one
    c0 + c1 2^B. The leaves add up to P_D(2^B) in one int, which is split
    into base-2^B digits at the end. Each coefficient of P_D counts
    distinct trees of D, and so does not exceed the tree count. That is at
    most C(m, n - 1), since a tree is an (n - 1)-edge subset, and for every
    vertex s at most the product of the degrees of the other vertices,
    since a tree rooted at s is fixed by the edge to each other vertex's
    parent; the smallest such product leaves out the largest degree. B is
    the bit length of the smaller bound, so every coefficient is below
    2^B, no digit carries, and the split is exact, whatever r is.
    Splitting off t^k keeps x short where bundles point one way, as on a
    long directed cycle.
    """
    n = D.n
    if n == 1:
        return [1]
    mult = Counter(D.edges)
    degree = _degrees(D)
    B = min(prod(degree) // max(degree),
            comb(len(D.edges), n - 1)).bit_length()

    def weight(away, toward):
        if not toward:
            return 1, away
        if not away:
            return 0, toward
        return 0, toward + (away << B)

    # adj[v]: (other end w, k, x, bundle, v) with the bundle's weight t^k x
    # when v is its tree end; these are the frontier entries v adds.
    adj = [[] for _ in range(n)]
    bundles = dict.fromkeys((min(e), max(e)) for e in D.edges)
    for b, (u, v) in enumerate(bundles):
        uv, vu = mult[u, v], mult[v, u]
        adj[u].append((v, *weight(uv, vu), b, u))
        adj[v].append((u, *weight(vu, uv), b, v))
    in_tree = bytearray(n)
    in_tree[r] = 1
    dead = bytearray(len(bundles))
    # Vertices join in depth-first preorder of the tree they end in. pos[v]
    # is v's place in that order, up[p] the place of the parent of the
    # vertex in place p, and stop[p] the place just past its subtree.
    # After a backtrack they still describe the last tree found.
    pos = [0] * n
    up = [0] * n
    stop = [n] * n
    total = 0
    # F holds adj entries of tree vertices, pushed in the order their tree
    # ends joined. A frame is [k, x, tree size, entries it popped from F,
    # entry it included, len(F) before that entry's far end pushed].
    F = adj[r][:]
    stack = [[0, 1, 1, [], None, 0]]
    while stack:
        frame = stack[-1]
        k, x, size, popped, last, mark = frame
        if size == n - 1:
            # One vertex is left, and every live entry ends at it: each
            # completes one simple tree. The search takes them from the
            # top, so the last tree takes the lowest one.
            s = 0
            for f in reversed(F):
                if not in_tree[f[0]]:
                    s += f[2] << (f[1] * B)
                    low = f
            total += (x * s) << (k * B)
            y, _wk, _wx, _b, u = low
            pos[y] = size
            up[size] = pos[u]
            stack.pop()
            continue
        if last is not None:
            # The include branch of `last` is done, and its last tree L
            # holds `last`. L hangs each vertex as near r as the live
            # bundles let, so the subtree of the far end y holds the
            # vertices that reach the tree only through y (Gabow and
            # Myers). The exclude branch has a tree iff a live bundle
            # leaves y for a vertex outside that subtree: the places from
            # `size` to the end of the run, found by jumping over the
            # subtrees of y's children.
            del F[mark:]
            y, _wk, _wx, b, _u = last
            in_tree[y] = 0
            dead[b] = 1
            end = size + 1
            while end < n and up[end] >= size:
                end = stop[end]
            stop[size] = end
            for w, _wk, _wx, b, _y in adj[y]:
                if not dead[b] and not size <= pos[w] < end:
                    break
            else:
                # The far ends of the entries this frame killed are out of
                # the tree again; those of the stale ones joined above it.
                popped.reverse()
                F += popped
                for f in popped:
                    if not in_tree[f[0]]:
                        dead[f[3]] = 0
                stack.pop()
                continue
        f = F.pop()
        popped.append(f)
        while in_tree[f[0]]:
            f = F.pop()
            popped.append(f)
        y, wk, wx, _b, u = frame[4] = f
        in_tree[y] = 1
        pos[y] = size
        up[size] = pos[u]
        frame[5] = len(F)
        F += [g for g in adj[y] if not in_tree[g[0]]]
        stack.append([k + wk, x * wx, size + 1, [], None, 0])
    mask = (1 << B) - 1
    return normalize([(total >> (i * B)) & mask for i in range(n)])


def p_poly_det(D: Digraph, r=0):
    """P_D by Tutte's directed matrix-tree theorem (Tutte 1948).

    Each edge u->v is an arc u->v of weight 1 and an arc v->u of weight t.
    The reduced out-degree Laplacian at r, L0 + t L1, has determinant the
    weighted count of spanning arborescences directed toward r; an
    arborescence uses an edge as its weight-t arc exactly when the edge
    points away from r. So det(L0 + t L1) = p_poly(D, r), computed in
    O(n^4) integer operations instead of one search leaf per tree.

    verify thm5_3 checks it against p_poly. On the oriented dual of a
    plane bipartite graph at face 0, L0 + t L1 is minus the Seifert pencil
    V^T + tV, so planardual.alexander_poly takes its determinant here.
    """
    _check_eulerian(D, r)
    L0 = [[0] * D.n for _ in range(D.n)]
    L1 = [[0] * D.n for _ in range(D.n)]
    for u, v in D.edges:
        L0[u][u] += 1
        L0[u][v] -= 1
        L1[v][v] += 1
        L1[v][u] -= 1
    keep = [i for i in range(D.n) if i != r]
    return pencil_det([[L0[i][j] for j in keep] for i in keep],
                      [[L1[i][j] for j in keep] for i in keep])


def standard_orientation(n_vertices, edges, part1) -> Digraph:
    """Direct every edge from its part-1 endpoint to its part-2 endpoint."""
    part1 = set(part1)
    directed = []
    for u, v in edges:
        if (u in part1) == (v in part1):
            raise NotBipartite(f"edge ({u},{v}) does not cross the parts")
        directed.append((u, v) if u in part1 else (v, u))
    return Digraph(n_vertices, directed)


def is_semibalanced(D: Digraph) -> bool:
    """True iff vertices admit integer levels with head one below tail.

    Equivalently every cycle uses equally many edges in each direction.
    """
    if not is_connected(D):
        raise Disconnected("graph is not connected")
    level = {0: 0}
    stack = [0]
    adj = [[] for _ in range(D.n)]
    for t, h in D.edges:
        adj[t].append((h, -1))
        adj[h].append((t, 1))
    while stack:
        v = stack.pop()
        for (w, delta) in adj[v]:
            lw = level[v] + delta
            if w not in level:
                level[w] = lw
                stack.append(w)
            elif level[w] != lw:
                return False
    return all(level[t] - 1 == level[h] for t, h in D.edges)
