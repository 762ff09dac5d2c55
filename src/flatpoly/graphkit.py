"""Digraphs, spanning trees, matrix presentations, and the k-spanning-tree
polynomial of an Eulerian digraph.

Edges are an ordered list of (tail, head) pairs; the input order is the
ground-set order everywhere. Parallel edges are distinct ground-set
elements; self-loops are rejected at construction.
"""

from __future__ import annotations

from itertools import combinations

from .exactnum import Matrix, dual_matrix
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
    if D.n == 1:
        return True
    return len(_component(D.n, D.edges)) == D.n


def _acyclic(D: Digraph, edge_idx) -> bool:
    """True iff the selected edges contain no cycle: union-find with path
    halving, the find loops written inline since the spanning-tree scan
    runs this once per candidate subset."""
    parent = list(range(D.n))
    edges = D.edges
    for i in edge_idx:
        t, h = edges[i]
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        while parent[h] != h:
            parent[h] = parent[parent[h]]
            h = parent[h]
        if t == h:
            return False
        parent[t] = h
    return True


def spanning_trees(D: Digraph):
    """Yield each spanning tree as a sorted tuple of edge indices.

    Lexicographic scan of (n-1)-subsets with a union-find acyclicity test;
    deterministic and plenty fast at the supported scale.
    """
    if not is_connected(D):
        raise Disconnected("graph is not connected")
    k = D.n - 1
    if k == 0:
        yield ()
        return
    for cand in combinations(range(len(D.edges)), k):
        if _acyclic(D, cand):
            yield cand


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


def cographic_matrix(D: Digraph) -> Matrix:
    """The cographic presentation: the Gale dual of the graphic matrix.

    Read from the graphic matrix's minor table with B the lexicographically
    first spanning tree. Row k belongs to the k-th non-tree edge and holds
    its signed fundamental cycle, so the identity sits on the non-tree
    edges and a tree edge's column holds the signs of its fundamental cut.
    The rows span the cycle space, the orthogonal complement of the
    graphic matrix's rows, so the columns present the dual oriented
    matroid.
    """
    return dual_matrix(graphic_matrix(D))


def p_poly(D: Digraph, r=0):
    """Spanning trees graded by the number of edges pointing away from r.

    Coefficient k counts the trees in which exactly k tree edges must be
    reversed to obtain an oriented spanning tree rooted at r.
    """
    # Eulerian check up front: the polynomial's root-independence and its
    # matroid interpretation need it.
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
    edges = D.edges
    counts = {}
    for tree in spanning_trees(D):
        # Walk the tree once from r: an edge points away from r iff its
        # tail is reached first, i.e. its tail is the parent of its head.
        adj = [[] for _ in range(D.n)]
        for i in tree:
            t, h = edges[i]
            adj[t].append((h, 1))
            adj[h].append((t, 0))
        seen = [False] * D.n
        seen[r] = True
        stack = [r]
        k = 0
        while stack:
            for w, away in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    k += away
                    stack.append(w)
        counts[k] = counts.get(k, 0) + 1
    out = [0] * (max(counts) + 1)
    for k, v in counts.items():
        out[k] = v
    return normalize(out)


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
