"""Digraphs, spanning trees, matrix presentations, Eulerian tours, and the
k-spanning-tree polynomial of an Eulerian digraph.

Edges are an ordered list of (tail, head) pairs; the input order is the
ground-set order everywhere. Parallel edges are distinct ground-set
elements; self-loops are rejected at construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exactnum import Matrix
from .polyshape import normalize


class Disconnected(ValueError):
    pass


class NotEulerian(ValueError):
    pass


class NotSpanningTree(ValueError):
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

    def reverse(self):
        return Digraph(self.n, [(h, t) for t, h in self.edges])


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


def tree_count(D: Digraph) -> int:
    """Kirchhoff spanning-tree count of the underlying undirected graph."""
    if D.n == 1:
        return 1
    lap = [[Fraction(0)] * D.n for _ in range(D.n)]
    for t, h in D.edges:
        lap[t][t] += 1
        lap[h][h] += 1
        lap[t][h] -= 1
        lap[h][t] -= 1
    reduced = Matrix([row[:-1] for row in lap[:-1]])
    val = reduced.det()
    assert val.denominator == 1
    return int(val)


def incidence_matrix(D: Digraph) -> Matrix:
    """|V| x |E| signed incidence matrix: column e_tail - e_head per edge."""
    cols = []
    for t, h in D.edges:
        col = [Fraction(0)] * D.n
        col[t] = Fraction(1)
        col[h] = Fraction(-1)
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(len(D.edges))]
                   for i in range(D.n)])


def _check_tree(D: Digraph, tree):
    tree = tuple(sorted(tree))
    if len(tree) != D.n - 1:
        raise NotSpanningTree("wrong number of edges")
    if not _acyclic(D, tree):
        raise NotSpanningTree("selected edges contain a cycle")
    return tree


def _tree_path(D: Digraph, tree, u, v):
    """Path from u to v inside the tree, as (edge index, forward?) steps."""
    adj = {w: [] for w in range(D.n)}
    for i in tree:
        t, h = D.edges[i]
        adj[t].append((h, i, True))
        adj[h].append((t, i, False))
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for (y, i, fwd) in adj[x]:
            if y not in prev:
                prev[y] = (x, i, fwd)
                stack.append(y)
    path = []
    x = v
    while prev[x] is not None:
        px, i, fwd = prev[x]
        path.append((i, fwd))
        x = px
    path.reverse()
    return path


def graphic_matrix(D: Digraph, tree) -> Matrix:
    """The full-rank presentation with identity on tree edges.

    Row i corresponds to the i-th tree edge. A non-tree edge's column holds
    the signs of its fundamental cycle, traversed in the edge's direction:
    -1 on tree edges traversed along their orientation, +1 against.
    """
    tree = _check_tree(D, tree)
    row_of = {e: i for i, e in enumerate(tree)}
    n_rows = len(tree)
    cols = []
    for j, (t, h) in enumerate(D.edges):
        col = [Fraction(0)] * n_rows
        if j in row_of:
            col[row_of[j]] = Fraction(1)
        else:
            # Close the cycle: j runs t -> h, return from h to t in the tree.
            for (i, fwd) in _tree_path(D, tree, h, t):
                col[row_of[i]] = Fraction(-1) if fwd else Fraction(1)
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(len(D.edges))]
                   for i in range(n_rows)])


def cographic_matrix(D: Digraph, tree) -> Matrix:
    """The cut presentation with identity on non-tree edges.

    Row k corresponds to the k-th non-tree edge. A tree edge d's column
    holds the signs of its fundamental cut: +1 on cut edges oriented
    opposite to d across the cut, -1 on edges parallel to d.
    """
    tree = _check_tree(D, tree)
    cotree = [j for j in range(len(D.edges)) if j not in set(tree)]
    row_of = {e: i for i, e in enumerate(cotree)}
    n_rows = len(cotree)
    cols = []
    for j, (t, h) in enumerate(D.edges):
        col = [Fraction(0)] * n_rows
        if j in row_of:
            col[row_of[j]] = Fraction(1)
        else:
            rest = [e for e in tree if e != j]
            side = _component(D.n, [D.edges[e] for e in rest], start=t)
            # d = j points from its tail's side to the other side.
            for e in cotree:
                et, eh = D.edges[e]
                if (et in side) == (eh in side):
                    continue
                if et in side:
                    col[row_of[e]] = Fraction(-1)   # parallel to d
                else:
                    col[row_of[e]] = Fraction(1)    # opposite to d
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(len(D.edges))]
                   for i in range(n_rows)])


def eulerian_tour_order(D: Digraph, r):
    """Edge indices in the order of an Eulerian tour starting at r.

    Hierholzer's algorithm, taking the smallest unused edge index at each
    step, so the tour is deterministic.
    """
    if not 0 <= r < D.n:
        raise ValueError(f"root {r} is not a vertex (0..{D.n - 1})")
    if not is_connected(D):
        raise NotEulerian("graph is not connected")
    indeg = [0] * D.n
    outdeg = [0] * D.n
    out_edges = [[] for _ in range(D.n)]
    for i, (t, h) in enumerate(D.edges):
        outdeg[t] += 1
        indeg[h] += 1
        out_edges[t].append(i)
    if indeg != outdeg:
        raise NotEulerian("in-degree != out-degree at some vertex")
    for lst in out_edges:
        lst.sort(reverse=True)  # pop() returns the smallest index
    tour = []
    stack = [(r, None)]
    while stack:
        v, via = stack[-1]
        if out_edges[v]:
            e = out_edges[v].pop()
            stack.append((D.edges[e][1], e))
        else:
            stack.pop()
            if via is not None:
                tour.append(via)
    tour.reverse()
    if len(tour) != len(D.edges):
        raise NotEulerian("graph is not connected")
    return tour


def p_poly(D: Digraph, r=0):
    """Spanning trees graded by the number of edges pointing away from r.

    Coefficient k counts the trees in which exactly k tree edges must be
    reversed to obtain an oriented spanning tree rooted at r.
    """
    # Eulerian check up front: the polynomial's root-independence and its
    # matroid interpretation need it.
    eulerian_tour_order(D, r)
    counts = {}
    for tree in spanning_trees(D):
        k = 0
        for d in tree:
            rest = [D.edges[e] for e in tree if e != d]
            side = _component(D.n, rest, start=r)
            t, _h = D.edges[d]
            if t in side:
                k += 1  # d points away from r
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
