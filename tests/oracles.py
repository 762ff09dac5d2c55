"""Slow, independent routes to the linear-algebra, oriented-matroid and
zonotope data, for tests only.

The library reads rank, flatness, linear expansions and the level form
off its table of integer maximal minors (Cramer's rule). The Fraction Gauss-Jordan routines below (rref, rank, kernel_basis,
solve, apply, flat_witness, independent_rows) derive them by elimination
instead, and are the reference for those checks.

The library reads fundamental circuits off its table of maximal minors.
These oracles rebuild them from scratch: one Gauss-Jordan pass per basis
for fundamental circuits, and a kernel scan over small column sets for
the full circuit list.

The library trims a zonotope in one walk over the bases, summing each
basis's trimmed point as it reads the basis's Ext set and signs. tiling
builds a record per basis first and trimming_vertex reads each tile's
point in a second walk, which trimmed_points_by_tiles combines. The LP
oracles decide trimming instead: one LP per lattice point for the largest
step along l, or, for bipartite graphs, one membership LP per vertex and
candidate point.

The library counts a unimodular zonotope's lattice points by internal
activity and checks unimodularity in the same walk, expands a direction in
every basis from its expansion in the first, and takes a point's level as
its number of summed columns. lattice_points lists the points instead, as
the union of all 2^d vertices of every tile, with levels by flat_witness,
after a scan of the whole minor table for unimodularity; check_admissible
solves each basis expansion by row reduction. admissible_direction finds a
direction for contexts that are not bipartite graphs by trying a small box
of them.

The library presents a digraph's graphic matroid by its reduced incidence
matrix and the cographic one by the Gale dual read from that matrix's
minor table, and grades spanning trees as it grows them from the root.
spanning_trees scans every (n-1)-edge subset for a cycle instead. The
tree-based constructions below rebuild the presentations from a chosen
spanning tree: fundamental cycles by tree paths, fundamental cuts and the
per-edge grading by one component walk per tree edge. tree_count is the
Kirchhoff determinant over Fractions. eulerian_small enumerates every
small connected Eulerian multi-digraph.

The library checks that the oriented dual of a plane bipartite graph is
an alternating dimap on the primal face walks: a walk must alternate the
parity of its darts. dual_plane_graph builds the dual as a PlaneGraph
instead, each face's rotation read off its walk, and is_alternating_dimap
checks that every rotation alternates incoming and outgoing edges.

The library takes the Alexander polynomial of a plane bipartite graph as
the determinant of its oriented dual's reduced Laplacian pencil.
seifert_matrix builds the Seifert matrix V from the face walks instead,
and seifert_poly takes det(V + tV^T).

The library takes determinants by Bareiss elimination on integer rows.
det eliminates over Fractions instead, dividing by each pivot.

The library builds the table of maximal minors from one fraction-free
Gauss-Jordan elimination and Cramer expansion, keyed by column mask, and
reads a swapped minor's sign from a popcount. maximal_minors_bareiss runs
one Bareiss determinant per column subset instead, keyed by column tuple.
minor_table_tuples fills the same Grassmann-Pluecker table with column
tuples as keys, placing each replaced column by bisection, and
swapped_minor_tuples reads a swapped minor by tuple slicing; mask and
mask_table turn tuple keys into the library's.

The library interpolates det(A + tB) from Bareiss determinants at
t = 0..n. pencil_det_cofactor expands it along the first row over Z[t]
instead.

The library multiplies by a q-number as a running window sum and walks the
compositions of a box LP's columns depth first. poly_mul is schoolbook
polynomial multiplication, the independent product route, and
_compositions lists compositions from cut sets, the reference column
order.

The library's standard-form simplex pivots on an integer tableau over one
common denominator. FractionSimplex is the same two-phase Bland simplex
over Fractions, which must reach the same outcome by the same pivots.
"""

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import lcm

from flatpoly import lpexact
from flatpoly.exactnum import Matrix, _columns, bareiss_det, pencil_det
from flatpoly.graphkit import (Digraph, Disconnected, _component,
                               incidence_matrix, is_connected,
                               standard_orientation)
from flatpoly.planardual import PlaneGraph, normalized
from flatpoly.polyshape import normalize, poly_add
from flatpoly.ormatroid import (LEX_ORDER, MatroidContext, NotGeneric,
                                enumerate_bases, ext_semiactivity)
from flatpoly.zonolattice import (AdmissibleVector, NotAdmissible,
                                  NotUnimodular, basis_expansions,
                                  bipartite_graph_context, incidence_point)


def rref(A: Matrix):
    """Reduced row echelon form; returns (matrix rows, pivot columns)."""
    return _rref(A.entries)


def _rref(rows):
    """rref of a list of rows of ints and Fractions."""
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / Fraction(a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(A: Matrix) -> int:
    return len(rref(A)[1])


def kernel_basis(A: Matrix):
    """Basis of the right kernel, one vector per free column."""
    return _kernel(A.entries)


def _kernel(rows):
    a, pivots = _rref(rows)
    n = len(a[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][free]
        basis.append(v)
    return basis


def solve(A: Matrix, b):
    """Solve A x = b exactly.

    Returns (particular solution, kernel basis) or None when the system
    is inconsistent.
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side length must equal row count")
    return _solve(A.entries, b)


def _solve(rows, b):
    n = len(rows[0])
    a, pivots = _rref([row + [bv] for row, bv in zip(rows, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = a[r][n]
    return x, _kernel(rows)


def apply(A: Matrix, x):
    """Matrix-vector product A x."""
    if len(x) != A.cols:
        raise ValueError("vector length must equal column count")
    return [sum((a * b for a, b in zip(row, x)), Fraction(0))
            for row in A.entries]


def identity(n) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(A: Matrix) -> Matrix:
    return Matrix([list(col) for col in zip(*A.entries)])


def flat_witness(A: Matrix):
    """Linear form h with h(column) = 1 for every column, or None: the
    particular solution of the row-reduced system A^T h = 1."""
    sol = solve(transpose(A), [1] * A.cols)
    return None if sol is None else sol[0]


def independent_rows(A: Matrix):
    """Indices of the lexicographically first maximal set of linearly
    independent rows (the pivot columns of the transpose)."""
    return rref(transpose(A))[1]


def det(rows) -> Fraction:
    """Determinant of a square matrix of ints and Fractions by Gaussian
    elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        p = a[k][k]
        out *= p
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def _compositions(total, parts):
    """All compositions of total into `parts` positive parts, lexicographic."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for cut in combinations(range(1, total), parts - 1):
        prev = 0
        comp = []
        for c in cut:
            comp.append(c - prev)
            prev = c
        comp.append(total - prev)
        yield tuple(comp)


def poly_eval(p, x):
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def maximal_minors_bareiss(A: Matrix):
    """(chi, scale) as exactnum.maximal_minors returns it, with one Bareiss
    determinant per column subset of the rows cleared here from A's
    entries."""
    rows, scale = [], 1
    for row in A.entries:
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
        scale *= m
    cols = list(zip(*rows))
    chi = {key: bareiss_det([cols[c] for c in key])
           for key in combinations(range(A.cols), A.rows)}
    return chi, scale


def mask(cols):
    """The library's chirotope key of a column set: sum of 2^c."""
    return sum(1 << c for c in cols)


def mask_table(chi):
    """A tuple-keyed table with its keys turned into masks, in order."""
    return {mask(key): c for key, c in chi.items()}


def minor_table_tuples(b0, m):
    """The Grassmann-Pluecker table of exactnum._minor_table, keyed by
    sorted column tuples: the replaced column is the last one of S outside
    B0, and each term's key and sign come from bisecting S - c."""
    d, n = len(m), len(m[0])
    chi = dict.fromkeys(combinations(range(n), d), 0)
    cb = chi[b0] = m[0][b0[0]]
    outside = [True] * n
    for b in b0:
        outside[b] = False
    levels = [[] for _ in range(d + 1)]
    for key in chi:
        levels[sum(map(outside.__getitem__, key))].append(key)
    cols = list(zip(*m))
    for level in levels[1:]:
        for key in level:
            p = d - 1
            while not outside[key[p]]:
                p -= 1
            rest = key[:p] + key[p + 1:]
            total = 0
            for b, x in zip(b0, cols[key[p]]):
                if x and b not in rest:
                    q = bisect_left(rest, b)
                    y = chi[rest[:q] + (b,) + rest[q:]]
                    total += -x * y if (q - p) % 2 else x * y
            chi[key] = total // cb
    return chi


def swapped_minor_tuples(chi, basis, i, j):
    """chi of the basis tuple with its i-th column replaced by column j in
    place, from a tuple-keyed table: the sorted key's sign is the parity of
    the positions j moved across."""
    rest = basis[:i] + basis[i + 1:]
    p = bisect_left(rest, j)
    c = chi[rest[:p] + (j,) + rest[p:]]
    return -c if (p - i) % 2 else c


def pencil_det_cofactor(A, B):
    """det(A + tB) for square integer matrices, by cofactor expansion along
    the first row with polynomial entries a + bt."""
    def det(rows):
        if not rows:
            return [1]
        total = []
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = poly_mul(entry, det(minor))
            total = poly_add(total, [-c for c in term] if j % 2 else term)
        return total
    return det([[normalize([a, b]) for a, b in zip(ra, rb)]
                for ra, rb in zip(A, B)])


def reverse_in_degree(p, deg):
    """Coefficient reversal a_i -> a_{deg-i}; deg must cover the support."""
    if len(p) > deg + 1:
        raise ValueError("degree too small for reversal")
    out = [0] * (deg + 1)
    for i, a in enumerate(p):
        out[deg - i] = a
    return normalize(out)


class NotSpanningTree(ValueError):
    pass


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
    val = det([row[:-1] for row in lap[:-1]])
    assert val.denominator == 1
    return int(val)


def eulerian_small(max_edges=6):
    """All connected Eulerian multi-digraphs with at most max_edges edges,
    on labeled vertex sets of size 2..5, plus the directed 6-cycle.

    Enumerated as nondecreasing sequences of arc indices.
    """
    out = []
    for n in range(2, 6):
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b]
        min_e = n  # every vertex needs in = out >= 1
        for e in range(min_e, max_edges + 1):
            for combo in combinations_with_replacement(range(len(arcs)), e):
                deg = [0] * n
                used = [False] * n
                for idx in combo:
                    a, b = arcs[idx]
                    deg[a] += 1
                    deg[b] -= 1
                    used[a] = used[b] = True
                if any(deg) or not all(used):
                    continue
                D = Digraph(n, [arcs[i] for i in combo])
                if is_connected(D):
                    out.append(D)
    out.append(Digraph(6, [(i, (i + 1) % 6) for i in range(6)]))
    return out


def _acyclic(D: Digraph, edge_idx) -> bool:
    """True iff the selected edges contain no cycle: union-find with path
    halving."""
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

    Lexicographic scan of (n-1)-subsets with a union-find acyclicity test:
    deterministic, and exponential in the edge count.
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


def tree_graphic_matrix(D: Digraph, tree) -> Matrix:
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


def tree_cographic_matrix(D: Digraph, tree) -> Matrix:
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


def cographic_presentation(D: Digraph) -> Matrix:
    """The cut presentation at the first spanning tree."""
    return tree_cographic_matrix(D, next(spanning_trees(D)))


def p_poly_cuts(D: Digraph, r=0):
    """Spanning trees graded by the number of edges pointing away from r,
    with one component walk per tree edge: d points away from r iff its
    tail stays on r's side when d is removed. D is Eulerian."""
    counts = {}
    for tree in spanning_trees(D):
        k = 0
        for d in tree:
            rest = [D.edges[e] for e in tree if e != d]
            side = _component(D.n, rest, start=r)
            t, _h = D.edges[d]
            if t in side:
                k += 1
        counts[k] = counts.get(k, 0) + 1
    out = [0] * (max(counts) + 1)
    for k, v in counts.items():
        out[k] = v
    return normalize(out)


def dual_plane_graph(face_walks) -> PlaneGraph:
    """The plane dual of a plane graph with these face walks: face f is
    dual vertex f, dual edge e runs from the face holding the dart 2e to
    the face holding 2e + 1, and f's rotation is its walk order."""
    face_of = {d: f for f, walk in enumerate(face_walks) for d in walk}
    edges = [(face_of[2 * e], face_of[2 * e + 1])
             for e in range(len(face_of) // 2)]
    rotations = []
    for f, walk in enumerate(face_walks):
        rot = []
        for d in walk:
            e = d // 2
            # Dual edge e leaves f when f holds the dart 2e, and the dual
            # dart 2e + 1 is the one that leaves its tail.
            rot.append(2 * e + 1 if d == 2 * e else 2 * e)
        rotations.append(rot)
    return PlaneGraph(Digraph(len(face_walks), edges), rotations)


def is_alternating_dimap(P: PlaneGraph) -> bool:
    """True iff every rotation alternates incoming and outgoing edges."""
    for rot in P.rotations:
        outs = [d % 2 == 1 for d in rot]    # 2e + 1 leaves e's tail
        if len(outs) % 2 != 0:
            return False
        if any(outs[i] == outs[(i + 1) % len(outs)] for i in range(len(outs))):
            return False
    return True


def seifert_matrix(face_walks, dropped=0):
    """The Seifert matrix V of the special alternating link of a plane
    bipartite graph, its Seifert graph (Seifert 1934), on the faces other
    than face dropped, in face order: those faces give a basis of the
    Seifert surface's first homology. V[f][f] is -len(f)/2, an integer
    since every face of a bipartite plane graph has even length, and each
    edge e adds 1 to V[a][b], where face a holds its dart 2e + 1 and face
    b its dart 2e."""
    kept = [f for f in range(len(face_walks)) if f != dropped]
    row = {f: i for i, f in enumerate(kept)}
    face_of = {d: f for f, walk in enumerate(face_walks) for d in walk}
    V = [[0] * len(kept) for _ in kept]
    for f in kept:
        V[row[f]][row[f]] = -(len(face_walks[f]) // 2)
    for e in range(len(face_of) // 2):
        a, b = face_of[2 * e + 1], face_of[2 * e]
        if a != dropped and b != dropped:
            V[row[a]][row[b]] += 1
    return V


def seifert_poly(face_walks, dropped=0):
    """det(V - tV^T) at -t, that is det(V + tV^T), normalized."""
    V = seifert_matrix(face_walks, dropped)
    return normalized(pencil_det(V, [list(col) for col in zip(*V)]))


@dataclass(frozen=True)
class SignedCircuit:
    """A circuit with an orientation.

    lam is the dependency vector over the full ground set: sum of
    lam[i] * column_i is exactly zero, and it vanishes off the support.
    """

    support: tuple
    lam: tuple

    @property
    def positive_part(self):
        return frozenset(i for i in self.support if self.lam[i] > 0)

    def negate(self):
        return SignedCircuit(self.support, tuple(-x for x in self.lam))


@lru_cache(maxsize=None)
def entries_of(ctx: MatroidContext):
    """ctx.matrix.entries, read once per context; callers do not modify
    it."""
    return ctx.matrix.entries


def _basis_expansions(ctx: MatroidContext, basis):
    """Coefficients expressing every column in the given basis.

    Returns a d x N grid X with column_j = sum_i X[i][j] * column_{basis[i]},
    computed by one Gauss-Jordan pass on [A_B | A].
    """
    d = ctx.rank_d
    red, pivots = _rref([[row[b] for b in basis] + row
                         for row in entries_of(ctx)])
    if pivots != list(range(d)):
        raise ValueError("selected columns are not a basis")
    return [row[d:] for row in red]


def _circuit(ctx: MatroidContext, X, basis, j) -> SignedCircuit:
    lam = [Fraction(0)] * ctx.n_elements
    for i, b in enumerate(basis):
        lam[b] = X[i][j]
    lam[j] = Fraction(-1)
    support = tuple(sorted(i for i in range(ctx.n_elements) if lam[i] != 0))
    return SignedCircuit(support, tuple(lam))


def fundamental_circuit(ctx: MatroidContext, basis, j) -> SignedCircuit:
    """The unique circuit inside basis + {j}, normalized so lam[j] = -1."""
    if j in basis:
        raise ValueError("element already belongs to the basis")
    return _circuit(ctx, _basis_expansions(ctx, basis), basis, j)


def orient_circuit(c: SignedCircuit, rho) -> SignedCircuit:
    """Return c or its negation so the generic vector sees it positively."""
    if rho == LEX_ORDER:
        return c if c.lam[c.support[0]] > 0 else c.negate()
    val = sum(a * b for a, b in zip(c.lam, rho))
    if val == 0:
        raise NotGeneric(f"rho is orthogonal to circuit {c.support}")
    return c if val > 0 else c.negate()


def ext_sets(ctx: MatroidContext, basis, rhos):
    """Per vector in rhos, the non-basis elements in the positive part of
    their fundamental circuit oriented by it; the circuits are built
    once."""
    X = _basis_expansions(ctx, basis)
    out = [[] for _ in rhos]
    for j in range(ctx.n_elements):
        if j in basis:
            continue
        c = _circuit(ctx, X, basis, j)
        for ext, rho in zip(out, rhos):
            if j in orient_circuit(c, rho).positive_part:
                ext.append(j)
    return out


def ext_set(ctx: MatroidContext, basis, rho):
    """Non-basis elements in the positive part of their oriented
    fundamental circuit."""
    return ext_sets(ctx, basis, [rho])[0]


@lru_cache(maxsize=None)
def circuits(ctx: MatroidContext):
    """All circuits, as minimal dependent column sets of size <= d + 1.

    Cached per context; the circuit list is orientation-free data.
    """
    entries = entries_of(ctx)
    seen = []
    for size in range(1, ctx.rank_d + 2):
        for cand in combinations(range(ctx.n_elements), size):
            if any(set(c.support) <= set(cand) for c in seen):
                continue
            ker = _kernel([[row[j] for j in cand] for row in entries])
            if not ker:
                continue
            lam = [Fraction(0)] * ctx.n_elements
            for idx, j in enumerate(cand):
                lam[j] = ker[0][idx]
            if any(lam[j] == 0 for j in cand):
                continue  # dependent but not minimal; a subset is a circuit
            seen.append(SignedCircuit(tuple(cand), tuple(lam)))
    return tuple(seen)


def is_generic(ctx: MatroidContext, rho) -> bool:
    """True iff rho is orthogonal to no circuit."""
    return all(sum(a * b for a, b in zip(c.lam, rho)) != 0
               for c in circuits(ctx))


@dataclass(frozen=True)
class Tile:
    """A basis key (as enumerate_bases yields it), the sum of its
    externally semi-active columns (shift) and their number (ext), which
    is the level of shift."""
    basis: int
    shift: tuple
    ext: int


def tiling(ctx):
    """One shifted parallelepiped per basis, shifted by its externally
    semi-active columns under LEX_ORDER; together they tile the zonotope."""
    tiles = []
    for basis in enumerate_bases(ctx.mctx):
        ext, n_ext = ext_semiactivity(ctx.mctx, basis, LEX_ORDER)
        shift = [0] * ctx.d
        for j in ext:
            for i, c in enumerate(ctx.vectors[j]):
                shift[i] += c
        tiles.append(Tile(basis, tuple(shift), n_ext))
    return tuple(tiles)


def tile_vertices(ctx, tile):
    """All 2^d vertices of a tile's shifted parallelepiped."""
    pts = [tile.shift]
    for b in _columns(tile.basis):
        col = ctx.vectors[b]
        pts += [tuple(x + c for x, c in zip(p, col)) for p in pts]
    return pts


def trimming_vertex(ctx, tile, signs):
    """The unique trimmed point of a tile: its shift plus the basis columns
    carrying negative coefficients in the expansion of l in the tile's
    basis. signs holds those coefficients or just their signs."""
    p = list(tile.shift)
    for s, b in zip(signs, _columns(tile.basis)):
        if s < 0:
            for i, c in enumerate(ctx.vectors[b]):
                p[i] += c
        elif s == 0:
            raise NotAdmissible("zero coefficient in basis expansion")
    return tuple(p)


class LatticePointSet(namedtuple("LatticePointSet", "points levels")):
    """Sorted integer tuples (points) and the level of each point (levels,
    parallel to points). len() counts the points."""

    __slots__ = ()

    def __len__(self):
        return len(self.points)


def trimmed_points_by_tiles(ctx, adm):
    """The points and levels of trimmed_points by a second walk: the
    trimming vertex of every tile, with level the tile's ext plus its
    negative coefficients."""
    expansions = {basis: nums
                  for basis, nums, _den in basis_expansions(ctx, adm.l)}
    levels = {}
    for tile in tiling(ctx):
        nums = expansions[tile.basis]
        levels[trimming_vertex(ctx, tile, nums)] = \
            tile.ext + sum(n < 0 for n in nums)
    pts = sorted(levels)
    return LatticePointSet(tuple(pts), tuple(levels[p] for p in pts))


def lattice_points(ctx):
    """Integer points of a unimodular zonotope, as the union of tile vertex
    sets, with their levels by the row-reduced flat_witness."""
    # The matrix is integral, so the table's scale is 1.
    if any(abs(c) > 1 for c in ctx.mctx.chi.values()):
        raise NotUnimodular("lattice enumeration needs a unimodular matrix")
    h = flat_witness(ctx.matrix)
    pts = sorted({p for t in tiling(ctx) for p in tile_vertices(ctx, t)})
    return LatticePointSet(tuple(pts), tuple(
        sum(a * x for a, x in zip(h, p)) for p in pts))


def check_admissible(ctx, l, m):
    """(True, None) if every basis expansion of l, solved by row
    reduction, has m positive and d - m negative coefficients, else
    (False, the first basis key that does not)."""
    entries = ctx.matrix.entries
    for basis in enumerate_bases(ctx.mctx):
        cols = _columns(basis)
        alphas = _solve([[row[b] for b in cols] for row in entries], l)[0]
        if sum(a > 0 for a in alphas) != m or \
                sum(a < 0 for a in alphas) != ctx.d - m:
            return False, basis
    return True, None


def admissible_direction(ctx):
    """The first direction l in product order with entries in [-3, 3]
    whose expansion in every basis has no zero and the same number m of
    positive coefficients, as an AdmissibleVector; None if there is none.
    Candidates are screened by the library's basis expansions, so a caller
    confirms the result with check_admissible."""
    for l in product(range(-3, 4), repeat=ctx.d):
        counts = set()
        for _basis, nums, _den in basis_expansions(ctx, l):
            counts.add(sum(n > 0 for n in nums))
            if 0 in nums or len(counts) > 1:
                break
        else:
            return AdmissibleVector(l, counts.pop())
    return None


def upper_bound_rows(n, extra):
    """Rows x_j + s_j over the variables x_1..x_n, `extra` further
    variables, then the slacks s_1..s_n.  With right-hand sides u_j they
    state x_j <= u_j in standard form."""
    return [[int(j == c) for c in range(n)] + [0] * extra
            + [int(j == c) for c in range(n)] for j in range(n)]


def max_epsilon(ctx, point, l):
    """Largest eps with point + eps*l still in the zonotope, by exact LP."""
    N = ctx.matrix.cols
    # Variables: t_1..t_N in [0,1], then eps >= 0, then the slacks of t.
    # The matrix is integral, so its integer rows are its entries.
    rows = [row + [-x] + [0] * N for row, x in zip(ctx.matrix.num, l)]
    rhs = list(point)
    prog = lpexact.LinearProgram.build(
        objective=[0] * N + [1] + [0] * N,
        eq_lhs=rows + upper_bound_rows(N, 1),
        eq_rhs=rhs + [1] * N,
    )
    out = lpexact.lp_solve(prog)
    if out.status != lpexact.OPTIMAL:
        return None
    return out.optimum


def trimmed_points_lp(ctx, adm):
    """Sorted lattice points that can move a positive distance along l and
    stay inside, decided by one exact LP per lattice point."""
    out = []
    for p in lattice_points(ctx).points:
        eps = max_epsilon(ctx, p, adm.l)
        if eps is not None and eps > 0:
            out.append(p)
    return out


def zonotope_membership(A: Matrix, point) -> bool:
    """Exact LP membership test for an arbitrary rational point in the
    zonotope of A's columns."""
    N = A.cols
    prog = lpexact.LinearProgram.build(
        objective=[0] * 2 * N,
        eq_lhs=[row + [0] * N for row in A.entries] + upper_bound_rows(N, 0),
        eq_rhs=list(point) + [1] * N,
    )
    return lpexact.lp_solve(prog).status == lpexact.OPTIMAL


def translated(n_vertices, part1, points):
    """Points in incidence coordinates moved by -e_j, where j is the one
    negative coordinate of the bipartite admissible direction, sorted."""
    j = [v for v in range(n_vertices) if v not in set(part1)][-1]
    return sorted(p[:j] + (p[j] - 1,) + p[j + 1:] for p in points)


def trimmed_zonotope_points(n_vertices, edges, part1):
    """Lattice points of the simplex-trimmed zonotope of a bipartite graph:
    the translated lattice points x, lifted to incidence coordinates, with
    x + e_i inside the incidence matrix's zonotope for every vertex i, by
    one membership LP per (x, i)."""
    ctx = bipartite_graph_context(n_vertices, edges, part1)
    A = incidence_matrix(standard_orientation(n_vertices, edges, part1))
    lifted = map(incidence_point, lattice_points(ctx).points)
    out = []
    for x in translated(n_vertices, part1, lifted):
        if all(zonotope_membership(A, x[:i] + (x[i] + 1,) + x[i + 1:])
               for i in range(n_vertices)):
            out.append(x)
    return out


class FractionSimplex:
    """Standard-form simplex state over columns 0..n-1 (real) plus
    n..n+m-1 (artificial), with every tableau entry a Fraction.

    pivots lists the (row, column) of every pivot made, in order."""

    def __init__(self, p, pivots):
        self.pivots = pivots
        self.m = len(p.eq_lhs)
        self.n = len(p.objective)
        m, n = self.m, self.n
        # Each artificial's sign makes it start >= 0.
        self.T = []
        self.beta = []
        for i, (row, b) in enumerate(zip(p.eq_lhs, p.eq_rhs)):
            sign = Fraction(-1) if b < 0 else Fraction(1)
            art = [Fraction(0)] * m
            art[i] = sign
            self.T.append([sign * a for a in row] + art)
            self.beta.append(sign * b)
        self.basis = list(range(n, n + m))
        self.in_basis = [False] * n + [True] * m

    def pivot(self, r, col):
        self.pivots.append((r, col))
        inv = 1 / self.T[r][col]
        self.T[r] = [x * inv for x in self.T[r]]
        self.beta[r] *= inv
        for i in range(self.m):
            if i != r and self.T[i][col] != 0:
                f = self.T[i][col]
                self.T[i] = [x - f * y for x, y in zip(self.T[i], self.T[r])]
                self.beta[i] -= f * self.beta[r]
        self.in_basis[self.basis[r]] = False
        self.in_basis[col] = True
        self.basis[r] = col

    def run(self, obj, hold_artificials):
        """Maximize obj over the real columns. Returns True if an optimum
        was reached, False on unboundedness. With hold_artificials, a basic
        artificial row with a nonzero entry in the entering column gives
        ratio 0."""
        n, m = self.n, self.m
        while True:
            z = [Fraction(0)] * (n + m)
            for i, bi in enumerate(self.basis):
                f = obj[bi]
                if f != 0:
                    row = self.T[i]
                    for j in range(n + m):
                        if row[j] != 0:
                            z[j] += f * row[j]
            enter = next((j for j in range(n)
                          if not self.in_basis[j] and obj[j] - z[j] > 0),
                         None)
            if enter is None:
                return True
            limit = None           # (ratio, basic index, row)
            for i in range(m):
                d = self.T[i][enter]
                bi = self.basis[i]
                if hold_artificials and bi >= n and d != 0:
                    t = Fraction(0)
                elif d > 0:
                    t = self.beta[i] / d
                else:
                    continue
                if limit is None or (t, bi) < limit[:2]:
                    limit = (t, bi, i)
            if limit is None:
                return False
            self.pivot(limit[2], enter)

    def solution(self):
        x = [Fraction(0)] * (self.n + self.m)
        for i, bi in enumerate(self.basis):
            x[bi] = self.beta[i]
        return x


def fraction_lp_solve(p, pivots=None):
    """The two-phase Bland simplex of lpexact.lp_solve, pivoting over
    Fractions.  Returns the LpOutcome; when pivots is a list, the
    (row, column) of every pivot is appended to it."""
    s = FractionSimplex(p, [] if pivots is None else pivots)
    n, m = s.n, s.m

    # Phase 1: drive the artificials to zero.
    obj1 = [Fraction(0)] * n + [Fraction(-1)] * m
    s.run(obj1, hold_artificials=False)
    x = s.solution()
    if any(x[j] != 0 for j in range(n, n + m)):
        return lpexact.LpOutcome(lpexact.INFEASIBLE)

    obj2 = list(p.objective) + [Fraction(0)] * m
    if not s.run(obj2, hold_artificials=True):
        return lpexact.LpOutcome(lpexact.UNBOUNDED)
    x = s.solution()[:n]
    opt = sum((c * v for c, v in zip(p.objective, x)), Fraction(0))
    return lpexact.LpOutcome(lpexact.OPTIMAL, opt, tuple(x))
