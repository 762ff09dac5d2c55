"""Seeded inputs for the benchmark workloads.

Every input is generated here from the workload seed, written as a JSON
file in the flatpoly formats, and paired with the values the independent
checks in ``checks.py`` expect. Nothing in this module calls flatpoly.

A workload is a fixed list of requests (CLI argument vectors). Sizes and
structures are fixed per request slot; the seed chooses vertex labels,
column and edge orders, roots and Vandermonde node shifts, so every seed
asks for about the same work in the same layers.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations

import checks


@dataclass
class Request:
    kind: str            # key into checks.CHECKS
    argv: list
    expect: dict = field(default_factory=dict)
    expect_rc: int = 0


# ---------------------------------------------------------------------------
# JSON writers

def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def matrix_json(rows):
    return {"format": "matrix-v1", "rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(x) for x in row] for row in rows]}


def digraph_json(n, edges):
    return {"format": "digraph-v1", "vertices": n,
            "edges": [list(e) for e in edges]}


def poly_json(coeffs):
    return {"format": "poly-v1", "variable": "q", "coeffs": list(coeffs)}


def bigraph_json(g):
    return {"format": "bigraph-v1", "vertices": g.n, "part1": g.part1,
            "edges": [list(e) for e in g.edges]}


def planegraph_json(g):
    """bigraph-v1 plus the counterclockwise rotation at every vertex, read
    off the drawing; each half-edge names the file's own edge direction."""
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        toward_v = g.bends.get(i, g.coords[v])
        toward_u = g.bends.get(i, g.coords[u])
        incident[u].append((i, "tail", toward_v))
        incident[v].append((i, "head", toward_u))
    rotations = []
    for v in range(g.n):
        x0, y0 = g.coords[v]
        rot = sorted(incident[v],
                     key=lambda it: math.atan2(it[2][1] - y0, it[2][0] - x0))
        rotations.append([{"edge": i, "end": end} for i, end, _ in rot])
    return {**bigraph_json(g), "format": "planegraph-v1",
            "rotations": rotations}


# ---------------------------------------------------------------------------
# plane bipartite graphs with drawings

@dataclass
class PlaneBigraph:
    n: int
    edges: list          # (u, v) pairs, either direction
    part1: list
    coords: list         # vertex -> (x, y)
    bends: dict          # edge index -> waypoint, for parallel edges


def _parity_parts(n, edges):
    color = {0: 0}
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [0]
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in color:
                color[x] = 1 - color[w]
                stack.append(x)
    return [w for w in range(n) if color[w] == 0]


def plane_cycle(k, doubled=()):
    """Even cycle; the listed positions get a second edge bent outward."""
    coords = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
              for i in range(k)]
    edges = [(i, (i + 1) % k) for i in range(k)]
    bends = {}
    for pos in doubled:
        a = 2 * math.pi * (pos + 0.5) / k
        bends[len(edges)] = (1.5 * math.cos(a), 1.5 * math.sin(a))
        edges.append((pos, (pos + 1) % k))
    return PlaneBigraph(k, edges, _parity_parts(k, edges), coords, bends)


def plane_grid(rows, cols):
    vid = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    coords = [(float(c), float(-r)) for r in range(rows) for c in range(cols)]
    return PlaneBigraph(rows * cols, edges, _parity_parts(rows * cols, edges),
                        coords, {})


def plane_theta(lengths):
    """Two hubs joined by disjoint paths of the given even lengths."""
    coords = [(-2.0, 0.0), (2.0, 0.0)]
    edges = []
    n = 2
    for p, length in enumerate(lengths):
        y = float(len(lengths) - 1 - 2 * p)
        prev = 0
        for s in range(length - 1):
            coords.append((-2.0 + 4.0 * (s + 1) / length, y))
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return PlaneBigraph(n, edges, _parity_parts(n, edges), coords, {})


def plane_k23():
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    coords = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, -1.0)]
    return PlaneBigraph(5, edges, [0, 1], coords, {})


PLANE_GRAPHS = {
    "C4": lambda: plane_cycle(4),
    "C6": lambda: plane_cycle(6),
    "C8": lambda: plane_cycle(8),
    "C4-one-double": lambda: plane_cycle(4, (0,)),
    "C4-two-doubles": lambda: plane_cycle(4, (0, 2)),
    "C4-doubled": lambda: plane_cycle(4, (0, 1, 2, 3)),
    "C6-one-double": lambda: plane_cycle(6, (0,)),
    "C6-doubled": lambda: plane_cycle(6, range(6)),
    "grid2x3": lambda: plane_grid(2, 3),
    "grid2x4": lambda: plane_grid(2, 4),
    "grid2x5": lambda: plane_grid(2, 5),
    "grid3x3": lambda: plane_grid(3, 3),
    "theta222": lambda: plane_theta((2, 2, 2)),
    "theta224": lambda: plane_theta((2, 2, 4)),
    "K23": plane_k23,
}


def relabel(g: PlaneBigraph, rng):
    """Random vertex labels, edge order and edge directions; the drawing
    moves with the labels, so the embedding is unchanged."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    edges, bends = [], {}
    for new_i, old_i in enumerate(order):
        u, v = g.edges[old_i]
        e = (perm[u], perm[v])
        edges.append(e if rng.random() < 0.5 else e[::-1])
        if old_i in g.bends:
            bends[new_i] = g.bends[old_i]
    coords = [None] * g.n
    for old, new in enumerate(perm):
        coords[new] = g.coords[old]
    return PlaneBigraph(g.n, edges, sorted(perm[v] for v in g.part1),
                        coords, bends)


# ---------------------------------------------------------------------------
# digraphs, flat matrices, totally positive C

def cycle_union_digraph(rng, n, m):
    """Connected Eulerian digraph on n vertices with m edges (m != n + 1):
    a directed Hamiltonian cycle plus random directed cycles of length
    2..n."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    while len(edges) < m:
        left = m - len(edges)
        length = rng.randint(2, min(n, left))
        if left - length == 1:
            continue
        verts = rng.sample(range(n), length)
        edges += [(verts[i], verts[(i + 1) % length]) for i in range(length)]
    return edges


def random_flat_matrix(rng, d, N):
    """Integer d x N matrix, entries in [-3, 3] above a row of ones, of full
    row rank. Returns (rows, sum of |maximal minors|)."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(d - 1)]
        rows.append([1] * N)
        volume = sum(abs(m) for m in checks.maximal_minors(rows))
        if volume:
            return rows, volume


def vandermonde_c(rng, d, N, shift):
    """(d-1) x N matrix with rows x^0 .. x^(d-2) at increasing positive
    nodes, so every maximal minor is positive. Adding the same shift to
    every node changes C but none of its maximal minors."""
    xs = sorted(rng.sample(range(1, 3 * N), N))
    return [[(x + shift) ** i for x in xs] for i in range(d - 1)]


# ---------------------------------------------------------------------------
# workloads

class Builder:
    """Collects a workload's requests. Each request slot draws its
    structure (matrix entries, digraph cycles) from a generator keyed by
    the workload and slot alone, so every seed gets the same work; the run
    seed then picks labels, column and edge orders, roots and node shifts."""

    def __init__(self, workdir, workload, seed):
        self.workdir = workdir
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.requests = []

    def _structure(self):
        return random.Random(f"{self.workload}:slot{len(self.requests)}")

    def _path(self, stem, obj):
        return _write(self.workdir, f"{len(self.requests):03d}-{stem}.json",
                      obj)

    def fa_matrix(self, d, N):
        rows, volume = random_flat_matrix(self._structure(), d, N)
        cols = list(range(N))
        self.rng.shuffle(cols)
        rows = [[row[j] for j in cols] for row in rows]
        path = self._path("matrix", matrix_json(rows))
        self.requests.append(Request("fa-matrix", ["fa", "--matrix", path],
                                     {"volume": volume}))

    def fa_bigraph(self, name):
        g = relabel(PLANE_GRAPHS[name](), self.rng)
        path = self._path("bigraph", bigraph_json(g))
        self.requests.append(Request(
            "fa-bigraph", ["fa", "--bigraph", path],
            {"trees": checks.tree_count(g.n, g.edges)}))

    def alexander(self, name):
        g = relabel(PLANE_GRAPHS[name](), self.rng)
        path = self._path("planegraph", planegraph_json(g))
        self.requests.append(Request(
            "alexander", ["alexander", "--planegraph", path],
            {"trees": checks.tree_count(g.n, g.edges)}))

    def pd(self, n, m):
        perm = list(range(n))
        self.rng.shuffle(perm)
        edges = [(perm[t], perm[h])
                 for t, h in cycle_union_digraph(self._structure(), n, m)]
        self.rng.shuffle(edges)
        path = self._path("digraph", digraph_json(n, edges))
        root = self.rng.randrange(n)
        self.requests.append(Request(
            "pd", ["pd", "--digraph", path, "--root", str(root)],
            {"trees": checks.tree_count(n, edges)}))

    def zonotope(self, name):
        g = relabel(PLANE_GRAPHS[name](), self.rng)
        path = self._path("bigraph", bigraph_json(g))
        self.requests.append(Request(
            "zonotope", ["zonotope", "--bigraph", path],
            {"trees": checks.tree_count(g.n, g.edges)}))

    def tp_and_boxcert(self, d, N):
        """tp --from-c on a Vandermonde C, then boxcert on its polynomial
        (feasible) and on the same polynomial with the constant term raised
        by one, which is not palindromic and so has no certificate."""
        C = vandermonde_c(self._structure(), d, N, self.rng.randrange(4))
        A = checks.suffix_sum_matrix(C)
        volume = sum(checks.maximal_minors(A))
        path = self._path("c", matrix_json(C))
        self.requests.append(Request("tp", ["tp", "--from-c", path],
                                     {"A": A, "volume": volume}))
        # A box-positive polynomial of the same shape: the closed form's
        # combination of q-products, one per cut set js of [1, N-1],
        # weighted by the C-minor at columns js - 1.
        terms = []
        for js in combinations(range(1, N), d - 1):
            cuts = (0,) + js + (N,)
            coef = checks.bareiss_det([[row[j - 1] for j in js] for row in C])
            terms.append((tuple(b - a for a, b in zip(cuts, cuts[1:])), coef))
        poly = checks.expand_certificate(terms)
        for feasible in (True, False):
            p = list(poly) if feasible else [poly[0] + 1] + poly[1:]
            ppath = self._path("poly", poly_json(p))
            self.requests.append(Request(
                "boxcert", ["boxcert", "--poly", ppath, "--d", str(d)],
                {"feasible": feasible, "poly": p, "d": d},
                expect_rc=0 if feasible else 1))


def basis_scan(b, tiny):
    if tiny:
        b.fa_matrix(3, 5)
        b.fa_bigraph("C4-one-double")
        b.alexander("C4-two-doubles")
        return
    for d, N in [(4, 8)] * 4 + [(5, 8)] * 4 + [(3, 10)] * 3 + [(4, 9)] * 3:
        b.fa_matrix(d, N)
    for name in ("C6-doubled", "grid2x4", "theta224", "C4-doubled",
                 "grid2x3"):
        b.fa_bigraph(name)
        b.alexander(name)


def tree_scan(b, tiny):
    # Sizes keep C(m, n-1), the subsets scanned, within 4k-25k, so no
    # single slot makes the whole tail.
    sizes = [(5, 7)] if tiny else [
        (6, 16), (6, 17), (6, 18), (7, 15), (7, 16), (7, 17), (7, 18),
        (8, 15), (8, 16), (8, 17), (9, 15), (9, 16), (9, 17),
        (10, 15), (10, 16), (10, 17)]
    for n, m in sizes:
        b.pd(n, m)


def lp_mix(b, tiny):
    """Many narrow LPs (zonotope trimming, one LP with N+1 variables per
    lattice point) beside few wide ones (boxcert, one LP per polynomial),
    with tp --from-c for totpos."""
    if tiny:
        b.zonotope("C4")
        b.tp_and_boxcert(3, 5)
        return
    # Graphs of similar cost, so the zonotope requests form one size class.
    for name in ("C4-two-doubles", "theta222", "theta222", "K23", "K23",
                 "C6", "C6", "C4-doubled", "C4-doubled", "grid2x3"):
        b.zonotope(name)
    for d, N in [(3, 10), (3, 12), (4, 9), (4, 10), (4, 11), (4, 12),
                 (5, 10), (5, 11)]:
        b.tp_and_boxcert(d, N)


#: name -> (builder, latency_tail_s percentile). p95 leaves at least ten
#: samples beyond it in a 36 s run on a 2-vCPU x86 VM; higher percentiles
#: were not steady between runs there.
WORKLOADS = {
    "basis-scan": (basis_scan, 95),
    "tree-scan": (tree_scan, 95),
    "lp-mix": (lp_mix, 95),
}


def build(name, seed, workdir, tiny=False):
    make, tail = WORKLOADS[name]
    b = Builder(workdir, name, seed)
    make(b, tiny)
    return b.requests, tail
