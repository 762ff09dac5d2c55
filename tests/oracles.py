"""Slow, independent routes to the oriented-matroid and zonotope data,
for tests only.

The library reads fundamental circuits off its table of maximal minors.
These oracles rebuild them from scratch: one Gauss-Jordan pass per basis
for fundamental circuits, and a kernel scan over small column sets for
the full circuit list.

The library trims a zonotope by reading one vertex off each tile. These
oracles decide trimming by exact LPs instead: one LP per lattice point for
the largest step along l, or, for bipartite graphs, one membership LP per
vertex and candidate point.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from flatpoly import lpexact
from flatpoly.exactnum import Matrix, dot, frac
from flatpoly.ormatroid import LEX_ORDER, MatroidContext, NotGeneric
from flatpoly.zonolattice import bipartite_graph_context, lattice_points


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


def _basis_expansions(ctx: MatroidContext, basis):
    """Coefficients expressing every column in the given basis.

    Returns a d x N grid X with column_j = sum_i X[i][j] * column_{basis[i]},
    computed by one Gauss-Jordan pass on [A_B | A].
    """
    A = ctx.matrix
    d = ctx.rank_d
    aug = Matrix([[A.entries[i][b] for b in basis] + A.entries[i][:]
                  for i in range(d)])
    red, pivots = aug._rref()
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
    val = dot(c.lam, rho)
    if val == 0:
        raise NotGeneric(f"rho is orthogonal to circuit {c.support}")
    return c if val > 0 else c.negate()


def ext_set(ctx: MatroidContext, basis, rho):
    """Non-basis elements in the positive part of their oriented
    fundamental circuit."""
    X = _basis_expansions(ctx, basis)
    return [j for j in range(ctx.n_elements) if j not in basis and
            j in orient_circuit(_circuit(ctx, X, basis, j), rho).positive_part]


@lru_cache(maxsize=None)
def circuits(ctx: MatroidContext):
    """All circuits, as minimal dependent column sets of size <= d + 1.

    Cached per context; the circuit list is orientation-free data.
    """
    A = ctx.matrix
    seen = []
    for size in range(1, ctx.rank_d + 2):
        for cand in combinations(range(A.cols), size):
            if any(set(c.support) <= set(cand) for c in seen):
                continue
            ker = A.submatrix(range(A.rows), cand).kernel_basis()
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
    return all(dot(c.lam, rho) != 0 for c in circuits(ctx))


def max_epsilon(ctx, point, l):
    """Largest eps with point + eps*l still in the zonotope, by exact LP."""
    N = ctx.matrix.cols
    # Variables: t_1..t_N in [0,1], then eps >= 0.
    rows = []
    rhs = []
    for i in range(ctx.k):
        row = [ctx.matrix.entries[i][j] for j in range(N)]
        row.append(-frac(l[i]))
        rows.append(row)
        rhs.append(frac(point[i]))
    prog = lpexact.LinearProgram.build(
        objective=[0] * N + [1],
        eq_lhs=rows,
        eq_rhs=rhs,
        bounds=[(0, 1)] * N + [(0, None)],
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


def zonotope_membership(ctx, point) -> bool:
    """Exact LP membership test for an arbitrary rational point."""
    N = ctx.matrix.cols
    prog = lpexact.LinearProgram.build(
        objective=[0] * N,
        eq_lhs=[[ctx.matrix.entries[i][j] for j in range(N)]
                for i in range(ctx.k)],
        eq_rhs=[frac(x) for x in point],
        bounds=[(0, 1)] * N,
    )
    return lpexact.lp_solve(prog).status == lpexact.OPTIMAL


def translated(n_vertices, part1, points):
    """Points moved by -e_j, where j is the one negative coordinate of the
    bipartite admissible direction, sorted."""
    j = [v for v in range(n_vertices) if v not in set(part1)][-1]
    return sorted(p[:j] + (p[j] - 1,) + p[j + 1:] for p in points)


def trimmed_zonotope_points(n_vertices, edges, part1):
    """Lattice points of the simplex-trimmed zonotope of a bipartite graph:
    the translated lattice points x with x + e_i inside the zonotope for
    every vertex i, by one membership LP per (x, i)."""
    ctx = bipartite_graph_context(n_vertices, edges, part1)
    out = []
    for x in translated(n_vertices, part1, lattice_points(ctx).points):
        if all(zonotope_membership(ctx, x[:i] + (x[i] + 1,) + x[i + 1:])
               for i in range(n_vertices)):
            out.append(x)
    return out
