"""Slow, independent routes to the oriented-matroid data, for tests only.

The library reads fundamental circuits off its table of maximal minors.
These oracles rebuild them from scratch: one Gauss-Jordan pass per basis
for fundamental circuits, and a kernel scan over small column sets for
the full circuit list.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from flatpoly.exactnum import Matrix, dot
from flatpoly.ormatroid import LEX_ORDER, MatroidContext, NotGeneric


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
