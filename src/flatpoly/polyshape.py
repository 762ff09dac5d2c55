"""Integer polynomials, q-number products, coefficient-shape predicates and
box certificates, which are refused from the coefficients when p is not
palindromic and trapezoidal, read in closed form for at most two q-number
factors above [1]_q, and found by an exact LP otherwise.

A polynomial is a list of coefficients, index i = coefficient of t^i,
normalized so there is no trailing zero (the zero polynomial is []).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .exactnum import _integer_rows


def normalize(coeffs):
    """Strip trailing zeros; canonical form of a coefficient list."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(p, q):
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_shift(p, k):
    """Multiply by t^k."""
    return normalize([0] * k + list(p))


def _times_q_number(p, m):
    """p * [m]_q, [m]_q = 1 + q + ... + q^(m-1), as a running window sum:
    coefficient i is p[i-m+1] + ... + p[i], so the cost is O(len p + m)."""
    out = list(accumulate(p + [0] * (m - 1)))
    for i in range(len(out) - 1, m - 1, -1):
        out[i] -= out[i - m]
    return out


def q_product(ms):
    """Product of q-numbers [m1]_q ... [md]_q; degree sum(ms) - len(ms)."""
    out = [1]
    for m in ms:
        if m < 1:
            raise ValueError("q-number index must be positive")
        out = _times_q_number(out, m)
    return out


class ShapeReport(namedtuple("ShapeReport", "palindromic nonnegative "
                             "no_internal_zeros log_concave trapezoidal")):
    __slots__ = ()

    def __new__(cls, palindromic, nonnegative, no_internal_zeros,
                log_concave, trapezoidal):
        if log_concave and no_internal_zeros and nonnegative \
                and not trapezoidal:
            raise AssertionError(
                "log-concave positive sequences with no internal zeros "
                "must be trapezoidal")
        return super().__new__(cls, palindromic, nonnegative,
                               no_internal_zeros, log_concave, trapezoidal)


def _is_trapezoidal(a):
    """Strictly increasing, then a constant plateau, then strictly decreasing."""
    n = len(a)
    if n == 0:
        return False
    if any(x <= 0 for x in a):
        return False
    i = 0
    while i + 1 < n and a[i] < a[i + 1]:
        i += 1
    j = i
    while j + 1 < n and a[j] == a[j + 1]:
        j += 1
    while j + 1 < n and a[j] > a[j + 1]:
        j += 1
    return j == n - 1


def shape_report(p) -> ShapeReport:
    """Compute every shape flag of a coefficient sequence from definitions.

    The trapezoidal test checks the increasing/plateau/decreasing chain
    directly; it does not go through log-concavity, which box-positive
    polynomials may fail.
    """
    a = normalize(p)
    if not a:
        # Vacuously log-concave, nonnegative and free of internal zeros,
        # but no trapezoid: the invariant speaks of nonempty sequences.
        return tuple.__new__(ShapeReport, (True, True, True, True, False))
    palindromic = a == a[::-1]
    nonnegative = all(x >= 0 for x in a)
    # a ends in a nonzero, so its support runs from its first nonzero on.
    first = next(i for i, x in enumerate(a) if x != 0)
    no_internal_zeros = all(x != 0 for x in a[first:])
    log_concave = all(a[i] * a[i] >= a[i - 1] * a[i + 1]
                      for i in range(1, len(a) - 1))
    return ShapeReport(palindromic, nonnegative, no_internal_zeros,
                       log_concave, _is_trapezoidal(a))


class BoxCertificate(namedtuple("BoxCertificate", "degree_d terms")):
    """Positive combination of q-number products certifying a polynomial.

    terms is a tuple of (composition, coefficient) pairs; each composition
    has degree_d positive parts summing to deg(p) + degree_d, and expanding
    the combination reproduces the certified polynomial exactly.
    """

    __slots__ = ()

    def expand(self):
        """The combination's coefficients as Fractions: the sum of
        coef * L * q_product runs in integers, with L the lcm of the
        coefficient denominators, and is divided by L once at the end."""
        (scaled,), L = _integer_rows([[coef for _, coef in self.terms]])
        return [Fraction(a, L) for a in _q_combination(
            (comp, k) for (comp, _), k in zip(self.terms, scaled))]


def _q_combination(terms):
    """sum of k * q_product(comp) over (comp, k) pairs with integer k.
    q-numbers commute, so terms whose compositions permute each other
    merge first and one product per partition is expanded."""
    merged = {}
    for comp, k in terms:
        part = tuple(sorted(comp))
        merged[part] = merged.get(part, 0) + k
    out = []
    for part, k in merged.items():
        out = poly_add(out, [k * a for a in q_product(part)])
    return out


def _q_columns(total, parts):
    """(composition, q_product(composition)) for the compositions of total
    into 1 <= parts <= total positive parts, lexicographic, depth first: a
    child extends its parent's product by one window sum, so siblings share
    the factors of their prefix. The walk keeps an explicit stack, children
    pushed largest part first, and so builds no self-referencing closure
    for the cyclic collector to free."""
    stack = [((), [1], total, parts)]
    while stack:
        prefix, prod, left, k = stack.pop()
        if k == 1:
            yield prefix + (left,), _times_q_number(prod, left)
        else:
            stack += [(prefix + (m,), _times_q_number(prod, m), left - m,
                       k - 1) for m in range(left - k + 1, 0, -1)]


def box_certificate(p, d):
    """Certificate that p is a positive combination of d-fold q-number
    products of fixed total, or None when there is none.

    A q-product is positive and log-concave, so trapezoidal and symmetric
    about D/2, D = deg(p), and so is a positive sum of them: p that is not
    both is refused at once. At most min(d, D) parts of a composition of
    D + d exceed 1, as [1]_q = 1; the parts 1 come first, so compositions
    are nondecreasing. With at most two parts above 1 the certificate is
    read in closed form from the first half of p, otherwise from the
    exact feasibility LP over all compositions.
    """
    if d < 1:
        raise ValueError(f"box certificates need d >= 1 factors, got {d}")
    p = normalize(p)
    if not p:
        raise ValueError("the zero polynomial has no box certificate")
    if any(a < 0 for a in p):
        raise ValueError("certificates exist only for nonnegative coefficients")
    if p != p[::-1] or not _is_trapezoidal(p):
        return None
    D = len(p) - 1
    if min(d, D) > 2:
        return _box_lp(p, d)
    if d == 1:
        return _certified(p, d, [((D + 1,), Fraction(p[0]))]) \
            if p.count(p[0]) == len(p) else None
    # [m]_q [D+2-m]_q, m <= h + 1, rises by 1 at t^i for i < m and is flat
    # from there to the middle h: p's rise r_i is the sum of c_m over m > i,
    # so c_m = r_(m-1) - r_m and c_(h+1) = r_h. For D <= 1 the one term is
    # (1, D + 1), the LP's (D + 1,) after its d - 1 ones.
    h = D // 2
    rises = [b - a for a, b in zip([0] + p, p[:h + 1])]
    cs = [a - b for a, b in zip(rises, rises[1:])] + [rises[h]]
    if any(c < 0 for c in cs):
        return None
    return _certified(p, d, [((1,) * (d - 2) + (m, D + 2 - m), Fraction(c))
                             for m, c in enumerate(cs, 1) if c > 0])


def _box_lp(p, d):
    """box_certificate's LP for a normalized nonnegative p: one equality
    per coefficient of t^0 .. t^D, one variable per composition of D + k
    into k = min(d, D) parts (the 0-fold product is 1), whose product has
    degree D and so a full integer column."""
    from . import lpexact

    D = len(p) - 1
    k = min(d, D)
    comps, columns = zip(*(_q_columns(D + k, k) if k else [((), [1])]))
    prog = lpexact.LinearProgram.build(
        objective=[0] * len(comps), eq_lhs=zip(*columns), eq_rhs=p)
    out = lpexact.lp_solve(prog)
    if out.status != lpexact.OPTIMAL:
        return None
    ones = (1,) * (d - k)
    return _certified(p, d, [(ones + comp, coef) for comp, coef
                             in zip(comps, out.witness) if coef > 0])


def _certified(p, d, terms):
    """The certificate of terms, re-verified by expansion, so a wrong
    closed form or a solver bug cannot produce a silently wrong answer."""
    cert = BoxCertificate(d, tuple(terms))
    if cert.expand() != p:
        raise AssertionError("certificate expansion mismatch")
    return cert
