"""Independent output checks for the benchmark.

Every expected value here is computed with plain Python integers and a
fraction-free (Bareiss) determinant; nothing is imported from flatpoly, so
a defect in the library cannot make its own output look right.

Each ``check_*`` function takes a parsed JSON report and returns ``None``
when the report is right, or a one-line reason when it is wrong.
"""

from __future__ import annotations

from itertools import combinations


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def maximal_minors(rows):
    """All maximal minors of a d x N integer matrix, in lexicographic order
    of the column subsets."""
    d = len(rows)
    return [bareiss_det([[row[j] for j in cols] for row in rows])
            for cols in combinations(range(len(rows[0])), d)]


def tree_count(n, edges):
    """Kirchhoff count of spanning trees of the underlying multigraph."""
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return bareiss_det([row[:-1] for row in lap[:-1]])


def suffix_sum_matrix(C):
    """The flat matrix built from C: row suffix sums, then a row of ones."""
    rows = []
    for row in C:
        acc, out = 0, [0] * len(row)
        for j in range(len(row) - 1, -1, -1):
            acc += row[j]
            out[j] = acc
        rows.append(out)
    rows.append([1] * len(C[0]))
    return rows


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def q_product(comp):
    out = [1]
    for m in comp:
        out = poly_mul(out, [1] * m)
    return out


def expand_certificate(terms):
    """Sum of coef * [m1]_q ... [md]_q over (composition, coef) pairs."""
    total = []
    for comp, coef in terms:
        prod = q_product(comp)
        if len(prod) > len(total):
            total += [0] * (len(prod) - len(total))
        for i, c in enumerate(prod):
            total[i] += coef * c
    while total and total[-1] == 0:
        total.pop()
    return total


def _int_coeffs(report):
    return [int(c) for c in report["result_poly"]["coeffs"]]


def as_int(s):
    num, _, den = str(s).partition("/")
    if den and int(den) != 1:
        raise ValueError(f"non-integer value {s}")
    return int(num)


# ---------------------------------------------------------------------------
# per-command checks; `expect` holds values computed when the input was made

def check_pd(report, expect):
    coeffs = _int_coeffs(report)
    if any(c < 0 for c in coeffs):
        return "negative coefficient"
    if sum(coeffs) != expect["trees"]:
        return f"P(1)={sum(coeffs)} but Kirchhoff gives {expect['trees']}"
    return None


def check_fa_matrix(report, expect):
    coeffs = _int_coeffs(report)
    if sum(coeffs) != expect["volume"]:
        return f"f(1)={sum(coeffs)} but sum |minors| = {expect['volume']}"
    return None


def check_tree_sum(report, expect):
    """fa --bigraph and alexander: coefficient sum is the tree count."""
    coeffs = _int_coeffs(report)
    if any(c < 0 for c in coeffs):
        return "negative coefficient"
    if sum(coeffs) != expect["trees"]:
        return f"coefficient sum {sum(coeffs)} != tree count {expect['trees']}"
    return None


def check_zonotope(report, expect):
    points = report["trimmed"]["points"]
    levels = [int(c) for c in report["level_poly"]["coeffs"]]
    if len(points) != expect["trees"]:
        return f"{len(points)} trimmed points != tree count {expect['trees']}"
    if sum(levels) != expect["trees"]:
        return f"level_poly(1)={sum(levels)} != tree count {expect['trees']}"
    if len(set(map(tuple, points))) != len(points):
        return "repeated trimmed point"
    if report["lattice_points"] < len(points):
        return "fewer lattice points than trimmed points"
    return None


def check_tp(report, expect):
    A = [[as_int(x) for x in row] for row in report["matrix"]["entries"]]
    if A != expect["A"]:
        return "reported matrix is not the suffix-sum matrix of C"
    poly = [as_int(c) for c in report["result_poly"]["coeffs"]]
    terms = [(tuple(comp), as_int(coef))
             for comp, coef in report["certificate"]]
    if any(coef <= 0 for _, coef in terms):
        return "non-positive certificate coefficient"
    if expand_certificate(terms) != poly:
        return "certificate does not expand to the polynomial"
    if sum(poly) != expect["volume"]:
        return (f"poly(1)={sum(poly)} != sum of maximal minors "
                f"{expect['volume']}")
    return None


def check_boxcert(report, expect):
    if not expect["feasible"]:
        return None if report.get("box_positive") is False else \
            "certified a polynomial that cannot be box-positive"
    if report.get("box_positive") is not True:
        return "no certificate for a box-positive polynomial"
    d = expect["d"]
    poly = expect["poly"]
    total = len(poly) - 1 + d
    terms = [(tuple(comp), as_int(coef))
             for comp, coef in report["certificate"]]
    for comp, coef in terms:
        if coef <= 0:
            return "non-positive certificate coefficient"
        if len(comp) != d or sum(comp) != total or min(comp) < 1:
            return f"composition {comp} has the wrong shape"
    if expand_certificate(terms) != poly:
        return "certificate does not expand to the input polynomial"
    return None


CHECKS = {
    "pd": check_pd,
    "fa-matrix": check_fa_matrix,
    "fa-bigraph": check_tree_sum,
    "alexander": check_tree_sum,
    "zonotope": check_zonotope,
    "tp": check_tp,
    "boxcert": check_boxcert,
}
