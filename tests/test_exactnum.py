import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from flatpoly import corpus, exactnum, formats, totpos
from flatpoly.exactnum import (Matrix, _gauss_jordan, _lex_masks,
                               _minor_table, _swapped_minor, bareiss_det,
                               maximal_minors, pencil_det)
from flatpoly.graphkit import graphic_matrix, standard_orientation
from flatpoly.ormatroid import MatroidContext, cographic_f_poly
from flatpoly.zonolattice import ZonotopeContext

from conftest import run_python_limited
from oracles import (apply, cographic_presentation, flat_witness, identity,
                     independent_rows, mask, mask_table,
                     maximal_minors_bareiss, minor_table_tuples,
                     pencil_det_cofactor, rank, rref, solve,
                     swapped_minor_tuples)


def test_matrix_entry_types():
    # Ints, bools and Fractions are stored as integer rows over the lcm of
    # each row's denominators, and read back as Fractions. Strings, floats
    # and None are not exact rationals.
    m = Matrix([[Fraction(1, 2), Fraction(-1, 3), 1], [2, Fraction(4, 2), 0],
                [True, 0, 0]])
    assert m.num == [[3, -2, 6], [2, 2, 0], [1, 0, 0]]
    assert m.den == [6, 1, 1] and m.scale == 6
    assert all(type(x) is int for row in m.num for x in row)
    assert m.entries == [[Fraction(1, 2), Fraction(-1, 3), 1], [2, 2, 0],
                         [1, 0, 0]]
    assert m == Matrix(m.entries) != Matrix([[1, 2, 3]])
    for bad in ("3/4", "5", 1.5, None):
        with pytest.raises(TypeError):
            Matrix([[1, bad]])


def test_integer_inputs_build_no_fraction(tmp_path, monkeypatch):
    # An integer matrix-v1 file with "p" strings, and a graphic matrix, are
    # read, stored and tabulated without constructing a Fraction, and so
    # is the cographic f read from the graphic matrix's table.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "format": "matrix-v1", "rows": 3, "cols": 5,
        "entries": [["2", "-1", "0", "3", "1"], ["1", "1", "-2", "0", "4"],
                    [1, 1, 1, 1, 1]]}))
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["K23"]
    D = standard_orientation(n, edges, part1)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    m = formats.load_matrix(str(path))
    MatroidContext(m)
    maximal_minors(m)
    ZonotopeContext(graphic_matrix(D))
    cographic_f_poly(graphic_matrix(D))
    assert made == []
    assert Fraction(1, 2) and made == [(1, 2)]


def test_minor_identity():
    assert maximal_minors(identity(2)) == ({0b11: 1}, 1)


def test_minor_by_hand():
    assert maximal_minors(Matrix([[3, 1], [1, 1]]))[0] == {0b11: 2}
    assert maximal_minors(Matrix([[3, 2, 1], [1, 1, 1]]))[0][0b101] == 2


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="at least one row"):
        Matrix([])
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="column count"):
        Matrix([[1, 2]], labels=["a"])


def test_solve_identity():
    m = identity(3)
    x, ker = solve(m, [1, 2, 3])
    assert x == [1, 2, 3] and ker == []


def test_solve_underdetermined():
    x, ker = solve(Matrix([[1, 1]]), [1])
    assert x == [1, 0]
    assert ker == [[Fraction(-1), Fraction(1)]] or ker == [[1, -1]] or \
        apply(Matrix([[1, 1]]), ker[0]) == [0]


def test_solve_inconsistent():
    assert solve(Matrix([[1], [2]]), [1, 1]) is None


def test_flat_witness_identity():
    assert flat_witness(identity(2)) == [1, 1]


def test_flat_witness_three_columns():
    m = Matrix([[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 2)]])
    h = flat_witness(m)
    assert h == [1, 1]


def test_flat_witness_not_flat():
    assert flat_witness(Matrix([[1, 2], [0, 0]])) is None


def test_rank():
    assert rank(Matrix([[0, 0, 0], [0, 0, 0]])) == 0
    assert rank(identity(3)) == 3


def test_rank_incidence():
    # Incidence matrix of a path 0-1-2-3: rank n - 1.
    from flatpoly.graphkit import Digraph, incidence_matrix
    D = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert rank(incidence_matrix(D)) == 3


small = st.integers(min_value=-5, max_value=5)


@given(st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_minor_alternating(rows):
    swapped = [[b, a, c] for a, b, c in rows]
    assert maximal_minors(Matrix(rows))[0][0b111] == \
        -maximal_minors(Matrix(swapped))[0][0b111]


@given(st.lists(st.lists(small, min_size=3, max_size=3),
                min_size=2, max_size=2),
       st.lists(small, min_size=2, max_size=2))
def test_solve_round_trip(rows, b):
    m = Matrix(rows)
    sol = solve(m, b)
    if sol is not None:
        x, ker = sol
        assert apply(m, x) == b
        for k in ker:
            assert apply(m, k) == [0, 0]


rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def leibniz_det(rows):
    """Sum over permutations: slow, but shares nothing with elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def library_dets(rows):
    """A square matrix's determinant by both library routes: its one
    maximal minor, and Bareiss elimination of its integer rows, each over
    the matrix's scale."""
    m = Matrix(rows)
    chi, scale = maximal_minors(m)
    return [Fraction(chi[(1 << m.cols) - 1], scale),
            Fraction(bareiss_det(m.num), m.scale)]


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(rational | small, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_matches_leibniz(rows):
    assert library_dets(rows) == [leibniz_det(rows)] * 2


@st.composite
def minor_matrices(draw):
    """Rows of a d x N matrix, d = 1..6 and N = d..10, with integer,
    0/+-1 or rational entries. Some columns are zero or repeat an earlier
    column, and sometimes the last row is a combination of the others (or
    zero), which makes the matrix rank-deficient."""
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=d, max_value=10))
    entries = draw(st.sampled_from([small, rational,
                                    st.integers(min_value=-1, max_value=1)]))
    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(["new", "new", "new", "zero", "repeat"]))
        if kind == "zero":
            cols.append([0] * d)
        elif kind == "repeat" and j:
            cols.append(cols[draw(st.integers(min_value=0, max_value=j - 1))])
        else:
            cols.append(draw(st.lists(entries, min_size=d, max_size=d)))
    rows = [list(r) for r in zip(*cols)]
    if draw(st.booleans()):
        if d == 1:
            rows[0] = [0] * n
        else:
            a, b = draw(rational), draw(rational)
            rows[-1] = [a * x + b * y
                        for x, y in zip(rows[0], rows[(d - 1) // 2])]
    return rows


def assert_same_table(m):
    chi, scale = maximal_minors(m)
    want, want_scale = maximal_minors_bareiss(m)
    assert scale == want_scale > 0
    assert list(want) == list(combinations(range(m.cols), m.rows))
    assert list(chi.items()) == list(mask_table(want).items())


@settings(deadline=None)
@given(minor_matrices())
def test_maximal_minors_match_minor(rows):
    assert_same_table(Matrix(rows))


def assert_same_swapped_reads(chi, want, m):
    """Every swapped-minor read of the mask table against the tuple
    oracle's, for every basis, column b in it and column j outside it;
    returns the reads per (b < j, odd number of columns between)."""
    seen = dict.fromkeys([(lt, odd) for lt in (0, 1) for odd in (0, 1)], 0)
    for key, c in want.items():
        if c == 0:
            continue
        basis = mask(key)
        for i, b in enumerate(key):
            for j in range(m.cols):
                if j in key:
                    continue
                got = _swapped_minor(chi, basis, b, j)
                assert got == swapped_minor_tuples(want, key, i, j), \
                    (key, b, j)
                lo, hi = min(b, j), max(b, j)
                seen[b < j, sum(lo < x < hi for x in key) % 2] += got != 0
    return seen


@settings(deadline=None)
@given(minor_matrices())
def test_mask_table_matches_tuple_oracle(rows):
    # The same elimination fills the mask-keyed table and the tuple-keyed
    # oracle table: equal entry by entry and in the same order, and equal
    # under every swapped-minor read.
    m = Matrix(rows)
    chi, _ = maximal_minors(m)
    reduced = _gauss_jordan(m.num)
    if reduced is None:
        want = dict.fromkeys(combinations(range(m.cols), m.rows), 0)
    else:
        want = minor_table_tuples(*reduced)
        assert _minor_table(*reduced) == chi
    assert list(chi.items()) == list(mask_table(want).items())
    assert_same_swapped_reads(chi, want, m)


def test_swapped_reads_cover_both_sides_and_signs():
    # On a random 3 x 8 matrix, nonzero reads occur for b < j and b > j,
    # each with an even and an odd number of basis columns in between.
    rng = random.Random(8)
    m = Matrix([[rng.randint(-4, 4) for _ in range(8)] for _ in range(3)])
    chi, _ = maximal_minors(m)
    want = minor_table_tuples(*_gauss_jordan(m.num))
    seen = assert_same_swapped_reads(chi, want, m)
    assert all(seen.values()), seen


def test_maximal_minors_match_bareiss_on_corpus():
    # Graphic and cographic matrices of the built-in plane bipartite
    # graphs, random flat matrices, and the C of tp networks, d = 2..5.
    mats = []
    for n, edges, part1, _c, _b in corpus.PLANE_BIPARTITE.values():
        D = standard_orientation(n, edges, part1)
        mats += [graphic_matrix(D), cographic_presentation(D)]
    rng = random.Random(14)
    mats += [corpus.random_flat_matrix(rng).matrix for _ in range(30)]
    for d in range(2, 6):
        for n in range(d, d + 4):
            for seed in range(3):
                net = totpos.random_network(d, n, random.Random(seed))
                mats.append(totpos.flat_maxpos_from_network(net).C)
    for m in mats:
        assert_same_table(m)


def test_table_keys_run_in_combinations_order(flat_corpus):
    # Every reader iterates the table in key order: zonotope points,
    # tilings and reports stay in the order of combinations(range(N), d).
    from flatpoly.ormatroid import MatroidContext

    deficient = Matrix([[1, 2, 3, 4], [2, 4, 6, 8]])
    for m in [m for _, m in flat_corpus] + [deficient]:
        want = [mask(s) for s in combinations(range(m.cols), m.rows)]
        assert list(maximal_minors(m)[0]) == want
        if m is not deficient:
            assert list(MatroidContext(m).chi) == want


def test_lex_masks_run_in_combinations_order():
    for n in range(15):
        for d in range(n + 1):
            assert _lex_masks(n, d) == \
                [mask(s) for s in combinations(range(n), d)], (n, d)


def test_lex_masks_build_only_the_table():
    # A cographic table with d close to N: building every tail of every
    # size would need about 1.4e11 keys for these 376,992, so the keys are
    # built in a child process under an address-space cap.
    proc = run_python_limited(["-c", (
        "from flatpoly.exactnum import _lex_masks\n"
        "keys = _lex_masks(36, 31)\n"
        "print(len(keys), keys[0], keys[-1])")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "376992", str(mask(range(31))), str(mask(range(5, 36)))]


def test_maximal_minors_runs_no_determinant(monkeypatch):
    # One elimination for the whole table: no Bareiss determinant per
    # column subset, on a 5 x 12 matrix and on a rank-deficient one.
    rng = random.Random(5)
    rows = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(4)]
    rows.append([1] * 12)
    deficient = rows[:4] + [[x + y for x, y in zip(rows[0], rows[1])]]
    want = [maximal_minors_bareiss(Matrix(r)) for r in (rows, deficient)]

    def no_det(rows):
        raise AssertionError("bareiss_det called")

    monkeypatch.setattr(exactnum, "bareiss_det", no_det)
    got = [maximal_minors(Matrix(r)) for r in (rows, deficient)]
    assert got == [(mask_table(chi), scale) for chi, scale in want]
    assert any(want[0][0].values())
    assert not any(want[1][0].values())


@st.composite
def pivot_cases(draw):
    """An integer matrix of at most 4 rows and 7 columns, and per row a
    flag: make its pivot negative before pivoting."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                         min_size=d, max_size=d))
    return rows, draw(st.lists(st.booleans(), min_size=d, max_size=d))


@settings(deadline=None)
@given(pivot_cases())
def test_pivot_keeps_den_times_rref(case):
    # Gauss-Jordan by _pivot alone, pivots left to right, row swaps made
    # here. After each pivot den is |det| of the pivot block, and at the
    # end every entry is den times the reduced row echelon form.
    rows, negate = case
    a = [r[:] for r in rows]
    d = len(a)
    order = list(range(d))
    den, cols = 1, []
    for c in range(len(a[0])):
        r = len(cols)
        if r == d:
            break
        piv = next((i for i in range(r, d) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        order[r], order[piv] = order[piv], order[r]
        if negate[r] and a[r][c] > 0:
            # Negating a row not yet pivoted negates its original row,
            # which changes neither |det| nor the echelon form.
            a[r] = [-x for x in a[r]]
        negative = a[r][c] < 0
        den, flip = exactnum._pivot(a, r, c, den)
        cols.append(c)
        assert flip == (-1 if negative else 1)
        block = [[rows[order[i]][j] for j in cols] for i in range(r + 1)]
        assert den == abs(bareiss_det(block)) > 0
    want, pivots = rref(Matrix(rows))
    assert pivots == cols
    assert a == [[den * x for x in row] for row in want]


def square(n, entries=small):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def pencils(draw):
    """(A, B) of one size n <= 5; B is sometimes zero, and sometimes both
    share a zero row, which makes the pencil singular."""
    n = draw(st.integers(min_value=0, max_value=5))
    A, B = draw(square(n)), draw(square(n))
    kind = draw(st.sampled_from(["any", "b-zero", "singular"]))
    if kind == "b-zero":
        B = [[0] * n for _ in range(n)]
    elif kind == "singular" and n:
        i = draw(st.integers(min_value=0, max_value=n - 1))
        A[i] = B[i] = [0] * n
    return A, B


@given(pencils())
def test_pencil_det_matches_cofactor_expansion(pencil):
    A, B = pencil
    assert pencil_det(A, B) == pencil_det_cofactor(A, B)


def test_pencil_det_by_hand():
    assert pencil_det([], []) == [1] == [bareiss_det([])]
    assert pencil_det([[-2]], [[2]]) == [-2, 2]
    assert pencil_det([[0, 1], [1, 0]], [[1, 0], [0, 1]]) == [-1, 0, 1]
    assert pencil_det([[1, 2], [2, 4]], [[0, 0], [0, 0]]) == []
    # B singular, so the degree falls below n.
    assert pencil_det([[1, 0], [0, 1]], [[1, 1], [0, 0]]) == [1, 1]


def test_independent_rows_greedy():
    m = Matrix([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4],
                [0, 0, 1]])
    assert independent_rows(m) == [1, 3, 5]
    assert independent_rows(Matrix([[0, 0]])) == []


def test_det_rational():
    rows = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert library_dets(rows) == [Fraction(1, 6) - 1] * 2


def test_labels():
    m = Matrix([[1, 2]], labels=["a", "b"])
    assert m.labels == ["a", "b"]
    with pytest.raises(ValueError):
        Matrix([[1, 2]], labels=["a", "a"])
