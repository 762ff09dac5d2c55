import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

from flatpoly import ormatroid, totpos
from flatpoly.exactnum import Matrix, _columns, maximal_minors
from flatpoly.polyshape import BoxCertificate, q_product, shape_report
from flatpoly.totpos import (FlatMaxPositive, GridNetwork, NotMaxPositive,
                             ext_closed_form, f_tp_closed,
                             flat_maxpos_from_C, minor_via_C, random_network,
                             tp_from_network)

from oracles import det


def first_differences(rows):
    """Each row's consecutive differences, its last entry kept: the C whose
    suffix sums are the rows."""
    return [[a - b for a, b in zip(row, row[1:] + [0])] for row in rows]


def test_network_validation():
    with pytest.raises(ValueError):
        GridNetwork(2, 3, ((1, 1),))          # wrong row count
    with pytest.raises(ValueError):
        GridNetwork(1, 3, ((1, 0),))          # non-positive weight
    with pytest.raises(ValueError, match="at least one row"):
        GridNetwork(0, 3, ())
    net = GridNetwork(2, 3, ((1, 1), (1, 1)))
    assert net.last_row_unit


def test_flat_maxpos_rejects_non_unit_last_row():
    # The path matrix's last row is [6, 3, 1], not the all-ones row that
    # the suffix-sum construction rebuilds.
    net = GridNetwork(2, 3, ((1, 1), (2, 3)))
    assert not net.last_row_unit
    assert tp_from_network(net).entries[-1] == [6, 3, 1]
    with pytest.raises(ValueError, match="unit weights"):
        totpos.flat_maxpos_from_network(net)


def test_tp_reads_one_minor_table():
    # flat_maxpos_from_C tabulates C's minors; the closed form and the
    # interleaving formula read that table instead of rebuilding it.
    rng = random.Random(5)
    with mock.patch.object(totpos, "maximal_minors",
                           wraps=totpos.maximal_minors) as tab:
        fmp = totpos.flat_maxpos_from_network(random_network(3, 6, rng))
        poly, cert = f_tp_closed(fmp)
        for cols in combinations(range(6), 3):
            minor_via_C(fmp, cols)
    assert tab.call_count == 1
    assert (fmp.chi, fmp.scale) == maximal_minors(fmp.C)
    assert poly == cert.expand() == \
        ormatroid.f_poly_frac(ormatroid.MatroidContext(fmp.A))


def test_tp_from_network_unit_weights():
    net = GridNetwork(2, 3, ((1, 1), (1, 1)))
    assert tp_from_network(net) == Matrix([[3, 2, 1], [1, 1, 1]])


def test_tp_from_network_single_row():
    net = GridNetwork(1, 2, ((1,),))
    assert tp_from_network(net) == Matrix([[1, 1]])


def test_tp_from_network_all_minors_positive():
    rng = random.Random(2)
    for _ in range(5):
        net = random_network(3, 5, rng)
        entries = tp_from_network(net).entries
        for size in (1, 2, 3):
            for rows in combinations(range(3), size):
                for cols in combinations(range(5), size):
                    assert det([[entries[i][j] for j in cols]
                                for i in rows]) > 0


def test_flat_maxpos_from_C():
    fmp = flat_maxpos_from_C(Matrix([[1, 1, 1]]))
    assert fmp.A == Matrix([[3, 2, 1], [1, 1, 1]])
    fmp = flat_maxpos_from_C(Matrix([[1]]))
    assert fmp.A == Matrix([[1], [1]])


def test_flat_maxpos_rejects_bad_C():
    with pytest.raises(NotMaxPositive):
        flat_maxpos_from_C(Matrix([[1, 0, 1]]))
    with pytest.raises(NotMaxPositive):
        flat_maxpos_from_C(Matrix([[1, -1]]))


def test_minor_via_C_examples():
    fmp = flat_maxpos_from_C(Matrix([[1, 1, 1]]))
    assert minor_via_C(fmp, (0, 2)) == 2
    assert minor_via_C(fmp, (0, 1)) == 1
    assert minor_via_C(fmp, (1, 2)) == 1


def test_minor_via_C_all_minors():
    rng = random.Random(7)
    net = random_network(3, 6, rng)
    C = Matrix(first_differences(tp_from_network(net).entries[:2]))
    fmp = flat_maxpos_from_C(C)
    for cols in combinations(range(6), 3):
        minor_via_C(fmp, cols)  # raises AssertionError on mismatch


def test_minors_independent_of_last_C_column():
    a = flat_maxpos_from_C(Matrix([[1, 1, 1]]))
    b = flat_maxpos_from_C(Matrix([[1, 1, 5]]))
    for cols in combinations(range(3), 2):
        assert minor_via_C(a, cols) == minor_via_C(b, cols)


def test_ext_closed_form_examples():
    assert ext_closed_form([1, 2], 3) == 1
    assert ext_closed_form([1, 3], 3) == 0
    assert ext_closed_form([2, 3], 3) == 1
    assert ext_closed_form([1], 4) == 0
    assert ext_closed_form([3], 4) == 2


def test_ext_closed_form_validation():
    with pytest.raises(ValueError):
        ext_closed_form([2, 1], 3)
    with pytest.raises(ValueError):
        ext_closed_form([0, 1], 3)


def test_ext_closed_form_matches_matrix():
    rng = random.Random(9)
    for _ in range(4):
        d = rng.randint(1, 3)
        N = rng.randint(d + 1, d + 3)
        net = random_network(d, N, rng)
        A = tp_from_network(net)
        ctx = ormatroid.MatroidContext(A)
        for basis in ormatroid.enumerate_bases(ctx):
            _, ext = ormatroid.ext_semiactivity(ctx, basis,
                                                ormatroid.LEX_ORDER)
            assert ext == ext_closed_form([b + 1 for b in _columns(basis)], N)


def test_f_tp_closed_unit_example():
    fmp = flat_maxpos_from_C(Matrix([[1, 1, 1]]))
    poly, cert = f_tp_closed(fmp)
    assert poly == [2, 2]
    assert cert.expand() == [2, 2]


def test_f_tp_closed_d1():
    fmp = FlatMaxPositive(Matrix([[1, 1, 1, 1]]), Matrix([[0, 0, 0, 0]]),
                          {}, 1)
    poly, cert = f_tp_closed(fmp)
    assert poly == [1, 1, 1, 1] == q_product((4,))


def test_f_tp_closed_211():
    fmp = flat_maxpos_from_C(Matrix([[2, 1, 1]]))
    assert fmp.A == Matrix([[4, 2, 1], [1, 1, 1]])
    poly, cert = f_tp_closed(fmp)
    assert poly == [3, 3]
    brute = ormatroid.f_poly(ormatroid.MatroidContext(fmp.A))
    assert poly == brute


def test_f_tp_closed_matches_bruteforce_random():
    rng = random.Random(13)
    for _ in range(6):
        d = rng.randint(2, 3)
        N = rng.randint(d + 1, d + 3)
        net = random_network(d, N, rng)
        A = tp_from_network(net)
        C = Matrix(first_differences(A.entries[:-1]))
        fmp = flat_maxpos_from_C(C)
        poly, cert = f_tp_closed(fmp)
        assert poly == ormatroid.f_poly_frac(ormatroid.MatroidContext(A))
        assert cert.expand() == poly
        s = shape_report(poly)
        assert s.palindromic and s.trapezoidal


def test_f_tp_closed_reads_minors_not_certificate(monkeypatch):
    # The closed form is summed from the minor table without expanding the
    # certificate. expand() runs the same q-number combination on the same
    # terms, so it is no independent route: verify thm8_8 compares the
    # closed form with f_poly_frac only. All three agree, as Fractions and
    # in length.
    rng = random.Random(4)
    fmps = [totpos.flat_maxpos_from_network(random_network(d, N, rng))
            for d, N in ((1, 3), (2, 5), (3, 6), (4, 7))]
    expanded = [f_tp_closed(fmp)[1].expand() for fmp in fmps]

    def no_expand(self):
        raise AssertionError("certificate expanded")

    monkeypatch.setattr(BoxCertificate, "expand", no_expand)
    for fmp, want in zip(fmps, expanded):
        poly, _ = f_tp_closed(fmp)
        assert poly == want == \
            ormatroid.f_poly_frac(ormatroid.MatroidContext(fmp.A))


def test_d2_strict_concavity():
    rng = random.Random(21)
    for _ in range(5):
        N = rng.randint(3, 7)
        net = random_network(2, N, rng)
        A = tp_from_network(net)
        poly = ormatroid.f_poly_frac(ormatroid.MatroidContext(A))
        assert poly == poly[::-1]
        for i in range(1, len(poly) - 1):
            assert poly[i] > (poly[i - 1] + poly[i + 1]) / 2
