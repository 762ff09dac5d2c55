import pytest
from hypothesis import given, strategies as st

from flatpoly import polyshape
from flatpoly.polyshape import (box_certificate, normalize, poly_mul,
                                poly_shift, q_number, q_product,
                                shape_report)

from oracles import poly_eval, reverse_in_degree


def test_normalize():
    assert normalize([1, 2, 0, 0]) == [1, 2]
    assert normalize([0, 0]) == []


def test_q_number():
    assert q_number(1) == [1]
    assert q_number(4) == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        q_number(0)


def test_q_product_examples():
    assert q_product((1,)) == [1]
    assert q_product((2, 2)) == [1, 2, 1]
    assert q_product((1, 3)) == [1, 1, 1]


def test_q_product_degree():
    ms = (2, 3, 4)
    assert len(q_product(ms)) - 1 == sum(ms) - len(ms)


@given(st.lists(st.integers(min_value=1, max_value=5),
                min_size=1, max_size=4), st.randoms())
def test_q_product_symmetric(ms, rnd):
    shuffled = list(ms)
    rnd.shuffle(shuffled)
    assert q_product(ms) == q_product(shuffled)


def test_shape_knot_coefficients():
    s = shape_report([16, 54, 77, 54, 16])
    assert s.palindromic and s.log_concave and s.trapezoidal
    assert s.no_internal_zeros
    assert 16 * 77 < 54 ** 2 < 77 ** 2


def test_shape_internal_zero():
    s = shape_report([1, 0, 1])
    assert s.palindromic and not s.no_internal_zeros and not s.trapezoidal


def test_shape_plateau():
    s = shape_report([1, 2, 2, 1])
    assert s.trapezoidal and s.log_concave


def test_trapezoidal_does_not_require_log_concave():
    # The trapezoidal predicate stands alone: this sequence is strictly
    # increasing then decreasing but fails log-concavity at index 1.
    s = shape_report([1, 2, 5, 2, 1])
    assert s.trapezoidal and not s.log_concave


def test_shape_report_reverse_invariance():
    for p in ([1, 2, 1], [2, 2], [1, 3, 3, 1]):
        assert shape_report(p) == shape_report(p[::-1])


def test_reverse_in_degree():
    assert reverse_in_degree([1, 2], 2) == [0, 2, 1]
    with pytest.raises(ValueError):
        reverse_in_degree([1, 2, 3], 1)


def test_poly_helpers():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_shift([1, 1], 2) == [0, 0, 1, 1]
    assert poly_eval([1, 2, 3], 2) == 1 + 4 + 12


def test_box_certificate_simple():
    cert = box_certificate([2, 2], 2)
    assert cert is not None
    assert cert.expand() == [2, 2]
    for comp, coef in cert.terms:
        assert len(comp) == 2 and all(m >= 1 for m in comp)
        assert sum(comp) == 1 + 2   # deg + d
        assert coef > 0


def test_box_certificate_infeasible():
    assert box_certificate([1, 0, 1], 2) is None


def test_box_certificate_qnumber():
    cert = box_certificate([1, 1, 1, 1, 1], 1)
    assert cert is not None and cert.expand() == [1] * 5


def test_box_certificate_rejects_bad_input():
    with pytest.raises(ValueError):
        box_certificate([], 2)
    with pytest.raises(ValueError):
        box_certificate([1, -1], 2)


def test_box_positive_implies_trapezoidal_palindromic():
    # Lemma consistency: whenever a certificate exists, the shape follows.
    for p in ([2, 2], [1, 2, 1], [1, 2, 2, 1], [3, 5, 3]):
        cert = box_certificate(p, 2)
        if cert is not None:
            s = shape_report(p)
            assert s.palindromic and s.trapezoidal


def test_shape_consistency_assertion():
    with pytest.raises(AssertionError):
        polyshape.ShapeReport(palindromic=True, nonnegative=True,
                              no_internal_zeros=True, log_concave=True,
                              trapezoidal=False)
