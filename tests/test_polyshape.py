import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flatpoly import polyshape
from flatpoly.polyshape import (BoxCertificate, _box_lp, _q_columns,
                                box_certificate, normalize, poly_add,
                                poly_shift, q_product, shape_report)

from oracles import _compositions, poly_eval, poly_mul, reverse_in_degree


def oracle_q_product(ms):
    out = [1]
    for m in ms:
        out = poly_mul(out, [1] * m)
    return out


def test_normalize():
    assert normalize([1, 2, 0, 0]) == [1, 2]
    assert normalize([0, 0]) == []


def test_q_number():
    # [m]_q is the one-part q-product.
    assert q_product((1,)) == [1]
    assert q_product((4,)) == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        q_product((0,))
    with pytest.raises(ValueError):
        q_product((2, 0, 3))


def test_q_product_examples():
    assert q_product((1,)) == [1]
    assert q_product((2, 2)) == [1, 2, 1]
    assert q_product((1, 3)) == [1, 1, 1]


def test_q_product_degree():
    ms = (2, 3, 4)
    assert len(q_product(ms)) - 1 == sum(ms) - len(ms)


@given(st.lists(st.integers(min_value=1, max_value=8),
                min_size=0, max_size=6), st.randoms())
def test_q_product_symmetric(ms, rnd):
    # The window-sum product equals repeated schoolbook multiplication and
    # does not depend on the order of the parts.
    shuffled = list(ms)
    rnd.shuffle(shuffled)
    assert q_product(ms) == oracle_q_product(ms) == q_product(shuffled)


def test_q_columns_follow_composition_order():
    # The depth-first walk lists the compositions in the oracle's
    # lexicographic order, each with its schoolbook product.
    for D in range(9):
        for d in range(1, 6):
            walk = list(_q_columns(D + d, d))
            assert [comp for comp, _ in walk] == \
                list(_compositions(D + d, d))
            for comp, column in walk:
                assert column == oracle_q_product(comp)
                assert len(column) == D + 1


def oracle_expand(terms):
    out = []
    for comp, coef in terms:
        out = poly_add(out, [coef * a for a in oracle_q_product(comp)])
    return out


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(st.lists(st.tuples(st.lists(st.integers(min_value=1, max_value=5),
                                   min_size=1, max_size=4),
                          coefficients),
                min_size=0, max_size=8),
       st.randoms())
def test_expand_matches_term_by_term_oracle(draws, rnd):
    # Each drawn composition appears with one or two shuffled copies, so
    # the merge by partition meets permuted and repeated compositions and
    # coefficients that cancel.
    terms = []
    for comp, coef in draws:
        terms.append((tuple(comp), coef))
        if rnd.random() < 0.5:
            perm = list(comp)
            rnd.shuffle(perm)
            terms.append((tuple(perm), rnd.choice((coef, -coef, coef / 3))))
    rnd.shuffle(terms)
    got = BoxCertificate(2, tuple(terms)).expand()
    assert got == oracle_expand(terms)
    assert all(type(a) is Fraction for a in got)


def test_box_witness_compositions_are_nondecreasing():
    # Permuted compositions give equal LP columns, and the nondecreasing
    # one comes first in lexicographic order; Bland's rule never enters a
    # later duplicate, so every witness term is nondecreasing.
    rng = random.Random(12)
    feasible = 0
    for _ in range(200):
        d = rng.randint(2, 5)
        D = rng.randint(1, 6)
        comps = list(_compositions(D + d, d))
        terms = [(rng.choice(comps), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))]
        p = oracle_expand(terms)
        if rng.random() < 0.25:
            p = [p[0] + 1] + p[1:]
        cert = _box_lp(p, d)
        if cert is None:
            continue
        feasible += 1
        for comp, _ in cert.terms:
            assert list(comp) == sorted(comp)
    assert feasible >= 140


def _box_draw(rng, way):
    """A seeded (p, d) with d in 1..6 and deg p in 0..10: a raw random
    list, a positive sum of d-fold q-products of one total, or such a sum
    with one palindromic coefficient pair nudged by +1, -1 or -2."""
    while True:
        d, D = rng.randint(1, 6), rng.randint(0, 10)
        if way == "raw":
            return [rng.randint(0, 6) for _ in range(D)] + [
                rng.randint(1, 6)], d
        p = oracle_expand([(rng.choice(list(_compositions(D + d, d))),
                            rng.randint(1, 3))
                           for _ in range(rng.randint(1, 3))])
        if way == "sum":
            return p, d
        i, step = rng.randint(0, D // 2), rng.choice((1, -1, -2))
        for j in {i, D - i}:
            p[j] += step
        p = normalize(p)
        if p and min(p) >= 0:
            return p, d


@pytest.mark.parametrize("way", ["raw", "sum", "nudged"])
def test_box_certificate_matches_lp(way, monkeypatch):
    # The LP over all compositions is the oracle of every decision that
    # the presolve and the closed forms make: 5,100 draws in all. Where
    # box_certificate runs the LP itself, its own solve is the oracle.
    solved = []

    def recording(p, d):
        solved.append(_box_lp(p, d))
        return solved[-1]

    monkeypatch.setattr(polyshape, "_box_lp", recording)
    rng = random.Random(f"box-{way}")
    seen = dict.fromkeys(("presolve", "closed", "closed-none", "lp",
                          "lp-none"), 0)
    for _ in range(1700):
        p, d = _box_draw(rng, way)
        solved.clear()
        got = box_certificate(p, d)
        shaped = p == p[::-1] and shape_report(p).trapezoidal
        assert len(solved) == (shaped and min(d, len(p) - 1) > 2), (p, d)
        lp = solved[0] if solved else _box_lp(p, d)
        assert repr(got) == repr(lp), (p, d)
        if not shaped:
            seen["presolve"] += 1
        else:
            route = "lp" if solved else "closed"
            seen[route + ("-none" if got is None else "")] += 1
    # A positive sum of q-products is palindromic and trapezoidal, so the
    # presolve refuses none of them; each refusal above met an infeasible LP.
    assert (seen["presolve"] == 0) if way == "sum" \
        else seen["presolve"] >= 400, seen
    if way == "nudged":
        assert min(seen.values()) >= 100, seen


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


def test_shape_report_of_zero_polynomial():
    # [] and [0] both normalize to the empty sequence: vacuously
    # log-concave, nonnegative and free of internal zeros, not trapezoidal.
    for p in ([], [0]):
        s = shape_report(p)
        assert s._asdict() == {"palindromic": True, "nonnegative": True,
                               "no_internal_zeros": True,
                               "log_concave": True, "trapezoidal": False}, p


def test_shape_consistency_assertion():
    with pytest.raises(AssertionError):
        polyshape.ShapeReport(palindromic=True, nonnegative=True,
                              no_internal_zeros=True, log_concave=True,
                              trapezoidal=False)
