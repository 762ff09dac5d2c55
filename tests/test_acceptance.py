"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they are produced.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from flatpoly import corpus, graphkit, ormatroid, planardual, totpos
from flatpoly.exactnum import _columns
from flatpoly.graphkit import graphic_matrix, p_poly, standard_orientation
from flatpoly.polyshape import box_certificate, poly_shift, shape_report
from flatpoly.zonolattice import (bipartite_admissible_l,
                                  bipartite_graph_context, level_poly,
                                  trimmed_points)

from oracles import cographic_presentation, eulerian_small, tree_count


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print("[criterion %d] %s: FAIL" % (num, name))
        raise
    print("[criterion %d] %s: PASS" % (num, name))


@pytest.fixture(scope="session")
def eulerian_corpus():
    rng = random.Random(55)
    ds = eulerian_small(max_edges=6)
    ds += [corpus.random_eulerian(rng, max_edges=10) for _ in range(20)]
    return ds


@pytest.fixture(scope="session")
def trimming_corpus():
    """Per bipartite graph: (name, ctx, adm, trimmed point set, f_poly)."""
    out = []
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        ctx = bipartite_graph_context(n, edges, part1)
        adm = bipartite_admissible_l(n, part1)
        tr = trimmed_points(ctx, adm)
        f = ormatroid.f_poly(ctx.mctx)
        out.append((name, ctx, adm, tr, f))
    return out


@pytest.fixture(scope="session")
def tp_corpus():
    """>= 50 seeded TP instances with d <= 4, N <= 9."""
    rng = random.Random(77)
    out = []
    for _ in range(50):
        d = rng.randint(1, 4)
        N = rng.randint(max(d, 2), 9)
        out.append(totpos.flat_maxpos_from_network(
            totpos.random_network(d, N, rng)))
    return out


def test_criterion_1_rho_invariance(flat_corpus):
    with criterion(1, "rho-invariance of f_poly (Thm 3.5)"):
        rng = random.Random(31)
        for _name, m in flat_corpus:
            ctx = ormatroid.MatroidContext(m)
            base = ormatroid.f_poly_frac(ctx)
            for _ in range(20):
                _rho, poly = ormatroid.sample_generic_rho(ctx, rng)
                assert poly == base


def test_criterion_2_pd_equals_cographic_f(eulerian_corpus):
    with criterion(2, "P_D = f over cographic matrix (Thm 5.3)"):
        for D in eulerian_corpus:
            ctx = ormatroid.MatroidContext(cographic_presentation(D))
            assert p_poly(D, 0) == ormatroid.f_poly(ctx) == \
                ormatroid.cographic_f_poly(graphic_matrix(D))


def test_criterion_3_root_independence(eulerian_corpus):
    with criterion(3, "root independence of P_D"):
        for D in eulerian_corpus:
            polys = {tuple(p_poly(D, r)) for r in range(D.n)}
            assert len(polys) == 1


def test_criterion_4_duality_alexander():
    with criterion(4, "graphic = dual cographic = Alexander (Cor 5.4)"):
        for name in corpus.PLANE_BIPARTITE:
            P, part1 = corpus.plane_bipartite(name)
            f_primal = planardual.normalized(ormatroid.f_poly(
                ormatroid.MatroidContext(graphic_matrix(P.digraph))))
            res = planardual.dual_with_orientation(P, part1)
            f_dual = planardual.normalized(ormatroid.cographic_f_poly(
                graphic_matrix(res.dual)))
            assert f_primal == f_dual == planardual.alexander_poly(P, part1)


def test_criterion_5_level_identity(trimming_corpus):
    with criterion(5, "level polynomial identity (Thm 6.7)"):
        for _name, ctx, adm, tr, f in trimming_corpus:
            levels, shift = level_poly(tr)
            assert shift == 0
            assert levels == poly_shift(f, ctx.d - adm.m)


def test_criterion_6_volume(trimming_corpus):
    with criterion(6, "trimmed count = volume = tree count"):
        for name, ctx, _adm, tr, _f in trimming_corpus:
            vol = sum(Fraction(abs(ctx.mctx.chi[B]), ctx.mctx.scale)
                      for B in ormatroid.enumerate_bases(ctx.mctx))
            n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
            D = standard_orientation(n, edges, part1)
            assert len(tr) == vol == tree_count(D)


def test_criterion_7_closed_form_tp(tp_corpus):
    with criterion(7, "closed form f = brute force on TP corpus (Thm 8.8)"):
        for fmp in tp_corpus:
            poly, cert = totpos.f_tp_closed(fmp)
            brute = ormatroid.f_poly_frac(ormatroid.MatroidContext(fmp.A))
            assert poly == brute
            assert cert.expand() == poly


def test_criterion_8_shape_suites(trimming_corpus, tp_corpus):
    with criterion(8, "shape suites (Thm 7.5, Cor 7.13, Cor 8.9)"):
        for _name, _ctx, _adm, _tr, f in trimming_corpus:
            s = shape_report(f)
            assert s.palindromic and s.log_concave and s.no_internal_zeros
        for fmp in tp_corpus:
            poly, _cert = totpos.f_tp_closed(fmp)
            s = shape_report(poly)
            assert s.palindromic and s.trapezoidal


def test_criterion_9_desk_scale():
    with criterion(9, "d=2 strict concavity"
                   " (figure transcription extra: SKIPPED)"):
        rng = random.Random(91)
        for _ in range(20):
            N = rng.randint(3, 8)
            net = totpos.random_network(2, N, rng)
            A = totpos.tp_from_network(net)
            b = ormatroid.f_poly_frac(ormatroid.MatroidContext(A))
            assert b == b[::-1]
            for i in range(1, len(b) - 1):
                assert b[i] > (b[i - 1] + b[i + 1]) / 2


def test_criterion_10_small_oracles(tp_corpus):
    with criterion(10, "closed-form oracles (Lemmas 8.1, 8.3)"):
        from itertools import combinations
        for fmp in tp_corpus:
            ctx = ormatroid.MatroidContext(fmp.A)
            N = fmp.A.cols
            for basis in ormatroid.enumerate_bases(ctx):
                _, ext = ormatroid.ext_semiactivity(ctx, basis,
                                                    ormatroid.LEX_ORDER)
                assert ext == totpos.ext_closed_form(
                    [b + 1 for b in _columns(basis)], N)
            for cols in combinations(range(N), fmp.A.rows):
                # minor_via_C asserts agreement with the determinant.
                assert totpos.minor_via_C(fmp, cols) > 0
        assert box_certificate([1, 0, 1], 2) is None
