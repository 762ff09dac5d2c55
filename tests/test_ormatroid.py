import random

import pytest

from flatpoly import ormatroid
from flatpoly.exactnum import Matrix, dot
from flatpoly.ormatroid import (LEX_ORDER, MatroidContext, NotGeneric,
                                enumerate_bases, ext_semiactivity, f_poly,
                                f_poly_frac, is_generic, sample_generic_rho)
from flatpoly.polyshape import reverse_in_degree

import oracles
from oracles import (SignedCircuit, circuits, fundamental_circuit,
                     orient_circuit)


def ctx_321():
    return MatroidContext(Matrix([[3, 2, 1], [1, 1, 1]]))


def ctx_ones(n):
    return MatroidContext(Matrix([[1] * n]))


def test_context_rejects_rank_deficient():
    with pytest.raises(ValueError):
        MatroidContext(Matrix([[1, 1], [1, 1]]))


def test_context_rejects_non_flat():
    with pytest.raises(ormatroid.NotFlat):
        MatroidContext(Matrix([[1, 2]]))


def test_enumerate_bases_ones_row():
    assert list(enumerate_bases(ctx_ones(3))) == \
        [((0,), 1), ((1,), 1), ((2,), 1)]


def test_enumerate_bases_321():
    assert list(enumerate_bases(ctx_321())) == \
        [((0, 1), 1), ((0, 2), 2), ((1, 2), 1)]


def test_enumerate_bases_duplicate_column():
    ctx = MatroidContext(Matrix([[1, 0, 1], [0, 1, 0]]))
    assert [b for b, _ in enumerate_bases(ctx)] == [(0, 1), (1, 2)]


def test_fundamental_circuit_ones():
    c = fundamental_circuit(ctx_ones(3), (0,), 1)
    assert c.support == (0, 1)
    assert list(c.lam) == [1, -1, 0]


def test_fundamental_circuit_321():
    c = fundamental_circuit(ctx_321(), (0, 2), 1)
    assert c.support == (0, 1, 2)
    # lam proportional to (1, -2, 1)
    assert [2 * x for x in c.lam] == [1, -2, 1] or list(c.lam) == [1, -2, 1] \
        or [x / c.lam[0] for x in c.lam] == [1, -2, 1]


def test_fundamental_circuit_duplicate():
    ctx = MatroidContext(Matrix([[1, 0, 1], [0, 1, 0]]))
    c = fundamental_circuit(ctx, (0, 1), 2)
    assert c.support == (0, 2)


def test_fundamental_circuit_rejects_basis_element():
    with pytest.raises(ValueError):
        fundamental_circuit(ctx_321(), (0, 2), 0)


def test_orient_circuit_lex():
    c = SignedCircuit((0, 1), (1, -1))
    assert orient_circuit(c, LEX_ORDER) is c
    neg = SignedCircuit((0, 1), (-1, 1))
    assert orient_circuit(neg, LEX_ORDER).lam == (1, -1)


def test_orient_circuit_explicit_rho():
    from fractions import Fraction
    c = SignedCircuit((0, 1, 2), (1, -2, 1))
    rho = [1, Fraction(1, 7), Fraction(1, 100)]
    assert orient_circuit(c, rho) is c
    with pytest.raises(NotGeneric):
        orient_circuit(SignedCircuit((0, 1), (1, -1)), [1, 1])


def test_ext_semiactivity_ones_row():
    ctx = ctx_ones(4)
    for i in range(4):
        ext, count = ext_semiactivity(ctx, (i,), LEX_ORDER)
        assert ext == list(range(i)) and count == i


def test_ext_semiactivity_321():
    assert ext_semiactivity(ctx_321(), (0, 2), LEX_ORDER)[1] == 0
    assert ext_semiactivity(ctx_321(), (1, 2), LEX_ORDER)[1] == 1
    assert ext_semiactivity(ctx_321(), (0, 1), LEX_ORDER)[1] == 1


def test_f_poly_ones_row():
    assert f_poly(ctx_ones(5)) == [1, 1, 1, 1, 1]


def test_f_poly_321():
    assert f_poly(ctx_321()) == [2, 2]


def test_f_poly_c4_graphic():
    from flatpoly import graphkit
    D = graphkit.standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                      [0, 2])
    tree = next(graphkit.spanning_trees(D))
    ctx = MatroidContext(graphkit.graphic_matrix(D, tree))
    assert f_poly(ctx) == [2, 2]


def test_is_generic():
    ctx = ctx_ones(3)
    assert is_generic(ctx, [1, 2, 3])
    assert not is_generic(ctx, [1, 1, 2])
    assert is_generic(ctx, LEX_ORDER)


def test_circuits_minimality():
    cs = circuits(ctx_321())
    assert [c.support for c in cs] == [(0, 1, 2)]
    ctx = MatroidContext(Matrix([[1, 0, 1], [0, 1, 0]]))
    assert [c.support for c in circuits(ctx)] == [(0, 2)]


def test_circuit_relation_exact():
    ctx = ctx_321()
    for c in circuits(ctx):
        combo = [sum(c.lam[j] * ctx.matrix.entries[i][j]
                     for j in range(ctx.n_elements))
                 for i in range(ctx.rank_d)]
        assert combo == [0, 0]


def test_rho_invariance():
    rng = random.Random(11)
    ctx = ctx_321()
    ref = f_poly(ctx)
    for _ in range(20):
        rho, poly = sample_generic_rho(ctx, rng)
        assert poly == ref and f_poly(ctx, rho) == ref


def test_f_poly_many_matches_single():
    # One context, so one shared minor table, serves every vector.
    rng = random.Random(5)
    ctx = ctx_321()
    rhos = [LEX_ORDER] + [sample_generic_rho(ctx, rng)[0] for _ in range(3)]
    many = [f_poly_frac(ctx, r) for r in rhos]
    assert many == [f_poly(ctx_321(), r) for r in rhos]


def test_ext_and_genericity_match_circuit_oracles(flat_corpus):
    rng = random.Random(23)
    for name, m in flat_corpus:
        ctx = MatroidContext(m)
        rhos = [LEX_ORDER] + [sample_generic_rho(ctx, rng)[0]
                              for _ in range(3)]
        for basis, _vol in enumerate_bases(ctx):
            for rho in rhos:
                ext, count = ext_semiactivity(ctx, basis, rho)
                assert ext == oracles.ext_set(ctx, basis, rho), (name, basis)
                assert count == len(ext)
        # Moved onto one circuit's hyperplane, a sampled vector must read
        # as non-generic to both routes.
        cs = circuits(ctx)
        for rho in rhos[1:]:
            assert is_generic(ctx, rho) and oracles.is_generic(ctx, rho)
            c = cs[rng.randrange(len(cs))]
            j = c.support[-1]
            hit = list(rho)
            hit[j] = 0
            hit[j] = -dot(c.lam, hit) / c.lam[j]
            assert not is_generic(ctx, hit), name
            assert not oracles.is_generic(ctx, hit)
    ones = ctx_ones(3)
    for rho in ([1, 1, 2], [1, 2, 3], [2, 1, 1], [3, 3, 3]):
        assert is_generic(ones, rho) == oracles.is_generic(ones, rho)
    assert not is_generic(ones, [1, 1, 2])


def test_palindromicity_and_negation():
    rng = random.Random(3)
    ctx = ctx_321()
    deg = ctx.n_elements - ctx.rank_d
    p = f_poly(ctx)
    assert reverse_in_degree(p, deg) == p
    rho, _ = sample_generic_rho(ctx, rng)
    neg = [-x for x in rho]
    assert f_poly(ctx, neg) == reverse_in_degree(f_poly(ctx, rho), deg)


def test_mass_conservation():
    ctx = ctx_321()
    total = sum(vol for _, vol in enumerate_bases(ctx))
    assert sum(f_poly(ctx)) == total == 4


def test_row_transform_invariance():
    # Same column dependences, both flat and unimodular volume scale.
    a = MatroidContext(Matrix([[3, 2, 1], [1, 1, 1]]))
    b = MatroidContext(Matrix([[4, 3, 2], [1, 1, 1]]))
    assert f_poly(a) == f_poly(b)


def test_sample_generic_rho_is_generic():
    rng = random.Random(0)
    ctx = ctx_ones(4)
    for _ in range(5):
        rho, poly = sample_generic_rho(ctx, rng)
        assert is_generic(ctx, rho) and poly == f_poly_frac(ctx, rho)
