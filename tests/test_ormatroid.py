import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatpoly import corpus, graphkit, ormatroid, planardual
from flatpoly.exactnum import Matrix, _columns
from flatpoly.graphkit import (Digraph, graphic_matrix, p_poly,
                               standard_orientation)
from flatpoly.ormatroid import (LEX_ORDER, MatroidContext, NotGeneric,
                                cographic_f_poly, enumerate_bases,
                                ext_semiactivity, f_poly, f_poly_frac,
                                sample_generic_rho)

import oracles
from oracles import (SignedCircuit, circuits, fundamental_circuit,
                     orient_circuit, reverse_in_degree)


def ctx_321():
    return MatroidContext(Matrix([[3, 2, 1], [1, 1, 1]]))


def ctx_ones(n):
    return MatroidContext(Matrix([[1] * n]))


def is_generic(ctx, rho):
    """Genericity as f_poly_frac sees it: it raises NotGeneric exactly when
    rho is orthogonal to a circuit, and the circuit oracle must agree."""
    try:
        f_poly_frac(ctx, rho)
        ok = True
    except NotGeneric:
        ok = False
    assert ok == (rho == LEX_ORDER or oracles.is_generic(ctx, rho))
    return ok


def test_context_rejects_rank_deficient():
    with pytest.raises(ValueError):
        MatroidContext(Matrix([[1, 1], [1, 1]]))


def test_context_rejects_non_flat():
    with pytest.raises(ormatroid.NotFlat):
        MatroidContext(Matrix([[1, 2]]))


def bases_with_volumes(ctx):
    return [(_columns(B), Fraction(abs(ctx.chi[B]), ctx.scale))
            for B in enumerate_bases(ctx)]


def test_enumerate_bases_ones_row():
    assert bases_with_volumes(ctx_ones(3)) == \
        [((0,), 1), ((1,), 1), ((2,), 1)]


def test_enumerate_bases_321():
    assert bases_with_volumes(ctx_321()) == \
        [((0, 1), 1), ((0, 2), 2), ((1, 2), 1)]


def test_enumerate_bases_duplicate_column():
    ctx = MatroidContext(Matrix([[1, 0, 1], [0, 1, 0]]))
    assert list(enumerate_bases(ctx)) == [0b011, 0b110]


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
    c = SignedCircuit((0, 1, 2), (1, -2, 1))
    rho = [1, Fraction(1, 7), Fraction(1, 100)]
    assert orient_circuit(c, rho) is c
    with pytest.raises(NotGeneric):
        orient_circuit(SignedCircuit((0, 1), (1, -1)), [1, 1])


def test_ext_semiactivity_ones_row():
    ctx = ctx_ones(4)
    for i in range(4):
        ext, count = ext_semiactivity(ctx, 1 << i, LEX_ORDER)
        assert ext == list(range(i)) and count == i


def test_ext_semiactivity_321():
    assert ext_semiactivity(ctx_321(), 0b101, LEX_ORDER)[1] == 0
    assert ext_semiactivity(ctx_321(), 0b110, LEX_ORDER)[1] == 1
    assert ext_semiactivity(ctx_321(), 0b011, LEX_ORDER)[1] == 1


def test_f_poly_ones_row():
    assert f_poly(ctx_ones(5)) == [1, 1, 1, 1, 1]


def test_f_poly_321():
    assert f_poly(ctx_321()) == [2, 2]


def test_f_poly_c4_graphic():
    from flatpoly import graphkit
    D = graphkit.standard_orientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                      [0, 2])
    ctx = MatroidContext(graphkit.graphic_matrix(D))
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
    entries = ctx.matrix.entries
    for c in circuits(ctx):
        combo = [sum(a * x for a, x in zip(c.lam, row)) for row in entries]
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
        for basis in enumerate_bases(ctx):
            for rho in rhos:
                ext, count = ext_semiactivity(ctx, basis, rho)
                assert ext == oracles.ext_set(ctx, _columns(basis), rho), \
                    (name, basis)
                assert count == len(ext)
        # Moved onto one circuit's hyperplane, a sampled vector must read
        # as non-generic to both routes.
        cs = circuits(ctx)
        for rho in rhos[1:]:
            assert is_generic(ctx, rho)
            c = cs[rng.randrange(len(cs))]
            j = c.support[-1]
            hit = list(rho)
            hit[j] = 0
            hit[j] = -sum(a * b for a, b in zip(c.lam, hit)) / c.lam[j]
            assert not is_generic(ctx, hit), name
    ones = ctx_ones(3)
    for rho in ([1, 1, 2], [1, 2, 3], [2, 1, 1], [3, 3, 3]):
        is_generic(ones, rho)
    assert not is_generic(ones, [1, 1, 2])


def test_ext_matches_circuit_oracle_on_wide_corpus():
    # 85 contexts: random flat matrices, the corpus graphic matrices and
    # cographic matrices of random Eulerian digraphs with up to 12 edges.
    # Per context, up to 32 bases are checked under LEX_ORDER and under a
    # sampled generic vector; the Fraction oracle reduces [A_B | A] once
    # per basis.
    rng = random.Random(17)
    ctxs = [corpus.random_flat_matrix(rng) for _ in range(40)]
    for n, edges, part1, _c, _b in corpus.PLANE_BIPARTITE.values():
        D = standard_orientation(n, edges, part1)
        ctxs.append(MatroidContext(graphic_matrix(D)))
    ctxs += [MatroidContext(oracles.cographic_presentation(
        corpus.random_eulerian(rng, 12))) for _ in range(30)]
    assert len(ctxs) == 85
    checked = 0
    for ctx in ctxs:
        rho, _ = sample_generic_rho(ctx, rng)
        bases = list(enumerate_bases(ctx))
        for basis in rng.sample(bases, min(32, len(bases))):
            rhos = (LEX_ORDER, rho)
            got = [ext_semiactivity(ctx, basis, r)[0] for r in rhos]
            assert got == oracles.ext_sets(ctx, _columns(basis), rhos), \
                (ctx.matrix, basis)
            checked += 1
    assert checked > 1000


def test_not_generic_names_basis_columns():
    with pytest.raises(NotGeneric, match=r"circuit of 1 in \(0,\)$"):
        ext_semiactivity(ctx_ones(3), 0b001, [1, 1, 2])


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
    total = sum(vol for _, vol in bases_with_volumes(ctx))
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


def test_f_poly_frac_builds_one_fraction_per_coefficient(monkeypatch):
    # Volumes are summed as integers and divided by the scale once per
    # coefficient, under the symbolic order and under a rational vector.
    ctx = MatroidContext(Matrix([[Fraction(1, 2), 2, 1, Fraction(3, 4)],
                                 [1, 1, 1, 1]]))
    assert ctx.scale > 1
    rho, _ = sample_generic_rho(ctx, random.Random(2))
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(ormatroid, "Fraction", CountingFraction)
    for r in (LEX_ORDER, rho):
        built.clear()
        poly = f_poly_frac(ctx, r)
        assert len(built) == len(poly), r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_f_poly_frac_ignores_positive_rho_scale(flat_corpus, data):
    # A positive scale keeps every circuit sign, so the polynomial and the
    # vectors that raise NotGeneric are the same.
    _name, m = data.draw(st.sampled_from(flat_corpus))
    ctx = MatroidContext(m)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rho = data.draw(st.lists(small, min_size=m.cols, max_size=m.cols))
    c = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9,
                               max_denominator=9))

    def outcome(r):
        try:
            return f_poly_frac(ctx, r)
        except NotGeneric:
            return NotGeneric

    assert outcome([c * x for x in rho]) == outcome(rho)


def cographic_f_oracle(D):
    """f of D's cut presentation, a flat matrix when D is Eulerian."""
    return f_poly(MatroidContext(oracles.cographic_presentation(D)))


def test_cographic_f_poly_matches_cut_presentation_and_p_poly():
    # The oriented duals of the 15 corpus graphs and 200 random Eulerian
    # digraphs with up to 12 edges (Theorem 5.3).
    digraphs = [planardual.dual_with_orientation(
        *corpus.plane_bipartite(name)).dual for name in corpus.PLANE_BIPARTITE]
    rng = random.Random(29)
    digraphs += [corpus.random_eulerian(rng, 12) for _ in range(200)]
    for D in digraphs:
        assert cographic_f_poly(graphic_matrix(D)) == cographic_f_oracle(D) \
            == p_poly(D), D


def test_cographic_f_poly_of_the_cut_presentation_is_the_graphic_f():
    # The Gale dual of the cut presentation presents the graphic matroid,
    # flat for a semibalanced digraph, whose cut presentation is not flat
    # unless it is also Eulerian.
    rng = random.Random(30)
    checked = 0
    while checked < 200:
        D, _levels = corpus.random_semibalanced(rng)
        if len(D.edges) == D.n - 1:
            continue  # a tree: its cographic matroid has rank 0
        assert cographic_f_poly(oracles.cographic_presentation(D)) == \
            f_poly(MatroidContext(graphic_matrix(D))), D
        checked += 1


def test_cographic_f_poly_by_hand():
    # A directed 2-cycle's cut presentation is the row (1, 1), a circuit
    # (1, -1), so in the basis {0} the column 1 is not active: f = 1 + t,
    # P_D at either root. Reversing one edge makes two parallel edges, the
    # row (1, -1) and the circuit (1, 1), and both bases have one active
    # column. The directed triangle has P_D = 1 + t + t^2; with its last
    # edge reversed, the cut presentation (-1, -1, 1) has the circuits
    # (1, -1, 0), (1, 0, 1) and (0, 1, 1), and the bases {0}, {1}, {2}
    # have 1, 2 and 2 active columns.
    assert cographic_f_poly(graphic_matrix(Digraph(2, [(0, 1), (1, 0)]))) \
        == [1, 1]
    assert cographic_f_poly(graphic_matrix(Digraph(2, [(0, 1), (0, 1)]))) \
        == [0, 2]
    triangle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert cographic_f_poly(graphic_matrix(triangle)) == [1, 1, 1]
    assert cographic_f_poly(graphic_matrix(
        Digraph(3, [(0, 1), (1, 2), (0, 2)]))) == [0, 1, 2]


def test_cographic_f_poly_ignores_row_scales():
    # Scaling rows keeps the row space, so the Gale dual and its volumes,
    # normalised at the first basis, are the same: the integer table is
    # tripled in the first matrix, and the second has the scale 2^rows.
    for D in (corpus.random_eulerian(random.Random(seed), 10)
              for seed in range(20)):
        A = graphic_matrix(D)
        tripled = Matrix([[3 * x for x in A.num[0]]] + A.num[1:])
        halved = Matrix([[Fraction(x, 2) for x in row] for row in A.num])
        assert halved.scale == 2 ** A.rows
        assert cographic_f_poly(tripled) == cographic_f_poly(halved) == \
            cographic_f_poly(A) == p_poly(D), D


def test_cographic_f_poly_rejects_bad_input():
    with pytest.raises(ValueError, match="full row rank"):
        cographic_f_poly(Matrix([[1, 1], [2, 2]]))
    # The Gale dual of (2, 1) has the volumes 1 and 1/2.
    with pytest.raises(ValueError, match="non-integer"):
        cographic_f_poly(Matrix([[2, 1]]))
