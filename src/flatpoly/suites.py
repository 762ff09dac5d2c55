"""The `verify` suites, which check the paper's theorems by independent
routes on seeded instances, and `explore`, a random search for
trapezoidality counterexamples.

`cli` imports this module only inside its `verify` and `explore` entry
points, so the other commands neither compile nor load it.
"""

from __future__ import annotations

import random

from . import formats
from .formats import UsageError, _report



def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "pass": bool(ok), "detail": detail})


def suite_thm3_5(args, checks, rng):
    """f_poly is identical across the symbolic order and random generic
    vectors."""
    from . import corpus, ormatroid

    ctxs = [corpus.random_flat_matrix(rng) for _ in range(6)]
    for i, ctx in enumerate(ctxs):
        polys = [ormatroid.f_poly_frac(ctx)] + \
            [ormatroid.sample_generic_rho(ctx, rng)[1]
             for _ in range(args.trials or 5)]
        same = all(p == polys[0] for p in polys)
        shown = [str(c) for c in polys[0]]
        _check(checks, f"rho-invariance[{i}]", same, f"poly={shown}")


def suite_thm5_3(args, checks, rng):
    """Tree-reversal polynomial equals the cographic basis polynomial,
    read from the cocircuits of the graphic matrix's minor table, and its
    determinant route (Tutte's matrix-tree theorem) at root 0 equals the
    search that grows each tree of the simple graph underneath from a
    vertex of minimum degree, one bundle of parallel edges per step. The
    check names keep "scan" for that search, so reports stay as they
    were."""
    from . import graphkit, ormatroid

    if args.digraph:
        digraphs = [formats.load_digraph(args.digraph)]
    else:
        from . import corpus

        digraphs = [corpus.random_eulerian(rng, 8)
                    for _ in range(args.trials or 10)]
    for i, D in enumerate(digraphs):
        p = graphkit.p_poly(D, 0)
        # Loops are rejected and p_poly rejects a disconnected graph, so a
        # graph with no edge has one vertex. Its cographic matroid is
        # empty, with one basis of volume 1.
        f = ormatroid.cographic_f_poly(
            graphkit.graphic_matrix(D)) if D.edges else [1]
        _check(checks, f"pd-equals-cographic[{i}]", p == f, f"{p} vs {f}")
        q = graphkit.p_poly_det(D, 0)
        _check(checks, f"pd-det-equals-scan[{i}]", q == p, f"{q} vs {p}")


def suite_cor5_4(args, checks, rng):
    """The Alexander polynomial (the dual's Laplacian determinant, which is
    the Seifert determinant), the dual's cographic f and the primal's
    graphic f, both read from graphic minor tables independent of the
    determinant, agree on the corpus and on random plane bipartite graphs
    (duality checks). The embedded checks compare fa --bigraph's route,
    which embeds the bare graph itself and takes its dual's determinant,
    with the primal's table f, neither normalized."""
    from . import corpus, graphkit, ormatroid, planardual

    graphs = [(name, corpus.plane_bipartite(name))
              for name in corpus.PLANE_BIPARTITE]
    graphs += [(f"random-{i}", corpus.random_plane_bipartite(rng))
               for i in range(args.trials or 10)]
    for name, (P, part1) in graphs:
        seifert = planardual.alexander_poly(P, part1)
        res = planardual.dual_with_orientation(P, part1)
        f_dual = planardual.normalized(ormatroid.cographic_f_poly(
            graphkit.graphic_matrix(res.dual)))
        f_table = ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.graphic_matrix(P.digraph)))
        f_primal = planardual.normalized(f_table)
        _check(checks, f"duality[{name}]", seifert == f_dual == f_primal,
               f"seifert {seifert}, dual cographic f {f_dual}, "
               f"primal graphic f {f_primal}")
        # P.digraph carries no rotation: the route embeds it anew.
        f_embedded = planardual.graphic_f_poly(P.digraph)
        _check(checks, f"embedded[{name}]", f_embedded == f_table,
               f"embedded {f_embedded}, table {f_table}")


def suite_thm6_7(args, checks, rng):
    """Level polynomial of the trimmed zonotope matches f_poly shifted, on
    five corpus graphs and on random plane bipartite graphs. Levels are
    read from the points, as the part-1 sum of their vertex coordinates,
    not from the tile counts that f_poly also reads."""
    from . import corpus, ormatroid, polyshape, zonolattice

    graphs = [(name, corpus.PLANE_BIPARTITE[name][:3])
              for name in ("C4", "C6", "K23", "grid2x3", "theta222")]
    for i in range(args.trials or 5):
        P, part1 = corpus.random_plane_bipartite(rng)
        graphs.append((f"random-{i}", (P.digraph.n, P.digraph.edges, part1)))
    for name, (n, edges, part1) in graphs:
        ctx = zonolattice.bipartite_graph_context(n, edges, part1)
        adm = zonolattice.bipartite_admissible_l(n, part1)
        tr = zonolattice.trimmed_points(ctx, adm)
        sums = tuple(sum(zonolattice.incidence_point(p)[v] for v in part1)
                     for p in tr.points)
        levels, shift = zonolattice.level_poly(tr._replace(levels=sums))
        f = ormatroid.f_poly(ctx.mctx)
        expected = polyshape.poly_shift(f, ctx.d - adm.m)
        detail = f"{levels} vs {expected}"
        if tr.levels != sums:
            detail += "; the reported levels are not the part-1 sums"
        _check(checks, f"level-identity[{name}]",
               tr.levels == sums and shift == 0 and levels == expected,
               detail)


def suite_thm8_8(args, checks, rng):
    """Closed-form TP polynomial equals brute-force enumeration."""
    from . import ormatroid, totpos

    for i in range(args.trials or 8):
        d = rng.randint(1, 3)
        N = rng.randint(d + 1, d + 4)
        net = totpos.random_network(d, N, rng)
        fmp = totpos.flat_maxpos_from_network(net)
        closed, _cert = totpos.f_tp_closed(fmp)
        brute = ormatroid.f_poly_frac(ormatroid.MatroidContext(fmp.A))
        _check(checks, f"tp-closed-form[{i}]", closed == brute,
               f"{[str(c) for c in closed]} vs {[str(c) for c in brute]}")


def suite_lemma8_1(args, checks, rng):
    """Closed-form semi-activity equals the matrix computation."""
    from . import ormatroid, totpos
    from .exactnum import _columns

    for i in range(args.trials or 5):
        d = rng.randint(1, 3)
        N = rng.randint(d + 1, d + 4)
        fmp = totpos.flat_maxpos_from_network(totpos.random_network(d, N, rng))
        ctx = ormatroid.MatroidContext(fmp.A)
        ok = True
        for basis in ormatroid.enumerate_bases(ctx):
            _, ext = ormatroid.ext_semiactivity(ctx, basis, ormatroid.LEX_ORDER)
            if ext != totpos.ext_closed_form(
                    [b + 1 for b in _columns(basis)], N):
                ok = False
                break
        _check(checks, f"ext-closed-form[{i}]", ok)


def suite_lemma8_3(args, checks, rng):
    """Interleaved C-minor sums equal direct determinants."""
    from itertools import combinations

    from . import totpos

    for i in range(args.trials or 5):
        d = rng.randint(2, 4)
        N = rng.randint(d, d + 3)
        fmp = totpos.flat_maxpos_from_network(totpos.random_network(d, N, rng))
        ok = True
        try:
            for cols in combinations(range(N), d):
                totpos.minor_via_C(fmp, cols)  # raises on mismatch
        except AssertionError:
            ok = False
        _check(checks, f"minor-formula[{i}]", ok)


SUITES = {
    "thm3_5": suite_thm3_5,
    "thm5_3": suite_thm5_3,
    "cor5_4": suite_cor5_4,
    "thm6_7": suite_thm6_7,
    "thm8_8": suite_thm8_8,
    "lemma8_1": suite_lemma8_1,
    "lemma8_3": suite_lemma8_3,
}


def verify(args):
    """Run one suite; exit 0 iff it ran a check and every check passed."""
    if args.trials < 0:
        raise UsageError("--trials must be nonnegative (0 picks the suite's "
                         "default)")
    if args.digraph and args.suite != "thm5_3":
        raise UsageError("--digraph applies only to verify thm5_3")
    if args.digraph and args.trials:
        raise UsageError("--trials does not apply to verify thm5_3 "
                         "--digraph, which checks the one digraph given")
    checks = []
    rng = random.Random(args.seed)
    SUITES[args.suite](args, checks, rng)
    # A suite that ran no check has shown nothing, so it does not pass.
    ok = bool(checks) and all(c["pass"] for c in checks)
    _report(args, f"verify {args.suite}", checks=checks, seed=args.seed)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# explore

def _explore_instance(family, rng):
    """(integer polynomial, instance JSON, box certificate or None); a tp
    instance carries the closed form's d-fold certificate."""
    if family == "tp":
        from . import totpos
        from .exactnum import _integer_rows

        d = rng.randint(1, 4)
        N = rng.randint(d + 1, d + 4)
        fmp = totpos.flat_maxpos_from_network(totpos.random_network(d, N, rng))
        poly, cert = totpos.f_tp_closed(fmp)
        # Shape flags only need the coefficient ratios; scale to ints.
        (poly,), _ = _integer_rows([poly])
        return poly, formats.dump_matrix(fmp.A), cert
    from . import corpus, ormatroid

    if family == "semibalanced":
        from . import graphkit

        D, levels = corpus.random_semibalanced(rng)
        poly = ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.graphic_matrix(D)))
        return poly, formats.dump_digraph(D), None
    if family == "random-flat":
        ctx = corpus.random_flat_matrix(rng)
        return ormatroid.f_poly(ctx), formats.dump_matrix(ctx.matrix), None
    raise UsageError(f"unknown family {family!r}")


def explore(args):
    """Draw --trials instances of the family; exit 1 at the first one that
    is not trapezoidal."""
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    from . import polyshape

    rng = random.Random(args.seed)
    stats = {"trials": args.trials, "trapezoidal": 0, "log_concave": 0,
             "box_positive": 0}
    for t in range(args.trials):
        poly, instance, cert = _explore_instance(args.family, rng)
        shape = polyshape.shape_report(poly)
        if not shape.trapezoidal:
            _report(args, "explore", family=args.family, seed=args.seed,
                    counterexample={"instance": instance,
                                    "poly": formats.dump_poly(poly)},
                    checks=[{"check": "trapezoidal", "pass": False,
                             "detail": f"trial {t}"}])
            return 1
        stats["trapezoidal"] += 1
        if shape.log_concave and shape.no_internal_zeros:
            stats["log_concave"] += 1
        if cert is None:
            cert = polyshape.box_certificate(poly, 2 if len(poly) > 1 else 1)
        stats["box_positive"] += cert is not None
    _report(args, "explore", family=args.family, seed=args.seed, stats=stats,
            checks=[{"check": "trapezoidal", "pass": True,
                     "detail": f"{args.trials} trials"}])
    return 0
