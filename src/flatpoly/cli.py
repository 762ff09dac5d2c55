"""Command-line interface: compute polynomials from input files, run the
named verification suites, and explore the open trapezoidality question.

Reports are JSON on stdout (--pretty for indented output). Exit codes:
0 success / all checks pass, 1 a check failed or a counterexample was
found, 2 input or usage error.

Every call starts a fresh interpreter, so each command imports only the
modules it runs: the module level holds what every command uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import formats


class UsageError(ValueError):
    pass


def _report(args, command, **fields):
    rep = {"command": command, **fields}
    print(json.dumps(rep, indent=2 if args.pretty else None, default=str))


def _shape_dict(p):
    from . import polyshape

    s = polyshape.shape_report(p)
    return {"palindromic": s.palindromic, "nonnegative": s.nonnegative,
            "no_internal_zeros": s.no_internal_zeros,
            "log_concave": s.log_concave, "trapezoidal": s.trapezoidal}


def cmd_fa(args):
    from . import graphkit, ormatroid

    if args.matrix and args.bigraph:
        raise UsageError("fa takes --matrix or --bigraph, not both")
    if args.matrix:
        m = formats.load_matrix(args.matrix)
        ctx = ormatroid.MatroidContext(m)
    elif args.bigraph:
        D = graphkit.standard_orientation(*formats.load_bigraph(args.bigraph))
        ctx = ormatroid.MatroidContext(graphkit.graphic_matrix(D))
    else:
        raise UsageError("fa needs --matrix or --bigraph")
    poly = ormatroid.f_poly_frac(ctx)
    _report(args, "fa", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly))
    return 0


def cmd_pd(args):
    from . import graphkit

    D = formats.load_digraph(args.digraph)
    poly = graphkit.p_poly(D, args.root)
    _report(args, "pd", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly), root=args.root)
    return 0


def cmd_alexander(args):
    from . import planardual

    P, part1 = formats.load_planegraph(args.planegraph)
    poly = planardual.alexander_poly(P, part1)
    _report(args, "alexander", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly))
    return 0


def cmd_zonotope(args):
    from . import zonolattice

    n, edges, part1 = formats.load_bigraph(args.bigraph)
    ctx = zonolattice.bipartite_graph_context(n, edges, part1)
    adm = zonolattice.bipartite_admissible_l(n, part1)
    trimmed = zonolattice.trimmed_points(ctx, adm)
    levels, shift = zonolattice.level_poly(trimmed)
    # Reports are in vertex coordinates.
    lifted = zonolattice.LatticePointSet(
        tuple(map(zonolattice.incidence_point, trimmed.points)),
        trimmed.levels)
    _report(args, "zonotope",
            lattice_points=zonolattice.lattice_point_count(ctx),
            trimmed=formats.dump_points(lifted),
            level_poly=formats.dump_poly(levels), level_shift=shift,
            admissible_direction=list(zonolattice.incidence_point(adm.l)),
            m=adm.m)
    return 0


def cmd_tp(args):
    from . import totpos

    if args.from_c:
        C = formats.load_matrix(args.from_c)
        fmp = totpos.flat_maxpos_from_C(C)
    else:
        import random

        rng = random.Random(args.seed)
        net = totpos.random_network(args.d, args.n, rng)
        fmp = totpos.flat_maxpos_from_network(net)
    if fmp.A.cols < fmp.A.rows:
        raise UsageError(f"tp needs N >= d, got d = {fmp.A.rows}, "
                         f"N = {fmp.A.cols}")
    poly, cert = totpos.f_tp_closed(fmp)
    _report(args, "tp", matrix=formats.dump_matrix(fmp.A),
            result_poly=formats.dump_poly(poly, variable="q"),
            certificate=formats.dump_certificate(cert),
            seed=args.seed)
    return 0


def cmd_boxcert(args):
    from . import polyshape

    p = formats.load_poly(args.poly)
    cert = polyshape.box_certificate(p, args.d)
    if cert is None:
        _report(args, "boxcert", box_positive=False, d=args.d)
        return 1
    _report(args, "boxcert", box_positive=True, d=args.d,
            certificate=formats.dump_certificate(cert))
    return 0


# ---------------------------------------------------------------------------
# verify suites

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
    """Tree-reversal polynomial equals the cographic basis polynomial, and
    its determinant route (Tutte's matrix-tree theorem) equals its tree
    scan."""
    from . import graphkit, ormatroid

    if args.digraph:
        digraphs = [formats.load_digraph(args.digraph)]
    else:
        from . import corpus

        digraphs = [corpus.random_eulerian(rng, 8)
                    for _ in range(args.trials or 10)]
    for i, D in enumerate(digraphs):
        p = graphkit.p_poly(D, 0)
        B = graphkit.cographic_matrix(D)
        f = ormatroid.f_poly(ormatroid.MatroidContext(B))
        _check(checks, f"pd-equals-cographic[{i}]", p == f, f"{p} vs {f}")
        q = graphkit.p_poly_det(D, 0)
        _check(checks, f"pd-det-equals-scan[{i}]", q == p, f"{q} vs {p}")


def suite_cor5_4(args, checks, rng):
    """The Seifert determinant, the dual's cographic f and the primal's
    graphic f agree on the corpus and on random plane bipartite graphs."""
    from . import corpus, graphkit, ormatroid, planardual

    graphs = [(name, corpus.plane_bipartite(name))
              for name in corpus.PLANE_BIPARTITE]
    graphs += [(f"random-{i}", corpus.random_plane_bipartite(rng))
               for i in range(args.trials or 10)]
    for name, (P, part1) in graphs:
        seifert = planardual.alexander_poly(P, part1)
        res = planardual.dual_with_orientation(P, part1)
        f_dual = planardual.normalized(ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.cographic_matrix(res.dual))))
        f_primal = planardual.normalized(ormatroid.f_poly(
            ormatroid.MatroidContext(graphkit.graphic_matrix(P.digraph))))
        _check(checks, f"duality[{name}]", seifert == f_dual == f_primal,
               f"seifert {seifert}, dual cographic f {f_dual}, "
               f"primal graphic f {f_primal}")


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
        levels, shift = zonolattice.level_poly(
            zonolattice.LatticePointSet(tr.points, sums))
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
        closed, cert = totpos.f_tp_closed(fmp)
        brute = ormatroid.f_poly_frac(ormatroid.MatroidContext(fmp.A))
        _check(checks, f"tp-closed-form[{i}]",
               closed == brute and cert.expand() == closed,
               f"{closed} vs {brute}")


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


def cmd_verify(args):
    if args.trials < 0:
        raise UsageError("--trials must be nonnegative (0 picks the suite's "
                         "default)")
    if args.digraph and args.suite != "thm5_3":
        raise UsageError("--digraph applies only to verify thm5_3")
    if args.digraph and args.trials:
        raise UsageError("--trials does not apply to verify thm5_3 "
                         "--digraph, which checks the one digraph given")
    import random

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


def cmd_explore(args):
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    import random

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


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process on the first call."""
    ap = argparse.ArgumentParser(
        prog="flatpoly",
        description="Exact basis-activity, spanning-tree, and Alexander "
                    "polynomial computations with machine verification.")
    ap.add_argument("--pretty", action="store_true",
                    help="indent JSON reports")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fa", help="basis-activity polynomial of a flat matrix")
    p.add_argument("--matrix")
    p.add_argument("--bigraph", help="bipartite graph, standard orientation")

    p = sub.add_parser("pd", help="tree-reversal polynomial of an Eulerian "
                                  "digraph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--root", type=int, default=0)

    p = sub.add_parser("alexander", help="Alexander polynomial of a plane "
                                         "bipartite graph's link")
    p.add_argument("--planegraph", required=True)

    p = sub.add_parser("zonotope", help="trimmed zonotope levels of a "
                                        "bipartite graph")
    p.add_argument("--bigraph", required=True)

    p = sub.add_parser("tp", help="totally positive instance and its "
                                  "box-positive expansion")
    p.add_argument("--from-c", dest="from_c")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("boxcert", help="box-positivity certificate search")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--digraph")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("explore", help="random search for trapezoidality "
                                       "counterexamples")
    p.add_argument("--family", required=True,
                   choices=["semibalanced", "random-flat", "tp"])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # The command is looked up by name on every call, so a rebinding of a
    # cmd_* function reaches the cached parser.
    fn = globals()[f"cmd_{args.cmd}"]
    try:
        return fn(args)
    except (UsageError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        # Two internal routes disagreed: a check failed, not the input.
        print(f"error: internal check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
