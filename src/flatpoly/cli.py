"""Command-line interface: compute polynomials from input files, run the
named verification suites, and explore the open trapezoidality question.

Reports are JSON on stdout (--pretty for indented output). Exit codes:
0 success / all checks pass, 1 a check failed or a counterexample was
found, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import (corpus, formats, graphkit, ormatroid, planardual, polyshape,
               totpos, zonolattice)
from .exactnum import independent_rows


class UsageError(ValueError):
    pass


def _report(args, command, **fields):
    rep = {"command": command, **fields}
    print(json.dumps(rep, indent=2 if args.pretty else None, default=str))


def _shape_dict(p):
    s = polyshape.shape_report(p)
    return {"palindromic": s.palindromic, "nonnegative": s.nonnegative,
            "no_internal_zeros": s.no_internal_zeros,
            "log_concave": s.log_concave, "trapezoidal": s.trapezoidal}


def _graphic_ctx(n, edges, part1):
    D = graphkit.standard_orientation(n, edges, part1)
    tree = next(graphkit.spanning_trees(D))
    return ormatroid.MatroidContext(graphkit.graphic_matrix(D, tree))


def cmd_fa(args):
    if args.matrix:
        m = formats.load_matrix(args.matrix)
        ctx = ormatroid.MatroidContext(m)
    elif args.bigraph:
        n, edges, part1 = formats.load_bigraph(args.bigraph)
        ctx = _graphic_ctx(n, edges, part1)
    else:
        raise UsageError("fa needs --matrix or --bigraph")
    poly = ormatroid.f_poly_frac(ctx)
    _report(args, "fa", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly))
    return 0


def cmd_pd(args):
    D = formats.load_digraph(args.digraph)
    poly = graphkit.p_poly(D, args.root)
    _report(args, "pd", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly), root=args.root)
    return 0


def cmd_alexander(args):
    P, part1 = formats.load_planegraph(args.planegraph)
    poly = planardual.alexander_poly(P, part1)
    _report(args, "alexander", result_poly=formats.dump_poly(poly),
            shape=_shape_dict(poly))
    return 0


def cmd_zonotope(args):
    n, edges, part1 = formats.load_bigraph(args.bigraph)
    ctx = zonolattice.bipartite_graph_context(n, edges, part1)
    adm = zonolattice.bipartite_admissible_l(n, part1)
    trimmed = zonolattice.trimmed_points(ctx, adm)
    levels, shift = zonolattice.level_poly(trimmed)
    _report(args, "zonotope",
            lattice_points=len(zonolattice.lattice_points(ctx)),
            trimmed=formats.dump_points(trimmed),
            level_poly=formats.dump_poly(levels), level_shift=shift,
            admissible_direction=list(adm.l), m=adm.m)
    return 0


def cmd_tp(args):
    if args.from_c:
        C = formats.load_matrix(args.from_c)
        fmp = totpos.flat_maxpos_from_C(C)
    else:
        rng = random.Random(args.seed)
        net = totpos.random_network(args.d, args.n, rng)
        fmp = totpos.flat_maxpos_from_network(net)
    poly, cert = totpos.f_tp_closed(fmp)
    _report(args, "tp", matrix=formats.dump_matrix(fmp.A),
            result_poly={"format": "poly-v1", "variable": "q",
                         "coeffs": [str(c) for c in poly]},
            certificate=[[list(comp), str(coef)] for comp, coef in cert.terms],
            seed=getattr(args, "seed", None))
    return 0


def cmd_boxcert(args):
    p = formats.load_poly(args.poly)
    cert = polyshape.box_certificate(p, args.d)
    if cert is None:
        _report(args, "boxcert", box_positive=False, d=args.d)
        return 1
    _report(args, "boxcert", box_positive=True, d=args.d,
            certificate=[[list(comp), str(coef)] for comp, coef in cert.terms])
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "pass": bool(ok), "detail": detail})


def suite_thm3_5(args, checks, rng):
    """f_poly is identical across the symbolic order and random generic
    vectors."""
    mats = [corpus.random_flat_matrix(rng) for _ in range(6)]
    for i, m in enumerate(mats):
        ctx = ormatroid.MatroidContext(m)
        polys = [ormatroid.f_poly_frac(ctx)] + \
            [ormatroid.sample_generic_rho(ctx, rng)[1]
             for _ in range(args.trials or 5)]
        same = all(p == polys[0] for p in polys)
        shown = [str(c) for c in polys[0]]
        _check(checks, f"rho-invariance[{i}]", same, f"poly={shown}")


def suite_thm5_3(args, checks, rng):
    """Tree-reversal polynomial equals the cographic basis polynomial."""
    if args.digraph:
        digraphs = [formats.load_digraph(args.digraph)]
    else:
        digraphs = [corpus.random_eulerian(rng, 8) for _ in range(10)]
    for i, D in enumerate(digraphs):
        p = graphkit.p_poly(D, 0)
        tree = next(graphkit.spanning_trees(D))
        B = graphkit.cographic_matrix(D, tree)
        f = ormatroid.f_poly(ormatroid.MatroidContext(B))
        _check(checks, f"pd-equals-cographic[{i}]", p == f, f"{p} vs {f}")


def suite_cor5_4(args, checks, rng):
    """Graphic, dual-cographic, and Alexander routes agree on plane
    bipartite graphs."""
    for name in corpus.PLANE_BIPARTITE:
        P, part1 = corpus.plane_bipartite(name)
        alex = planardual.alexander_poly(P, part1)
        res = planardual.dual_with_orientation(P, part1)
        tree = next(graphkit.spanning_trees(res.dual))
        B = graphkit.cographic_matrix(res.dual, tree)
        f_dual = planardual.normalized(
            ormatroid.f_poly(ormatroid.MatroidContext(B)))
        _check(checks, f"duality[{name}]", alex == f_dual,
               f"{alex} vs {f_dual}")


def suite_thm6_7(args, checks, rng):
    """Level polynomial of the trimmed zonotope matches f_poly shifted."""
    for name in ("C4", "C6", "K23", "grid2x3", "theta222"):
        n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE[name]
        ctx = zonolattice.bipartite_graph_context(n, edges, part1)
        adm = zonolattice.bipartite_admissible_l(n, part1)
        levels, shift = zonolattice.level_poly(
            zonolattice.trimmed_points(ctx, adm))
        f = ormatroid.f_poly(_graphic_ctx(n, edges, part1))
        expected = polyshape.poly_shift(f, ctx.d - adm.m)
        _check(checks, f"level-identity[{name}]",
               shift == 0 and levels == expected, f"{levels} vs {expected}")


def suite_thm8_8(args, checks, rng):
    """Closed-form TP polynomial equals brute-force enumeration."""
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
    for i in range(args.trials or 5):
        d = rng.randint(1, 3)
        N = rng.randint(d + 1, d + 4)
        fmp = totpos.flat_maxpos_from_network(totpos.random_network(d, N, rng))
        ctx = ormatroid.MatroidContext(fmp.A)
        ok = True
        for basis, _vol in ormatroid.enumerate_bases(ctx):
            _, ext = ormatroid.ext_semiactivity(ctx, basis, ormatroid.LEX_ORDER)
            if ext != totpos.ext_closed_form([b + 1 for b in basis], N):
                ok = False
                break
        _check(checks, f"ext-closed-form[{i}]", ok)


def suite_lemma8_3(args, checks, rng):
    """Interleaved C-minor sums equal direct determinants."""
    from itertools import combinations
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
    if family == "tp":
        d = rng.randint(1, 4)
        N = rng.randint(d + 1, d + 4)
        fmp = totpos.flat_maxpos_from_network(totpos.random_network(d, N, rng))
        poly, _ = totpos.f_tp_closed(fmp)
        if any(c.denominator != 1 for c in poly):
            # Shape flags only need the coefficient ratios; scale to ints.
            from math import lcm
            scale = lcm(*[c.denominator for c in poly])
            poly = [int(c * scale) for c in poly]
        else:
            poly = [int(c) for c in poly]
        return poly, formats.dump_matrix(fmp.A)
    if family == "semibalanced":
        D, levels = corpus.random_semibalanced(rng)
        inc = graphkit.incidence_matrix(D)
        # Project to full row rank before building the matroid context.
        proj = inc.submatrix(independent_rows(inc), range(inc.cols))
        poly = ormatroid.f_poly(ormatroid.MatroidContext(proj))
        return poly, formats.dump_digraph(D)
    if family == "random-flat":
        m = corpus.random_flat_matrix(rng)
        poly = ormatroid.f_poly(ormatroid.MatroidContext(m))
        return poly, formats.dump_matrix(m)
    raise UsageError(f"unknown family {family!r}")


def cmd_explore(args):
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    rng = random.Random(args.seed)
    stats = {"trials": args.trials, "trapezoidal": 0, "log_concave": 0,
             "box_positive": 0}
    for t in range(args.trials):
        poly, instance = _explore_instance(args.family, rng)
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
        deg_d = 2 if len(poly) > 1 else 1
        if polyshape.box_certificate(poly, deg_d) is not None:
            stats["box_positive"] += 1
    _report(args, "explore", family=args.family, seed=args.seed, stats=stats,
            checks=[{"check": "trapezoidal", "pass": True,
                     "detail": f"{args.trials} trials"}])
    return 0


# ---------------------------------------------------------------------------

def build_parser():
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
    p.set_defaults(fn=cmd_fa)

    p = sub.add_parser("pd", help="tree-reversal polynomial of an Eulerian "
                                  "digraph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_pd)

    p = sub.add_parser("alexander", help="Alexander polynomial of a plane "
                                         "bipartite graph's link")
    p.add_argument("--planegraph", required=True)
    p.set_defaults(fn=cmd_alexander)

    p = sub.add_parser("zonotope", help="trimmed zonotope levels of a "
                                        "bipartite graph")
    p.add_argument("--bigraph", required=True)
    p.set_defaults(fn=cmd_zonotope)

    p = sub.add_parser("tp", help="totally positive instance and its "
                                  "box-positive expansion")
    p.add_argument("--from-c", dest="from_c")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_tp)

    p = sub.add_parser("boxcert", help="box-positivity certificate search")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_boxcert)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--digraph")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("explore", help="random search for trapezoidality "
                                       "counterexamples")
    p.add_argument("--family", required=True,
                   choices=["semibalanced", "random-flat", "tp"])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_explore)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, FileNotFoundError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
