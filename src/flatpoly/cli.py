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
import sys

from . import formats
from .formats import UsageError, _report


def _shape_dict(p):
    from . import polyshape

    return polyshape.shape_report(p)._asdict()


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
    lifted = trimmed._replace(
        points=tuple(map(zonolattice.incidence_point, trimmed.points)))
    _report(args, "zonotope", lattice_points=trimmed.lattice_points,
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
# verify and explore live in `suites`, loaded only when one of them runs.

#: The verify suites by name, for the parser; suites.SUITES runs them.
SUITE_NAMES = ("thm3_5", "thm5_3", "cor5_4", "thm6_7", "thm8_8", "lemma8_1",
               "lemma8_3")


def cmd_verify(args):
    from . import suites

    return suites.verify(args)


def cmd_explore(args):
    from . import suites

    return suites.explore(args)


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
    p.add_argument("suite", choices=sorted(SUITE_NAMES))
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
    except MemoryError:
        # An input too large to answer, such as boxcert --d 10**9.
        print("error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as e:
        # Two internal routes disagreed: a check failed, not the input.
        print(f"error: internal check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
