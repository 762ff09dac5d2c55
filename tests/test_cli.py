import gc
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatpoly import (cli, corpus, exactnum, formats, graphkit, lpexact,
                      ormatroid, planardual, polyshape, suites,
                      zonolattice)
from flatpoly.cli import main
from flatpoly.exactnum import Matrix
from flatpoly.graphkit import Digraph

from conftest import run_python_limited


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def matrix_file(tmp_path):
    return write(tmp_path, "m.json", {
        "format": "matrix-v1", "rows": 2, "cols": 3,
        "entries": [["3", "2", "1"], ["1", "1", "1"]]})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_fa_matrix(tmp_path, capsys):
    code, rep = run(capsys, ["fa", "--matrix", matrix_file(tmp_path)])
    assert code == 0
    assert rep["result_poly"]["coeffs"] == [2, 2]
    assert rep["shape"]["palindromic"]


def test_fa_matrix_rational(tmp_path, capsys):
    path = write(tmp_path, "r.json", {
        "format": "matrix-v1", "rows": 2, "cols": 3,
        "entries": [["1/2", "2", "1"], ["1", "1", "1"]]})
    code, rep = run(capsys, ["fa", "--matrix", path])
    assert code == 0
    assert rep["result_poly"]["coeffs"] == ["3/2", "3/2"]


def test_fa_bigraph(tmp_path, capsys):
    path = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["fa", "--bigraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [2, 2]


def test_fa_rejects_matrix_and_bigraph(tmp_path, capsys):
    graph = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    assert_input_error(capsys, ["fa", "--matrix", matrix_file(tmp_path),
                                "--bigraph", graph], "not both")
    assert_input_error(capsys, ["fa"], "fa needs --matrix or --bigraph")


def test_fa_rejects_rank_deficient_matrix(tmp_path, capsys):
    path = write(tmp_path, "m.json", {
        "format": "matrix-v1", "rows": 2, "cols": 3,
        "entries": [["1", "2", "3"], ["2", "4", "6"]]})
    assert main(["fa", "--matrix", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix must have full row rank\n"


def test_tp_from_c_rejects_zero_minor(tmp_path, capsys):
    path = write(tmp_path, "c.json", {
        "format": "matrix-v1", "rows": 2, "cols": 3,
        "entries": [[1, 1, 1], [1, 1, 2]]})
    assert main(["tp", "--from-c", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: non-positive maximal minor at columns "
                            "(0, 1)\n")


def test_pd(tmp_path, capsys):
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 2, "edges": [[0, 1], [1, 0]]})
    code, rep = run(capsys, ["pd", "--digraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [1, 1]


def test_pd_long_cycle(tmp_path, capsys):
    # The tree search keeps an explicit stack, one frame per tree vertex,
    # so a tree as deep as this one overflows no recursion limit.
    n = 1200
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": n,
        "edges": [[i, (i + 1) % n] for i in range(n)]})
    code, rep = run(capsys, ["pd", "--digraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [1] * n


def test_pd_reports_the_given_root(tmp_path, capsys):
    # The search grows the trees from a vertex of least degree (vertex 2
    # here), but the report names the root that was asked for.
    edges = [[0, 1], [1, 0], [1, 2], [2, 3], [3, 1], [0, 4], [4, 3], [3, 0]]
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 5, "edges": edges})
    expected = graphkit.p_poly_det(Digraph(5, edges), 0)
    for r in range(5):
        code, rep = run(capsys, ["pd", "--digraph", path, "--root", str(r)])
        assert code == 0 and rep["root"] == r
        assert rep["result_poly"]["coeffs"] == expected


def test_verify_rejects_non_eulerian(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {
        "format": "digraph-v1", "vertices": 3, "edges": [[0, 1], [1, 2]]})
    code, _ = run(capsys, ["verify", "thm5_3", "--digraph", path])
    assert code == 2


def test_verify_thm5_3_one_vertex_digraph(tmp_path, capsys):
    # The edgeless graph's cographic matroid is empty: one basis, of
    # volume 1, so f = [1] = P_D, as pd reports.
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 1, "edges": []})
    code, rep = run(capsys, ["pd", "--digraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [1]
    code, rep = run(capsys, ["verify", "thm5_3", "--digraph", path])
    assert code == 0 and rep["checks"] == [
        {"check": "pd-equals-cographic[0]", "pass": True,
         "detail": "[1] vs [1]"},
        {"check": "pd-det-equals-scan[0]", "pass": True,
         "detail": "[1] vs [1]"}]


def test_verify_thm5_3_many_parallel_edges(tmp_path):
    # A 6-cycle with every edge five times plus three (0, 1), (1, 0)
    # pairs: 36 edges and a cographic table of C(36, 31) = 376,992 minors.
    # Under the address-space cap a key list built past the table ends in
    # a MemoryError instead of exhausting the machine.
    edges = [[v, (v + 1) % 6] for v in range(6) for _ in range(5)]
    edges += [[0, 1], [1, 0]] * 3
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 6, "edges": edges})
    proc = run_python_limited(["-m", "flatpoly.cli", "verify", "thm5_3",
                               "--digraph", path])
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert len(rep["checks"]) == 2
    assert all(c["pass"] for c in rep["checks"])


def test_verify_rejects_digraph_for_other_suites(tmp_path, capsys):
    # Only thm5_3 reads --digraph; every other suite rejects it rather than
    # ignore the file, whether or not the file exists.
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 2, "edges": [[0, 1], [1, 0]]})
    for suite in ("thm3_5", "cor5_4", "thm6_7", "thm8_8", "lemma8_1",
                  "lemma8_3"):
        for digraph in (path, "/nonexistent"):
            assert_input_error(capsys, ["verify", suite, "--digraph",
                                        digraph], "--digraph")
    code, rep = run(capsys, ["verify", "thm5_3", "--digraph", path])
    assert code == 0 and [c["check"] for c in rep["checks"]] == [
        "pd-equals-cographic[0]", "pd-det-equals-scan[0]"]


def test_verify_thm5_3_rejects_trials_with_digraph(tmp_path, capsys):
    # A digraph file is one digraph; a trial count would be silently ignored.
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 2, "edges": [[0, 1], [1, 0]]})
    assert_input_error(capsys, ["verify", "thm5_3", "--digraph", path,
                                "--trials", "3"], "--trials")
    code, rep = run(capsys, ["verify", "thm5_3", "--digraph", path,
                             "--trials", "0"])
    assert code == 0 and len(rep["checks"]) == 2


def test_verify_suites_pass(capsys):
    for suite in ("thm3_5", "thm5_3", "cor5_4", "thm6_7", "thm8_8",
                  "lemma8_1", "lemma8_3"):
        code, rep = run(capsys, ["verify", suite, "--seed", "1",
                                 "--trials", "2"])
        assert code == 0, suite
        assert rep["checks"] and all(c["pass"] for c in rep["checks"])
        # Coefficients are written as numbers, never as Python reprs.
        assert "Fraction(" not in json.dumps(rep), suite


def test_verify_trials_sets_graph_counts(capsys):
    # thm5_3 checks --trials digraphs, two routes each; thm6_7 checks its
    # five corpus graphs and --trials random ones.
    code, rep = run(capsys, ["verify", "thm5_3", "--trials", "3"])
    assert code == 0 and len(rep["checks"]) == 6
    code, rep = run(capsys, ["verify", "thm6_7", "--trials", "3"])
    assert code == 0 and len(rep["checks"]) == 8
    assert [c["check"] for c in rep["checks"][5:]] == [
        f"level-identity[random-{i}]" for i in range(3)]


def test_thm6_7_reads_levels_from_points(capsys, monkeypatch):
    # Levels permuted among the trimmed points keep the level polynomial,
    # so only the points' part-1 sums catch them.
    trimmed = zonolattice.trimmed_points

    def permuted(ctx, adm):
        tr = trimmed(ctx, adm)
        return tr._replace(levels=tr.levels[::-1])

    monkeypatch.setattr(zonolattice, "trimmed_points", permuted)
    code, rep = run(capsys, ["verify", "thm6_7", "--trials", "1"])
    assert code == 1 and not rep["checks"][0]["pass"]


def test_verify_rejects_negative_trials(capsys):
    for suite in ("thm8_8", "lemma8_1", "thm3_5"):
        code, rep = run(capsys, ["verify", suite, "--trials", "-1"])
        assert code == 2 and rep is None, suite


def test_verify_fails_when_no_check_ran(capsys, monkeypatch):
    monkeypatch.setitem(suites.SUITES, "thm8_8",
                        lambda args, checks, rng: None)
    code, rep = run(capsys, ["verify", "thm8_8"])
    assert code == 1 and rep["checks"] == []


def test_parser_names_every_suite():
    # The parser's choices come from cli, which does not load suites.
    assert cli.SUITE_NAMES == tuple(suites.SUITES)


def assert_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    # The decoder recurses once per nesting level, so a deep document
    # overflows the stack; that is bad input, not a crash.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert_input_error(capsys, ["fa", "--matrix", str(path)],
                       "nested too deeply")


def test_pd_root_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 2, "edges": [[0, 1], [1, 0]]})
    assert_input_error(capsys, ["pd", "--digraph", path, "--root", "5"],
                       "root 5")
    assert_input_error(capsys, ["pd", "--digraph", path, "--root", "-1"],
                       "root -1")


def test_json_top_level_must_be_object(tmp_path, capsys):
    path = write(tmp_path, "list.json", [["1", "2"], ["3", "4"]])
    assert_input_error(capsys, ["fa", "--matrix", path], "JSON object")


def test_boxcert_rejects_nonpositive_d(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [2, 2]})
    assert_input_error(capsys, ["boxcert", "--poly", path, "--d", "0"],
                       "d >= 1")


def test_alexander(tmp_path, capsys):
    path = write(tmp_path, "pg.json", planegraph_doc())
    code, rep = run(capsys, ["alexander", "--planegraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [2, 2]


def test_alexander_single_vertex(tmp_path, capsys):
    # A point is planar, with one face: its link is the unknot, as pd
    # gives [1] for a one-vertex digraph.
    path = write(tmp_path, "pg.json", {
        "format": "planegraph-v1", "vertices": 1, "part1": [0],
        "edges": [], "rotations": [[]]})
    code, rep = run(capsys, ["alexander", "--planegraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [1]


def test_zonotope(tmp_path, capsys):
    path = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["zonotope", "--bigraph", path])
    assert code == 0
    assert rep["level_poly"]["coeffs"] == [0, 2, 2]
    assert len(rep["trimmed"]["points"]) == 4
    # Points and direction are in vertex coordinates, also when the last
    # vertex, whose row the graphic matrix drops, is in part 1.
    assert rep["trimmed"]["points"] == [[0, -1, 1, 0], [1, -2, 1, 0],
                                        [1, -1, 0, 0], [1, -1, 1, -1]]
    assert rep["admissible_direction"] == [1, 1, 1, -3]
    path = write(tmp_path, "h.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [1, 3],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["zonotope", "--bigraph", path])
    assert code == 0
    assert rep["trimmed"]["points"] == [[-2, 1, 0, 1], [-1, 0, 0, 1],
                                        [-1, 1, -1, 1], [-1, 1, 0, 0]]
    assert rep["trimmed"]["levels"] == [2, 1, 2, 1]
    assert rep["admissible_direction"] == [1, 1, -3, 1]


def test_zonotope_walks_the_bases_once(tmp_path, capsys, monkeypatch):
    # The trimmed points, their levels, the lattice point count and the
    # unimodularity check come from one walk over the bases.
    walks = []
    enumerate_bases = ormatroid.enumerate_bases

    def counting(ctx):
        walks.append(ctx)
        return enumerate_bases(ctx)

    monkeypatch.setattr(ormatroid, "enumerate_bases", counting)
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        path = write(tmp_path, f"{name}.json", {
            "format": "bigraph-v1", "vertices": n, "part1": list(part1),
            "edges": [list(e) for e in edges]})
        code, rep = run(capsys, ["zonotope", "--bigraph", path])
        assert code == 0 and rep["lattice_points"] >= len(
            rep["trimmed"]["points"]), name
        assert len(walks) == 1, name
        walks.clear()


def test_zonotope_solves_no_lp(tmp_path, capsys, monkeypatch):
    def no_lp(prog):
        raise AssertionError("trimming solved an LP")

    monkeypatch.setattr(lpexact, "lp_solve", no_lp)
    path = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["zonotope", "--bigraph", path])
    assert code == 0 and rep["level_poly"]["coeffs"] == [0, 2, 2]


def test_boxcert_solves_no_lp_where_coefficients_decide(tmp_path, capsys,
                                                        monkeypatch):
    # A p that is not palindromic and trapezoidal is refused from its
    # coefficients, and at most two q-numbers above [1]_q have a closed
    # form; every d <= 2 input is decided either way.
    def no_lp(prog):
        raise AssertionError("boxcert solved an LP")

    monkeypatch.setattr(lpexact, "lp_solve", no_lp)
    cases = [([1, 3, 4, 3, 2], 3, 1), ([2, 1, 2], 3, 1), ([1, 2, 1], 5, 0),
             ([7], 1, 0), ([7], 2, 0), ([2, 2], 1, 0), ([2, 3], 2, 1),
             ([1, 1, 1], 1, 0), ([1, 2, 1], 1, 1), ([1, 2, 1], 2, 0),
             ([1, 3, 1], 2, 1), ([1, 0, 1], 2, 1), ([1, 2, 2, 1], 2, 0),
             ([1, 3, 4, 3, 1], 2, 1), ([1, 2, 3, 3, 3, 2, 1], 2, 0)]
    for coeffs, d, want in cases:
        path = write(tmp_path, "p.json", {"format": "poly-v1",
                                          "variable": "q", "coeffs": coeffs})
        code, rep = run(capsys, ["boxcert", "--poly", path, "--d", str(d)])
        assert code == want and rep["box_positive"] == (want == 0), coeffs


def test_tp_seeded_deterministic(capsys):
    code1, rep1 = run(capsys, ["tp", "--d", "2", "--n", "4", "--seed", "9"])
    code2, rep2 = run(capsys, ["tp", "--d", "2", "--n", "4", "--seed", "9"])
    assert code1 == code2 == 0 and rep1 == rep2


def test_tp_result_feeds_boxcert(tmp_path, capsys):
    # Integer coefficients are JSON numbers, so boxcert reads tp's report.
    # Certificate coefficients are written the same way.
    for n, seed in ((3, 0), (4, 0), (5, 0), (3, 2)):
        code, rep = run(capsys, ["tp", "--d", "2", "--n", str(n),
                                 "--seed", str(seed)])
        coeffs = rep["result_poly"]["coeffs"]
        assert code == 0 and all(type(c) is int for c in coeffs), n
        assert all(type(c) is int for _, c in rep["certificate"]), n
        path = write(tmp_path, f"tp{n}.json", rep["result_poly"])
        code, rep = run(capsys, ["boxcert", "--poly", path, "--d", "2"])
        assert code == 0 and rep["box_positive"], n
        assert all(type(c) is int for _, c in rep["certificate"]), n
    code, rep = run(capsys, ["tp", "--d", "3", "--n", "6", "--seed", "7"])
    assert code == 0 and rep["certificate"][0] == [[1, 1, 4], "1/8"]


def test_boxcert(tmp_path, capsys):
    good = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [2, 2]})
    code, rep = run(capsys, ["boxcert", "--poly", good, "--d", "2"])
    assert code == 0 and rep["box_positive"]
    bad = write(tmp_path, "q.json", {"format": "poly-v1", "variable": "t",
                                     "coeffs": [1, 0, 1]})
    code, rep = run(capsys, ["boxcert", "--poly", bad, "--d", "2"])
    assert code == 1 and not rep["box_positive"]


def test_boxcert_d_above_degree(tmp_path, capsys):
    # A degree-7 polynomial has no product of more than 7 nontrivial
    # q-numbers, so d = 50 is decided as fast as d = 7, and the witness
    # compositions have 50 parts.
    coeffs = [338, 794, 1198, 1430, 1430, 1198, 794, 338]
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "q",
                                      "coeffs": coeffs})
    t0 = time.perf_counter()
    code, rep = run(capsys, ["boxcert", "--poly", path, "--d", "50"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and rep["box_positive"]
    terms = [(tuple(comp), Fraction(coef)) for comp, coef in
             rep["certificate"]]
    assert all(len(comp) == 50 and sum(comp) == 57 and
               list(comp) == sorted(comp) for comp, _ in terms)
    assert polyshape.BoxCertificate(50, tuple(terms)).expand() == coeffs


def test_boxcert_out_of_memory_is_input_error(tmp_path):
    # The certificate of [1, 1] at d = 10^9 has compositions of 10^9
    # parts; under the address-space cap building one ends in a
    # MemoryError, which must exit 2 with one error line.
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [1, 1]})
    proc = run_python_limited(["-m", "flatpoly.cli", "boxcert", "--poly",
                               path, "--d", "1000000000"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def internal_failure(capsys, argv):
    """Run argv expecting a failed internal cross-check: exit 1, an error
    line on stderr, no report and no traceback."""
    code = main(argv)
    cap = capsys.readouterr()
    assert code == 1 and cap.out == ""
    assert cap.err.startswith("error: internal check failed")
    assert "Traceback" not in cap.err
    return cap.err


def test_alexander_builds_no_minor_table(tmp_path, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("minor table built")

    monkeypatch.setattr(exactnum, "maximal_minors", no_table)
    monkeypatch.setattr(exactnum, "_minor_table", no_table)
    monkeypatch.setattr(ormatroid, "_minor_table", no_table)
    path = write(tmp_path, "pg.json", planegraph_doc("C6-doubled"))
    code, rep = run(capsys, ["alexander", "--planegraph", path])
    assert code == 0
    assert rep["result_poly"]["coeffs"] == [3, 15, 33, 45, 45, 33, 15, 3]


def test_alexander_scans_no_trees(tmp_path, capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr(graphkit, "p_poly", no_scan)
    path = write(tmp_path, "pg.json", planegraph_doc("C6-doubled"))
    code, rep = run(capsys, ["alexander", "--planegraph", path])
    assert code == 0
    assert rep["result_poly"]["coeffs"] == [3, 15, 33, 45, 45, 33, 15, 3]


def test_alexander_wrong_degree_exits_1(tmp_path, capsys, monkeypatch):
    # grid2x3 has 7 edges and 6 vertices, so its polynomial has degree 2.
    monkeypatch.setattr(graphkit, "p_poly_det", lambda D, r=0: [1, 1])
    path = write(tmp_path, "pg.json", planegraph_doc("grid2x3"))
    err = internal_failure(capsys, ["alexander", "--planegraph", path])
    assert "degree 1, not |E| - |V| + 1 = 2" in err


def test_alexander_takes_one_determinant(tmp_path, capsys, monkeypatch):
    # One pencil of size F - 1 for F faces, evaluated at t = 0..F - 1.
    sizes = []
    real = exactnum.bareiss_det

    def counted(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(exactnum, "bareiss_det", counted)
    for name, n_faces in (("grid2x3", 3), ("C6-doubled", 8)):
        sizes.clear()
        path = write(tmp_path, "pg.json", planegraph_doc(name))
        code, _rep = run(capsys, ["alexander", "--planegraph", path])
        assert code == 0 and sizes == [n_faces - 1] * n_faces, name


def test_cor5_4_catches_wrong_constant_term(capsys, monkeypatch):
    # alexander checks only the degree of its determinant. A wrong
    # constant term of the right degree fails verify cor5_4, whose f routes
    # read minor tables.
    real = graphkit.p_poly_det

    def wrong_constant(D, r=0):
        p = real(D, r)
        return [2 * p[0]] + p[1:]

    monkeypatch.setattr(graphkit, "p_poly_det", wrong_constant)
    code, rep = run(capsys, ["verify", "cor5_4", "--trials", "1"])
    assert code == 1
    names = [c["check"] for c in rep["checks"]]
    assert names == [f"duality[{name}]" for name in corpus.PLANE_BIPARTITE] \
        + ["duality[random-0]"]
    assert not any(c["pass"] for c in rep["checks"])


def test_boxcert_wrong_witness_exits_1(tmp_path, capsys, monkeypatch):
    # The certificate is re-expanded, so a solver that returns a wrong
    # witness is caught instead of reported as a certificate.
    def wrong_witness(prog):
        return lpexact.LpOutcome(lpexact.OPTIMAL, Fraction(0),
                                 tuple(Fraction(1) for _ in prog.objective))

    monkeypatch.setattr(lpexact, "lp_solve", wrong_witness)
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "q",
                                      "coeffs": [1, 2, 2, 1]})
    internal_failure(capsys, ["boxcert", "--poly", path, "--d", "3"])


def test_shape_cross_check_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polyshape, "_is_trapezoidal", lambda a: False)
    internal_failure(capsys, ["fa", "--matrix", matrix_file(tmp_path)])


def test_explore_families(capsys):
    for family in ("tp", "random-flat", "semibalanced"):
        code, rep = run(capsys, ["explore", "--family", family,
                                 "--trials", "2", "--seed", "4"])
        assert code == 0, family
        assert rep["stats"]["trapezoidal"] == 2


def test_explore_counts_tp_closed_form_certificates(capsys):
    # Every tp instance carries the closed form's d-fold certificate; a
    # d = 2 search alone finds only 56 of these 60.
    code, rep = run(capsys, ["explore", "--family", "tp", "--trials", "60",
                             "--seed", "1"])
    assert code == 0
    assert rep["stats"]["box_positive"] == 60


def test_explore_zero_trials(capsys):
    code, _ = run(capsys, ["explore", "--family", "tp", "--trials", "0",
                           "--seed", "0"])
    assert code == 2


def test_explore_deterministic(capsys):
    a = run(capsys, ["explore", "--family", "tp", "--trials", "3",
                     "--seed", "5"])
    b = run(capsys, ["explore", "--family", "tp", "--trials", "3",
                     "--seed", "5"])
    assert a == b


def test_usage_errors(tmp_path, capsys):
    code, _ = run(capsys, ["fa"])
    assert code == 2
    code, _ = run(capsys, ["fa", "--matrix", str(tmp_path / "missing.json")])
    assert code == 2
    # A directory given as an input file is bad input, not a crash.
    for argv in (["fa", "--matrix", str(tmp_path)],
                 ["zonotope", "--bigraph", str(tmp_path)],
                 ["boxcert", "--poly", str(tmp_path), "--d", "2"]):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("error: "), argv
    assert main(["not-a-command"]) == 2


def test_pretty_flag(tmp_path, capsys):
    path = matrix_file(tmp_path)
    main(["--pretty", "fa", "--matrix", path])
    out = capsys.readouterr().out
    assert out.startswith("{\n")
    json.loads(out)


# format round-trips

def test_matrix_round_trip(tmp_path):
    m = Matrix([[1, 2], [3, 4]], labels=["a", "b"])
    obj = formats.dump_matrix(m)
    assert formats.load_matrix(obj) == m


def test_matrix_format_errors(tmp_path):
    with pytest.raises(formats.FormatError):
        formats.load_matrix({"format": "nope"})
    with pytest.raises(formats.FormatError):
        formats.load_matrix({"format": "matrix-v1", "rows": 1, "cols": 3,
                             "entries": [["1", "2"]]})


def test_digraph_round_trip():
    D = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    obj = formats.dump_digraph(D)
    loaded = formats.load_digraph(obj)
    assert loaded.n == D.n and loaded.edges == D.edges


def half_edges(P, reversed_edges=()):
    """P's rotations as planegraph-v1 half-edges, naming the ends of an
    edge in reversed_edges as if the file stored it backwards."""
    return [[{"edge": d // 2,
              "end": "tail" if (d % 2 == 1) != (d // 2 in reversed_edges)
              else "head"} for d in rot] for rot in P.rotations]


def test_planegraph_reorients_swapped_edges():
    # Store each graph with one edge, and then with every edge, written
    # part2 -> part1; loading restores the standard orientation and maps
    # each end marker to the dart that leaves it.
    for name in corpus.PLANE_BIPARTITE:
        P, part1 = corpus.plane_bipartite(name)
        m = len(P.digraph.edges)
        for flipped in ({m // 2}, set(range(m))):
            edges = [[h, t] if e in flipped else [t, h]
                     for e, (t, h) in enumerate(P.digraph.edges)]
            loaded, lp1 = formats.load_planegraph({
                "format": "planegraph-v1", "vertices": P.digraph.n,
                "part1": part1, "edges": edges,
                "rotations": half_edges(P, flipped)})
            assert loaded.digraph.edges == P.digraph.edges, name
            assert loaded.rotations == P.rotations, (name, flipped)
            assert lp1 == part1


# malformed inputs: exit 2 with an error line, never a traceback or a
# silently truncated value

C4_BIGRAPH = {"format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
              "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}


def planegraph_doc(name="C4"):
    P, part1 = corpus.plane_bipartite(name)
    return {"format": "planegraph-v1", "vertices": P.digraph.n,
            "part1": part1, "edges": [list(e) for e in P.digraph.edges],
            "rotations": half_edges(P)}


def test_fa_rejects_float_entry(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"format": "matrix-v1", "rows": 1,
                                      "cols": 2, "entries": [[1.5, 1]]})
    assert_input_error(capsys, ["fa", "--matrix", path], "1.5")


def test_boxcert_rejects_float_coefficient(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [1.5]})
    assert_input_error(capsys, ["boxcert", "--poly", path, "--d", "2"],
                       "must be an integer")


@pytest.mark.parametrize("entries, message", [
    ([[None, 1]], "None"),
    ([5], "must be a list"),
    ([["1/0", 1]], "1/0"),
])
def test_fa_rejects_malformed_entries(tmp_path, capsys, entries, message):
    path = write(tmp_path, "m.json", {"format": "matrix-v1", "rows": 1,
                                      "cols": 2, "entries": entries})
    assert_input_error(capsys, ["fa", "--matrix", path], message)


def test_pd_rejects_null_vertex_count(tmp_path, capsys):
    path = write(tmp_path, "d.json", {"format": "digraph-v1",
                                      "vertices": None,
                                      "edges": [[0, 1], [1, 0]]})
    assert_input_error(capsys, ["pd", "--digraph", path], "vertices")


@pytest.mark.parametrize("argv, obj", [
    (["pd", "--digraph"], {"format": "digraph-v1", "vertices": 0,
                           "edges": []}),
    (["fa", "--bigraph"], {"format": "bigraph-v1", "vertices": 0,
                           "part1": [], "edges": []}),
    (["zonotope", "--bigraph"], {"format": "bigraph-v1", "vertices": 0,
                                 "part1": [], "edges": []}),
    (["alexander", "--planegraph"], {"format": "planegraph-v1",
                                     "vertices": 0, "part1": [],
                                     "edges": [], "rotations": []}),
])
def test_rejects_graph_without_vertices(tmp_path, capsys, argv, obj):
    path = write(tmp_path, "g.json", obj)
    assert_input_error(capsys, argv + [path], "vertices must be at least 1")


def test_boxcert_rejects_nested_coefficient(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [[1]]})
    assert_input_error(capsys, ["boxcert", "--poly", path, "--d", "2"],
                       "must be an integer")


def test_zonotope_rejects_empty_part2(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"format": "bigraph-v1", "vertices": 1,
                                      "part1": [0], "edges": []})
    assert_input_error(capsys, ["zonotope", "--bigraph", path],
                       "part 2 is empty")
    # An empty part 2 is reported before a disconnected graph.
    path = write(tmp_path, "g.json", {"format": "bigraph-v1", "vertices": 3,
                                      "part1": [0, 1, 2], "edges": []})
    assert_input_error(capsys, ["zonotope", "--bigraph", path],
                       "part 2 is empty")


def test_fa_rejects_disconnected_bigraph(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"format": "bigraph-v1", "vertices": 4,
                                      "part1": [0, 2],
                                      "edges": [[0, 1], [2, 3]]})
    assert_input_error(capsys, ["fa", "--bigraph", path], "not connected")
    assert_input_error(capsys, ["zonotope", "--bigraph", path],
                       "not connected")


@pytest.mark.parametrize("argv, obj", [
    (["pd", "--digraph"], {"format": "digraph-v1", "vertices": 10**6,
                           "edges": [[0, 1], [1, 0]]}),
    (["fa", "--bigraph"], {"format": "bigraph-v1", "vertices": 10**6,
                           "part1": [0], "edges": [[0, 1]]}),
    (["zonotope", "--bigraph"], {"format": "bigraph-v1", "vertices": 10**6,
                                 "part1": [0], "edges": [[0, 1]]}),
    (["zonotope", "--bigraph"], {"format": "bigraph-v1", "vertices": 10**6,
                                 "part1": [10**6 - 1, 10**6 - 2],
                                 "edges": [[0, 10**6 - 1]]}),
])
def test_huge_vertex_count_is_input_error(tmp_path, capsys, monkeypatch,
                                          argv, obj):
    # With 10^8 vertices a per-vertex list ended in MemoryError. A graph
    # with fewer than n - 1 edges is rejected before any such list is built:
    # here the component walk and zonolattice's range over the vertices
    # raise instead, so a list built per vertex fails the test.
    def per_vertex(*args):
        raise AssertionError("allocated per vertex")

    monkeypatch.setattr(graphkit, "_component", per_vertex)
    monkeypatch.setattr(zonolattice, "range", per_vertex, raising=False)
    assert_input_error(capsys, argv + [write(tmp_path, "g.json", obj)],
                       "not connected")


def test_alexander_rejects_unknown_edge(tmp_path, capsys):
    obj = planegraph_doc()
    obj["rotations"][0][0]["edge"] = 7
    path = write(tmp_path, "pg.json", obj)
    assert_input_error(capsys, ["alexander", "--planegraph", path],
                       "edge index 7 out of range")


def test_tp_rejects_fewer_columns_than_rows(capsys):
    assert_input_error(capsys, ["tp", "--d", "3", "--n", "2"], "N >= d")


def test_tp_rejects_zero_rows(capsys):
    assert_input_error(capsys, ["tp", "--d", "0"], "at least one row")


def _mutations(data, obj):
    """obj after one to three edits at hypothesis-chosen depths: a value
    replaced by junk, a key or list item dropped, or a list item
    repeated."""
    junk = st.sampled_from([None, True, 1.5, -1, 0, 1, 2, 3, 7, "", "x",
                            "1/0", "-3/2", [], [0], [[1]], {}, {"edge": 0}])

    def edit(x):
        if not isinstance(x, (dict, list)) or not x:
            return data.draw(junk)
        key = data.draw(st.sampled_from(sorted(x) if isinstance(x, dict)
                                        else range(len(x))))
        action = data.draw(st.sampled_from(
            ["descend", "descend", "junk", "drop", "repeat"]))
        if isinstance(x, dict):
            if action == "drop":
                return {k: v for k, v in x.items() if k != key}
            new = edit(x[key]) if action == "descend" else data.draw(junk)
            return {**x, key: new}
        if action == "drop":
            return x[:key] + x[key + 1:]
        if action == "repeat":
            return x[:key] + [x[key]] + x[key:]
        new = edit(x[key]) if action == "descend" else data.draw(junk)
        return x[:key] + [new] + x[key + 1:]

    for _ in range(data.draw(st.integers(1, 3))):
        obj = edit(obj)
    return obj


FUZZ_CASES = [
    (["fa", "--matrix"], {"format": "matrix-v1", "rows": 2, "cols": 3,
                          "entries": [["3", "2", "1"], [1, 1, 1]],
                          "labels": ["a", "b", "c"]}),
    (["tp", "--from-c"], {"format": "matrix-v1", "rows": 1, "cols": 3,
                          "entries": [[1, 1, "1/2"]]}),
    (["fa", "--bigraph"], C4_BIGRAPH),
    (["zonotope", "--bigraph"], C4_BIGRAPH),
    (["pd", "--digraph"], {"format": "digraph-v1", "vertices": 3,
                           "edges": [[0, 1], [1, 2], [2, 0], [1, 0],
                                     [0, 1]]}),
    (["verify", "thm5_3", "--digraph"], {"format": "digraph-v1",
                                         "vertices": 2,
                                         "edges": [[0, 1], [1, 0]]}),
    (["alexander", "--planegraph"], planegraph_doc()),
    (["boxcert", "--d", "2", "--poly"], {"format": "poly-v1",
                                         "variable": "t",
                                         "coeffs": [1, 3, 1]}),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FUZZ_CASES), st.data())
def test_mutated_json_never_escapes(tmp_path_factory, case, data):
    # Every loader, fed mutated documents: the exit code contract holds
    # and no exception escapes main.
    argv, obj = case
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(_mutations(data, obj)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# import footprint: every call is a fresh interpreter, so a command loads
# only the modules it runs.

UNUSED_BY_FA = {"flatpoly.corpus", "flatpoly.zonolattice", "flatpoly.totpos",
                "flatpoly.planardual", "flatpoly.lpexact"}


def _modules_added(code):
    """Modules that code, run in a fresh interpreter after its start-up,
    adds to sys.modules."""
    src = os.path.dirname(os.path.dirname(polyshape.__file__))
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"sys.path.insert(0, {src!r})\n"
              f"{code}\n"
              "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cli_import_loads_no_command_module():
    added = _modules_added("import flatpoly.cli")
    assert "flatpoly.cli" in added
    assert not added & (UNUSED_BY_FA | {"dataclasses", "inspect"})


def test_cli_import_loads_only_the_shared_modules():
    # Every process compiles what it loads when no bytecode cache is
    # written, so the verify suites stay out of the start-up.
    added = _modules_added("import flatpoly.cli")
    assert {m for m in added if m.split(".")[0] == "flatpoly"} == {
        "flatpoly", "flatpoly.cli", "flatpoly.formats", "flatpoly.exactnum",
        "flatpoly.graphkit", "flatpoly.polyshape"}


def test_fa_matrix_loads_only_its_modules(tmp_path):
    path = matrix_file(tmp_path)
    added = _modules_added(
        "import flatpoly.cli\n"
        f"assert flatpoly.cli.main(['fa', '--matrix', {path!r}]) == 0")
    assert "flatpoly.ormatroid" in added
    assert not added & UNUSED_BY_FA


def _refused_boxcert_modules(tmp_path, coeffs, d):
    path = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "q",
                                      "coeffs": coeffs})
    return _modules_added(
        "import flatpoly.cli\n"
        f"assert flatpoly.cli.main(['boxcert', '--poly', {path!r}, "
        f"'--d', '{d}']) == 1")


def test_boxcert_loads_lpexact_only_for_its_lp(tmp_path):
    assert "flatpoly.lpexact" not in _refused_boxcert_modules(
        tmp_path, [1, 2, 1, 3], 3)
    # [1, 5, 5, 1] passes the presolve, and only the LP refuses it at d = 3.
    assert "flatpoly.lpexact" in _refused_boxcert_modules(
        tmp_path, [1, 5, 5, 1], 3)


def test_explore_loads_no_lp():
    added = _modules_added(
        "import flatpoly.cli\n"
        "assert flatpoly.cli.main(['explore', '--family', 'semibalanced', "
        "'--trials', '5']) == 0")
    assert "flatpoly.suites" in added and "flatpoly.lpexact" not in added


def test_requests_leave_no_cyclic_garbage(tmp_path, capsys):
    # Every command frees what it built by reference counting alone: with
    # the cyclic collector off, a request leaves nothing for it to find. A
    # closure that calls itself through its own cell, or a search frame
    # that points back at its stack, would show here.
    n, edges, part1, _c, _b = corpus.PLANE_BIPARTITE["theta222"]
    bigraph = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": n, "part1": list(part1),
        "edges": [list(e) for e in edges]})
    P, part1 = corpus.plane_bipartite("theta222")
    dual = planardual.dual_with_orientation(P, part1).dual
    digraph = write(tmp_path, "d.json", formats.dump_digraph(dual))
    planegraph = write(tmp_path, "pg.json", planegraph_doc("theta222"))
    poly = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "q",
                                      "coeffs": [1, 3, 4, 3, 1]})
    requests = [["fa", "--matrix", matrix_file(tmp_path)],
                ["fa", "--bigraph", bigraph],
                ["pd", "--digraph", digraph, "--root", str(dual.n - 1)],
                ["alexander", "--planegraph", planegraph],
                ["zonotope", "--bigraph", bigraph],
                ["tp", "--d", "3", "--n", "5", "--seed", "1"],
                ["boxcert", "--poly", poly, "--d", "3"]]
    # A first run imports each command's modules and builds the parser.
    for argv in requests:
        assert main(argv) == 0, argv
    capsys.readouterr()
    gc.collect()
    for argv in requests:
        gc.disable()
        try:
            code = main(argv)
            found = gc.collect()
        finally:
            gc.enable()
        assert (code, found) == (0, 0), argv
    capsys.readouterr()
