import json

import pytest

from flatpoly import corpus, formats, lpexact
from flatpoly.cli import main
from flatpoly.exactnum import Matrix
from flatpoly.graphkit import Digraph


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


def test_pd(tmp_path, capsys):
    path = write(tmp_path, "d.json", {
        "format": "digraph-v1", "vertices": 2, "edges": [[0, 1], [1, 0]]})
    code, rep = run(capsys, ["pd", "--digraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [1, 1]


def test_verify_rejects_non_eulerian(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {
        "format": "digraph-v1", "vertices": 3, "edges": [[0, 1], [1, 2]]})
    code, _ = run(capsys, ["verify", "thm5_3", "--digraph", path])
    assert code == 2


def test_verify_suites_pass(capsys):
    for suite in ("thm3_5", "thm5_3", "cor5_4", "thm6_7", "thm8_8",
                  "lemma8_1", "lemma8_3"):
        code, rep = run(capsys, ["verify", suite, "--seed", "1",
                                 "--trials", "2"])
        assert code == 0, suite
        assert rep["checks"] and all(c["pass"] for c in rep["checks"])


def test_verify_rejects_negative_trials(capsys):
    for suite in ("thm8_8", "lemma8_1", "thm3_5"):
        code, rep = run(capsys, ["verify", suite, "--trials", "-1"])
        assert code == 2 and rep is None, suite


def test_verify_fails_when_no_check_ran(capsys, monkeypatch):
    from flatpoly import cli
    monkeypatch.setitem(cli.SUITES, "thm8_8", lambda args, checks, rng: None)
    code, rep = run(capsys, ["verify", "thm8_8"])
    assert code == 1 and rep["checks"] == []


def assert_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


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
    P, part1 = corpus.plane_bipartite("C4")
    rot = [[{"edge": e, "end": end} for (e, end) in r] for r in P.rotations]
    path = write(tmp_path, "pg.json", {
        "format": "planegraph-v1", "vertices": 4, "part1": part1,
        "edges": [list(e) for e in P.digraph.edges], "rotations": rot})
    code, rep = run(capsys, ["alexander", "--planegraph", path])
    assert code == 0 and rep["result_poly"]["coeffs"] == [2, 2]


def test_zonotope(tmp_path, capsys):
    path = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["zonotope", "--bigraph", path])
    assert code == 0
    assert rep["level_poly"]["coeffs"] == [0, 2, 2]
    assert len(rep["trimmed"]["points"]) == 4


def test_zonotope_solves_no_lp(tmp_path, capsys, monkeypatch):
    def no_lp(prog):
        raise AssertionError("trimming solved an LP")

    monkeypatch.setattr(lpexact, "lp_solve", no_lp)
    path = write(tmp_path, "g.json", {
        "format": "bigraph-v1", "vertices": 4, "part1": [0, 2],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    code, rep = run(capsys, ["zonotope", "--bigraph", path])
    assert code == 0 and rep["level_poly"]["coeffs"] == [0, 2, 2]


def test_tp_seeded_deterministic(capsys):
    code1, rep1 = run(capsys, ["tp", "--d", "2", "--n", "4", "--seed", "9"])
    code2, rep2 = run(capsys, ["tp", "--d", "2", "--n", "4", "--seed", "9"])
    assert code1 == code2 == 0 and rep1 == rep2


def test_boxcert(tmp_path, capsys):
    good = write(tmp_path, "p.json", {"format": "poly-v1", "variable": "t",
                                      "coeffs": [2, 2]})
    code, rep = run(capsys, ["boxcert", "--poly", good, "--d", "2"])
    assert code == 0 and rep["box_positive"]
    bad = write(tmp_path, "q.json", {"format": "poly-v1", "variable": "t",
                                     "coeffs": [1, 0, 1]})
    code, rep = run(capsys, ["boxcert", "--poly", bad, "--d", "2"])
    assert code == 1 and not rep["box_positive"]


def test_explore_families(capsys):
    for family in ("tp", "random-flat", "semibalanced"):
        code, rep = run(capsys, ["explore", "--family", family,
                                 "--trials", "2", "--seed", "4"])
        assert code == 0, family
        assert rep["stats"]["trapezoidal"] == 2


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


def test_planegraph_reorients_swapped_edges():
    # Store C4 with one edge written part2 -> part1; loading restores the
    # standard orientation and fixes the rotation end markers.
    P, part1 = corpus.plane_bipartite("C4")
    rot = [[{"edge": e, "end": end} for (e, end) in r] for r in P.rotations]
    edges = [list(e) for e in P.digraph.edges]
    edges[1] = edges[1][::-1]
    for r in rot:
        for ref in r:
            if ref["edge"] == 1:
                ref["end"] = "head" if ref["end"] == "tail" else "tail"
    loaded, lp1 = formats.load_planegraph({
        "format": "planegraph-v1", "vertices": 4, "part1": part1,
        "edges": edges, "rotations": rot})
    assert loaded.digraph.edges == P.digraph.edges
    assert loaded.rotations == P.rotations
