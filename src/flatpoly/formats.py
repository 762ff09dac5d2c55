"""JSON file formats shared by the CLI and external callers."""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import Matrix, frac
from .graphkit import Digraph
from .planardual import PlaneGraph


class FormatError(ValueError):
    pass


def _load(path_or_obj):
    if isinstance(path_or_obj, dict):
        return path_or_obj
    with open(path_or_obj) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise FormatError(f"top level must be a JSON object, got "
                          f"{type(obj).__name__}")
    return obj


def _expect(obj, fmt):
    if obj.get("format") != fmt:
        raise FormatError(f"expected format {fmt!r}, got {obj.get('format')!r}")


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def load_matrix(src) -> Matrix:
    """{"format":"matrix-v1","rows":d,"cols":N,"entries":[["p/q",...],...]}"""
    obj = _load(src)
    _expect(obj, "matrix-v1")
    entries = [[frac(x) if isinstance(x, str) else frac(int(x)) for x in row]
               for row in obj["entries"]]
    m = Matrix(entries, obj.get("labels"))
    if m.rows != obj["rows"] or m.cols != obj["cols"]:
        raise FormatError("declared shape does not match entries")
    return m


def dump_matrix(m: Matrix) -> dict:
    return {"format": "matrix-v1", "rows": m.rows, "cols": m.cols,
            "entries": [[_rat_str(x) for x in row] for row in m.entries],
            **({"labels": m.labels} if m.labels else {})}


def load_poly(src):
    """{"format":"poly-v1","variable":"t","coeffs":[int,...]}"""
    obj = _load(src)
    _expect(obj, "poly-v1")
    return [int(c) for c in obj["coeffs"]]


def dump_poly(coeffs, variable="t") -> dict:
    """Integer coefficients as JSON ints, other rationals as "p/q"."""
    return {"format": "poly-v1", "variable": variable,
            "coeffs": [int(c) if c.denominator == 1 else _rat_str(c)
                       for c in map(Fraction, coeffs)]}


def load_digraph(src) -> Digraph:
    """{"format":"digraph-v1","vertices":n,"edges":[[tail,head],...]}"""
    obj = _load(src)
    _expect(obj, "digraph-v1")
    return Digraph(int(obj["vertices"]), [tuple(e) for e in obj["edges"]])


def dump_digraph(D: Digraph) -> dict:
    return {"format": "digraph-v1", "vertices": D.n,
            "edges": [list(e) for e in D.edges]}


def load_bigraph(src):
    """{"format":"bigraph-v1","vertices":n,"part1":[...],"edges":[[u,v],...]}

    Returns (n, edges, part1)."""
    obj = _load(src)
    _expect(obj, "bigraph-v1")
    return (int(obj["vertices"]), [tuple(e) for e in obj["edges"]],
            [int(v) for v in obj["part1"]])


def load_planegraph(src):
    """{"format":"planegraph-v1","vertices":n,"part1":[...],
        "edges":[[u,v],...],"rotations":[[{"edge":i,"end":...},...],...]}

    Returns (PlaneGraph, part1). Edges are reoriented part1 -> part2."""
    from .graphkit import standard_orientation

    obj = _load(src)
    _expect(obj, "planegraph-v1")
    n = int(obj["vertices"])
    part1 = [int(v) for v in obj["part1"]]
    raw_edges = [tuple(e) for e in obj["edges"]]
    D = standard_orientation(n, raw_edges, part1)
    part1_set = set(part1)
    rotations = []
    for rot in obj["rotations"]:
        out = []
        for ref in rot:
            e = int(ref["edge"])
            end = ref["end"]
            # The stored end refers to the file's edge list; reorientation
            # may have swapped tail and head.
            u, v = raw_edges[e]
            if u not in part1_set:
                end = "head" if end == "tail" else "tail"
            out.append((e, end))
        rotations.append(out)
    return PlaneGraph(D, rotations), part1


def dump_points(pointset) -> dict:
    return {"format": "points-v1",
            "dim": len(pointset.points[0]) if pointset.points else 0,
            "points": [list(p) for p in pointset.points],
            "levels": list(pointset.levels)}
