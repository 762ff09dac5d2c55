"""JSON file formats shared by the CLI and external callers, and the JSON
report every CLI command prints."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exactnum import Matrix
from .graphkit import Digraph


class FormatError(ValueError):
    pass


class UsageError(ValueError):
    pass


def _report(args, command, **fields):
    rep = {"command": command, **fields}
    print(json.dumps(rep, indent=2 if args.pretty else None, default=str))


def _load(path_or_obj):
    if isinstance(path_or_obj, dict):
        return path_or_obj
    try:
        with open(path_or_obj) as fh:
            obj = json.load(fh)
    except OSError as e:
        # A missing or unreadable file (a directory, say) is bad input.
        raise FormatError(str(e)) from e
    except RecursionError as e:
        raise FormatError("JSON nested too deeply") from e
    if not isinstance(obj, dict):
        raise FormatError(f"top level must be a JSON object, got "
                          f"{type(obj).__name__}")
    return obj


def _expect(obj, fmt):
    if obj.get("format") != fmt:
        raise FormatError(f"expected format {fmt!r}, got {obj.get('format')!r}")


def _field(obj, key):
    if key not in obj:
        raise FormatError(f"missing field {key!r}")
    return obj[key]


def _int(x, what):
    """A JSON integer; floats, booleans and null are rejected."""
    if type(x) is not int:
        raise FormatError(f"{what} must be an integer, got {x!r}")
    return x


def _count(x, what):
    if _int(x, what) < 0:
        raise FormatError(f"{what} must be nonnegative, got {x}")
    return x


def _vertices(obj):
    """The vertex count of a graph object; a graph needs a vertex."""
    n = _int(_field(obj, "vertices"), "vertices")
    if n < 1:
        raise FormatError(f"vertices must be at least 1, got {n}")
    return n


def _index(x, n, what):
    if not 0 <= _int(x, what) < n:
        raise FormatError(f"{what} {x} out of range 0..{n - 1}")
    return x


def _list(x, what, length=None):
    if not isinstance(x, list):
        raise FormatError(f"{what} must be a list, got {x!r}")
    if length is not None and len(x) != length:
        raise FormatError(f"{what} must have length {length}, got {len(x)}")
    return x


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rational(x):
    """A JSON integer or a "p" or "p/q" string with a nonzero denominator:
    an int, or a Fraction for "p/q"."""
    if type(x) is int:
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x) if "/" in x else int(x)
    raise FormatError(f"entry must be an integer or a \"p/q\" string, "
                      f"got {x!r}")


def _edges(obj, n):
    """The edge list as (u, v) pairs of vertex indices below n."""
    return [(_index(u, n, "edge endpoint"), _index(v, n, "edge endpoint"))
            for u, v in (_list(e, "edge", 2)
                         for e in _list(_field(obj, "edges"), "edges"))]


def _graph(obj):
    """(n, edges, part1) of a bigraph-v1 or planegraph-v1 object."""
    n = _vertices(obj)
    part1 = [_index(v, n, "part1 vertex")
             for v in _list(_field(obj, "part1"), "part1")]
    return n, _edges(obj, n), part1


def load_matrix(src) -> Matrix:
    """{"format":"matrix-v1","rows":d,"cols":N,"entries":[["p/q",...],...]}"""
    obj = _load(src)
    _expect(obj, "matrix-v1")
    rows = _count(_field(obj, "rows"), "rows")
    cols = _count(_field(obj, "cols"), "cols")
    entries = _list(_field(obj, "entries"), "entries")
    if len(entries) != rows or any(
            len(_list(row, "matrix row")) != cols for row in entries):
        raise FormatError("declared shape does not match entries")
    labels = obj.get("labels")
    if labels is not None and any(
            type(x) not in (str, int) for x in _list(labels, "labels")):
        raise FormatError("labels must be strings or integers")
    return Matrix([[_rational(x) for x in row] for row in entries], labels)


def dump_matrix(m: Matrix) -> dict:
    return {"format": "matrix-v1", "rows": m.rows, "cols": m.cols,
            "entries": [[str(x) for x in row] for row in m.entries],
            **({"labels": m.labels} if m.labels else {})}


def load_poly(src):
    """{"format":"poly-v1","variable":"t","coeffs":[int,...]}"""
    obj = _load(src)
    _expect(obj, "poly-v1")
    return [_int(c, "coefficient")
            for c in _list(_field(obj, "coeffs"), "coeffs")]


def _number(x):
    """An integer as a JSON int, another rational as a "p/q" string."""
    return x.numerator if x.denominator == 1 else str(x)


def dump_poly(coeffs, variable="t") -> dict:
    return {"format": "poly-v1", "variable": variable,
            "coeffs": [_number(c) for c in coeffs]}


def dump_certificate(cert) -> list:
    """A box certificate's [composition, coefficient] pairs, with the
    coefficients written as dump_poly writes them."""
    return [[list(comp), _number(coef)] for comp, coef in cert.terms]


def load_digraph(src) -> Digraph:
    """{"format":"digraph-v1","vertices":n,"edges":[[tail,head],...]}"""
    obj = _load(src)
    _expect(obj, "digraph-v1")
    n = _vertices(obj)
    return Digraph(n, _edges(obj, n))


def dump_digraph(D: Digraph) -> dict:
    return {"format": "digraph-v1", "vertices": D.n,
            "edges": [list(e) for e in D.edges]}


def load_bigraph(src):
    """{"format":"bigraph-v1","vertices":n,"part1":[...],"edges":[[u,v],...]}

    Returns (n, edges, part1)."""
    obj = _load(src)
    _expect(obj, "bigraph-v1")
    return _graph(obj)


def load_planegraph(src):
    """{"format":"planegraph-v1","vertices":n,"part1":[...],
        "edges":[[u,v],...],"rotations":[[{"edge":i,"end":...},...],...]}

    Returns (PlaneGraph, part1). Edges are reoriented part1 -> part2."""
    from .graphkit import standard_orientation
    from .planardual import PlaneGraph

    obj = _load(src)
    _expect(obj, "planegraph-v1")
    n, raw_edges, part1 = _graph(obj)
    D = standard_orientation(n, raw_edges, part1)

    def dart(ref):
        if not isinstance(ref, dict):
            raise FormatError(f"half-edge must be an object, got {ref!r}")
        e = _index(_field(ref, "edge"), len(raw_edges), "edge index")
        end = _field(ref, "end")
        if end not in ("tail", "head"):
            raise FormatError(f"bad end marker {end!r}")
        # The dart leaving that end: 2e + 1 leaves D's tail. The end names
        # the file's edge, which reorientation may have reversed.
        return 2 * e + (raw_edges[e][end == "head"] == D.edges[e][0])

    rotations = [[dart(ref) for ref in _list(rot, "rotation")]
                 for rot in _list(_field(obj, "rotations"), "rotations", n)]
    return PlaneGraph(D, rotations), part1


def dump_points(pointset) -> dict:
    return {"format": "points-v1",
            "dim": len(pointset.points[0]) if pointset.points else 0,
            "points": [list(p) for p in pointset.points],
            "levels": list(pointset.levels)}
