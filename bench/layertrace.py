"""Outside-in tracing of flatpoly's layers.

The tracer replaces every public function of each layer module, in every
module that looks it up by name, with a wrapper that records a span:
name, parent span, request, start and end. Methods of the layer's public
classes are wrapped on the class. A generator is timed once per ``next()``,
so the consumer's work between items is not charged to it. Spans stay in
compact arrays in memory until the run writes them out.

Nothing in the library changes: ``install`` patches attributes and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from array import array
from collections import Counter
from math import comb
from time import perf_counter

LAYERS = ("cli", "formats", "exactnum", "lpexact", "polyshape", "ormatroid",
          "graphkit", "planardual", "zonolattice", "totpos")

#: Modules that may hold a name imported from a layer module.
MODULES = LAYERS + ("corpus",)

ROOT = "bench.request"

#: Left unwrapped: the per-entry rational coercion runs once per matrix
#: entry, would be nine spans in ten, and its time belongs to its caller.
UNWRAPPED = {"exactnum.frac"}


def _lex_rank(combo, m):
    """Position of a sorted k-subset of range(m) in lexicographic order."""
    k = len(combo)
    rank, prev = 0, -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += comb(m - 1 - v, k - 1 - i)
        prev = c
    return rank


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.requests = array("q")
        self.stack = [-1]
        self.request = -1
        self.calls = Counter()      # name -> invocations
        self.counts = Counter()     # counter name -> value
        self._patches = []
        self._wrapped = {}          # id(original) -> wrapper

    # -- spans ---------------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.starts)
        self.parents.append(self.stack[-1])
        self.name_ids.append(nid)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()

    def parent_name(self, i):
        p = self.parents[i]
        return self.names[self.name_ids[p]] if p >= 0 else None

    def begin_request(self, index):
        self.request = index
        return self._open(self.name_id(ROOT))

    def end_request(self, i):
        self._close(i)
        self.request = -1

    # -- wrappers ------------------------------------------------------

    def _wrap_function(self, name, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer, i, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        nid = self.name_id(name)
        on_done = GENERATOR_HOOKS.get(name)
        tracer = self

        def proxy(it, args):
            last, exhausted = None, False
            try:
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        tracer._close(i)
                    tracer.counts[name + ".yields"] += 1
                    last = item
                    yield item
            finally:
                it.close()
                if on_done is not None:
                    on_done(tracer, args, last, exhausted)

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return proxy(fn(*args, **kwargs), args)

        return wrapper

    def _wrapper_for(self, name, fn):
        key = id(fn)
        if key not in self._wrapped:
            make = self._wrap_generator if inspect.isgeneratorfunction(fn) \
                else self._wrap_function
            self._wrapped[key] = (fn, make(name, fn))
        return self._wrapped[key][1]

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, layer, cls):
        # Matrix is exactnum's one type, so its methods read as exactnum.det.
        prefix = layer if cls.__name__ == "Matrix" else \
            f"{layer}.{cls.__name__}"
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            own_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if not (public or own_init):
                continue
            name = f"{layer}.{cls.__name__}" if own_init else \
                f"{prefix}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = self._wrapper_for(name, raw.__func__)
                self._patch(cls, attr, type(raw)(wrapped))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrapper_for(name, raw))

    def install(self, package="flatpoly"):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and \
                        f"{layer}.{attr}" not in UNWRAPPED:
                    self._wrapper_for(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Rebind every module-level name that refers to a wrapped function,
        # in the defining module and in every module that imported it.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = self._wrapped.get(id(obj)) \
                    if inspect.isfunction(obj) else None
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def mark(self):
        """Position to aggregate from: (span index, calls, counts)."""
        return len(self.starts), Counter(self.calls), Counter(self.counts)

    def self_times(self, lo, hi):
        """Self time per span name over spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += self.ends[i] - self.starts[i]
        out = Counter()
        for i in range(lo, hi):
            out[self.names[self.name_ids[i]]] += \
                self.ends[i] - self.starts[i] - child[i - lo]
        return out

    def count_under(self, lo, hi, name, parent):
        nid, pid = self._ids.get(name), self._ids.get(parent)
        return sum(1 for i in range(lo, hi)
                   if self.name_ids[i] == nid and self.parents[i] >= 0
                   and self.name_ids[self.parents[i]] == pid)

    def write(self, path):
        """Spans as tab-separated text, one per line, times in seconds from
        the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.requests[i]}\t"
                         f"{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i] - t0:.7f}\t"
                         f"{self.ends[i] - t0:.7f}\n")


# ---------------------------------------------------------------------------
# counters read at layer boundaries

def _lp_solve(tracer, i, args, outcome):
    prog = args[0]
    tracer.counts["lpexact.vars"] += len(prog.objective)
    tracer.counts["lpexact.rows"] += len(prog.eq_lhs)
    tracer.counts["lpexact.optimal"] += outcome.status == "Optimal"


def _lattice_points(tracer, i, args, points):
    if tracer.parent_name(i) == "zonolattice.trimmed_points":
        tracer.counts["zonolattice.candidates"] += len(points)


def _trimmed_points(tracer, i, args, points):
    tracer.counts["zonolattice.trimmed"] += len(points)


def _box_certificate(tracer, i, args, cert):
    p, d = list(args[0]), args[1]
    while p and p[-1] == 0:
        p.pop()
    tracer.counts["polyshape.compositions"] += comb(len(p) - 2 + d, d - 1)


def _spanning_trees_done(tracer, args, last, exhausted):
    D = args[0]
    m, k = len(D.edges), D.n - 1
    if exhausted:
        tried = comb(m, k)
    else:
        tried = 0 if last is None else _lex_rank(last, m) + 1
    tracer.counts["graphkit.subsets_tried"] += tried


HOOKS = {
    "lpexact.lp_solve": _lp_solve,
    "zonolattice.lattice_points": _lattice_points,
    "zonolattice.trimmed_points": _trimmed_points,
    "polyshape.box_certificate": _box_certificate,
}

GENERATOR_HOOKS = {
    "graphkit.spanning_trees": _spanning_trees_done,
}
