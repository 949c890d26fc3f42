"""Spans and counts at realcoh's module boundaries, from outside `src/`.

`Tracer.install()` replaces every public function of every realcoh module
with a timing wrapper, in the defining module and in each realcoh module that
imported it by name, plus the few methods and private helpers listed below;
`uninstall()` puts every original back.  A span is (name, start, end, parent
span, operation id); spans and counts stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ["field", "linalg", "lattice", "gammacoh", "torus", "liealg",
           "reductive", "nonreductive", "nonconnected", "h2nab", "catalog",
           "cli"]

# (module, class, attribute, span name); __init__ times the constructor
METHOD_SPANS = [
    ("liealg", "LieAlgebraDatum", "__init__", "liealg.LieAlgebraDatum"),
    ("liealg", "SCAlgebra", "centralizer", "liealg.SCAlgebra.centralizer"),
    ("liealg", "SCAlgebra", "center_of", "liealg.SCAlgebra.center_of"),
    ("liealg", "SCAlgebra", "cartan_subalgebra",
     "liealg.SCAlgebra.cartan_subalgebra"),
]
# private module functions timed as spans: one W_0 twist of a cocycle
PRIVATE_SPANS = [("reductive", "_twist")]
# counts read off a span's result: span name -> (count name, function)
RESULT_COUNTS = {
    "reductive.build_reductive": ("reductive.weyl_elements",
                                  lambda group: len(group.weyl)),
}
# counted, not timed: too frequent for a span each
METHOD_COUNTS = [
    ("field", "FieldElement", "__mul__", "field.mul"),
    ("field", "FieldElement", "__rmul__", "field.mul"),
    ("field", "FieldTower", "sqrt", "field.sqrt"),
    ("field", "FieldTower", "_adjoin", "field.tower_gens"),
]


def _modules():
    return {name: importlib.import_module(f"realcoh.{name}")
            for name in MODULES}


def public_functions() -> dict:
    """(module, name) -> function, for every public function realcoh
    defines at module level."""
    out = {}
    for short, mod in _modules().items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[(short, name)] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, op]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        if name not in RESULT_COUNTS:
            return wrapper
        counted, measure = RESULT_COUNTS[name]

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            self.counts[counted] += measure(result)
            return result

        return counting

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall --------------------------------------------------

    def install(self):
        mods = _modules()
        targets = public_functions()
        for short, name in PRIVATE_SPANS:
            targets[(short, name)] = getattr(mods[short], name)
        wrapped = {id(f): self._span(f"{s}.{n}", f)
                   for (s, n), f in targets.items()}
        # the defining module and every module that imported it by name
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        for short, cls, attr, name in METHOD_SPANS:
            owner = getattr(mods[short], cls)
            self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
        for short, cls, attr, name in METHOD_COUNTS:
            owner = getattr(mods[short], cls)
            self._patch(owner, attr, self._count(name, owner.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def layer_totals(self, ops=None) -> dict:
        """name -> {"calls", "total_s", "self_s"} over the spans of `ops`
        (all spans when None)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (nm, _, _, parent, _) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent] or
                                         self.spans[parent][0] == ancestor)
            if nm == name and inside[i]:
                total += 1
        return total

    def write(self, path, summary: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary,
                                 "counts": dict(self.counts),
                                 "span_fields": ["name", "start", "end",
                                                 "parent", "op"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
