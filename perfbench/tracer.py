"""Spans and counts for the calls into each jacv module, taken from outside.

The tracer wraps the public functions of every jacv module, the public
methods and arithmetic operators of the public classes defined there, and
the ``ExpPoly`` constructor.  A wrapper replaces the original in every
loaded ``jacv`` module namespace that binds it, so ``from .calculus import
differential`` in ``structures`` is traced too.  Library code is not
changed; ``uninstall`` puts every original back.

Spans are ``(name, start, end, parent)``.  They are kept in memory and can
be written out at the end of a run.  ``coeff`` calls (about a million per
pass over ``paper.jac``) are counted and timed but not stored one by one,
which keeps the span table small; their time is still subtracted from the
self time of the spans that called them.
"""

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("coeff", "algebroid", "calculus", "structures", "dirac", "lift", "dsl", "cli")
UNSTORED_LAYERS = ("coeff",)
OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
     "__pow__", "__eq__")
)


def monomials(value):
    """Number of monomials of an ExpPoly operand; a nonzero int or Fraction is one."""
    terms = getattr(value, "terms", None)
    if terms is None:
        return 1 if value else 0
    return sum(len(poly) for poly in terms.values())


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.term_products = 0
        # stored spans, one entry per span in each array
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # per open span: [child time, stored id or -1]
        self._current = -1  # innermost stored span
        self._patches = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid, store, start):
        sid = -1
        if store:
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._current)
            self.span_start.append(start)
            self.span_end.append(start)
            self._current = sid
        self._stack.append([0.0, sid])

    def _exit(self, nid, start):
        end = perf_counter()
        child, sid = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][0] += duration
        if sid >= 0:
            self.span_end[sid] = end
            self._current = self.span_parent[sid]

    @contextmanager
    def span(self, name):
        """A stored span opened by the benchmark itself."""
        nid = self._name_id(name)
        start = perf_counter()
        self._enter(nid, True, start)
        try:
            yield
        finally:
            self._exit(nid, start)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        store = name.split(".", 1)[0] not in UNSTORED_LAYERS
        enter, exit_ = self._enter, self._exit
        if name.endswith(("__mul__", "__rmul__")):
            def wrapper(*args, **kwargs):
                self.term_products += monomials(args[0]) * monomials(args[1])
                start = perf_counter()
                enter(nid, store, start)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(nid, start)
        else:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                enter(nid, store, start)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(nid, start)
        return functools.update_wrapper(wrapper, fn)

    def _targets(self, package):
        """(owner, attribute, span name) for every function and method to wrap."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            seen = set()
            for attr, obj in sorted(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    out.append((module, attr, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for klass in obj.__mro__:
                        if klass.__module__ != module.__name__ or klass in seen:
                            continue
                        seen.add(klass)
                        for name, member in sorted(vars(klass).items()):
                            wanted = not name.startswith("_") or name in OPERATORS or (
                                name == "__init__" and klass.__name__ == "ExpPoly"
                            )
                            if wanted and inspect.isfunction(member):
                                out.append((klass, name, f"{layer}.{klass.__name__}.{name}"))
        return out

    def install(self, package="jacv"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for owner, attr, name in self._targets(package):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, alias, original))
                            setattr(module, alias, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def count(self, *names):
        return sum((self.calls[self._ids[n]] for n in names if n in self._ids), 0)

    def self_time(self, *names):
        return sum((self.self_s[self._ids[n]] for n in names if n in self._ids), 0.0)

    def total_time(self, *names):
        return sum((self.total_s[self._ids[n]] for n in names if n in self._ids), 0.0)

    def layer_self_time(self, layer):
        return self.self_time(*[n for n in self.names if n.startswith(layer + ".")])

    def write_spans(self, path):
        """Stored spans as gzipped TSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )
