"""Span recording from outside the package.

``Recorder.install(gfc)`` rebinds the traced functions in every gfcanon
module that holds them -- modules that did ``from .x import f`` keep their
own copy of the name, and each copy is replaced -- and wraps a few class
methods with counters.  ``uninstall`` puts the originals back.

Each span keeps its name, start, end, parent span and the id of the
operation it belongs to, in flat arrays.  Self time is a span's duration
minus the durations of its direct children; children never overlap
because there is one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (module, function): every call becomes a span named "<module>.<function>"
SPANNED = [
    ("spatial", "canonical_label"),
    ("spatial", "theorem1_form"),
    ("spatial", "mobius_orbit_minimize"),
    ("spatial", "regular_part"),
    ("spatial", "equivalent"),
    ("spatial", "classify_regular"),
    ("spatial", "apply_transform"),
    ("spatial", "pgl2_reps"),
    ("spatial", "theorem2_catalog"),
    ("poly", "mobius_transform"),
    ("poly", "factor_prime_powers"),
    ("pencil", "kronecker_form"),
    ("pencil", "frobenius_form"),
    ("linalg", "rref"),
    ("linalg", "kernel_basis"),
    ("linalg", "inverse"),
    ("linalg", "char_poly"),
    ("cli", "main"),
]
# (module, class, method, counter): calls are counted, not timed
COUNTED = [
    ("poly", "Poly", "__init__", "poly.Poly.new"),
    ("linalg", "Matrix", "__init__", "linalg.Matrix.new"),
    ("linalg", "Matrix", "__matmul__", "linalg.Matrix.matmul.calls"),
    ("field", "FieldElem", "__init__", "field.FieldElem.new"),
]


def _rref_cells(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    return mat.m * mat.n


# extra counters taken from a spanned call's arguments
ARG_COUNTERS = {"linalg.rref": ("linalg.rref.cells", _rref_cells)}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name, fn):
        nid = self._intern(name)
        extra = ARG_COUNTERS.get(name)
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            rec._stack.append(idx)
            if extra is not None:
                rec.counts[extra[0]] += extra[1](args, kwargs)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec.end[idx] = clock()
                rec._stack.pop()

        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, gfc):
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "gfcanon" or k.startswith("gfcanon."))]
        for modname, fname in SPANNED:
            orig = getattr(getattr(gfc, modname), fname)
            wrapped = self._span_wrapper(f"{modname}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for modname, cls_name, meth, counter in COUNTED:
            cls = getattr(getattr(gfc, modname), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(counter, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- summaries ---------------------------------------------------------------

    def summarize(self, first=0, last=None):
        """Per-name totals over spans [first:last].

        Returns {name: {"calls", "s", "self_s"}} where "s" counts only the
        outermost span of a name (a nested call of the same name is inside
        it already) and "self_s" sums every span's own time.
        """
        last = len(self.start) if last is None else last
        child = [0.0] * last
        for i in range(first, last):
            par = self.parent[i]
            if par >= first:
                child[par] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(first, last):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            j = self.parent[i]
            while j >= first and self.name[j] != self.name[i]:
                j = self.parent[j]
            if j < first:
                row["s"] += dur
        return out
