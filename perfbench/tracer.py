"""Per-layer tracing of `regver` from outside the package.

`install()` wraps the public functions and the work-carrying methods of
every `regver` module in spans, and adds exact counts at a few layer
boundaries.  Nothing inside `src/regver` is edited: a wrapper replaces the
original object in every module that holds it, because `deligne` and
`logforms` bind names such as `wedge` with `from .forms import ...`.

A span records its inclusive time (outermost call only, so recursion is
not counted twice) and its self time (inclusive time minus the time of
the spans it directly encloses).  Each thread keeps its own stack, so the
threads of `regver all` are traced without locks on the hot path; the
per-thread tables are merged by `snapshot()`.

`canonicalize` and `Symbol.__hash__` run millions of times per pass and
are deliberately not wrapped: a span there would measure the tracer.
"""

from __future__ import annotations

import importlib
import inspect
import re
import threading
from time import perf_counter

LAYERS = ("forms", "deligne", "logforms", "residues", "matrices", "homology",
          "randomized", "combinatorics", "suites", "report", "cli")

# Private or dunder names that carry a layer's work and are wrapped anyway.
EXTRA = {
    "forms": ("_derivation",),
    "residues": ("_det",),
    "cli": ("_write",),
}
METHOD_EXTRA = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                "__pow__")
# Constructors that do a layer's work.
INIT_CLASSES = {"RationalHomology"}
# Called too often to span (see above).
SKIP_FUNCS = {"canonicalize"}
# Methods that are trivial accessors.
SKIP_METHODS = {"label", "rank", "diff", "mat", "face", "degeneracy",
                "exponent", "is_one", "column", "is_zero", "coeff", "degree",
                "basis_size", "coordinates", "blocks", "dim"}
SKIP_CLASSES = {"Symbol", "Report"}

# Span names that the benchmark reports; everything else only feeds the
# per-layer self times.
RENAME = {
    "forms.FormExpr.from_terms": "forms.from_terms",
    "forms._derivation": "forms.derivation",
    "deligne.deligne_product": "deligne.product",
    "deligne.deligne_diff": "deligne.diff",
    "matrices.smith_normal_form": "matrices.snf",
    "matrices.IntMatrix.__mul__": "matrices.mul",
    "homology.RationalHomology.__init__": "homology.rational_homology",
    "homology.verify_les_exactness": "homology.les",
}

_FAMILY = re.compile(r"(-[a-z]\d+)+$")


def suite_family(key: str) -> str:
    """`takeda-m3-i2` -> `takeda`; `homology-two-arrow` is unchanged."""
    return _FAMILY.sub("", key)


class _ThreadState:
    __slots__ = ("stack", "active", "table", "counts")

    def __init__(self):
        self.stack = []      # child-time accumulators of the open spans
        self.active = {}     # span name -> nesting depth
        self.table = {}      # span name -> [calls, inclusive_s, self_s]
        self.counts = {}     # count name -> int


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        with self._lock:
            for st in self._states:
                st.table.clear()
                st.counts.clear()

    def count(self, name: str, n: int = 1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def span(self, name: str, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            active = st.active
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                active[name] = depth
                rec = st.table.get(name)
                if rec is None:
                    rec = st.table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth:
                    rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def snapshot(self) -> tuple[dict, dict]:
        """Merged ({span: [calls, inclusive_s, self_s]}, {count: n})."""
        table, counts = {}, {}
        with self._lock:
            for st in self._states:
                for name, (c, inc, slf) in st.table.items():
                    rec = table.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += c
                    rec[1] += inc
                    rec[2] += slf
                for name, n in st.counts.items():
                    counts[name] = counts.get(name, 0) + n
        return table, counts


def _counted(tracer: Tracer, name: str, fn):
    """Special wrappers that add exact work counts before spanning."""
    count = tracer.count
    if name == "forms.from_terms":
        def from_terms(cls, pairs):
            if not isinstance(pairs, (list, tuple)):
                pairs = list(pairs)
            out = fn(cls, pairs)
            count("forms.from_terms.pairs_in", len(pairs))
            count("forms.from_terms.monomials_out", len(out.terms))
            return out
        return from_terms
    if name == "matrices.mul":
        def mul(a, b):
            count("matrices.mul.madds", a.rows * a.cols * b.cols)
            return fn(a, b)
        return mul
    if name == "matrices.frac_rref":
        def frac_rref(a):
            count("matrices.frac_rref.cells", len(a) * (len(a[0]) if a else 0))
            return fn(a)
        return frac_rref
    if name == "deligne.signed_permutations":
        def signed_permutations(items):
            for item in fn(items):
                count("deligne.permutations")
                yield item
        return signed_permutations
    if name == "cli._write":
        def _write(text, out=None):
            count("cli.report_bytes", len(text.encode("utf-8")))
            return fn(text, out)
        return _write
    if name == "cli.suite_plan":
        def suite_plan(level):
            return [(key, tracer.span("suite." + suite_family(key), f))
                    for key, f in fn(level)]
        return suite_plan
    return fn


# Functions that are counted but not spanned: generators (a span would
# close before the work is consumed) and the report writer.
COUNT_ONLY = {"deligne.signed_permutations", "cli._write"}


def _targets(mod, layer):
    """(qualified name, owner, attribute, function) for one module."""
    extra = EXTRA.get(layer, ())
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            public = not attr.startswith("_") or attr in extra
            if public and attr not in SKIP_FUNCS:
                yield f"{layer}.{attr}", mod, attr, obj
        elif inspect.isclass(obj) and attr not in SKIP_CLASSES:
            for mname, raw in list(vars(obj).items()):
                if mname in SKIP_METHODS:
                    continue
                wanted = (not mname.startswith("_") or mname in METHOD_EXTRA
                          or (mname == "__init__" and attr in INIT_CLASSES))
                if not wanted:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    inner = raw.__func__
                elif inspect.isfunction(raw):
                    inner = raw
                else:
                    continue
                yield f"{layer}.{attr}.{mname}", obj, mname, (raw, inner)


def install(tracer: Tracer) -> None:
    """Wrap every target in every module that holds it."""
    modules = {layer: importlib.import_module(f"regver.{layer}")
               for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for qual, owner, attr, obj in list(_targets(mod, layer)):
            name = RENAME.get(qual, qual)
            if isinstance(obj, tuple):  # method on a class
                raw, inner = obj
                wrapped = tracer.span(name, _counted(tracer, name, inner))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                continue
            inner = _counted(tracer, name, obj)
            wrapped = inner if name in COUNT_ONLY else tracer.span(name, inner)
            replaced[obj] = wrapped
    # rebind every module-level name that holds a wrapped function
    pkg = importlib.import_module("regver")
    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
