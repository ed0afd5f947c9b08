"""Spans and counters recorded around calls into the cmwild layers.

The benchmark does not change the program: it rebinds the program's public
names to recording wrappers for the traced passes and restores the
originals afterwards.  Most public names are imported by value (``from
.groebner import buchberger``), so wrapping only the defining module would
miss the calls made through the importing modules.  Every module of the
package that holds the same function object is therefore rebound, and a
function can be split by caller: its span name then carries the importing
module's role (``groebner.buchberger.ideal`` for the calls made from
``rings``).  Methods are wrapped once, on their class.

A span is (item, name, start, end, parent index).  Spans stay in memory
until the run ends; a layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "cmwild"
MODULES = (
    "poly", "rings", "groebner", "modules", "resolution", "wildness",
    "matalg", "family", "cli",
)

# Caller roles for the functions split by importing module.
BUCHBERGER_CALLERS = {"rings": "ideal", "modules": "module", "groebner": "tagged"}
REGULAR_CALLERS = {"wildness": "wildness", "family": "family"}

# (outcome key, fragment of the returned reason); "undecided" otherwise
CONJUGACY_REASONS = (
    ("identical", "identical action matrices"),
    ("identical", "both modules are zero"),
    ("invariants", "dimensions differ"),
    ("invariants", "rank invariants differ"),
    ("no_hom", "no nonzero homomorphisms"),
    ("sampling", "found by sampling"),
    ("exhaustive", "exhaustive"),
)
INDECOMPOSABILITY_REASONS = (
    ("field", "is the ground field"),
    ("trace_form", "Frobenius-fixed"),
    ("trace_form", "quotient of the endomorphism algebra is a field"),
    ("noncommutative", "noncommutative"),
    ("exhaustive", "exhaustive"),
)


def outcome_keys(table) -> tuple:
    return tuple(dict.fromkeys(key for key, _ in table)) + ("undecided",)


def _counts_decisions(table):
    def count(st, res, args):
        key = "undecided"
        if res["verdict"] != "Undecided":
            key = next((k for k, frag in table if frag in res.get("reason", "")), key)
        st["decided_by." + key] += 1

    return count


# ----------------------------------------------------------- counters
#
# Each takes (stats of the span name, result, call args) and runs after the
# span has closed, so its cost lands in the parent's self time, not here.


def _count_basis(st, res, args):
    st["basis_size"] += len(res)


def _count_accepted(st, res, args):
    st["accepted"] += bool(res)


def _count_resolution(st, res, args):
    st["total_rank"] += sum(f.rank for f in res.frees)


def _count_rref(st, res, args):
    A = args[0]
    st["cells"] += A.size
    st["nnz"] += int(np.count_nonzero(A))
    st["rank_sum"] += len(res[1])


def _count_intertwiner(st, res, args):
    pairs = args[0]
    n, m = pairs[0][0].shape[0], pairs[0][1].shape[0]
    st["system_cells"] += len(pairs) * (m * n) ** 2


# (defining module, function name, caller roles or None, counter or None)
FUNCTIONS = (
    ("groebner", "buchberger", BUCHBERGER_CALLERS, _count_basis),
    ("groebner", "module_numerator", None, None),
    ("groebner", "standard_terms", None, None),
    ("wildness", "verify_regular_element", REGULAR_CALLERS, _count_accepted),
    ("wildness", "find_regular_sequence", None, None),
    ("wildness", "artinian_reduction", None, None),
    ("resolution", "minimal_resolution", None, _count_resolution),
    ("resolution", "comparison_map", None, None),
    ("resolution", "koszul_complex", None, None),
    ("matalg", "rref", None, _count_rref),
    ("matalg", "nullspace", None, None),
    ("matalg", "mat_mul", None, None),
    ("matalg", "is_invertible", None, None),
    ("matalg", "intertwiner_basis", None, _count_intertwiner),
    ("matalg", "simultaneous_conjugacy", None, _counts_decisions(CONJUGACY_REASONS)),
    ("matalg", "endomorphism_indecomposability", None,
     _counts_decisions(INDECOMPOSABILITY_REASONS)),
    ("family", "action_matrices", None, None),
    ("family", "verify_shift_embedding", None, None),
    ("family", "verify_resolution_shape", None, None),
    ("cli", "main", None, None),
)

# (module, class, method, span name)
METHODS = (
    ("groebner", "TaggedBasis", "__init__", "groebner.TaggedBasis"),
    ("groebner", "GroebnerBasis", "normal_form", "groebner.GroebnerBasis.normal_form"),
    ("rings", "QuotientRing", "extend", "rings.QuotientRing.extend"),
    ("modules", "ModulePresentation", "quotient", "modules.ModulePresentation.quotient"),
    ("modules", "ModulePresentation", "reduce_mod", "modules.ModulePresentation.reduce_mod"),
    ("poly", "PolyRing", "parse", "poly.PolyRing.parse"),
)


class Tracer:
    """Span recorder shared by every wrapper of one benchmark run."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.spans: list = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_s = 0.0  # summed duration of spans without a parent
        self._stack: list = []
        # (namespace name, attribute, span name, namespace, original)
        self.bindings: list = []

    # -- recording

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]] = (tracer.item, name, t0, t1, parent)
                st = tracer.stats[name]
                st["calls"] += 1
                st["self_s"] += dur - frame[1]
                st["incl_s"] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s += dur
            if counter is not None:
                counter(st, res, args)
            return res

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- binding

    def install(self):
        """Rebind every bind point to a recording wrapper."""
        if self.bindings:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for home, fname, callers, counter in FUNCTIONS:
            original = getattr(namespaces[home], fname)
            for ns_name, ns in namespaces.items():
                if getattr(ns, fname, None) is not original:
                    continue
                name = f"{home}.{fname}"
                if callers is not None:
                    name += "." + callers.get(ns_name, ns_name)
                self._rebind(ns_name, ns, fname, original, name, counter)
        for home, cls_name, meth, name in METHODS:
            cls = getattr(namespaces[home], cls_name)
            self._rebind(f"{home}.{cls_name}", cls, meth, cls.__dict__[meth], name, None)

    def _rebind(self, ns_name, ns, attr, original, name, counter):
        self.bindings.append((ns_name, attr, name, ns, original))
        setattr(ns, attr, self.wrap(name, original, counter))

    def uninstall(self):
        for _ns_name, attr, _name, ns, original in reversed(self.bindings):
            setattr(ns, attr, original)
        self.bindings = []

    # -- output

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _namespaces() -> dict:
    out = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    out["package"] = importlib.import_module(PACKAGE)
    return out


def wrappers_installed() -> list:
    """Bind points that currently hold a benchmark wrapper (empty when the
    program runs untouched)."""
    found = []
    for ns_name, ns in _namespaces().items():
        for attr, value in vars(ns).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{ns_name}.{attr}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "__perfbench_original__"):
                        found.append(f"{ns_name}.{attr}.{meth}")
    return sorted(set(found))
