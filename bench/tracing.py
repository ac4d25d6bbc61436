"""Spans around the package's public functions, installed from outside.

A traced round wraps each function in ``TRACED`` with a span that records
which function ran, when it started and ended, and which span was open when
it was called.  The wrapper replaces the function in every loaded ``modcat``
module that holds a reference to it (``classify.py`` keeps its own
``solve_coboundary``, ``pointed.py`` its own ``combine``, and so on), so calls
between modules are caught as well as calls from the benchmark.  ``QZ``
constructions are only counted: a span per value would cost more than the
arithmetic it measures.

Spans are kept in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (layer, module, attribute); "Class.method" patches a method on its class
TRACED = [
    ("groups", "modcat.groups", "subgroups"),
    ("cohomology", "modcat.cohomology", "smith_normal_form"),
    ("cohomology", "modcat.cohomology", "solve_coboundary"),
    ("cohomology", "modcat.cohomology", "h2_representatives"),
    ("cochains", "modcat.cochains", "combine"),
    ("cochains", "modcat.cochains", "conjugate_cochain"),
    ("cochains", "modcat.cochains", "restrict"),
    ("cochains", "modcat.cochains", "coboundary"),
    ("pointed", "modcat.pointed", "big_omega"),
    ("pointed", "modcat.pointed", "validate_pair"),
    ("classify", "modcat.classify", "classify"),
    ("classify", "modcat.classify", "admissible_subgroups"),
    ("classify", "modcat.classify", "equivalent_pairs"),
    ("classify", "modcat.classify", "criterion_cochain"),
    ("classify", "modcat.classify", "ClassificationReport.verify"),
    ("cli", "modcat.cli", "main"),
]

LAYERS = ["groups", "cohomology", "cochains", "qz", "pointed", "classify", "cli"]

# per-layer metric -> (function, field); field is calls, s (inclusive) or self_s
FUNCTION_METRICS = {
    "groups.subgroups_s": ("subgroups", "s"),
    "cohomology.snf_calls": ("smith_normal_form", "calls"),
    "cohomology.snf_s": ("smith_normal_form", "s"),
    "cohomology.solve_calls": ("solve_coboundary", "calls"),
    "cohomology.solve_s": ("solve_coboundary", "s"),
    "cohomology.h2_s": ("h2_representatives", "s"),
    "cochains.combine_calls": ("combine", "calls"),
    "cochains.combine_s": ("combine", "s"),
    "cochains.conjugate_s": ("conjugate_cochain", "s"),
    "cochains.restrict_s": ("restrict", "s"),
    "cochains.coboundary_s": ("coboundary", "s"),
    "pointed.big_omega_calls": ("big_omega", "calls"),
    "pointed.big_omega_s": ("big_omega", "s"),
    "pointed.validate_pair_s": ("validate_pair", "s"),
    "classify.criterion_evals": ("criterion_cochain", "calls"),
    "classify.equiv_calls": ("equivalent_pairs", "calls"),
    "classify.admissible_s": ("admissible_subgroups", "s"),
    "classify.verify_s": ("ClassificationReport.verify", "s"),
    "cli.main_s": ("main", "self_s"),
}

# counts taken from arguments or results, not from span durations
COUNTERS = ["cohomology.snf_cells", "cohomology.solve_obstructed",
            "classify.equiv_found", "qz.values_made"]


def _resolve(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        owner = getattr(owner, cls)
        attr = meth
    return owner, attr


class Tracer:
    """Records spans while installed; ``round_metrics`` summarises a slice."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.fn_names = [attr for _, _, attr in TRACED]
        self.fn_layer = [LAYERS.index(layer) for layer, _, _ in TRACED]
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    def _wrap(self, fid, func):
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, self.clock
        name = self.fn_names[fid]

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if name == "smith_normal_form":
                counts["cohomology.snf_cells"] += args[1] * args[2]
            elif name == "solve_coboundary" and result is None:
                counts["cohomology.solve_obstructed"] += 1
            elif name == "equivalent_pairs" and result is not None:
                counts["classify.equiv_found"] += 1
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def install(self):
        """Wrap every traced function wherever a ``modcat`` module refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "modcat" or name.startswith("modcat.")]
        for fid, (_, module, attr) in enumerate(TRACED):
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapper = self._wrap(fid, original)
            if owner is sys.modules[module]:
                for mod in modules:
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._restore.append((mod, k, v))
                            setattr(mod, k, wrapper)
            else:
                self._restore.append((owner, key, original))
                setattr(owner, key, wrapper)
        from modcat.qz import QZ
        init = QZ.__init__
        counts = self.counts

        def counted_init(self_, num, den=1):
            counts["qz.values_made"] += 1
            init(self_, num, den)

        self._restore.append((QZ, "__init__", init))
        QZ.__init__ = counted_init

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def mark(self):
        """A position to slice spans and counters from."""
        return len(self.fn), dict(self.counts)

    def round_metrics(self, lo_mark, hi_mark):
        """Per-layer metrics for the spans and counts recorded between two marks."""
        (lo, counts0), (hi, counts1) = lo_mark, hi_mark
        nfn = len(TRACED)
        child = [0.0] * (hi - lo)
        masks = [0] * (hi - lo)
        calls = [0] * nfn
        incl = [0.0] * nfn
        self_s = [0.0] * nfn
        layer_calls = [0] * len(LAYERS)
        layer_total = [0.0] * len(LAYERS)
        layer_self = [0.0] * len(LAYERS)
        fn, parent, start, end, fn_layer = self.fn, self.parent, self.start, self.end, self.fn_layer
        for i in range(hi - 1, lo - 1, -1):  # children come after their parents
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        for i in range(lo, hi):
            f = fn[i]
            layer = fn_layer[f]
            dur = end[i] - start[i]
            own = dur - child[i - lo]
            p = parent[i]
            mask = 0
            if p >= lo:
                mask = masks[p - lo] | (1 << fn_layer[fn[p]])
            masks[i - lo] = mask
            calls[f] += 1
            incl[f] += dur
            self_s[f] += own
            layer_calls[layer] += 1
            layer_self[layer] += own
            if not mask & (1 << layer):
                layer_total[layer] += dur
        by_name = {name: (calls[k], incl[k], self_s[k]) for k, name in enumerate(self.fn_names)}
        out = {}
        for metric, (name, field) in FUNCTION_METRICS.items():
            c, s, own = by_name[name]
            out[metric] = {"calls": c, "s": s, "self_s": own}[field]
        for key in COUNTERS:
            out[key] = counts1[key] - counts0[key]
        for k, layer in enumerate(LAYERS):
            if layer == "qz":
                continue
            out[f"{layer}.calls"] = layer_calls[k]
            out[f"{layer}.total_s"] = layer_total[k]
            out[f"{layer}.self_s"] = layer_self[k]
        out["trace.spans"] = hi - lo
        return out

    def write(self, path):
        """All spans as gzipped JSON: function names, then [fn, parent, start, end] rows."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [[self.fn[i], self.parent[i], round(self.start[i] - t0, 9),
                  round(self.end[i] - t0, 9)] for i in range(len(self.fn))]
        with gzip.open(path, "wt") as fh:
            json.dump({"functions": [f"{layer}:{attr}" for layer, _, attr in TRACED],
                       "columns": ["function", "parent", "start_s", "end_s"],
                       "spans": spans}, fh, separators=(",", ":"))
