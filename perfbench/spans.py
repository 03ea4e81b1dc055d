"""Span tracing of confmech from outside the package.

Tracer.install() replaces the public functions and methods listed below
with wrappers that record a span (name, start, end, parent) per call; it
rebinds a function under every confmech module name that holds it (cli and
fields both bind sample_annulus, for instance).  uninstall() puts the
originals back, so untimed and traced passes can alternate in one process.
A call nested in a span of the same name is not recorded again: the outer
span already covers it, and counts stay counts of calls into the layer.

Spans stay in memory until write() dumps them at the end of a run.
"""

import json
import os
import sys
import time
from collections import Counter, defaultdict

FUNCTIONS = {
    "fields": ["sample_annulus", "stress_field", "write_field_csv", "write_summary_json", "jump_check"],
    "conformal": ["is_conformal_at"],
    "convexity": ["lh_form", "rank_one_line_scan", "scan_rank_one_convexity", "ks_grid_scan"],
    "tensors": ["svd", "eig_sym"],
    "linearized": ["kernel_displacement", "quadratic_approx_error"],
    "gridplot": ["render_grid_svg"],
}
ENERGY_METHODS = ("value", "cauchy_stress", "second_form")


class Tracer:
    def __init__(self, cm):
        self.cm = cm
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._open = set()
        self._undo = []

    def _wrap(self, fn, name, after=None):
        spans, stack, is_open, clock = self.spans, self._stack, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            if span in is_open:
                return fn(*args, **kwargs)
            is_open.add(span)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                is_open.discard(span)
                spans[index] = (span, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _rebind_function(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "confmech" and not modname.startswith("confmech."):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        cm = self.cm
        counts = self.counts

        def sampled(args, result):
            counts["fields.sample_annulus.points"] += len(result)

        def written(args, result):
            counts["fields.write_field_csv.bytes"] += os.path.getsize(args[0])

        after = {"sample_annulus": sampled, "write_field_csv": written}
        for layer, names in FUNCTIONS.items():
            mod = getattr(cm, layer)
            for fname in names:
                fn = getattr(mod, fname)
                self._rebind_function(fn, self._wrap(fn, "%s.%s" % (layer, fname), after.get(fname)))
        main = cm.cli.main
        self._rebind_function(main, self._wrap(main, lambda args: "cli.main." + args[0][0]))
        grad = cm.conformal.DeformationMap.gradient
        self._rebind_method(cm.conformal.DeformationMap, "gradient", self._wrap(grad, "conformal.gradient"))
        for cls in vars(cm.energies).values():
            if isinstance(cls, type) and issubclass(cls, cm.energies.EnergyModel):
                for attr in ENERGY_METHODS:
                    if attr in cls.__dict__:
                        wrapper = self._wrap(cls.__dict__[attr], "energies." + attr)
                        self._rebind_method(cls, attr, wrapper)
        lcg = cm.fields.Lcg64
        self._rebind_method(lcg, "next_uniform", self._count(lcg.next_uniform, "fields.sample_annulus.draws"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self):
        """Start a new measurement: clear the counters, return the next span index."""
        self.counts.clear()
        return len(self.spans)

    def metrics_since(self, lo):
        """Per-layer totals of the spans recorded since mark() returned lo.

        For each span name X: X.s (inclusive seconds), X.calls, and X.self_s
        (seconds not covered by child spans); plus the counters.
        """
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        # children are appended after their parent, so walking backwards sees them first
        for index in range(len(self.spans) - 1, lo - 1, -1):
            name, start, end, parent = self.spans[index]
            d = end - start
            total[name] += d
            own[name] += d - child.pop(index, 0.0)
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
        metrics = dict(self.counts)
        for name in total:
            metrics[name + ".s"] = total[name]
            metrics[name + ".self_s"] = own[name]
            metrics[name + ".calls"] = calls[name]
        return metrics

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["name", "start", "end", "parent"], spans=self.spans), fh)
