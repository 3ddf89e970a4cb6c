"""In-memory span tracer for the per-layer metrics.

A :class:`Tracer` replaces library functions with wrappers that record one
span per call: name, start, end, parent span and task id.  Counts are taken
at the same boundaries.  Functions are replaced under every name a
``homoment`` module binds them to, because a caller looks a function up
under its own name (``geometry`` calls ``rank`` imported from ``exactla``);
methods are replaced on their class.  ``uninstall`` restores every binding,
so untraced batches run the unmodified library.
"""

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _cells(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _size(data):
    # a list is counted by length: converting 100k floats to an array
    # would add its own cost to the traced call
    return int(data.size) if hasattr(data, "size") else len(data)


# (metric prefix, module, attribute, extra counts from (args, kwargs, result))
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.read_csv_matrix", "cli", "read_csv_matrix",
     lambda a, kw, r: {"rows": len(r), "bytes": os.path.getsize(a[0])}),
    ("geometry.defect_report", "geometry", "defect_report", None),
    ("geometry.moment_map_jacobian", "geometry", "moment_map_jacobian",
     lambda a, kw, r: {"cells": _cells(r)}),
    ("exactla.rank", "exactla", "rank",
     lambda a, kw, r: {"cells": _cells(a[0])}),
    ("series.exp", "series", "exp", None),
    ("series.log", "series", "log", None),
    ("series.mul", "series", "TruncatedSeries.__mul__", None),
    ("models.homoscedastic_moments", "models", "homoscedastic_moments", None),
    ("models.sample_mixture", "models", "sample_mixture", None),
    ("ranktest.estimate_components_from_data", "ranktest",
     "estimate_components_from_data", None),
    ("ranktest.raw_moments", "ranktest", "raw_moments",
     lambda a, kw, r: {"values": _size(a[0])}),
    ("ranktest.bootstrap_minor_scales", "ranktest", "bootstrap_minor_scales",
     lambda a, kw, r: {"resamples": kw.get("n_boot", 32)}),
    ("ranktest.hankel_pencil", "ranktest", "hankel_pencil", None),
    ("ranktest.secant_membership", "ranktest", "secant_membership", None),
    ("ranktest.pencil_minor_values", "ranktest", "pencil_minor_values", None),
    # metric names must start with a letter, so ``_poly`` reports as ``poly``
    ("poly.det", "_poly", "det", None),
    ("poly.real_roots", "_poly", "real_roots", None),
    ("estimate.sample_cumulants", "estimate", "sample_cumulants", None),
    ("estimate.fit_two_gaussians", "estimate", "fit_two_gaussians", None),
    ("estimate.fit_univariate", "estimate", "fit_univariate", None),
)

EXTRA_COUNTS = ("cli.read_csv_matrix.rows", "cli.read_csv_matrix.bytes",
                "geometry.moment_map_jacobian.cells", "exactla.rank.cells",
                "ranktest.raw_moments.values",
                "ranktest.bootstrap_minor_scales.resamples")


def metric_names():
    """Every per-layer metric a traced batch reports, in a fixed order."""
    names = []
    for prefix, *_ in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s"]
    return names + list(EXTRA_COUNTS)


def metric_unit(key):
    if key.endswith((".s", "_s")):
        return "s"
    return "bytes" if key.endswith(".bytes") else "count"


class Tracer:
    """Spans and counts of one traced batch."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, task id]
        self.counts = Counter()
        self.task = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, func, extra):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.task]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.counts[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced

    def install(self, package):
        """Wrap every target of ``package`` (the imported ``homoment``)."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, module, attr, extra in TARGETS:
            owner = sys.modules[f"{package.__name__}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextmanager
    def task_span(self, task_id):
        """A root span ``task``; spans opened inside carry ``task_id``."""
        span = ["task", time.perf_counter(), None, None, task_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.task = task_id
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.task = None

    def summary(self):
        """Per-layer metrics: calls, inclusive and self seconds, counts."""
        inclusive = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_time = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - children[i]
        out = {}
        for prefix, *_ in TARGETS:
            out[f"{prefix}.calls"] = self.counts[f"{prefix}.calls"]
            out[f"{prefix}.s"] = inclusive[prefix]
            out[f"{prefix}.self_s"] = self_time[prefix]
        for key in EXTRA_COUNTS:
            out[key] = self.counts[key]
        return out
