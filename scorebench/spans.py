"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the module attributes through which scorecd's own
modules call each other with timing wrappers; `uninstall()` puts the
originals back.  Patching a module attribute reaches every caller that looks
the name up on the module at call time (`eigen.leading_eigs(...)`), so names
imported with `from x import y` are patched where they are bound: the
experiment harness calls `scorecd.experiments.remove_isolated`, not
`scorecd.graph.remove_isolated`.

Each wrapper opens a span on a stack.  A layer's busy time sums its outermost
spans; its self time is each span's duration minus the time its direct child
spans cover.  Counts are read from the objects the wrapped calls return.
"""

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "experiments", "pipeline", "dcbm", "graph", "eigen", "embed",
          "cluster", "metrics")

# sub-operations reported with their own busy time and call count
OPS = ("cluster.d1", "cluster.dN", "cluster.threshold", "eigen.adj",
       "eigen.norm", "dcbm.sample", "graph.load", "graph.labels", "graph.prep")

# counters summed over calls (per op in the report); eigen.failures and
# eigen.resid_ratio_max are reported as a total and a maximum
COUNTS = ("cluster.restarts", "cluster.lloyd_iters", "dcbm.sample.edges",
          "graph.load.lines", "graph.prep.nodes_dropped", "embed.truncated")


def _kmeans_op(tracer, args, kwargs):
    points = np.asarray(args[0] if args else kwargs["points"])
    return "d1" if points.ndim == 1 or points.shape[1] == 1 else "dN"


def _eigen_op(tracer, args, kwargs):
    # npca_embed decomposes the degree-normalized operator from inside embed
    return "norm" if tracer.is_open("embed") else "adj"


def _kmeans_counts(tracer, args, result):
    tracer.counts["cluster.restarts"] += result.restarts_used
    tracer.counts["cluster.lloyd_iters"] += len(result.trace)


def _residuals(tracer, args, spectrum):
    ratio = max(p.residual / (spectrum.tol * max(1.0, abs(p.value)))
                for p in spectrum.pairs)
    tracer.resid_ratio_max = max(tracer.resid_ratio_max, ratio)


def _truncated(tracer, args, ratio):
    tracer.counts["embed.truncated"] += ratio.truncated_count


def _edges(tracer, args, g):
    tracer.counts["dcbm.sample.edges"] += g.num_edges


def _dropped(tracer, args, result):
    tracer.counts["graph.prep.nodes_dropped"] += args[0].n - result[0].n


def _lines(tracer, args, g):
    tracer.counts["graph.load.lines"] += tracer.line_count(args[0])


# (module, attribute, layer, op or op chooser, observer of the result)
HOOKS = (
    ("experiments", "run_experiment", "experiments", None, None),
    ("experiments", "remove_isolated", "graph", "prep", _dropped),
    ("dcbm", "sample_adjacency", "dcbm", "sample", _edges),
    ("dcbm", "permuted_theta", "dcbm", None, None),
    ("graph", "load_edge_list", "graph", "load", _lines),
    ("graph", "load_labels", "graph", "labels", None),
    ("graph", "giant_component", "graph", "prep", _dropped),
    ("eigen", "leading_eigs", "eigen", _eigen_op, _residuals),
    ("pipeline", "parse_method", "pipeline", None, None),
    ("pipeline", "run_method", "pipeline", None, None),
    ("embed", "score_ratio", "embed", None, _truncated),
    ("embed", "scoreq_embed", "embed", None, None),
    ("embed", "opca_embed", "embed", None, None),
    ("embed", "npca_embed", "embed", None, None),
    ("cluster", "kmeans", "cluster", _kmeans_op, _kmeans_counts),
    ("cluster", "threshold_classify", "cluster", "threshold", None),
    ("metrics", "hamming_error", "metrics", None, None),
    ("metrics", "summarize", "metrics", None, None),
)


class Tracer:
    """Span stack and per-layer totals for one traced pass."""

    def __init__(self):
        self.stack = []                   # open spans: [layer, op key, child s]
        self.busy = defaultdict(float)    # layer or op key -> outermost span s
        self.self_s = defaultdict(float)  # layer -> exclusive s
        self.calls = defaultdict(int)     # op key -> calls
        self.counts = defaultdict(int)
        self.failures = defaultdict(int)  # layer -> calls that raised
        self.resid_ratio_max = 0.0
        self._lines = {}
        self._saved = []

    def is_open(self, key):
        return any(key in (layer, op) for layer, op, _ in self.stack)

    def line_count(self, source):
        """Lines in the file behind an open handle (cached per path)."""
        path = getattr(source, "name", None)
        if not isinstance(path, str) or not os.path.exists(path):
            return 0
        stamp = (path, os.path.getsize(path), os.path.getmtime(path))
        if stamp not in self._lines:
            with open(path, "rb") as fh:
                self._lines[stamp] = sum(1 for _ in fh)
        return self._lines[stamp]

    def call(self, layer, op, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of `layer` (op key or None)."""
        outer = [self.is_open(layer), op is not None and self.is_open(op)]
        frame = [layer, op, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures[layer] += 1
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][2] += elapsed
            self.self_s[layer] += elapsed - frame[2]
            if not outer[0]:
                self.busy[layer] += elapsed
            if op is not None:
                self.calls[op] += 1
                if not outer[1]:
                    self.busy[op] += elapsed

    def _wrap(self, fn, layer, op, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = op(self, args, kwargs) if callable(op) else op
            key = key and f"{layer}.{key}"
            result = self.call(layer, key, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self):
        for mod_name, attr, layer, op, observe in HOOKS:
            module = importlib.import_module(f"scorecd.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, op, observe))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def report(self, ops, traced_s, untraced_s):
        """Per-layer metrics per op, plus how much of the wall time they cover."""
        per = 1.0 / ops
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.busy[layer] * per, "s/op")
            out[f"{layer}.self_s"] = (self.self_s[layer] * per, "s/op")
        for key in OPS:
            out[f"{key}.busy_s"] = (self.busy[key] * per, "s/op")
            out[f"{key}.calls"] = (self.calls[key] * per, "1/op")
        for key in COUNTS:
            out[key] = (self.counts[key] * per, "1/op")
        out["eigen.failures"] = (self.failures["eigen"], "count")
        out["eigen.resid_ratio_max"] = (self.resid_ratio_max, "ratio")
        out["trace.self_frac"] = (sum(self.self_s.values()) / traced_s, "frac")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        return out
