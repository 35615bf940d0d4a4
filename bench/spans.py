"""Layer-boundary tracing for the benchmark, from outside the library.

The benchmark never edits the library.  It replaces the layer functions
as they are bound in ``sinklap.experiments`` (the names the experiment
drivers call through) with wrappers, and restores them afterwards.  A
wrapper records one span per call: name, start, end, CPU time of the
calling thread, parent span and unit id.  Replicas run on pool threads,
so the parent stack is thread-local; a call on a thread with an empty
stack is a child of the unit span in progress.

The approx_sym_sk wrapper also keeps the scalars of every ScalingResult,
with or without spans, because the convergence check needs them.
"""

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# span name -> functions, as bound in sinklap.experiments
LAYERS = {
    "manifold.sample": ("sample_dataset", "embed_ambient"),
    "noise.add_noise": ("add_noise",),
    "kernel.build_affinity": ("build_affinity",),
    "sinkhorn.approx_sym_sk": ("approx_sym_sk",),
    "laplacian.scaled_affinity": ("bistochastic_affinity", "dm_affinity"),
    "laplacian.assembly": ("laplacian_from_affinity",),
    "laplacian.apply": ("apply_rescaled",),
    "laplacian.eigensolve": ("smallest_eigenpairs",),
    "experiments.align": ("align_pair",),
}
UNIT_SPAN = "experiments.unit"
SPAN_NAMES = (*LAYERS, UNIT_SPAN)

# counts the benchmark computes from the wrapped calls' results
COUNTS = (
    "sinkhorn.iterations",
    "sinkhorn.matvecs",
    "sinkhorn.unconverged",
    "sinkhorn.projection_hits",
    "sinkhorn.residual_max",
    "noise.outliers",
    "laplacian.dense_bytes",
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    unit: int
    thread: int


@dataclass
class Scaling:
    """The scalars of one ScalingResult."""

    unit: int
    iterations: int
    converged: bool
    projection_hits: int
    residual: float


class Recorder:
    """Wraps the layer functions of one ``sinklap.experiments`` module."""

    def __init__(self, experiments):
        self._module = experiments
        self._originals = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.unit = 0
        self._unit_sid = None
        self.spans = []
        self.scalings = []
        self.counts = defaultdict(lambda: defaultdict(float))

    def install(self, trace):
        """Wrap every layer function when trace is true, else approx_sym_sk only."""
        self.restore()
        for span, names in LAYERS.items():
            for name in names:
                if not trace and name != "approx_sym_sk":
                    continue
                fn = getattr(self._module, name, None)
                if fn is None:
                    continue
                self._originals[name] = fn
                setattr(self._module, name, self._wrap(span, fn, trace))

    def restore(self):
        for name, fn in self._originals.items():
            setattr(self._module, name, fn)
        self._originals.clear()

    def call_unit(self, unit, fn, trace):
        """Run one unit as the root span of its calls."""
        self.unit = unit
        if not trace:
            return fn()
        self._unit_sid = next(self._ids)
        try:
            return self._timed(UNIT_SPAN, self._unit_sid, None, fn)
        finally:
            self._unit_sid = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _timed(self, name, sid, parent, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(sid)
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1, t1 = time.thread_time(), time.perf_counter()
            stack.pop()
            span = Span(sid, name, t0, t1, c1 - c0, parent, self.unit, threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def _wrap(self, span, fn, trace):
        def wrapper(*args, **kwargs):
            if trace:
                stack = self._stack()
                parent = stack[-1] if stack else self._unit_sid
                result = self._timed(span, next(self._ids), parent, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            self._observe(span, result, trace)
            return result

        return wrapper

    def _observe(self, span, result, trace):
        if span == "sinkhorn.approx_sym_sk":
            scaling = Scaling(
                unit=self.unit,
                iterations=int(result.iterations),
                converged=bool(result.converged),
                projection_hits=int(result.projection_hits),
                residual=float(result.residual_history[-1]),
            )
            with self._lock:
                self.scalings.append(scaling)
        if not trace:
            return
        found = {}
        if span == "noise.add_noise" and result.outlier_flags is not None:
            found["noise.outliers"] = int(np.count_nonzero(result.outlier_flags))
        mat = getattr(result, "matrix", None)
        if isinstance(mat, np.ndarray) and mat.ndim == 2 and mat.shape[0] == mat.shape[1]:
            found["laplacian.dense_bytes"] = mat.nbytes
        with self._lock:
            for key, value in found.items():
                self.counts[self.unit][key] += value


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Self wall time and self wait time of each span, keyed by span id.

    Self time is the span's duration minus the part of it that its
    children cover; children on replica threads may overlap, so the
    covered part is the union of their intervals.  Self wait is self
    time minus the CPU time the span's own thread spent outside its
    same-thread children, floored at zero.  For a leaf span both reduce
    to duration and duration minus thread CPU time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        kids = children[span.sid]
        wall = (span.end - span.start) - union_length((k.start, k.end) for k in kids)
        cpu = span.cpu - sum(k.cpu for k in kids if k.thread == span.thread)
        out[span.sid] = (wall, max(wall - cpu, 0.0))
    return out


def layer_metrics(spans, scalings, counts, timed_units, scored_units):
    """Per-layer metrics, each per unit.

    Times average over every timed unit; counts are taken over the
    scored units only, a set fixed by the seed, so they repeat exactly.
    sinkhorn.residual_max is the largest final residual of any scaling
    in the scored units.
    """
    timed, scored = set(timed_units), set(scored_units)
    own = self_times(spans)
    metrics = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s.name == name]
        self_s = sum(own[s.sid][0] for s in mine if s.unit in timed)
        wait_s = sum(own[s.sid][1] for s in mine if s.unit in timed)
        calls = sum(1 for s in mine if s.unit in scored)
        metrics[f"{name}.self_s"] = (self_s / len(timed), "s")
        metrics[f"{name}.calls"] = (calls / len(scored), "count")
        metrics[f"{name}.wait_s"] = (wait_s / len(timed), "s")
    runs = [s for s in scalings if s.unit in scored]
    iterations = sum(s.iterations for s in runs)
    converged = sum(s.converged for s in runs)
    per_unit = {
        "sinkhorn.iterations": iterations,
        "sinkhorn.matvecs": 2 * iterations - converged,
        "sinkhorn.unconverged": len(runs) - converged,
        "sinkhorn.projection_hits": sum(s.projection_hits for s in runs),
        "noise.outliers": sum(counts[u]["noise.outliers"] for u in scored),
        "laplacian.dense_bytes": sum(counts[u]["laplacian.dense_bytes"] for u in scored),
    }
    for key, total in per_unit.items():
        metrics[key] = (total / len(scored), "B" if key.endswith("bytes") else "count")
    metrics["sinkhorn.residual_max"] = (max((s.residual for s in runs), default=0.0), "1")
    return metrics
