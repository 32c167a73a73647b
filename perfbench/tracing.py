"""Span tracing of quadland from outside the package.

`Tracer.install` rebinds every public function of every quadland module in
each module namespace that holds it (modules use `from .x import f`, so
patching the defining module alone would miss most call sites). It also
wraps the `__post_init__` of `StudentWeights` and `TeacherModel` and the
numpy kernels `linalg.{svd,eigh,eigvalsh,lstsq}`. `uninstall` restores
every original binding.

A span is `(id, parent, name, start, end, job, thread, extra)`. The parent
is the innermost open span on the same thread; a span opened on a worker
thread with nothing open there belongs to the job's `cli.main` span. Spans
stay in memory until `take()` hands them over at the end of a job list;
`layer_metrics` turns one list's spans into the metrics in `PER_LAYER`, and
`write_spans` writes them out.
"""

from __future__ import annotations

import inspect
import json
import itertools
import sys
import threading
import time

ROOT = "cli.main"

# Functions whose spans carry a count besides their duration, computed from
# the arguments or the result: `forward_batch` flops (2Nmd for X W^T, 3Nm for
# square, scale and sum), variates drawn, and descent iterations.
_EXTRA = {
    "model.forward_batch": lambda args, out: out.shape[0] * args[0].weights.shape[0]
    * (2 * args[0].weights.shape[1] + 3),
    "rng.open_uniform": lambda args, out: out.size,
    "optimize.gradient_descent": lambda args, out: out.iterations,
}

# (metric, unit). Time metrics are seconds per job list; `calls` and the
# other counts are per job list as well.
PER_LAYER = [
    ("model.forward_batch.calls", "count"),
    ("model.forward_batch.self_s", "s"),
    ("model.forward_batch.flops", "flop_computed"),
    ("model.gram.calls", "count"),
    ("model.numerical_rank.calls", "count"),
    ("model.StudentWeights.new.calls", "count"),
    ("model.StudentWeights.new.self_s", "s"),
    ("model.TeacherModel.new.calls", "count"),
    ("risk.empirical_risk.calls", "count"),
    ("risk.empirical_risk.busy_s", "s"),
    ("risk.empirical_gradient.calls", "count"),
    ("risk.empirical_gradient.busy_s", "s"),
    ("risk.population_risk_of.calls", "count"),
    ("risk.population_risk_of.busy_s", "s"),
    ("risk.population_gradient.calls", "count"),
    ("risk.population_gradient.busy_s", "s"),
    ("optimize.gradient_descent.busy_s", "s"),
    ("optimize.gradient_descent.self_s", "s"),
    ("optimize.iterations", "count"),
    ("optimize.step_accept_ratio", "ratio"),
    ("optimize.estimate_smoothness.calls", "count"),
    ("optimize.estimate_smoothness.busy_s", "s"),
    ("rng.stream.calls", "count"),
    ("rng.stream.self_s", "s"),
    ("rng.standard_normal.self_s", "s"),
    ("rng.open_uniform.self_s", "s"),
    ("rng.variates", "count"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.self_s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.lstsq.calls", "count"),
    ("landscape.energy_barrier.calls", "count"),
    ("landscape.energy_barrier.busy_s", "s"),
    ("landscape.teacher_sigma_min.calls", "count"),
    ("landscape.sample_rank_deficient.busy_s", "s"),
    ("landscape.certify_stationary_global.busy_s", "s"),
    ("landscape.worst_rank_deficient.busy_s", "s"),
    ("initialization.sample_teacher.calls", "count"),
    ("initialization.sample_teacher.busy_s", "s"),
    ("initialization.check_init_below_barrier.busy_s", "s"),
    ("initialization.wishart_spectrum_report.busy_s", "s"),
    ("geometry.tensorize.calls", "count"),
    ("geometry.tensorize.self_s", "s"),
    ("geometry.spans_symmetric.calls", "count"),
    ("geometry.spans_symmetric.self_s", "s"),
    ("geometry.recover_gram_discrepancy.busy_s", "s"),
    ("data.sample_dataset.busy_s", "s"),
    ("data.label_dataset.busy_s", "s"),
    ("io.write_jsonl.self_s", "s"),
    ("io.write_matrix.self_s", "s"),
    ("io.write_json.self_s", "s"),
    ("io.write_manifest.self_s", "s"),
    ("io.bytes_written", "B"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.thread_overlap", "ratio"),
]

LAYERS = ("model", "risk", "optimize", "rng", "linalg", "landscape",
          "initialization", "geometry", "data", "io", "cli")
PER_LAYER += [(f"{layer}.self_s", "s") for layer in LAYERS]

# Risk evaluations that count against accepted steps in step_accept_ratio.
_RISK_EVALS = ("risk.empirical_risk", "risk.population_risk_of")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None  # id of the open cli.main span
        self._spans: list = []
        self._patched: list = []
        self.job = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        extra = _EXTRA.get(name)
        clock, ids, local, spans = time.perf_counter, self._ids, self._local, self._spans
        is_root = name == ROOT

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    self._root = None
                count = extra(args, out) if extra is not None and out is not None else None
                spans.append((sid, parent, name, start, end, self.job,
                              threading.get_ident(), count))

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self._spans)
        self._spans.clear()
        return out

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap quadland's public functions, its two weight dataclasses'
        `__post_init__`, and the numpy linear-algebra kernels it calls."""
        import numpy as np

        modules = [mod for _, mod in sorted(_submodules(package))]
        wrappers = {}
        for mod in modules:
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap(f"{_layer(mod.__name__)}.{fname}", fn)
        for mod in [package] + modules:
            for fname, fn in list(vars(mod).items()):
                if id(fn) in wrappers:
                    self._patch(mod, fname, wrappers[id(fn)])
        model = package.model
        for cls in (model.StudentWeights, model.TeacherModel):
            self._patch(cls, "__post_init__",
                        self.wrap(f"model.{cls.__name__}.new", cls.__post_init__))
        for kernel, name in (("svd", "svd"), ("eigh", "eigh"),
                             ("eigvalsh", "eigh"), ("lstsq", "lstsq")):
            self._patch(np.linalg, kernel,
                        self.wrap(f"linalg.{name}", getattr(np.linalg, kernel)))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def write_spans(path, spans) -> None:
    """One JSON object per span, in the order the spans ended."""
    fields = ("id", "parent", "name", "start", "end", "job", "thread", "count")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _submodules(package):
    prefix = package.__name__ + "."
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None]


# --------------------------------------------------------------------------
# arithmetic on spans
# --------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span. Children on two threads may overlap each other,
    which a plain sum of child durations would count twice."""
    children: dict = {}
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        kids = children.get(sid)
        if kids:
            clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
            out[sid] = (end - start) - union_length(clipped)
        else:
            out[sid] = end - start
    return out


def layer_metrics(spans, bytes_written: int = 0) -> dict:
    """Per-layer metrics for the spans of one job list (see PER_LAYER)."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    busy_s: dict = {}
    extra: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    risk_evals_in_descent = 0
    worker_spans: dict = {}
    root_threads = {s[0]: s[6] for s in spans if s[2] == ROOT}

    for sid, parent, name, start, end, job, thread, count in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[sid]
        if count is not None:
            extra[name] = extra.get(name, 0) + count
        ancestors = _ancestor_names(by_id, parent)
        if name not in ancestors:
            busy_s[name] = busy_s.get(name, 0.0) + (end - start)
        if name in _RISK_EVALS and "optimize.gradient_descent" in ancestors:
            risk_evals_in_descent += 1
        if parent in root_threads and thread != root_threads[parent]:
            worker_spans.setdefault(parent, []).append((start, end))

    metrics = {}
    for metric, _unit in PER_LAYER:
        fn, _, field = metric.rpartition(".")
        if field == "calls":
            metrics[metric] = calls.get(fn, 0)
        elif field == "self_s" and fn in LAYERS:
            metrics[metric] = layer_self.get(fn, 0.0)
        elif field == "self_s":
            metrics[metric] = self_s.get(fn, 0.0)
        elif field == "busy_s":
            metrics[metric] = busy_s.get(fn, 0.0)
    metrics["model.forward_batch.flops"] = extra.get("model.forward_batch", 0)
    metrics["rng.variates"] = extra.get("rng.open_uniform", 0)
    iterations = extra.get("optimize.gradient_descent", 0)
    metrics["optimize.iterations"] = iterations
    metrics["optimize.step_accept_ratio"] = (
        iterations / risk_evals_in_descent if risk_evals_in_descent else 0.0
    )
    metrics["io.bytes_written"] = bytes_written
    busy = sum(e - s for group in worker_spans.values() for s, e in group)
    covered = sum(union_length(group) for group in worker_spans.values())
    metrics["cli.thread_overlap"] = busy / covered if covered > 0 else 0.0
    return metrics


def _ancestor_names(by_id, parent) -> set:
    names = set()
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            break
        names.add(span[2])
        parent = span[1]
    return names
