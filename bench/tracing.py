"""Spans around every public call into an eegid layer, for traced runs.

`Tracer.install()` replaces each public function of the six layer modules
(signal_io, dsp, features, reduction, svm, pipeline) with a wrapper at
every place the package binds it: its own module, the other layer modules
that imported it, and the `eegid` package namespace. Calls from the
benchmark and calls between layers are therefore both recorded, with the
caller's span as parent. `uninstall()` puts the original functions back,
so an untraced run executes the library untouched.

A span records its name, layer, start, end, parent span, request id, the
kernel kind when the call took a KernelSpec, and exact counts taken from
the call's arguments and result (windows, support-vector rows, kernel
evaluations, file bytes, SMO steps through the public `step_hook`).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("signal_io", "dsp", "features", "reduction", "svm", "pipeline")

# Called once per window or per channel-window from inside
# features.extract_feature_matrix, whose span already holds their time;
# a span each would be ~10^5 spans per enroll job.
PER_WINDOW = frozenset({
    "extract_feature_vector", "channel_features", "rms", "std_dev",
    "skewness", "kurtosis", "hjorth", "shannon_entropy", "periodogram",
    "spectral_entropy", "band_power",
})


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "request",
                 "tag", "counts")

    def __init__(self, id, name, layer, start, parent, request, tag):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.tag = tag
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def step(self, alpha, b) -> None:
        """step_hook target: one successful SMO pair update."""
        self.counts["smo_steps"] = self.counts.get("smo_steps", 0) + 1

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "request": self.request, "tag": self.tag,
                "counts": self.counts}


def _file_bytes(path) -> int:
    return os.path.getsize(path)


class _SvStats:
    """Support-vector counts per multiclass model, computed once per model."""

    def __init__(self):
        self._seen = {}  # id -> (model, rows, unique); holding the model pins its id

    def __call__(self, model) -> tuple[int, int]:
        hit = self._seen.get(id(model))
        if hit is None:
            stacked = np.vstack([m.support_vectors for m in model.machines])
            hit = (model, stacked.shape[0], np.unique(stacked, axis=0).shape[0])
            self._seen[id(model)] = hit
        return hit[1], hit[2]


def _probes(sv_stats: _SvStats) -> dict:
    """Exact counts read from a call's arguments and result, by span name."""
    from eegid.features import N_FEATURES

    def predict(args, kwargs, result):
        model = args[0]
        rows, unique = sv_stats(model)
        n = np.atleast_2d(np.asarray(args[1])).shape[0]
        return {"sv_rows": rows, "sv_unique": unique, "kernel_evals": n * rows}

    def extract(args, kwargs, result):
        X = result[0]
        return {"windows": X.shape[0],
                "channel_windows": X.shape[0] * (X.shape[1] // N_FEATURES)}

    return {
        # the recording files inside count their own bytes_read
        "signal_io.load_dataset": lambda a, k, r: {
            "dataset_bytes": sum(_file_bytes(e.path) for d in os.scandir(a[0])
                                 if d.is_dir() for e in os.scandir(d.path))},
        "signal_io.load_recording_csv": lambda a, k, r: {
            "bytes_read": _file_bytes(a[0])},
        "dsp.segment_windows": lambda a, k, r: {"windows": len(r)},
        "features.extract_feature_matrix": extract,
        "features.load_feature_table": lambda a, k, r: {
            "bytes_read": _file_bytes(a[0])},
        "reduction.fit_pca": lambda a, k, r: {"n_components": r.n_components},
        "reduction.pca_transform": lambda a, k, r: {
            "n_components": a[0].n_components},
        "svm.predict_batch": predict,
        "pipeline.save_model": lambda a, k, r: {"model_bytes": _file_bytes(a[1])},
        "pipeline.load_model": lambda a, k, r: {"model_bytes": _file_bytes(a[0])},
    }


def _kernel_kind(args, kwargs) -> str | None:
    for value in (*args, *kwargs.values()):
        if type(value).__name__ == "KernelSpec":
            return value.kind
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self.active = False
        self._stack: list[Span] = []
        self._bindings = None
        self._probes = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str, tag: str | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent,
                    self.request, tag)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        probe = self._probes.get(qual)
        takes_hook = "step_hook" in inspect.signature(fn).parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(qual, layer, _kernel_kind(args, kwargs))
            if takes_hook and kwargs.get("step_hook") is None:
                kwargs["step_hook"] = span.step
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if probe is not None:
                span.counts.update(probe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Bind the wrappers in place of the library's public functions."""
        if self.active:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = self._build()
        for ns, name, fn, wrapped in self._bindings:
            ns[name] = wrapped
        self.active = True

    def uninstall(self) -> None:
        for ns, name, fn, wrapped in self._bindings or ():
            ns[name] = fn
        self.active = False

    def _build(self) -> list[tuple[dict, str, object, object]]:
        import eegid

        self._probes = _probes(_SvStats())
        modules = {layer: importlib.import_module(f"eegid.{layer}")
                   for layer in LAYERS}
        namespaces = [vars(eegid)] + [vars(m) for m in modules.values()]
        bindings = []
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in PER_WINDOW):
                    wrapped = self._wrap(layer, name, fn)
                    bindings += [(ns, name, fn, wrapped) for ns in namespaces
                                 if ns.get(name) is fn]
        return bindings


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Execution is single-threaded, so children of one span never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - child_time[s.id] for s in spans]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that are unclosed, or not inside their parent in time and request."""
    errors = []
    for s in spans:
        if s.end is None:
            errors.append(f"span {s.id} {s.name} never closed")
            continue
        if s.end < s.start:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = spans[s.parent]
        if p.end is None or s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.name} lies outside parent {p.name}")
        if s.request != p.request:
            errors.append(f"span {s.id} {s.name} has another request id than {p.name}")
    return errors


def roots(spans: list[Span], name: str) -> set[int]:
    """Ids of every span whose outermost ancestor is named `name`."""
    top = [None] * len(spans)
    for s in spans:  # parents are opened, hence listed, before children
        top[s.id] = s.id if s.parent is None else top[s.parent]
    return {s.id for s in spans if spans[top[s.id]].name == name}


def per_layer(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one run's spans: name -> (value, unit).

    Times are per operation (summed over the spans under `bench.op` roots,
    divided by the number of such roots), except the two set-up loaders,
    which are per set-up. Counts come from the first traced operation
    alone, so that they repeat exactly between runs of one seed.
    """
    st = self_times(spans)
    ops = [s.id for s in spans if s.name == "bench.op"]
    setups = [s.id for s in spans if s.name == "bench.setup"]
    in_op = [spans[i] for i in sorted(roots(spans, "bench.op"))]
    in_setup = [spans[i] for i in sorted(roots(spans, "bench.setup"))]
    first_request = spans[ops[0]].request if ops else None
    in_first = [s for s in in_op if s.request == first_request]
    n_ops = max(len(ops), 1)

    def seconds(name, pool=in_op, n=n_ops):
        return sum(s.duration for s in pool if s.name == name) / n

    def count(key, name=None, agg=sum):
        return agg([s.counts.get(key, 0) for s in in_first
                    if name is None or s.name == name] or [0])

    def rate(numerator, name):
        busy = sum(s.duration for s in in_first if s.name == name)
        return numerator / busy if busy > 0 else 0.0

    m = {f"{layer}.self_s": (sum(st[s.id] for s in in_op if s.layer == layer) / n_ops, "s")
         for layer in LAYERS}
    m["signal_io.load_dataset_s"] = (seconds("signal_io.load_dataset"), "s")
    m["signal_io.load_dataset_mb_per_s"] = (
        rate(count("dataset_bytes") / 1e6, "signal_io.load_dataset"), "MB/s")
    m["signal_io.load_recording_s"] = (seconds("signal_io.load_recording_csv"), "s")
    m["signal_io.bytes_read"] = (count("bytes_read", "signal_io.load_recording_csv"), "bytes")
    m["dsp.filter_s"] = (seconds("dsp.apply_filter"), "s")
    m["dsp.asr_calibrate_s"] = (seconds("dsp.asr_calibrate"), "s")
    m["dsp.asr_clean_s"] = (seconds("dsp.asr_clean"), "s")
    m["dsp.segment_s"] = (seconds("dsp.segment_windows"), "s")
    m["dsp.windows"] = (count("windows", "dsp.segment_windows"), "count")
    m["features.extract_s"] = (seconds("features.extract_feature_matrix"), "s")
    m["features.windows_per_s"] = (
        rate(count("windows", "features.extract_feature_matrix"),
             "features.extract_feature_matrix"), "1/s")
    m["features.channel_windows"] = (count("channel_windows"), "count")
    m["features.load_table_s"] = (
        seconds("features.load_feature_table", in_setup, max(len(setups), 1)), "s")
    m["reduction.standardize_s"] = (seconds("reduction.fit_standardizer"), "s")
    m["reduction.pca_fit_s"] = (seconds("reduction.fit_pca"), "s")
    m["reduction.transform_s"] = (seconds("reduction.pca_transform")
                                  + seconds("reduction.Standardizer.transform"), "s")
    m["reduction.n_components"] = (count("n_components", agg=max), "count")
    fits = [s for s in in_op if s.name == "svm.train_multiclass"]
    m["svm.fit_s"] = (sum(s.duration for s in fits) / n_ops, "s")
    for kind in ("linear", "poly", "rbf"):
        m[f"svm.fit_s.{kind}"] = (
            sum(s.duration for s in fits if s.tag == kind) / n_ops, "s")
    pairs = sorted(s.duration for s in in_op if s.name == "svm.train_binary_smo")
    m["svm.pair_fit_s_p50"] = (float(np.median(pairs)) if pairs else 0.0, "s")
    m["svm.pair_fit_s_max"] = (pairs[-1] if pairs else 0.0, "s")
    m["svm.smo_steps"] = (count("smo_steps"), "count")
    m["svm.predict_s"] = (seconds("svm.predict_batch"), "s")
    m["svm.sv_rows"] = (count("sv_rows"), "count")
    m["svm.sv_unique"] = (count("sv_unique"), "count")
    m["svm.kernel_evals"] = (count("kernel_evals"), "count")
    m["pipeline.save_model_s"] = (seconds("pipeline.save_model"), "s")
    m["pipeline.load_model_s"] = (
        seconds("pipeline.load_model", in_setup, max(len(setups), 1)), "s")
    m["pipeline.model_bytes"] = (
        max([s.counts.get("model_bytes", 0) for s in spans] or [0]), "bytes")
    m["pipeline.identify_s"] = (seconds("pipeline.identify"), "s")
    m["pipeline.identify_overhead_s"] = (
        sum(st[s.id] for s in in_op if s.name == "pipeline.identify") / n_ops, "s")
    m["trace.spans_per_op"] = (len(in_op) / n_ops, "count")
    return m
